import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copseudo.errors import ConfigError
from copseudo.fusion import (
    SOURCE_BOTH,
    SOURCE_CONFLICT,
    SOURCE_CONSENSUS,
    SOURCE_NONE,
    SOURCE_OWN,
    SOURCES,
    FusionConfig,
    FusionDecision,
    fuse_batch,
    fuse_cascade,
    fuse_pair,
    fuse_single,
    select_debias_subset,
)
from oracles import (
    mask_ratio,
    peaked_vector,
    reference_cascade_decision,
    reference_pair_decision,
)

CFG = FusionConfig()  # tau=0.95, tau2=0.75, w=0.75


def rng(seed=0):
    return np.random.default_rng(seed)


@st.composite
def prob_vector(draw, num_classes=3):
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=num_classes,
                        max_size=num_classes))
    arr = np.asarray(raw)
    return arr / arr.sum()


class TestFusionConfig:
    def test_defaults(self):
        cfg = FusionConfig()
        assert cfg.tau == 0.95
        assert cfg.tau_cascade == (0.75,)
        assert cfg.pseudo_weight == 0.75
        assert cfg.num_models == 2
        assert not cfg.single_model_mode
        assert not cfg.conflict_drop

    def test_threshold_ordering(self):
        with pytest.raises(ConfigError):
            FusionConfig(tau=0.95, tau_cascade=(0.95,))  # tau2 must be < tau
        with pytest.raises(ConfigError):
            FusionConfig(tau_cascade=(0.7, 0.8), num_models=3)  # ascending
        FusionConfig(tau_cascade=(0.8, 0.8), num_models=3)  # equal is fine

    def test_cascade_length(self):
        with pytest.raises(ConfigError):
            FusionConfig(tau_cascade=(0.8, 0.7), num_models=2)
        with pytest.raises(ConfigError):
            FusionConfig(tau_cascade=(0.8,), num_models=3)

    def test_value_ranges(self):
        with pytest.raises(ConfigError):
            FusionConfig(tau=1.5)
        with pytest.raises(ConfigError):
            FusionConfig(pseudo_weight=-0.1)
        with pytest.raises(ConfigError):
            FusionConfig(tau_cascade=(0.0,))
        with pytest.raises(ConfigError):
            FusionConfig(num_models=1)

    def test_single_model_mode_relaxes_cascade(self):
        cfg = FusionConfig(num_models=1, single_model_mode=True)
        assert cfg.num_models == 1


class TestFusePairExamples:
    def test_both_confident_agree(self):
        d = fuse_pair((0.97, 0.02, 0.01), (0.96, 0.03, 0.01), CFG, rng())
        assert d == FusionDecision(0, (0.75, 0.75), SOURCE_BOTH)

    def test_own_confident(self):
        d = fuse_pair((0.97, 0.02, 0.01), (0.50, 0.45, 0.05), CFG, rng())
        assert d == FusionDecision(0, (0.75, 1.0), SOURCE_OWN, source_model=1)

    def test_consensus(self):
        d = fuse_pair((0.80, 0.15, 0.05), (0.78, 0.12, 0.10), CFG, rng())
        assert d == FusionDecision(0, (1.0, 1.0), SOURCE_CONSENSUS, source_level=2)

    def test_no_agreement(self):
        d = fuse_pair((0.80, 0.15, 0.05), (0.10, 0.78, 0.12), CFG, rng())
        assert d.pseudo_label is None
        assert d.masks == (0.0, 0.0)
        assert d.source == SOURCE_NONE

    def test_conflict_coin_flip_frequency(self):
        q1, q2 = (0.96, 0.02, 0.02), (0.01, 0.97, 0.02)
        zeros = 0
        for seed in range(10_000):
            d = fuse_pair(q1, q2, CFG, rng(seed))
            assert d.source == SOURCE_CONFLICT
            assert d.masks == (0.75, 0.75)
            assert d.pseudo_label in (0, 1)
            assert d.source_model in (1, 2)
            zeros += d.pseudo_label == 0
        assert abs(zeros / 10_000 - 0.5) < 0.02

    def test_own_confidence_outranks_consensus(self):
        # second model agrees at the consensus level, but the confident
        # model decides alone
        d = fuse_pair((0.97, 0.02, 0.01), (0.90, 0.05, 0.05), CFG, rng())
        assert d == FusionDecision(0, (0.75, 1.0), SOURCE_OWN, source_model=1)

    def test_second_model_own_confident(self):
        d = fuse_pair((0.50, 0.45, 0.05), (0.02, 0.97, 0.01), CFG, rng())
        assert d == FusionDecision(1, (1.0, 0.75), SOURCE_OWN, source_model=2)


class TestFusePairBoundaries:
    def test_peak_exactly_tau_is_not_confident(self):
        q = peaked_vector(3, 0, 0.95)
        d = fuse_pair(q, q, CFG, rng())
        # falls through to consensus, not own-confidence
        assert d.source == SOURCE_CONSENSUS
        assert d.masks == (1.0, 1.0)

    def test_peak_exactly_tau2_is_not_consensus(self):
        q = peaked_vector(3, 0, 0.75)
        d = fuse_pair(q, q, CFG, rng())
        assert d.pseudo_label is None
        assert d.source == SOURCE_NONE

    def test_just_above_boundaries(self):
        hi = peaked_vector(3, 0, 0.9500001)
        d = fuse_pair(hi, hi, CFG, rng())
        assert d.source == SOURCE_BOTH
        lo = peaked_vector(3, 0, 0.7500001)
        d = fuse_pair(lo, lo, CFG, rng())
        assert d.source == SOURCE_CONSENSUS


class TestFusePairFlags:
    def test_conflict_drop_zeroes_masks(self):
        cfg = FusionConfig(conflict_drop=True)
        d = fuse_pair((0.96, 0.02, 0.02), (0.01, 0.97, 0.02), cfg, rng(3))
        assert d.pseudo_label is None
        assert d.masks == (0.0, 0.0)
        assert d.source == SOURCE_CONFLICT
        assert d.source_model in (1, 2)

    def test_conflict_drop_leaves_other_branches_alone(self):
        cfg = FusionConfig(conflict_drop=True)
        d = fuse_pair((0.97, 0.02, 0.01), (0.96, 0.03, 0.01), cfg, rng())
        assert d == FusionDecision(0, (0.75, 0.75), SOURCE_BOTH)


class TestFusePairValidation:
    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            fuse_pair((0.5, 0.5), (0.4, 0.3, 0.3), CFG, rng())

    def test_invalid_distribution(self):
        with pytest.raises(ConfigError):
            fuse_pair((0.9, 0.6, 0.0), (0.5, 0.3, 0.2), CFG, rng())
        with pytest.raises(ConfigError):
            fuse_pair((0.9, np.nan, 0.1), (0.5, 0.3, 0.2), CFG, rng())

    def test_requires_two_model_config(self):
        cfg = FusionConfig(num_models=3, tau_cascade=(0.85, 0.75))
        with pytest.raises(ConfigError):
            fuse_pair((0.5, 0.5), (0.5, 0.5), cfg, rng())


class TestFusePairAgainstReferenceChain:
    def grid_peaks(self):
        return [0.34, 0.5, 0.74, 0.75, 0.7500001, 0.8,
                0.9, 0.9499999, 0.95, 0.9500001, 0.97, 1.0]

    def test_grid_agreement_with_reference(self):
        checked = 0
        for p1 in self.grid_peaks():
            for c1 in range(3):
                for p2 in self.grid_peaks():
                    for c2 in range(3):
                        q1 = peaked_vector(3, c1, p1)
                        q2 = peaked_vector(3, c2, p2)
                        seed = checked
                        got = fuse_pair(q1, q2, CFG, rng(seed))
                        label, masks = reference_pair_decision(
                            q1, q2, CFG.tau, 0.75, 0.75, rng(seed))
                        assert got.pseudo_label == label, (p1, c1, p2, c2)
                        assert got.masks == masks, (p1, c1, p2, c2)
                        checked += 1
        assert checked == 12 * 12 * 9

    @given(prob_vector(), prob_vector(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_random_agreement_with_reference(self, q1, q2, seed):
        got = fuse_pair(q1, q2, CFG, rng(seed))
        label, masks = reference_pair_decision(q1, q2, 0.95, 0.75, 0.75, rng(seed))
        assert got.pseudo_label == label
        assert got.masks == masks


class TestFusePairProperties:
    @given(prob_vector(), prob_vector())
    @settings(max_examples=200, deadline=None)
    def test_symmetry_outside_coin_flip(self, q1, q2):
        a = fuse_pair(q1, q2, CFG, rng())
        if a.source == SOURCE_CONFLICT:
            return
        b = fuse_pair(q2, q1, CFG, rng())
        assert b.pseudo_label == a.pseudo_label
        assert b.masks == a.masks[::-1]
        assert b.source == a.source
        if a.source_model is not None:
            assert b.source_model == 3 - a.source_model

    @given(prob_vector(), prob_vector(), st.floats(0.40, 0.75))
    @settings(max_examples=200, deadline=None)
    def test_lowering_consensus_threshold_never_drops_labels(self, q1, q2, tau2_low):
        base = fuse_pair(q1, q2, CFG, rng(1))
        low = fuse_pair(q1, q2, FusionConfig(tau_cascade=(tau2_low,)), rng(1))
        if base.pseudo_label is not None:
            assert low.pseudo_label is not None
        if base.source in (SOURCE_BOTH, SOURCE_CONFLICT, SOURCE_OWN):
            assert low.pseudo_label == base.pseudo_label
            assert low.source == base.source

    @given(prob_vector(), prob_vector())
    @settings(max_examples=200, deadline=None)
    def test_union_lower_bound_and_mask_codomain(self, q1, q2):
        d = fuse_pair(q1, q2, CFG, rng(2))
        if max(q1) > CFG.tau or max(q2) > CFG.tau:
            assert d.has_label
        assert all(m in (0.0, 1.0, 0.75) for m in d.masks)
        assert d.has_label == any(m > 0 for m in d.masks)
        if d.has_label:
            assert d.pseudo_label in (int(np.argmax(q1)), int(np.argmax(q2)))

    def test_determinism(self):
        q1, q2 = (0.96, 0.02, 0.02), (0.01, 0.97, 0.02)
        a = fuse_pair(q1, q2, CFG, rng(77))
        b = fuse_pair(q1, q2, CFG, rng(77))
        assert a == b


class TestFuseSingle:
    def test_confident_keeps_own_label(self):
        d = fuse_single((0.96, 0.02, 0.02), CFG)
        assert d == FusionDecision(0, (0.75,), SOURCE_OWN, source_model=1)

    def test_boundary_and_below(self):
        assert not fuse_single(peaked_vector(3, 1, 0.95), CFG).has_label
        assert not fuse_single((0.5, 0.3, 0.2), CFG).has_label

    @given(prob_vector())
    @settings(max_examples=150, deadline=None)
    def test_threshold_rule_matches_indicator(self, q):
        d = fuse_single(q, CFG)
        expected_mask = 0.75 * float(max(q) > 0.95)
        assert d.masks == (expected_mask,)
        if d.has_label:
            assert d.pseudo_label == int(np.argmax(q))


def cascade_cfg(n, taus, **kw):
    return FusionConfig(num_models=n, tau_cascade=tuple(taus), **kw)


class TestFuseCascadeReduction:
    PAIR_EXAMPLES = [
        ((0.97, 0.02, 0.01), (0.96, 0.03, 0.01)),
        ((0.97, 0.02, 0.01), (0.50, 0.45, 0.05)),
        ((0.80, 0.15, 0.05), (0.78, 0.12, 0.10)),
        ((0.80, 0.15, 0.05), (0.10, 0.78, 0.12)),
        ((0.96, 0.02, 0.02), (0.01, 0.97, 0.02)),
        ((0.97, 0.02, 0.01), (0.90, 0.05, 0.05)),
        ((0.50, 0.45, 0.05), (0.02, 0.97, 0.01)),
    ]

    def test_reduces_to_pair_on_worked_examples(self):
        for i, (q1, q2) in enumerate(self.PAIR_EXAMPLES):
            pair = fuse_pair(q1, q2, CFG, rng(i))
            casc = fuse_cascade([q1, q2], CFG, rng(i))
            assert casc == pair, (i, pair, casc)

    @given(prob_vector(), prob_vector(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_reduces_to_pair_on_random_inputs(self, q1, q2, seed):
        pair = fuse_pair(q1, q2, CFG, rng(seed))
        casc = fuse_cascade([q1, q2], CFG, rng(seed))
        assert casc == pair

    def test_reduction_holds_with_conflict_drop(self):
        cfg = FusionConfig(conflict_drop=True)
        q1, q2 = (0.96, 0.02, 0.02), (0.01, 0.97, 0.02)
        for seed in range(20):
            assert (fuse_cascade([q1, q2], cfg, rng(seed))
                    == fuse_pair(q1, q2, cfg, rng(seed)))


class TestFuseCascadeThreeModels:
    CFG3 = cascade_cfg(3, (0.85, 0.75))

    def test_level_two_consensus(self):
        qs = [(0.90, 0.05, 0.05), (0.88, 0.07, 0.05), (0.20, 0.40, 0.40)]
        d = fuse_cascade(qs, self.CFG3, rng())
        assert d == FusionDecision(0, (1.0, 1.0, 1.0), SOURCE_CONSENSUS,
                                   source_level=2)

    def test_single_confident_model_beats_lower_consensus(self):
        qs = [(0.96, 0.02, 0.02), (0.07, 0.86, 0.07), (0.07, 0.86, 0.07)]
        d = fuse_cascade(qs, self.CFG3, rng())
        assert d == FusionDecision(0, (0.75, 1.0, 1.0), SOURCE_OWN, source_model=1)

    def test_level_three_consensus(self):
        qs = [peaked_vector(3, 2, 0.80)] * 3
        d = fuse_cascade(qs, self.CFG3, rng())
        assert d == FusionDecision(2, (1.0, 1.0, 1.0), SOURCE_CONSENSUS,
                                   source_level=3)

    def test_no_level_fires(self):
        qs = [(0.70, 0.20, 0.10), (0.10, 0.70, 0.20), (0.20, 0.10, 0.70)]
        d = fuse_cascade(qs, self.CFG3, rng())
        assert d.pseudo_label is None
        assert d.masks == (0.0, 0.0, 0.0)
        assert d.source == SOURCE_NONE

    def test_two_confident_agreeing_models(self):
        qs = [(0.96, 0.02, 0.02), (0.97, 0.02, 0.01), (0.10, 0.80, 0.10)]
        d = fuse_cascade(qs, self.CFG3, rng())
        assert d == FusionDecision(0, (0.75, 0.75, 1.0), SOURCE_BOTH)

    def test_level_one_conflict_between_confident_models(self):
        qs = [(0.96, 0.02, 0.02), (0.01, 0.97, 0.02), (0.34, 0.33, 0.33)]
        zeros = 0
        for seed in range(4000):
            d = fuse_cascade(qs, self.CFG3, rng(seed))
            assert d.source == SOURCE_CONFLICT
            assert d.masks == (0.75, 0.75, 1.0)
            zeros += d.pseudo_label == 0
        assert abs(zeros / 4000 - 0.5) < 0.03

    def test_conflict_drop_blanks_level_one_tie(self):
        cfg = cascade_cfg(3, (0.85, 0.75), conflict_drop=True)
        qs = [(0.96, 0.02, 0.02), (0.01, 0.97, 0.02), (0.34, 0.33, 0.33)]
        d = fuse_cascade(qs, cfg, rng(5))
        assert d.pseudo_label is None
        assert d.masks == (0.0, 0.0, 0.0)
        assert d.source == SOURCE_CONFLICT


class TestFuseCascadeFourModels:
    CFG4 = cascade_cfg(4, (0.85, 0.75, 0.65))

    def test_disjoint_consensus_groups_resolve_uniformly(self):
        # models 1,2 agree on class 0; models 3,4 agree on class 1; both
        # groups clear the level-2 threshold and no model clears tau
        qs = [peaked_vector(3, 0, 0.88), peaked_vector(3, 0, 0.88),
              peaked_vector(3, 1, 0.87), peaked_vector(3, 1, 0.87)]
        zeros = 0
        for seed in range(10_000):
            d = fuse_cascade(qs, self.CFG4, rng(seed))
            assert d.source == SOURCE_CONSENSUS
            assert d.source_level == 2
            assert d.masks == (1.0, 1.0, 1.0, 1.0)
            assert d.pseudo_label in (0, 1)
            zeros += d.pseudo_label == 0
        assert abs(zeros / 10_000 - 0.5) < 0.02

    def test_bigger_group_wins_lower_level_first(self):
        # three models agree just above the level-3 threshold while two
        # models also agree above the level-2 threshold: level 2 wins
        qs = [peaked_vector(3, 0, 0.88), peaked_vector(3, 0, 0.88),
              peaked_vector(3, 1, 0.70), peaked_vector(3, 1, 0.70)]
        d = fuse_cascade(qs, self.CFG4, rng())
        assert d.pseudo_label == 0
        assert d.source_level == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            fuse_cascade([peaked_vector(3, 0, 0.9)] * 3, self.CFG4, rng())
        with pytest.raises(ConfigError):
            fuse_cascade([peaked_vector(3, 0, 0.9)], CFG, rng())


class CountingStream:
    """Generator stand-in that records the size of every draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def integers(self, k):
        self.draws.append(int(k))
        return self._rng.integers(k)


class TestFuseBatchAgainstCascadeOracle:
    """The array engine against the per-item oracle, item by item, with
    each item's draw keyed (fusion seed, step, item) on both sides."""

    def random_case(self, gen, n, conflict_drop):
        num_classes = int(gen.integers(2, 6))
        batch = int(gen.integers(8, 33))
        alpha = float(gen.choice([0.05, 0.3, 1.0, 3.0]))
        probs = gen.dirichlet(np.full(num_classes, alpha), size=(n, batch))
        # copy some rows across models so agreement, ties and exact
        # peak equalities occur
        for _ in range(batch):
            src, dst = gen.integers(n, size=2)
            b = gen.integers(batch)
            probs[dst, b] = probs[src, b]
        tau = float(gen.uniform(0.5, 0.99))
        cascade = np.sort(gen.uniform(0.2, tau, size=max(n - 1, 0)))[::-1]
        if n == 1:
            cfg = FusionConfig(tau=tau, tau_cascade=(), num_models=1,
                               single_model_mode=True,
                               pseudo_weight=float(gen.choice([0.75, 1.0])))
        else:
            cfg = cascade_cfg(n, cascade, tau=tau, conflict_drop=conflict_drop)
        return probs, cfg

    def test_engine_matches_oracle(self):
        gen = np.random.default_rng(2024)
        seen = set()
        checked = 0
        for n in (1, 2, 3, 4):
            for conflict_drop in (False, True):
                for case in range(120):
                    probs, cfg = self.random_case(gen, n, conflict_drop)
                    seed, step = int(gen.integers(2 ** 32)), case
                    fused = fuse_batch(probs, cfg, seed, step)
                    if cfg.single_model_mode:
                        (fused,) = fused
                    assert len(fused) == probs.shape[1]
                    for b, got in enumerate(fused):
                        stream = CountingStream([seed, step, b])
                        want = reference_cascade_decision(
                            list(probs[:, b]), cfg, stream)
                        assert got == want, (n, conflict_drop, case, b)
                        assert type(got.masks[0]) is float
                        if got.has_label:
                            assert type(got.pseudo_label) is int
                        if stream.draws:
                            level = want.source_level or 1
                            seen.add((n, level))
                        checked += 1
        assert checked > 10_000
        # the comparison covered both kinds of draw
        assert (4, 1) in seen and (4, 2) in seen

    def test_single_model_mode_fuses_each_model_alone(self):
        gen = np.random.default_rng(7)
        probs = gen.dirichlet(np.full(3, 0.3), size=(3, 40))
        cfg = FusionConfig(tau=0.8, tau_cascade=(0.5, 0.4), num_models=3,
                           single_model_mode=True)
        per_model = fuse_batch(probs, cfg, 1, 1)
        assert len(per_model) == 3
        for m, fused in enumerate(per_model):
            assert fused.masks.shape == (40, 1)
            for b, got in enumerate(fused):
                assert got == fuse_single(probs[m, b], cfg)

    def test_arrays_agree_with_item_view(self):
        gen = np.random.default_rng(3)
        probs = gen.dirichlet(np.full(3, 0.2), size=(3, 64))
        fused = fuse_batch(probs, cascade_cfg(3, (0.7, 0.5), tau=0.9), 5, 2)
        for b, d in enumerate(fused):
            assert fused.labels[b] == (-1 if d.pseudo_label is None
                                       else d.pseudo_label)
            assert fused.masks[b].tolist() == list(d.masks)
            assert SOURCES[fused.sources[b]] == d.source
            assert fused.source_models[b] == (d.source_model or 0)
            assert fused.source_levels[b] == (d.source_level or 0)

    def test_block_validation_names_first_bad_row_in_item_order(self):
        probs = np.full((3, 6, 2), 0.5)
        probs[0, 4] = (0.9, 0.6)   # item 4, model 1: sum
        probs[2, 3] = (0.7, 0.2)   # item 3, model 3: sum (first in item order)
        probs[1, 3] = (np.nan, 0.5)  # item 3, model 2: invalid, earlier model
        cfg = cascade_cfg(3, (0.7, 0.5))
        with pytest.raises(ConfigError,
                           match="^model 2 prediction is not a valid distribution$"):
            fuse_batch(probs, cfg, 0, 1)
        probs[1, 3] = 0.5
        with pytest.raises(ConfigError, match="^model 3 prediction does not sum to 1$"):
            fuse_batch(probs, cfg, 0, 1)
        with pytest.raises(ConfigError, match="3-model config"):
            fuse_batch(np.full((2, 6, 2), 0.5), cfg, 0, 1)
        # single-model mode checks the whole block too, so the message
        # names the model the bad row belongs to
        single = FusionConfig(num_models=3, single_model_mode=True)
        with pytest.raises(ConfigError, match="^model 3 prediction does not sum to 1$"):
            fuse_batch(probs, single, 0, 1)


class TestSelectDebiasSubset:
    def test_identical_predictions_all_selected(self):
        preds = np.random.default_rng(0).dirichlet(np.ones(4), size=6)
        sub = select_debias_subset([preds, preds.copy()], epsilon=0.0)
        np.testing.assert_array_equal(sub.selected, np.arange(6))
        np.testing.assert_array_equal(sub.agreement, 0.0)

    def test_tiny_difference_rejected_at_zero_epsilon(self):
        a = np.array([[0.7, 0.2, 0.1]])
        b = np.array([[0.7 + 1e-6, 0.2 - 1e-6, 0.1]])
        sub = select_debias_subset([a, b], epsilon=0.0)
        assert sub.selected.size == 0
        assert sub.agreement[0] == pytest.approx(1e-6)

    def test_hand_linf_fixture_inclusive_boundary(self):
        a = np.array([[0.6, 0.3, 0.1]])
        b = np.array([[0.5, 0.4, 0.1]])
        selected = select_debias_subset([a, b], epsilon=0.1)
        assert selected.selected.tolist() == [0]
        assert selected.agreement[0] == pytest.approx(0.1)
        rejected = select_debias_subset([a, b], epsilon=0.09)
        assert rejected.selected.size == 0

    def test_argmax_disagreement_rejects_despite_closeness(self):
        a = np.array([[0.51, 0.49]])
        b = np.array([[0.49, 0.51]])
        sub = select_debias_subset([a, b], epsilon=0.5)
        assert sub.selected.size == 0
        assert not sub.same_argmax[0]

    def test_statistic_computed_for_rejected_items(self):
        a = np.array([[0.9, 0.1, 0.0], [0.2, 0.7, 0.1]])
        b = np.array([[0.1, 0.9, 0.0], [0.2, 0.7, 0.1]])
        sub = select_debias_subset([a, b], epsilon=0.05)
        assert sub.agreement[0] == pytest.approx(0.8)
        assert sub.agreement[1] == 0.0
        assert sub.selected.tolist() == [1]

    def test_three_models_use_max_pairwise_distance(self):
        a = np.array([[0.60, 0.25, 0.15]])
        b = np.array([[0.55, 0.30, 0.15]])
        c = np.array([[0.45, 0.35, 0.20]])
        sub = select_debias_subset([a, b, c], epsilon=1.0)
        assert sub.agreement[0] == pytest.approx(0.15)  # a vs c dominates

    def test_validation(self):
        a = np.zeros((2, 3))
        with pytest.raises(ConfigError):
            select_debias_subset([a, np.zeros((3, 3))], epsilon=0.1)
        with pytest.raises(ConfigError):
            select_debias_subset([a, a], epsilon=-0.1)
        with pytest.raises(ConfigError):
            select_debias_subset([a], epsilon=0.1)


class TestMaskRatio:
    def decision(self, present):
        if present:
            return FusionDecision(0, (0.75, 0.75), SOURCE_BOTH)
        return FusionDecision(None, (0.0, 0.0), SOURCE_NONE)

    def test_extremes(self):
        assert mask_ratio([self.decision(False)] * 5) == 0.0
        assert mask_ratio([self.decision(True)] * 5) == 1.0

    def test_counting(self):
        ds = [self.decision(True)] * 3 + [self.decision(False)] * 5
        assert mask_ratio(ds) == 0.375

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            mask_ratio([])
