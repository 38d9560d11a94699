import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copseudo import fusion
from copseudo.errors import ConfigError
from copseudo.fusion import (
    SOURCE_BOTH,
    SOURCE_CONFLICT,
    SOURCE_CONSENSUS,
    SOURCE_NONE,
    SOURCE_OWN,
    SOURCES,
    FusedBatch,
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
    reference_debias_agreement,
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
        # a NaN compares False both ways, so only the finite check sees it
        with pytest.raises(ConfigError, match="must be finite"):
            FusionConfig(tau_cascade=(0.8, float("nan"), 0.9), num_models=4)

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
        for cascade in ((0.8, float("nan")), (0.8, float("nan"), 0.7)):
            # a NaN level would never propose
            with pytest.raises(ConfigError, match="^invalid fusion config: "
                               "cascade thresholds must be finite$"):
                FusionConfig(tau_cascade=cascade, num_models=len(cascade) + 1)
        with pytest.raises(ConfigError):
            FusionConfig(num_models=1)

    def test_needs_a_model(self):
        with pytest.raises(ConfigError, match="^invalid fusion config: "
                                              "num_models must be >= 1; "):
            FusionConfig(num_models=0)

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

    @pytest.mark.parametrize("model", [1, 2])
    def test_a_two_dimensional_row(self, model):
        rows = [(0.5, 0.3, 0.2), (0.5, 0.3, 0.2)]
        rows[model - 1] = [rows[model - 1]]
        with pytest.raises(ConfigError, match=f"^model {model} prediction is "
                                              "not a probability vector$"):
            fuse_pair(*rows, CFG, rng())

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

    def test_single_model_mode_fuses_each_model_alone(self, monkeypatch):
        gen = np.random.default_rng(7)
        probs = gen.dirichlet(np.full(3, 0.3), size=(3, 40))
        cfg = FusionConfig(tau=0.8, tau_cascade=(0.5, 0.4), num_models=3,
                           single_model_mode=True)
        built = []
        real = np.random.default_rng

        def recording(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(np.random, "default_rng", recording)
        fused = fuse_batch(probs, cfg, 1, 1)
        # one one-model block of (model, item) pairs, model-major: a
        # single model never ties, so no item builds a generator
        assert built == []
        assert isinstance(fused, FusedBatch)
        assert fused.masks.shape == (3 * 40, 1)
        for k, got in enumerate(fused):
            m, b = divmod(k, 40)
            assert got == fuse_single(probs[m, b], cfg)
        assert 0 < np.mean(fused.labels >= 0) < 1
        assert set(fused.source_models[fused.labels >= 0]) == {1}

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
        # first_invalid_row is the check fuse-trace makes on a dump before
        # fusing it: the first bad (item, model) row in item order
        probs = np.full((3, 6, 2), 0.5)
        assert fusion.first_invalid_row(probs) is None
        probs[0, 4] = (0.9, 0.6)   # item 4, model 1: sum
        probs[2, 3] = (0.7, 0.2)   # item 3, model 3: sum (first in item order)
        probs[1, 3] = (np.nan, 0.5)  # item 3, model 2: invalid, earlier model
        assert fusion.first_invalid_row(probs) == (
            3, 1, "is not a valid distribution")
        probs[1, 3] = 0.5
        assert fusion.first_invalid_row(probs) == (3, 2, "does not sum to 1")
        probs[2, 3] = (np.inf, -np.inf)
        assert fusion.first_invalid_row(probs) == (
            3, 2, "is not a valid distribution")
        probs[2, 3] = 0.5
        assert fusion.first_invalid_row(probs) == (4, 0, "does not sum to 1")
        cfg = cascade_cfg(3, (0.7, 0.5))
        with pytest.raises(ConfigError, match="3-model config"):
            fuse_batch(np.full((2, 6, 2), 0.5), cfg, 0, 1)

    @pytest.mark.parametrize("shape", [(2, 0, 0), (2, 3, 1), (2, 3, 0)],
                             ids=["2x0x0", "2x3x1", "2x3x0"])
    def test_a_block_of_fewer_than_two_classes_is_config_error(self, shape):
        # fusion needs two classes, with items or without
        probs = np.full(shape, 1.0)
        for cfg in (FusionConfig(), FusionConfig(single_model_mode=True)):
            with pytest.raises(
                    ConfigError,
                    match="^model 1 prediction is not a probability vector$"):
                fuse_batch(probs, cfg, 0, 1)

    @staticmethod
    def check_items(fused, probs, cfg, seed, step, items=None):
        """Each entry of ``fused`` against the oracle on its item, drawing
        from the item's own key; the levels of the items that drew."""
        assert len(fused) == probs.shape[1]
        drew = []
        for b, got in enumerate(fused):
            key = b if items is None else items[b]
            stream = CountingStream([seed, step, key])
            want = reference_cascade_decision(list(probs[:, b]), cfg, stream)
            assert got == want, (b, got, want)
            if stream.draws:
                drew.append(want.source_level or 1)
        return drew

    def test_engine_matches_oracle_at_five_levels(self):
        gen = np.random.default_rng(2025)
        tie_levels, decided_levels = set(), set()
        for conflict_drop in (False, True):
            for case in range(150):
                probs, cfg = self.random_case(gen, 5, conflict_drop)
                seed = int(gen.integers(2 ** 32))
                fused = fuse_batch(probs, cfg, seed, case)
                drew = self.check_items(fused, probs, cfg, seed, case)
                tie_levels |= {(conflict_drop, level) for level in drew}
                decided_levels |= set(fused.source_levels.tolist())
        # coin flips at levels 1 and 2 either way, and consensus at every
        # level of the five
        assert {(d, lv) for d in (False, True) for lv in (1, 2)} <= tie_levels
        assert decided_levels == {0, 2, 3, 4, 5}

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_engine_matches_oracle_on_blocks_of_zero_and_one_item(self, n):
        gen = np.random.default_rng(60 + n)
        drew = 0
        for conflict_drop in (False, True):
            for case in range(40):
                probs, cfg = self.random_case(gen, n, conflict_drop)
                seed = int(gen.integers(2 ** 32))
                empty = fuse_batch(probs[:, :0], cfg, seed, case)
                assert len(empty) == 0 and list(empty) == []
                assert empty.masks.shape == (0, n)
                for col, dtype in zip(empty._columns(), ("<i8", "<f8") + ("<i8",) * 3):
                    assert col.dtype == np.dtype(dtype)
                if n == 1:
                    continue  # single-model mode entries are (model, item) pairs
                # each item alone, keyed as in the whole block
                whole = fuse_batch(probs, cfg, seed, case)
                for b in range(probs.shape[1]):
                    one = fuse_batch(probs[:, b:b + 1], cfg, seed, case, items=[b])
                    drew += len(self.check_items(one, probs[:, b:b + 1], cfg,
                                                 seed, case, items=[b]))
                    for got, want in zip(one._columns(), whole._columns()):
                        assert got.tobytes() == want[b:b + 1].tobytes()
        assert n == 1 or drew > 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_generators_are_built_for_tied_items_in_item_order(self, n,
                                                                monkeypatch):
        gen = np.random.default_rng(30 + n)
        built = []
        real = np.random.default_rng

        def recording(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(np.random, "default_rng", recording)
        ties = 0
        later_tie_first = False
        for case in range(60):
            probs, cfg = self.random_case(gen, n, conflict_drop=case % 2 == 1)
            built.clear()
            fused = list(fuse_batch(probs, cfg, 9, case))
            got = list(built)
            drew = []
            for b in range(probs.shape[1]):
                stream = CountingStream([9, case, b])
                want = reference_cascade_decision(list(probs[:, b]), cfg, stream)
                assert fused[b] == want
                if stream.draws:
                    drew.append((b, want.source_level or 1))
            # one generator per tied item, keyed by it, in item order, even
            # where a tie at a higher level comes before one at level 1
            assert got == [([9, case, b],) for b, _ in drew], case
            ties += len(drew)
            levels = [level for _, level in drew]
            later_tie_first |= levels != sorted(levels)
        assert ties >= 10
        assert later_tie_first == (n == 4)

    def test_numpy_calls_do_not_grow_with_levels(self):
        def block(n):
            # every model shares class 0 as its argmax, so no item ties
            return -np.sort(-np.random.default_rng(n).dirichlet(
                np.full(4, 0.5), size=(n, 64)), axis=2)

        def config(n):
            if n == 1:
                return FusionConfig(tau=0.8, tau_cascade=(), num_models=1,
                                    single_model_mode=True)
            return cascade_cfg(n, np.linspace(0.6, 0.3, n - 1), tau=0.8)

        def calls(fn, *args):
            fn(*args)  # builds the cached level arrays and table
            count = [0]

            def profile(frame, event, arg):
                count[0] += event in ("call", "c_call")

            outer = sys.getprofile()
            sys.setprofile(profile)
            try:
                out = fn(*args)
            finally:
                sys.setprofile(outer)
            return count[0], out

        # the table path, n = 1..3
        table = set()
        for n in (1, 2, 3):
            count, fused = calls(fusion._fuse, block(n), config(n), None)
            assert 0 < np.mean(fused.labels >= 0)
            assert SOURCE_CONFLICT not in {d.source for d in fused}
            table.add(count)
        assert len(table) == 1

        # the level engine, which decides blocks of n >= 4
        def engine(n):
            probs, cfg = block(n), config(n)
            count, (proposals, ints, masks) = calls(
                fusion._decide, probs.argmax(axis=2), probs.max(axis=2),
                (cfg.tau,) + cfg.tau_cascade, cfg.pseudo_weight,
                cfg.conflict_drop)
            assert proposals.max() == 1
            # no item ties, so the engine builds one pick
            assert ints.shape == (4, 64) and masks.shape == (n, 64)
            return count

        assert len({engine(n) for n in (2, 3, 4, 5, 6)}) == 1

    def test_level_arrays_are_cached_and_read_only(self):
        cfg = cascade_cfg(3, (0.7, 0.5), tau=0.9)
        probs = np.random.default_rng(4).dirichlet(np.full(3, 0.2), size=(3, 64))
        first = fuse_batch(probs, cfg, 5, 2)
        arrays = fusion._levels((0.9, 0.7, 0.5))
        assert fusion._levels((0.9, 0.7, 0.5)) is arrays
        # the decision table the block was looked up in
        tables = fusion._table(3, cfg.pseudo_weight, cfg.conflict_drop, 1.0)
        assert fusion._table(3, cfg.pseudo_weight, cfg.conflict_drop,
                             1.0) is tables
        kept = [a.copy() for a in tables]
        for a in arrays + tables:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0
        # a caller who writes into a returned batch reaches neither the
        # tables nor the next call's result
        want = [col.copy() for col in first._columns()]
        for col in first._columns():
            col[...] = 3
        for a, copy in zip(tables, kept):
            assert a.tobytes() == copy.tobytes()
        again = fuse_batch(probs, cfg, 5, 2)
        for got, col in zip(again._columns(), want):
            assert got.dtype == col.dtype and got.tobytes() == col.tobytes()
        assert 0 < np.mean(again.labels >= 0) < 1

    @pytest.mark.parametrize("single", [False, True], ids=["pair", "single"])
    def test_items_must_name_every_item_of_the_block(self, single):
        # one item whose two models are confident about different classes,
        # so that it ties, and one that does not
        tie, calm = [[0.99, 0.01], [0.01, 0.99]], [[0.6, 0.4], [0.6, 0.4]]
        cfg = FusionConfig(single_model_mode=single)
        for block in ([tie, calm], [calm, tie]):
            probs = np.array(block).transpose(1, 0, 2)
            for items in ([7], [7, 8, 9], []):
                with pytest.raises(ConfigError,
                                   match=f"^got {len(items)} item ids for 2 items$"):
                    fuse_batch(probs, cfg, 0, 1, items=items)
            # single-model mode decides each of the 2 x 2 (model, item) pairs
            assert len(fuse_batch(probs, cfg, 0, 1, items=[7, 8])) == 2 + 2 * single


class PickStream:
    """Generator stand-in whose draw returns pick ``p``, clamped to the
    last of the ``k`` proposals it is asked to choose among."""

    def __init__(self, p):
        self.p, self.draws = p, []

    def integers(self, k):
        self.draws.append(int(k))
        return min(self.p, int(k) - 1)


class TestDecisionTable:
    """The table ``fuse_batch`` looks items up in for n <= 3 models, and
    the output of the level engine ``_decide`` that fills it and decides
    blocks of more models, against the per-item oracle for every pick."""

    THRESHOLDS = [(0.9,), (0.9, 0.6), (0.9, 0.7, 0.5), (0.9, 0.8, 0.8)]

    @staticmethod
    def config(thresholds, pseudo_weight, conflict_drop, models=None):
        n = len(thresholds)
        if n == 1:
            return FusionConfig(tau=thresholds[0], tau_cascade=(),
                                num_models=models or 1, single_model_mode=True,
                                pseudo_weight=pseudo_weight,
                                conflict_drop=conflict_drop)
        return cascade_cfg(n, thresholds[1:], tau=thresholds[0],
                           pseudo_weight=pseudo_weight,
                           conflict_drop=conflict_drop)

    @staticmethod
    def boundary_block(thresholds, num_classes=4):
        """Each model's peak at, just above or just below each threshold,
        or under them all, with every split of the models into argmax
        classes."""
        n = len(thresholds)
        values = sorted({0.3} | {v for t in thresholds for v in (
            np.nextafter(t, 0.0), t, np.nextafter(t, 1.0))})
        # restricted growth strings: model i's class is at most one more
        # than the largest before it
        splits = [c for c in itertools.product(range(n), repeat=n)
                  if all(c[i] <= max(c[:i], default=-1) + 1 for i in range(n))]
        columns = [[peaked_vector(num_classes, cls, v)
                    for v, cls in zip(vs, classes)]
                   for vs in itertools.product(values, repeat=n)
                   for classes in splits]
        return np.array(columns).transpose(1, 0, 2), len(splits)

    @pytest.mark.parametrize("thresholds", THRESHOLDS,
                             ids=["n1", "n2", "n3", "n3-equal"])
    def test_every_pattern_entry_is_the_engines_decision(self, thresholds):
        n = len(thresholds)
        probs, splits = self.boundary_block(thresholds)
        tops, peaks = probs.argmax(axis=2), probs.max(axis=2)
        labels = np.append(tops, np.full((1, tops.shape[1]), -1), axis=0)
        # each model's tier and each pair's shared argmax, counted here
        tiers = (peaks[:, :, None] > np.array(thresholds)).sum(axis=2)
        first, second = np.triu_indices(n, k=1)
        shares = tops[first] == tops[second]
        items = np.arange(probs.shape[1])
        tied = 0
        for pseudo_weight in (0.0, 0.75, 1.0):
            for conflict_drop in (False, True):
                cfg = self.config(thresholds, pseudo_weight, conflict_drop)
                tier_weights, pair_weights, pairs, counts, ints, masks = (
                    fusion._table(n, pseudo_weight, conflict_drop, 1.0))
                assert pairs.tolist() == [first.tolist(), second.tolist()]
                key = tier_weights @ tiers + pair_weights @ shares
                # every pattern these thresholds allow occurs
                assert len(set(key.tolist())) == (
                    (len(set(thresholds)) + 1) ** n * splits)
                # the pattern's entries are the engine's output on the items
                count, engine, engine_masks = fusion._decide(
                    tops, peaks, thresholds, pseudo_weight, conflict_drop)
                assert counts[key].tobytes() == count.tobytes()
                assert masks[:, key].tobytes() == engine_masks.tobytes()
                picks = (np.arange(n)[:, None] * len(counts) + key).ravel()
                assert ints[:, picks].tobytes() == engine.tobytes()
                assert ints.shape == (4, n * len(counts))
                assert ints.dtype == count.dtype == np.dtype("<i8")
                # and each (pattern, pick) entry is the oracle's decision
                # when the item's draw returns that pick
                for p in range(n):
                    chosen, sources, models, levels = ints[:, p * len(counts) + key]
                    got = FusedBatch(labels[chosen, items], masks[:, key].T,
                                     sources, models, levels)
                    for b, decision in enumerate(got):
                        stream = PickStream(p)
                        want = reference_cascade_decision(
                            list(probs[:, b]), cfg, stream)
                        assert decision == want, (p, b, decision, want)
                        assert stream.draws == (
                            [count[b]] if count[b] > 1 else [])
                tied += int(np.count_nonzero(count > 1))
                # and fuse_batch's keys, ties included, give the oracle's
                # decisions
                TestFuseBatchAgainstCascadeOracle.check_items(
                    fuse_batch(probs, cfg, 3, 4), probs, cfg, 3, 4)
        assert (tied > 0) == (n > 1)

    def test_a_negative_zero_weight_has_its_own_table(self):
        # -0.0 == 0.0, so a cache keyed by the weight alone would give one
        # of them the other's masks
        probs = np.array([[[0.99, 0.01], [0.6, 0.4]],
                          [[0.99, 0.01], [0.5, 0.5]]])
        for pseudo_weight in (0.0, -0.0, 0.0):
            cfg = FusionConfig(pseudo_weight=pseudo_weight)
            _, _, masks = fusion._decide(probs.argmax(axis=2), probs.max(axis=2),
                                         (0.95, 0.75), pseudo_weight, False)
            assert fuse_batch(probs, cfg, 0, 1).masks.tobytes() == (
                masks.T.tobytes())

    @staticmethod
    def tie_heavy_case(gen, n, case):
        """A random block of n models (1-3 in single-model mode when n is
        1) in which a third of the items tie at level 1, and its config."""
        num_classes = int(gen.integers(2, 6))
        batch = int(gen.integers(1, 40))
        models = int(gen.integers(1, 4)) if n == 1 else n
        probs = gen.dirichlet(np.full(num_classes, 0.3), size=(models, batch))
        thresholds = tuple(np.sort(gen.uniform(0.3, 0.95, size=n))[::-1])
        if n > 1 and gen.random() < 0.5:
            thresholds = thresholds[:2] + (thresholds[1],) * (n - 2)
        # two models confident about different classes tie at level 1
        for b in gen.choice(batch, size=batch // 3, replace=False):
            i, j = gen.choice(models, size=2, replace=models < 2)
            probs[i, b] = peaked_vector(num_classes, 0, 0.99)
            probs[j, b] = peaked_vector(num_classes, 1, 0.99)
        cfg = TestDecisionTable.config(thresholds, [0.0, 0.75, 1.0][case % 3],
                                       case % 2 == 1, models)
        return probs, thresholds, cfg

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fuse_batch_is_the_engine_with_ties_and_item_ids(self, n):
        gen = np.random.default_rng(80 + n)
        ties = 0
        for case in range(90):
            probs, _, cfg = self.tie_heavy_case(gen, n, case)
            batch, num_classes = probs.shape[1:]
            items = gen.permutation(10 * batch)[:batch]
            seed = int(gen.integers(2 ** 32))
            fused = fuse_batch(probs, cfg, seed, case, items=items)
            if n == 1:
                # one one-model block of (model, item) pairs, which never
                # tie, so no item id is drawn with
                probs, items = probs.reshape(1, -1, num_classes), None
            TestFuseBatchAgainstCascadeOracle.check_items(
                fused, probs, cfg, seed, case, items)
            ties += int(np.count_nonzero(fused.sources == SOURCES.index(
                SOURCE_CONFLICT)))
        assert (ties > 100) == (n > 1)

    def test_blocks_of_up_to_three_models_never_run_the_engine(self,
                                                               monkeypatch):
        runs = []
        engine = fusion._decide

        def spy(*args):
            runs.append(args[0].shape)
            return engine(*args)

        gen = np.random.default_rng(90)
        cases = [(n, case) + self.tie_heavy_case(gen, n, case)
                 for n in (1, 2, 3) for case in range(30)]
        for *_, cfg in cases:  # the tables are built and cached first
            fuse_batch(np.full((cfg.num_models, 1, 2), 0.5), cfg, 0, 0)
        monkeypatch.setattr(fusion, "_decide", spy)
        ties = 0
        for n, case, probs, _, cfg in cases:
            fused = fuse_batch(probs, cfg, 7, case)
            ties += int(np.count_nonzero(fused.sources == SOURCES.index(
                SOURCE_CONFLICT)))
        assert runs == [] and ties > 100
        # a block of four models runs it once, ties or not
        probs = np.array([[[0.99, 0.01]], [[0.01, 0.99]], [[0.5, 0.5]],
                          [[0.5, 0.5]]]).repeat(5, axis=1)
        fused = fuse_batch(probs, cascade_cfg(4, (0.8, 0.7, 0.6)), 7, 0)
        assert runs == [(4, 5)]
        assert set(fused.sources.tolist()) == {SOURCES.index(SOURCE_CONFLICT)}


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agreement_matches_pairwise_oracle_bit_for_bit(self, n):
        draw = np.random.default_rng(40 + n)
        for trial in range(150):
            items = int(draw.integers(1, 12))
            classes = int(draw.integers(2, 7))
            preds = draw.dirichlet(np.ones(classes), size=(n, items))
            if trial % 3 == 1:
                # two-decimal values a few hundredths apart: many gaps
                # land on epsilon itself
                steps = draw.integers(-2, 3, size=preds.shape) / 100
                preds = np.round(preds[0] + steps, 2)
            # tied rows: every model predicts the same for some items
            tied = draw.random(items) < 0.3
            preds[:, tied] = preds[0, tied]
            if trial % 5 == 0:
                preds[1:, :] = preds[0]
            sub = select_debias_subset(list(preds), epsilon=0.02)
            want = reference_debias_agreement(preds)
            assert sub.agreement.tobytes() == want.tobytes()
            tops = preds.argmax(axis=2)
            same = (tops == tops[0]).all(axis=0)
            np.testing.assert_array_equal(
                sub.selected, np.flatnonzero(same & (want <= 0.02 + 1e-12)))

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
