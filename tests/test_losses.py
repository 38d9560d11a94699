import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copseudo.errors import ConfigError
from copseudo.fusion import SOURCE_BOTH, SOURCE_NONE, SOURCE_OWN, FusionDecision
from copseudo.losses import (
    CadrInputs,
    ObjectiveConfig,
    cai_loss,
    cap_loss,
    supervised_loss,
)
from oracles import unlabeled_loss


def present(label, masks, source=SOURCE_BOTH):
    return FusionDecision(label, masks, source)


def absent(n=2):
    return FusionDecision(None, (0.0,) * n, SOURCE_NONE)


class TestObjectiveConfig:
    def test_defaults(self):
        cfg = ObjectiveConfig()
        assert cfg.lambda_u == 1.0
        assert cfg.mu == 7.0
        assert cfg.batch_size == 64
        assert cfg.unlabeled_batch_size == 448

    def test_mu_batch_product_must_be_integral(self):
        ObjectiveConfig(mu=3.5, batch_size=2)  # 7 items, fine
        with pytest.raises(ConfigError):
            ObjectiveConfig(mu=0.3, batch_size=5)  # 1.5 items
        with pytest.raises(ConfigError):
            ObjectiveConfig(mu=-1.0, batch_size=4)
        with pytest.raises(ConfigError):
            ObjectiveConfig(lambda_u=-0.5)
        with pytest.raises(ConfigError):
            ObjectiveConfig(batch_size=0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu_is_reported_without_its_product(self, mu):
        # mu * batch_size is checked only for a mu that passed its own check
        with pytest.raises(ConfigError, match="^invalid objective config: mu "
                                              "must be a positive finite real$"):
            ObjectiveConfig(mu=mu, batch_size=4)


    @pytest.mark.parametrize("mu", [1e308, 5e307])
    def test_product_beyond_the_float_range_is_reported(self, mu):
        # mu * batch_size overflows to inf, which round() cannot take
        with pytest.raises(ConfigError, match="^invalid objective config: mu "
                                              r"\* batch_size must be a "
                                              "positive integer$"):
            ObjectiveConfig(mu=mu, batch_size=4)


class TestSupervisedLoss:
    def test_perfect_predictions(self):
        probs = np.eye(3)[[0, 1, 2]]
        assert supervised_loss(probs, [0, 1, 2]) == 0.0

    def test_uniform_ten_classes(self):
        probs = np.full((4, 10), 0.1)
        assert supervised_loss(probs, [0, 3, 5, 9]) == pytest.approx(
            math.log(10), abs=1e-12)

    def test_hand_arithmetic_two_items(self):
        probs = np.array([[0.5, 0.3, 0.2], [0.25, 0.5, 0.25]])
        got = supervised_loss(probs, [0, 0])
        assert got == pytest.approx((math.log(2) + math.log(4)) / 2, abs=1e-12)
        assert got == pytest.approx(1.0397, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ConfigError):
            supervised_loss(np.zeros((0, 3)), [])
        with pytest.raises(ConfigError):
            supervised_loss(np.full((2, 3), 1 / 3), [0])
        with pytest.raises(ConfigError):
            supervised_loss(np.full((1, 3), 1 / 3), [3])


class TestUnlabeledLoss:
    def test_all_absent_gives_zero(self):
        probs = np.full((5, 3), 1 / 3)
        assert unlabeled_loss(probs, [absent()] * 5, 0) == 0.0

    def test_single_item_hand_value(self):
        probs = np.array([[0.5, 0.25, 0.25]])
        decisions = [present(0, (0.75, 1.0), SOURCE_OWN)]
        got = unlabeled_loss(probs, decisions, 0)
        assert got == pytest.approx(0.75 * math.log(2), abs=1e-12)
        assert got == pytest.approx(0.5199, abs=1e-4)

    def test_mask_indexing_per_model(self):
        probs = np.array([[0.5, 0.25, 0.25]])
        decisions = [present(0, (0.75, 1.0), SOURCE_OWN)]
        m0 = unlabeled_loss(probs, decisions, 0)
        m1 = unlabeled_loss(probs, decisions, 1)
        assert m1 == pytest.approx(math.log(2), abs=1e-12)
        assert m0 == pytest.approx(0.75 * m1, abs=1e-12)

    def test_perfect_strong_views_give_zero(self):
        probs = np.eye(3)[[1, 1]]
        decisions = [present(1, (1.0, 1.0))] * 2
        assert unlabeled_loss(probs, decisions, 0) == 0.0

    def test_normalizes_by_batch_length_not_present_count(self):
        probs = np.array([[0.5, 0.25, 0.25], [0.5, 0.25, 0.25]])
        decisions = [present(0, (1.0, 1.0)), absent()]
        got = unlabeled_loss(probs, decisions, 0)
        assert got == pytest.approx(math.log(2) / 2, abs=1e-12)

    @given(st.floats(0.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_linear_in_masks(self, alpha):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(3), size=6)
        base = [present(int(rng.integers(3)), (0.75, 1.0)) for _ in range(4)]
        base += [absent()] * 2
        scaled = [
            FusionDecision(d.pseudo_label,
                           tuple(alpha * m for m in d.masks), d.source)
            for d in base
        ]
        a = unlabeled_loss(probs, base, 0)
        b = unlabeled_loss(probs, scaled, 0)
        assert b == pytest.approx(alpha * a, rel=1e-12, abs=1e-12)

    def test_validation(self):
        probs = np.full((2, 3), 1 / 3)
        with pytest.raises(ConfigError):
            unlabeled_loss(probs, [absent()], 0)
        with pytest.raises(ConfigError):
            unlabeled_loss(np.zeros((0, 3)), [], 0)
        with pytest.raises(ConfigError):
            unlabeled_loss(probs, [present(0, (1.0, 1.0))] * 2, 5)


class TestCapLoss:
    def test_two_item_substitution(self):
        inputs = CadrInputs(
            missing=[0, 1], sup_losses=[0.5, 0.0], propensity=[0.5, 1.0],
            unsup_losses=[0.0, 0.0], confidence=[0.0, 0.0], threshold=[1.0, 1.0])
        assert cap_loss(inputs) == pytest.approx(0.5, abs=1e-15)

    def test_all_missing_gives_zero(self):
        inputs = CadrInputs(
            missing=[1, 1, 1], sup_losses=[9, 9, 9], propensity=[0, 0, 0],
            unsup_losses=[0, 0, 0], confidence=[0, 0, 0], threshold=[1, 1, 1])
        assert cap_loss(inputs) == 0.0

    def test_unit_propensity_is_plain_average(self):
        ls = np.array([0.2, 0.4, 0.0, 0.8])
        missing = np.array([0, 0, 1, 0])
        inputs = CadrInputs(
            missing=missing, sup_losses=ls, propensity=np.ones(4),
            unsup_losses=np.zeros(4), confidence=np.zeros(4),
            threshold=np.ones(4))
        assert cap_loss(inputs) == pytest.approx((0.2 + 0.4 + 0.8) / 4, abs=1e-15)

    def test_rejects_nonpositive_propensity_on_observed(self):
        inputs = CadrInputs(
            missing=[0, 1], sup_losses=[0.5, 0.0], propensity=[0.0, 1.0],
            unsup_losses=[0, 0], confidence=[0, 0], threshold=[1, 1])
        with pytest.raises(ConfigError):
            cap_loss(inputs)

    def test_five_item_hand_fixture(self):
        # hand arithmetic: (0.3/0.6 + 0.9/0.3 + 0.05/0.5) / 5
        inputs = CadrInputs(
            missing=[0, 1, 0, 1, 0],
            sup_losses=[0.3, 7.0, 0.9, 7.0, 0.05],
            propensity=[0.6, 1.0, 0.3, 1.0, 0.5],
            unsup_losses=np.zeros(5), confidence=np.zeros(5),
            threshold=np.ones(5))
        expected = (0.3 / 0.6 + 0.9 / 0.3 + 0.05 / 0.5) / 5
        assert cap_loss(inputs) == pytest.approx(expected, abs=1e-12)


class TestCaiLoss:
    def test_two_item_substitution(self):
        inputs = CadrInputs(
            missing=[1, 0], sup_losses=[0.0, 0.6], propensity=[1, 1],
            unsup_losses=[0.4, 0.0], confidence=[0.9, 0.0], threshold=[0.8, 1.0])
        assert cai_loss(inputs) == pytest.approx(0.5, abs=1e-15)

    def test_confidence_equal_to_threshold_excluded(self):
        inputs = CadrInputs(
            missing=[1], sup_losses=[0.0], propensity=[1.0],
            unsup_losses=[0.4], confidence=[0.8], threshold=[0.8])
        assert cai_loss(inputs) == 0.0

    def test_all_below_threshold_reduces_to_supervised(self):
        inputs = CadrInputs(
            missing=[1, 0, 1, 0], sup_losses=[0.0, 0.6, 0.0, 0.2],
            propensity=np.ones(4), unsup_losses=[0.4, 0.0, 0.9, 0.0],
            confidence=[0.1, 0.0, 0.5, 0.0], threshold=[0.8, 1.0, 0.8, 1.0])
        assert cai_loss(inputs) == pytest.approx((0.6 + 0.2) / 4, abs=1e-15)

    def test_five_item_hand_fixture(self):
        # items: gated-in unlabeled 0.4 and 0.25; observed 0.6 and 0.1;
        # one unlabeled gated out at equality
        inputs = CadrInputs(
            missing=[1, 1, 0, 0, 1],
            sup_losses=[0.0, 0.0, 0.6, 0.1, 0.0],
            propensity=np.ones(5),
            unsup_losses=[0.4, 0.25, 0.0, 0.0, 0.7],
            confidence=[0.9, 0.85, 0.0, 0.0, 0.8],
            threshold=[0.8, 0.8, 1.0, 1.0, 0.8])
        expected = (0.4 + 0.25 + 0.6 + 0.1) / 5
        assert cai_loss(inputs) == pytest.approx(expected, abs=1e-12)


class TestCadrInputsValidation:
    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            CadrInputs(missing=[0, 1], sup_losses=[0.5], propensity=[1, 1],
                       unsup_losses=[0, 0], confidence=[0, 0], threshold=[1, 1])

    def test_non_binary_missing(self):
        with pytest.raises(ConfigError):
            CadrInputs(missing=[0, 2], sup_losses=[0, 0], propensity=[1, 1],
                       unsup_losses=[0, 0], confidence=[0, 0], threshold=[1, 1])

    def test_empty(self):
        with pytest.raises(ConfigError):
            CadrInputs(missing=[], sup_losses=[], propensity=[],
                       unsup_losses=[], confidence=[], threshold=[])

