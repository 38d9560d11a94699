import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copseudo.data import SyntheticSpec, generate_synthetic
from copseudo.errors import ConfigError, DataError
from copseudo.predictor import (
    Gradients,
    ModelParams,
    ModelStack,
    add_scaled,
    init_model,
    load_checkpoint,
    loss_and_grad,
    predict_models,
    save_checkpoint,
)
from oracles import (
    fd_max_rel_error,
    reference_loss_and_grad,
    reference_opt,
    reference_predict_proba,
    reference_sgd_step,
    weighted_ce_loss,
    zero_gradients,
)


def zero_model(arch):
    params = init_model(arch, seed=0)
    return ModelParams(
        arch=params.arch,
        weights=tuple(np.zeros_like(w) for w in params.weights),
        biases=tuple(np.zeros_like(b) for b in params.biases),
    )


def with_output_bias(arch, bias):
    """Zero weights everywhere, chosen output bias: logits == bias for any input."""
    params = zero_model(arch)
    biases = list(params.biases)
    biases[-1] = np.asarray(bias, dtype=np.float64)
    return ModelParams(arch=params.arch, weights=params.weights, biases=tuple(biases))


def predict_proba(params, xs):
    """One model's (B, C) probabilities, from a stack of one."""
    return ModelStack([params]).predict_proba(xs)[0]


class TestInit:
    def test_parameter_counts(self):
        for arch, count in (((2, 32, 4), 228), ((3072, 64, 10), 197_322)):
            params = init_model(arch, seed=1)
            assert [w.shape for w in params.weights] == list(zip(arch, arch[1:]))
            assert [b.shape for b in params.biases] == [(o,) for o in arch[1:]]
            assert sum(t.size for t in params.weights + params.biases) == count

    def test_same_seed_bit_identical(self):
        a = init_model((2, 32, 4), seed=5)
        b = init_model((2, 32, 4), seed=5)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        c = init_model((2, 32, 4), seed=6)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_biases_zero_and_weights_bounded(self):
        params = init_model((9, 16, 3), seed=2)
        for b in params.biases:
            np.testing.assert_array_equal(b, 0.0)
        for w, fan_in in zip(params.weights, params.arch[:-1]):
            bound = 1.0 / math.sqrt(fan_in)
            assert np.abs(w).max() <= bound

    def test_invalid_architectures(self):
        with pytest.raises(ConfigError):
            init_model((), seed=0)
        with pytest.raises(ConfigError):
            init_model((4,), seed=0)
        with pytest.raises(ConfigError):
            init_model((4, 0, 2), seed=0)


class TestPredictProba:
    def test_zero_model_is_uniform(self):
        params = zero_model((3, 8, 5))
        probs = predict_proba(params, np.random.default_rng(0).random((6, 3)))
        np.testing.assert_allclose(probs, 0.2, rtol=0, atol=1e-15)

    def test_crafted_logits_match_scalar_softmax(self):
        # logits (10, 0, 0, 0); oracle worked out with plain math.exp
        params = with_output_bias((2, 32, 4), [10.0, 0.0, 0.0, 0.0])
        probs = predict_proba(params, np.array([[0.3, -0.7]]))
        top = math.exp(10.0) / (math.exp(10.0) + 3.0)
        rest = 1.0 / (math.exp(10.0) + 3.0)
        np.testing.assert_allclose(probs[0], [top, rest, rest, rest], rtol=1e-12)
        assert probs[0, 0] == pytest.approx(0.99986, abs=5e-6)

    def test_rows_sum_to_one(self):
        params = init_model((4, 16, 7), seed=9)
        xs = np.random.default_rng(1).standard_normal((40, 4))
        probs = predict_proba(params, xs)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        assert probs.min() >= 0.0

    def test_huge_logits_stay_finite(self):
        params = with_output_bias((2, 4, 3), [2000.0, -2000.0, 0.0])
        probs = predict_proba(params, np.zeros((2, 2)))
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert probs[0, 0] == 1.0

    def test_pure_function(self):
        params = init_model((3, 8, 2), seed=4)
        before = [w.copy() for w in params.weights]
        xs = np.random.default_rng(2).random((5, 3))
        a = predict_proba(params, xs)
        b = predict_proba(params, xs)
        np.testing.assert_array_equal(a, b)
        for w, keep in zip(params.weights, before):
            np.testing.assert_array_equal(w, keep)

    def test_input_validation(self):
        params = init_model((3, 8, 2), seed=4)
        with pytest.raises(ConfigError):
            predict_proba(params, np.zeros((2, 5)))
        bad = np.zeros((2, 3))
        bad[0, 0] = np.inf
        with pytest.raises(ConfigError):
            predict_proba(params, bad)
        with pytest.raises(ConfigError):
            predict_proba(params, np.zeros(3))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_probability_simplex_property(self, seed):
        rng = np.random.default_rng(seed)
        params = init_model((5, 6, 4), seed=seed)
        probs = predict_proba(params, rng.standard_normal((3, 5)) * 5)
        assert probs.min() >= 0 and probs.max() <= 1
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestLossAndGrad:
    def test_perfect_prediction_zero_loss_zero_grad(self):
        params = with_output_bias((2, 8, 4), [1000.0, 0.0, 0.0, 0.0])
        loss, grads = loss_and_grad(params, np.zeros((1, 2)), [0], [1.0])
        assert loss == 0.0
        for g in grads.weights + grads.biases:
            np.testing.assert_array_equal(g, 0.0)

    def test_uniform_predictor_gives_log_num_classes(self):
        params = zero_model((2, 8, 4))
        loss, _ = loss_and_grad(params, np.zeros((1, 2)), [2], [1.0])
        assert loss == pytest.approx(math.log(4), abs=1e-12)

    def test_loss_matches_probability_route(self):
        params = init_model((3, 10, 5), seed=8)
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((7, 3))
        targets = rng.integers(0, 5, size=7)
        weights = rng.random(7)
        loss, _ = loss_and_grad(params, xs, targets, weights)
        assert loss == pytest.approx(weighted_ce_loss(params, xs, targets, weights),
                                     rel=1e-12)

    def test_weight_doubling_doubles_everything(self):
        params = init_model((4, 6, 3), seed=11)
        rng = np.random.default_rng(4)
        xs = rng.standard_normal((5, 4))
        targets = rng.integers(0, 3, size=5)
        weights = rng.random(5)
        loss1, g1 = loss_and_grad(params, xs, targets, weights)
        loss2, g2 = loss_and_grad(params, xs, targets, 2.0 * weights)
        assert loss2 == pytest.approx(2.0 * loss1, rel=1e-14)
        for a, b in zip(g1.weights + g1.biases, g2.weights + g2.biases):
            np.testing.assert_array_equal(2.0 * a, b)

    def test_all_zero_weights_give_zero(self):
        params = init_model((4, 6, 3), seed=11)
        xs = np.random.default_rng(5).standard_normal((4, 4))
        loss, grads = loss_and_grad(params, xs, [0, 1, 2, 0], [0.0] * 4)
        assert loss == 0.0
        for g in grads.weights + grads.biases:
            np.testing.assert_array_equal(g, 0.0)

    def test_mean_over_batch(self):
        params = init_model((2, 5, 3), seed=12)
        xa, xb = np.array([[0.5, -1.0]]), np.array([[2.0, 0.1]])
        la, _ = loss_and_grad(params, xa, [1], [1.0])
        lb, _ = loss_and_grad(params, xb, [2], [1.0])
        both, _ = loss_and_grad(params, np.vstack([xa, xb]), [1, 2], [1.0, 1.0])
        assert both == pytest.approx((la + lb) / 2.0, rel=1e-14)

    def test_validation(self):
        params = init_model((2, 5, 3), seed=0)
        with pytest.raises(ConfigError):
            loss_and_grad(params, np.zeros((0, 2)), [], [])
        with pytest.raises(ConfigError):
            loss_and_grad(params, np.zeros((1, 2)), [3], [1.0])
        with pytest.raises(ConfigError):
            loss_and_grad(params, np.zeros((1, 2)), [0], [-0.5])
        with pytest.raises(ConfigError):
            loss_and_grad(params, np.zeros((2, 2)), [0], [1.0])
        with pytest.raises(ConfigError, match="non-negative finite"):
            loss_and_grad(params, np.zeros((1, 2)), [0], [np.nan])
        with pytest.raises(ConfigError, match="non-finite input features"):
            loss_and_grad(params, np.full((1, 2), np.inf), [0], [1.0])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(77)
        for trial in range(10):
            arch = (int(rng.integers(2, 5)), int(rng.integers(3, 9)),
                    int(rng.integers(2, 5)))
            params = init_model(arch, seed=int(rng.integers(1 << 31)))
            n = int(rng.integers(1, 6))
            xs = rng.standard_normal((n, arch[0]))
            targets = rng.integers(0, arch[-1], size=n)
            weights = rng.random(n) + 0.1
            _, grads = loss_and_grad(params, xs, targets, weights)
            err = fd_max_rel_error(params, grads, xs, targets, weights)
            assert err <= 1e-4, (trial, arch, err)

    def test_two_hidden_layer_gradients(self):
        rng = np.random.default_rng(13)
        params = init_model((3, 6, 5, 4), seed=99)
        xs = rng.standard_normal((4, 3))
        targets = rng.integers(0, 4, size=4)
        weights = rng.random(4) + 0.1
        _, grads = loss_and_grad(params, xs, targets, weights)
        assert fd_max_rel_error(params, grads, xs, targets, weights) <= 1e-4


class TestGradientAlgebra:
    def test_add_scaled(self):
        params = init_model((2, 3, 2), seed=1)
        _, g = loss_and_grad(params, np.ones((1, 2)), [0], [1.0])
        z = zero_gradients(params)
        combined = add_scaled(z, g, 0.5)
        for a, b in zip(combined.weights + combined.biases, g.weights + g.biases):
            np.testing.assert_allclose(a, 0.5 * b, rtol=0, atol=0)

    def test_add_scaled_is_linear(self):
        params = init_model((2, 3, 2), seed=1)
        _, g = loss_and_grad(params, np.ones((1, 2)), [0], [1.0])
        twice = add_scaled(g, g, 1.0)
        for a, b in zip(twice.weights + twice.biases, g.weights + g.biases):
            np.testing.assert_array_equal(a, 2.0 * b)


def scalar_stack(theta, momentum, wd):
    params = ModelParams(arch=(1, 1), weights=(np.array([[theta]]),),
                         biases=(np.zeros(1),))
    return ModelStack([params], momentum=momentum, weight_decay=wd)


def scalar_grad(value):
    return Gradients(weights=(np.array([[[value]]]),), biases=(np.zeros((1, 1)),))


class TestSgdStep:
    def test_plain_sgd_arithmetic(self):
        stack = scalar_stack(1.0, momentum=0.0, wd=0.0)
        stack.sgd_step(scalar_grad(2.0), 0.1)
        assert stack.weights[0][0, 0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_zero_gradient_keeps_params(self):
        stack = scalar_stack(0.7, momentum=0.9, wd=0.0)
        stack.sgd_step(scalar_grad(0.0), 0.1)
        assert stack.weights[0][0, 0, 0] == 0.7
        np.testing.assert_array_equal(stack.weight_bufs[0], 0.0)

    def test_two_step_momentum_unroll(self):
        # hand unroll: buf1=1, theta1=-0.1; buf2=0.9+1=1.9, theta2=-0.29
        stack = scalar_stack(0.0, momentum=0.9, wd=0.0)
        stack.sgd_step(scalar_grad(1.0), 0.1)
        assert stack.weights[0][0, 0, 0] == pytest.approx(-0.1, abs=1e-15)
        stack.sgd_step(scalar_grad(1.0), 0.1)
        assert stack.weights[0][0, 0, 0] == pytest.approx(-0.29, abs=1e-12)

    def test_weight_decay_pulls_toward_zero(self):
        stack = scalar_stack(1.0, momentum=0.0, wd=0.1)
        stack.sgd_step(scalar_grad(0.0), 0.1)
        assert stack.weights[0][0, 0, 0] == pytest.approx(0.99, abs=1e-15)

    def test_shape_and_finite_validation(self):
        stack = ModelStack([init_model((2, 4, 2), seed=3)], momentum=0.9)
        bad = Gradients(weights=(np.zeros((1, 2, 3)), np.zeros((1, 4, 2))),
                        biases=(np.zeros((1, 4)), np.zeros((1, 2))))
        with pytest.raises(ConfigError, match="shape mismatch"):
            stack.sgd_step(bad, 0.1)
        nan_grad = Gradients(weights=tuple(np.zeros_like(w) for w in stack.weights),
                             biases=tuple(np.zeros_like(b) for b in stack.biases))
        nan_grad.weights[0][0, 0, 0] = np.nan
        with pytest.raises(ConfigError, match="non-finite gradient"):
            stack.sgd_step(nan_grad, 0.1)

    def test_momentum_and_weight_decay_validation(self):
        params = [init_model((2, 4, 2), seed=3)]
        for momentum in (1.0, -0.1, math.nan, math.inf):
            with pytest.raises(ConfigError, match="momentum"):
                ModelStack(params, momentum=momentum)
        for wd in (-1.0, math.inf, math.nan):
            with pytest.raises(ConfigError, match="weight_decay"):
                ModelStack(params, weight_decay=wd)
        stack = ModelStack(params, momentum=0.0, weight_decay=0.0)
        assert (stack.momentum, stack.weight_decay) == (0.0, 0.0)


class TestTrainingDynamics:
    def test_separable_two_class_set_reaches_full_accuracy(self):
        spec = SyntheticSpec(num_classes=2, dim=2, samples_per_class=40,
                             class_separation=3.0, noise_sigma=0.3)
        ds = generate_synthetic(spec, seed=21)
        xs = ds.features
        ys = ds.observed_labels()
        # weight decay off: it adds a competing objective term, and this
        # check is about descent on the supervised loss itself
        stack = ModelStack([init_model((2, 32, 2), seed=7)], momentum=0.9)
        losses = []
        for _ in range(500):
            loss, grads = stack.loss_and_grad(xs, ys[None], np.ones((1, len(ys))))
            losses.append(float(loss[0]))
            stack.sgd_step(grads, 0.03)
        tail = losses[-50:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        preds = stack.predict_proba(xs)[0].argmax(axis=1)
        assert (preds == ys).mean() == 1.0


def assert_same_tensors(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


class TestStackAgainstOracle:
    """The stack against the one-model reference, bit for bit: the
    probabilities, losses, gradients, parameters and momentum buffers of
    every model over several updates in a row."""

    LR, MOMENTUM, WEIGHT_DECAY, LAMBDA_U, STEPS = 0.03, 0.9, 5e-4, 1.0, 3

    def models(self, n, width, hidden, classes=10):
        arch = (width,) + hidden + (classes,)
        params = [init_model(arch, seed=100 + i) for i in range(n)]
        opts = [reference_opt(p, self.LR, self.MOMENTUM, self.WEIGHT_DECAY)
                for p in params]
        return params, opts

    def inputs(self, rng, n, batch, width, shared):
        shape = (batch, width) if shared else (n, batch, width)
        return rng.random(shape)

    def mask_weights(self, rng, n, batch):
        # fusion masks: 0 where no pseudo-label, pseudo_weight or 1 else
        return rng.choice([0.0, 0.75, 1.0], size=(n, batch))

    def view(self, xs, i):
        return xs if xs.ndim == 2 else xs[i]

    def run(self, n, width, hidden, shared, batch, u_batch=None):
        u_batch = u_batch or 2 * batch
        rng = np.random.default_rng([n, width, len(hidden), int(shared)])
        params, opts = self.models(n, width, hidden)
        stack = ModelStack(params, self.MOMENTUM, self.WEIGHT_DECAY)
        for step in range(self.STEPS):
            lr = self.LR * math.cos(7.0 * math.pi * step / (16.0 * self.STEPS))
            sup_xs = self.inputs(rng, n, batch, width, shared)
            u_xs = self.inputs(rng, n, u_batch, width, shared)
            sup_t = rng.integers(0, 10, size=(n, batch))
            u_t = rng.integers(0, 10, size=(n, u_batch))
            u_w = self.mask_weights(rng, n, u_batch)
            u_w[:, 0] = 0.0

            probs = stack.predict_proba(u_xs)
            l_s, g_s = stack.loss_and_grad(sup_xs, sup_t, np.ones((n, batch)))
            l_u, g_u = stack.loss_and_grad(u_xs, u_t, u_w)
            stack.sgd_step(add_scaled(g_s, g_u, self.LAMBDA_U), lr)

            for i in range(n):
                p_i = reference_predict_proba(params[i], self.view(u_xs, i))
                assert np.array_equal(probs[i], p_i)
                ls_i, gs_i = reference_loss_and_grad(
                    params[i], self.view(sup_xs, i), sup_t[i], np.ones(batch))
                lu_i, gu_i = reference_loss_and_grad(
                    params[i], self.view(u_xs, i), u_t[i], u_w[i])
                assert float(l_s[i]) == ls_i
                assert float(l_u[i]) == lu_i
                assert_same_tensors([g[i] for g in g_s.weights + g_s.biases],
                                    gs_i.weights + gs_i.biases)
                assert_same_tensors([g[i] for g in g_u.weights + g_u.biases],
                                    gu_i.weights + gu_i.biases)
                opt = dataclasses.replace(opts[i], lr=lr)
                params[i], opts[i] = reference_sgd_step(
                    params[i], add_scaled(gs_i, gu_i, self.LAMBDA_U), opt)
            got_params = stack.models()
            for i in range(n):
                assert_same_tensors(got_params[i].weights + got_params[i].biases,
                                    params[i].weights + params[i].biases)
                assert_same_tensors(
                    [buf[i] for buf in stack.weight_bufs + stack.bias_bufs],
                    opts[i].weight_bufs + opts[i].bias_bufs)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-model"])
    @pytest.mark.parametrize("hidden", [(32,), (16, 8)], ids=["h32", "h16-8"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_desk_width(self, n, hidden, shared):
        self.run(n, 2, hidden, shared, batch=16)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-model"])
    @pytest.mark.parametrize("hidden", [(32,), (16, 8)], ids=["h32", "h16-8"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_image_width(self, n, hidden, shared):
        self.run(n, 3072, hidden, shared, batch=8)

    def test_paper_image_shapes(self):
        # B = 64 labeled and mu * B = 448 unlabeled rows, two models
        self.run(2, 3072, (32,), False, batch=64, u_batch=448)

    def test_stack_copies_its_inputs(self):
        params, _ = self.models(2, 2, (8,))
        keep = [w.copy() for w in params[0].weights]
        stack = ModelStack(params, self.MOMENTUM, self.WEIGHT_DECAY)
        rng = np.random.default_rng(0)
        _, grads = stack.loss_and_grad(rng.random((4, 2)),
                                       rng.integers(0, 10, size=(2, 4)),
                                       np.ones((2, 4)))
        stack.sgd_step(grads, 0.1)
        assert_same_tensors(params[0].weights, keep)
        assert all(w.flags.c_contiguous for w in stack.weights + stack.biases)

    def test_validation(self):
        params, _ = self.models(2, 3, (8,))
        stack = ModelStack(params)
        with pytest.raises(ConfigError, match="architecture"):
            ModelStack([params[0], init_model((3, 9, 10), seed=0)])
        with pytest.raises(ConfigError, match="at least one"):
            ModelStack([])
        with pytest.raises(ConfigError, match="block"):
            stack.predict_proba(np.zeros((3, 4, 3)))
        with pytest.raises(ConfigError, match="feature width"):
            stack.predict_proba(np.zeros((4, 2)))
        with pytest.raises(ConfigError, match="batch length"):
            stack.loss_and_grad(np.zeros((4, 3)), np.zeros(4), np.ones(4))
        bad = stack.loss_and_grad(np.zeros((4, 3)), np.zeros((2, 4)),
                                  np.ones((2, 4)))[1]
        bad.biases[0][1, 0] = np.inf
        with pytest.raises(ConfigError, match="non-finite gradient"):
            stack.sgd_step(bad, 0.1)
        with pytest.raises(ConfigError, match="non-finite input features"):
            predict_models(params, np.full((4, 3), np.nan))

    def test_predict_models_mixes_architectures(self):
        models = [init_model((2, 32, 4), seed=1), init_model((2, 16, 4), seed=2),
                  init_model((2, 32, 4), seed=3)]
        xs = np.random.default_rng(5).random((7, 2))
        got = predict_models(models, xs)
        for g, m in zip(got, models):
            assert np.array_equal(g, reference_predict_proba(m, xs))


class TestGradientBits:
    """``loss_and_grad`` against the one-model reference by ``.tobytes()``,
    which, unlike ``np.array_equal``, tells -0.0 from +0.0.  The stack
    computes each weight gradient as (dz^T a)^T and the reference as
    a^T dz, so this pins that the two orientations give the same bits."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("hidden", [(32,), (16, 8)], ids=["h32", "h16-8"])
    @pytest.mark.parametrize("width", [2, 3072])
    def test_rows_sweep(self, width, hidden, n):
        params = [init_model((width,) + hidden + (10,), seed=200 + i)
                  for i in range(n)]
        stack = ModelStack(params)
        rng = np.random.default_rng([width, len(hidden), n])
        for rows in (1, 7, 8, 16, 17, 60, 64, 120, 448):
            xs = rng.random((n, rows, width)) - 0.5
            targets = rng.integers(0, 10, size=(n, rows))
            weights = rng.choice([0.0, 0.75, 1.0], size=(n, rows))
            weights[:, 0] = 0.0
            # a row of weight 0 holds +0.0, as the keep mask writes it;
            # its dlogits entries are +-0.0
            xs[weights == 0] = 0.0
            losses, grads = stack.loss_and_grad(xs, targets, weights)
            for i in range(n):
                loss, want = reference_loss_and_grad(
                    params[i], xs[i], targets[i], weights[i])
                assert losses[i].tobytes() == np.float64(loss).tobytes()
                for got, ref in zip(grads.weights + grads.biases,
                                    want.weights + want.biases):
                    assert got[i].tobytes() == ref.tobytes(), (rows, i)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        params = init_model((5, 12, 7, 3), seed=31)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        assert back.arch == params.arch
        for a, b in zip(back.weights + back.biases, params.weights + params.biases):
            np.testing.assert_array_equal(a, b)

    def test_file_layout(self, tmp_path):
        params = init_model((2, 32, 4), seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        header, arch_line, rest = raw.split(b"\n", 2)
        assert header == b"copseudo-ckpt v1"
        assert arch_line == b"2 32 4"
        assert len(rest) == 8 * 228
        # first tensor in the stream is W0, little-endian float64, row-major
        w0 = np.frombuffer(rest[: 8 * 64], dtype="<f8").reshape(2, 32)
        np.testing.assert_array_equal(w0, params.weights[0])
        b0 = np.frombuffer(rest[8 * 64: 8 * 96], dtype="<f8")
        np.testing.assert_array_equal(b0, params.biases[0])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"other-format v9\n2 2\n" + b"\x00" * 48)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        params = init_model((2, 32, 4), seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(raw[:-16])
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "cut.ckpt")

    def test_bad_arch_line(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"copseudo-ckpt v1\ntwo four\n")
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "absent.ckpt")
