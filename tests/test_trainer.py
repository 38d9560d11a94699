import copy
import dataclasses
import math
import os
import re
import sys

import numpy as np
import pytest

import copseudo.cli as cli_mod
import copseudo.trainer as trainer_mod
from copseudo.augment import AugmentConfig, AugmentStream
from copseudo.data import (
    CIFAR_IMAGE_SHAPE,
    MaskedDataset,
    MissingnessSpec,
    SyntheticSpec,
    apply_missingness,
    generate_synthetic,
    geometric_retention,
)
from copseudo.errors import ConfigError, DataError, DivergenceError
from copseudo.fusion import (
    SOURCE_NONE,
    SOURCE_OWN,
    SOURCES,
    FusedBatch,
    FusionConfig,
    FusionDecision,
    fuse_pair,
    fuse_single,
)
from copseudo.losses import ObjectiveConfig
from copseudo.metrics import read_csv
from copseudo.predictor import (
    EVAL_CHUNK_ROWS,
    Gradients,
    ModelStack,
    init_model,
    load_checkpoint,
    loss_and_grad,
)
from copseudo.trainer import (
    SeedPlan,
    ShuffleCycler,
    StepMetrics,
    TrainConfig,
    TrainerState,
    evaluate,
    fuse_batch,
    resolved_config_lines,
    train,
    train_step,
)
from oracles import (
    ReferenceOpt,
    add_scaled,
    apply_batch,
    full_strong_pass,
    mask_ratio,
    pseudo_label_accuracy,
    reference_dump_predictions,
    reference_evaluate,
    reference_sgd_step,
)


def model_opt(stack, i, lr):
    """Model i's momentum buffers in ``stack``, as a one-model oracle state."""
    return ReferenceOpt(lr=lr, momentum=stack.momentum,
                        weight_decay=stack.weight_decay,
                        weight_bufs=tuple(b[i] for b in stack.weight_bufs),
                        bias_bufs=tuple(b[i] for b in stack.bias_bufs))


def tiny_dataset(seed=0, samples_per_class=12, num_labeled=16, sigma=0.4):
    spec = SyntheticSpec(num_classes=4, dim=2, samples_per_class=samples_per_class,
                         class_separation=3.0, noise_sigma=sigma)
    full = generate_synthetic(spec, seed=seed)
    return apply_missingness(full, MissingnessSpec.mcar(num_labeled=num_labeled,
                                                        seed=seed + 1))


def eval_set(seed=99, samples_per_class=10):
    spec = SyntheticSpec(num_classes=4, dim=2, samples_per_class=samples_per_class,
                         class_separation=3.0, noise_sigma=0.4)
    return generate_synthetic(spec, seed=seed)


def image_dataset(seed=0, size=64, num_classes=4, num_labeled=16):
    """CIFAR-shaped uint8 images, each a noisy copy of its class's random
    prototype."""
    rng = np.random.default_rng(seed)
    protos = rng.integers(0, 256, size=(num_classes, 3072))
    labels = rng.integers(0, num_classes, size=size)
    noise = rng.integers(-64, 65, size=(size, 3072))
    pixels = np.clip(protos[labels] + noise, 0, 255).astype(np.uint8)
    missing = np.ones(size, dtype=np.uint8)
    missing[rng.choice(size, num_labeled, replace=False)] = 0
    return MaskedDataset.from_pixels(pixels, labels, missing, num_classes,
                                     CIFAR_IMAGE_SHAPE)


# thresholds low enough that some strong-view rows carry a loss and
# others do not within the first steps on ``image_dataset``
IMAGE_FUSION = {
    "pair": FusionConfig(num_models=2, tau=0.3, tau_cascade=(0.27,)),
    "cascade3": FusionConfig(num_models=3, tau=0.3, tau_cascade=(0.27, 0.24)),
    "single": FusionConfig(num_models=2, tau=0.3, single_model_mode=True,
                           pseudo_weight=1.0),
}


def image_config(mode, hidden=(32,), steps=8):
    fusion = IMAGE_FUSION[mode]
    return TrainConfig(seeds=SeedPlan.from_master(3, fusion.num_models),
                       num_models=fusion.num_models, steps=steps, hidden=hidden,
                       fusion=fusion,
                       objective=ObjectiveConfig(mu=4.0, batch_size=8))


def step_once(state, ds):
    """One train_step on the batches the state draws from ``ds``."""
    labeled, unlabeled, true_labels = state.draw_batches(ds)
    return train_step(state, labeled, unlabeled, true_labels)


def run_steps(cfg, ds, stored=False):
    """``cfg.steps`` steps on the state's own batches, drawn from a float64
    copy of ``ds`` or, with ``stored``, from ``ds`` in its storage form;
    returns the state and each step's train losses."""
    if not stored:
        ds = MaskedDataset(ds.features, ds.eval_labels(), ds.missing,
                           ds.num_classes, ds.feature_shape)
    state = TrainerState(cfg, ds)
    losses = [step_once(state, ds).train_losses
              for _ in range(cfg.steps)]
    return state, losses


def dir_bytes(root):
    """Each file under ``root`` and its bytes, keyed by relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def small_config(master=7, num_models=2, steps=3, **kw):
    defaults = dict(
        seeds=SeedPlan.from_master(master, num_models),
        num_models=num_models,
        steps=steps,
        eval_every=1,
        hidden=(8,),
        objective=ObjectiveConfig(mu=2.0, batch_size=4),
        lr=0.05,
    )
    if num_models == 1:
        defaults["fusion"] = FusionConfig(num_models=1, single_model_mode=True,
                                          pseudo_weight=1.0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestSeedPlan:
    def test_from_master_is_deterministic(self):
        assert SeedPlan.from_master(5, 2) == SeedPlan.from_master(5, 2)

    def test_all_streams_distinct(self):
        plan = SeedPlan.from_master(5, 3)
        seeds = (list(plan.init) + list(plan.data_order) + list(plan.augment)
                 + [plan.fusion, plan.unlabeled_order, plan.unlabeled_weak])
        assert len(set(seeds)) == len(seeds)

    def test_masters_differ(self):
        assert SeedPlan.from_master(5, 2) != SeedPlan.from_master(6, 2)

    def test_mismatched_tuple_lengths(self):
        with pytest.raises(ConfigError, match="equal length"):
            SeedPlan(init=(1, 2), data_order=(3,), augment=(4, 5),
                     fusion=6, unlabeled_order=7, unlabeled_weak=8)

    def test_num_models_positive(self):
        with pytest.raises(ConfigError):
            SeedPlan.from_master(5, 0)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig(seeds=SeedPlan.from_master(1, 2))
        assert cfg.num_models == 2
        assert cfg.objective.unlabeled_batch_size == 448

    def test_collects_problems(self):
        with pytest.raises(ConfigError) as err:
            TrainConfig(seeds=SeedPlan.from_master(1, 2), steps=-1,
                        eval_every=0, lr=-0.1)
        msg = str(err.value)
        assert "steps" in msg and "eval_every" in msg and "lr" in msg

    def test_fusion_model_count_must_match(self):
        with pytest.raises(ConfigError, match="fusion config"):
            TrainConfig(seeds=SeedPlan.from_master(1, 3), num_models=3)

    def test_one_model_needs_single_model_mode(self):
        with pytest.raises(ConfigError, match="single_model_mode"):
            TrainConfig(seeds=SeedPlan.from_master(1, 1), num_models=1,
                        fusion=FusionConfig(num_models=1, single_model_mode=False))

    def test_seed_plan_width_must_match(self):
        with pytest.raises(ConfigError, match="seed plan"):
            TrainConfig(seeds=SeedPlan.from_master(1, 3))

    @pytest.mark.parametrize("kw, problem", [
        (dict(num_models=0), "num_models must be >= 1"),
        (dict(dump_predictions_every=-1), "dump_predictions_every must be >= 0"),
        (dict(hidden=()), "hidden layer sizes must be positive"),
        (dict(hidden=(8, 0)), "hidden layer sizes must be positive"),
        (dict(momentum=1.0), "momentum must lie in [0, 1)"),
        (dict(weight_decay=-1), "weight_decay must be a non-negative finite real"),
    ], ids=["num-models-0", "dump-every-negative", "hidden-empty",
            "hidden-zero", "momentum-1", "weight-decay-negative"])
    def test_each_field_is_checked(self, kw, problem):
        with pytest.raises(ConfigError, match="^invalid train config: "
                                              + re.escape(problem)):
            TrainConfig(seeds=SeedPlan.from_master(1, 2), **kw)


class TestShuffleCycler:
    def test_one_pass_covers_every_index(self):
        cyc = ShuffleCycler([3, 5, 7, 9], seed=0)
        assert sorted(cyc.take(4).tolist()) == [3, 5, 7, 9]

    def test_take_spans_reshuffles(self):
        cyc = ShuffleCycler([0, 1, 2], seed=0)
        grabbed = cyc.take(7)
        # epochs of 3 inside: first 3 and next 3 are permutations
        assert sorted(grabbed[:3].tolist()) == [0, 1, 2]
        assert sorted(grabbed[3:6].tolist()) == [0, 1, 2]

    def test_deterministic(self):
        a = ShuffleCycler(range(10), seed=4).take(25)
        b = ShuffleCycler(range(10), seed=4).take(25)
        assert (a == b).all()

    def test_seed_changes_order(self):
        a = ShuffleCycler(range(10), seed=4).take(10)
        b = ShuffleCycler(range(10), seed=5).take(10)
        assert not (a == b).all()

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            ShuffleCycler([], seed=0)

    def test_take_requires_positive(self):
        with pytest.raises(ConfigError):
            ShuffleCycler([1], seed=0).take(0)


class TestTrainStepOracle:
    """Replicate one full step with the public pieces and demand bitwise
    agreement with train_step."""

    def manual_step(self, state, labeled, unlabeled, cfg, step_index):
        """Each model's parameters after the step, and each model's
        decisions: one shared list under fusion (model i applies mask i),
        its own ``fuse_single`` list in single-model mode."""
        clone = copy.deepcopy(state)
        models = clone.stack.models()
        n = cfg.num_models
        lam = cfg.objective.lambda_u
        sup = []
        for i, (xs, ys) in enumerate(labeled):
            weak = apply_batch(clone.weak_labeled[i], xs)
            sup.append(loss_and_grad(models[i], weak, ys, np.ones(len(ys))))
        weak_u = apply_batch(clone.weak_unlabeled, unlabeled)
        probs = [ModelStack([p]).predict_proba(weak_u)[0] for p in models]
        if cfg.fusion.single_model_mode:
            per_model = [([fuse_single(q, cfg.fusion) for q in p], 0)
                         for p in probs]
        else:
            decisions = [
                fuse_pair(probs[0][b], probs[1][b], cfg.fusion,
                          np.random.default_rng([cfg.seeds.fusion, step_index, b]))
                for b in range(unlabeled.shape[0])]
            per_model = [(decisions, i) for i in range(n)]
        out_params = []
        for i, (decisions, k) in enumerate(per_model):
            strong = apply_batch(clone.strong_unlabeled[i], unlabeled)
            targets = np.array([d.pseudo_label if d.has_label else 0
                                for d in decisions])
            weights = np.array([d.masks[k] if d.has_label else 0.0
                                for d in decisions])
            _, g_u = loss_and_grad(models[i], strong, targets, weights)
            total = add_scaled(sup[i][1], g_u, lam)
            params, _ = reference_sgd_step(models[i], total,
                                           model_opt(clone.stack, i, cfg.lr))
            out_params.append(params)
        return out_params, [decisions for decisions, _ in per_model]

    def test_two_model_step_matches_manual_replication(self):
        self.check_two_model_steps(small_config())

    def test_lambda_u_scales_the_unlabeled_gradient(self):
        # thresholds low enough that both steps assign pseudo-labels, so
        # the unlabeled gradient is nonzero and its weight shows in the bits
        ratios = self.check_two_model_steps(small_config(
            fusion=FusionConfig(tau=0.35, tau_cascade=(0.3,)),
            objective=ObjectiveConfig(lambda_u=0.5, mu=2.0, batch_size=4)))
        assert min(ratios) > 0, ratios

    @pytest.mark.parametrize("lambda_u", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kept", [False, True], ids=["whole", "kept"])
    def test_image_step_matches_manual_replication(self, kept, lambda_u):
        # an image run takes one unlabeled pass per model, each adding
        # lambda_u times its gradient into its rows of the supervised one;
        # "kept" shapes (64 unlabeled rows, 64 labeled rows to lend) also
        # multiply only the kept strong rows
        objective = ObjectiveConfig(lambda_u=lambda_u, mu=2.0 if kept else 4.0,
                                    batch_size=32 if kept else 8)
        cfg = dataclasses.replace(image_config("pair"), objective=objective)
        ratios = self.check_two_model_steps(
            cfg, image_dataset(size=128, num_labeled=40),
            kept_chunk_rows=64 if kept else 0)
        assert 0 < min(ratios) < 1, ratios

    def check_two_model_steps(self, cfg, ds=None, kept_chunk_rows=0):
        """Two steps of a two-model run under ``cfg`` on ``ds`` (default
        ``tiny_dataset()``) against the manual replication; returns each
        step's mask_ratio."""
        ds = tiny_dataset() if ds is None else ds
        state = TrainerState(cfg, ds)
        assert state.kept_chunk_rows == kept_chunk_rows
        rng = np.random.default_rng(3)
        labeled_idx = [rng.choice(ds.observed_indices(),
                                  size=cfg.objective.batch_size, replace=False)
                       for _ in range(2)]
        labeled = [(ds.rows(idx), ds.observed_labels(idx))
                   for idx in labeled_idx]
        u_idx = rng.choice(ds.missing_indices(),
                           size=cfg.objective.unlabeled_batch_size,
                           replace=False)
        unlabeled = ds.rows(u_idx)

        expected, _ = self.manual_step(state, labeled, unlabeled, cfg,
                                       step_index=1)
        ratios = [train_step(state, labeled, unlabeled,
                             ds.eval_labels(u_idx)).mask_ratio]
        for got, want in zip(state.stack.models(), expected):
            for gw, ww in zip(got.weights, want.weights):
                assert (gw == ww).all()
            for gb, wb in zip(got.biases, want.biases):
                assert (gb == wb).all()

        # second step continues the same streams and fusion sub-streams
        expected, _ = self.manual_step(state, labeled, unlabeled, cfg,
                                       step_index=2)
        ratios.append(train_step(state, labeled, unlabeled,
                                 ds.eval_labels(u_idx)).mask_ratio)
        for got, want in zip(state.stack.models(), expected):
            for gw, ww in zip(got.weights, want.weights):
                assert (gw == ww).all()
        return ratios

    @pytest.mark.parametrize("n", [2, 3])
    def test_single_model_step_matches_per_model_thresholding(self, n):
        # each model trains on its own fuse_single decisions; mask_ratio
        # averages the models' label shares, pseudo_acc pools every
        # model's labels and source_counts come from model 1
        ds = tiny_dataset()
        cfg = small_config(num_models=n, fusion=FusionConfig(
            num_models=n, single_model_mode=True, tau=0.35, pseudo_weight=0.75))
        state = TrainerState(cfg, ds)
        rng = np.random.default_rng(5)
        labeled = []
        for _ in range(n):
            idx = rng.choice(ds.observed_indices(), size=4, replace=False)
            labeled.append((ds.features[idx], ds.observed_labels(idx)))
        u_idx = rng.choice(ds.missing_indices(), size=8, replace=False)
        unlabeled, truth = ds.features[u_idx], ds.eval_labels(u_idx)

        ratios = []
        for step_index in (1, 2):
            expected, decisions = self.manual_step(state, labeled, unlabeled,
                                                   cfg, step_index)
            metrics = train_step(state, labeled, unlabeled, truth)
            ratios.append(metrics.mask_ratio)
            assert metrics.mask_ratio == np.mean([mask_ratio(d)
                                                  for d in decisions])
            assert metrics.pseudo_acc == pseudo_label_accuracy(
                [d for per_model in decisions for d in per_model],
                np.tile(truth, n))
            assert metrics.source_counts == tuple(
                sum(d.source == s for d in decisions[0]) for s in SOURCES)
            for got, want in zip(state.stack.models(), expected):
                for gw, ww in zip(got.weights + got.biases,
                                  want.weights + want.biases):
                    assert gw.tobytes() == ww.tobytes()
        # the thresholds keep some of the items and drop others
        assert any(0 < r < 1 for r in ratios), ratios

    def test_updates_are_step_synchronous(self):
        # both models share one seed, so they are identical clones; after a
        # joint step they must remain bitwise identical, which fails if one
        # model's update lands before the other computes its gradients
        ds = tiny_dataset()
        base = SeedPlan.from_master(11, 2)
        seeds = SeedPlan(init=(base.init[0],) * 2,
                         data_order=(base.data_order[0],) * 2,
                         augment=(base.augment[0],) * 2,
                         fusion=base.fusion,
                         unlabeled_order=base.unlabeled_order,
                         unlabeled_weak=base.unlabeled_weak)
        cfg = small_config(seeds=seeds)
        state = TrainerState(cfg, ds)
        idx = ds.observed_indices()[:4]
        labeled = [(ds.features[idx], ds.observed_labels(idx))] * 2
        u_idx = ds.missing_indices()[:8]
        for _ in range(3):
            train_step(state, labeled, ds.features[u_idx],
                       ds.eval_labels(u_idx))
        for w in state.stack.weights:
            assert (w[0] == w[1]).all()

    def test_reported_loss_includes_shared_unlabeled_terms(self):
        ds = tiny_dataset()
        cfg = small_config()
        state = TrainerState(cfg, ds)
        idx = ds.observed_indices()[:4]
        labeled = [(ds.features[idx], ds.observed_labels(idx))] * 2
        u_idx = ds.missing_indices()[:8]
        clone = copy.deepcopy(state)
        metrics = train_step(state, labeled, ds.features[u_idx],
                             ds.eval_labels(u_idx))
        assert isinstance(metrics, StepMetrics)
        assert metrics.step == 1
        assert len(metrics.train_losses) == 2
        assert sum(metrics.source_counts) == 8
        assert all(math.isfinite(v) for v in metrics.train_losses)
        # recompute the supervised parts from the cloned pre-step state:
        # both models see the same l_u sum, so the reported losses differ
        # exactly by the difference of supervised losses
        sup = []
        for i, params in enumerate(clone.stack.models()):
            weak = apply_batch(clone.weak_labeled[i], ds.features[idx])
            l, _ = loss_and_grad(params, weak,
                                 ds.observed_labels(idx), np.ones(4))
            sup.append(l)
        got_gap = metrics.train_losses[0] - metrics.train_losses[1]
        assert got_gap == pytest.approx(sup[0] - sup[1], abs=1e-12)

    @pytest.mark.parametrize("lambda_u", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reported_loss_is_l_s_plus_lambda_u_times_every_l_u(
            self, monkeypatch, n, lambda_u):
        # each model reports its own supervised loss plus lambda_u times
        # the sum of every model's unlabeled loss, to the bit: the sum is
        # Python's, from int 0, and is scaled before it is added
        passes = []
        real = ModelStack.loss_and_grad

        def record(stack, *args):
            got = real(stack, *args)
            passes.append(got[0].tolist())
            return got

        monkeypatch.setattr(ModelStack, "loss_and_grad", record)
        fusion = (FusionConfig(num_models=1, tau=0.3, single_model_mode=True,
                               pseudo_weight=1.0) if n == 1 else
                  FusionConfig(num_models=n, tau=0.35,
                               tau_cascade=(0.3, 0.28)[:n - 1]))
        cfg = small_config(num_models=n, fusion=fusion,
                           objective=ObjectiveConfig(lambda_u=lambda_u,
                                                     mu=2.0, batch_size=4))
        _, losses = run_steps(cfg, tiny_dataset())
        assert len(passes) == 2 * cfg.steps
        l_s, l_u = passes[::2], passes[1::2]
        assert any(v > 0 for step in l_u for v in step), l_u
        for sup, unsup, got in zip(l_s, l_u, losses):
            assert len(got) == n
            for i in range(n):
                assert got[i] == sup[i] + lambda_u * sum(unsup)

    def test_views_are_written_into_the_state_blocks(self, monkeypatch):
        # the per-model views land in blocks allocated once per run, not in
        # per-step copies.  An image run's strong block holds one model's
        # views at a time: it holds the shared weak view first, then each
        # model's pass writes the rows apply_batch builds where the model's
        # weight is > 0 and leaves the others as the block held them (the
        # weak view for model 1, model i-1's block for model i).  Every
        # stream advances as it does under apply_batch
        ds = image_dataset()
        cfg = image_config("pair")
        state = TrainerState(cfg, ds)
        blocks = (state.labeled_views, state.strong_views)
        assert blocks[1].shape == (1, 32, 3072)
        passes = []
        real = ModelStack.loss_and_grad

        def recording(stack, xs, targets, weights, first=None):
            if xs is blocks[1]:
                passes.append(xs.copy())
            return real(stack, xs, targets, weights, first)

        monkeypatch.setattr(ModelStack, "loss_and_grad", recording)
        idx = ds.observed_indices()[:8]
        labeled = [(ds.rows(idx), ds.observed_labels(idx))] * 2
        u_feats = ds.rows(ds.missing_indices()[:32])
        u_true = ds.eval_labels(ds.missing_indices()[:32])
        kept = []
        for _ in range(2):
            clone = copy.deepcopy(state)
            passes.clear()
            metrics = train_step(state, labeled, u_feats, u_true)
            assert state.labeled_views is blocks[0]
            assert state.strong_views is blocks[1]
            assert len(passes) == 2
            assert passes[-1].tobytes() == blocks[1].tobytes()
            weak = apply_batch(clone.weak_unlabeled, u_feats)
            np.testing.assert_array_equal(metrics.weak_probs,
                                          clone.stack.predict_proba(weak))
            keep = fuse_batch(metrics.weak_probs, cfg.fusion, cfg.seeds.fusion,
                              state.step).masks.T > 0
            kept.append(keep)
            for i in range(2):
                np.testing.assert_array_equal(
                    state.labeled_views[i],
                    apply_batch(clone.weak_labeled[i], ds.rows(idx)))
                strong = apply_batch(clone.strong_unlabeled[i], u_feats)
                before = weak if i == 0 else passes[i - 1][0]
                got = passes[i][0]
                np.testing.assert_array_equal(got[keep[i]], strong[keep[i]])
                assert got[~keep[i]].tobytes() == before[~keep[i]].tobytes()
            for got_s, want_s in zip(
                    state.weak_labeled + state.strong_unlabeled
                    + [state.weak_unlabeled],
                    clone.weak_labeled + clone.strong_unlabeled
                    + [clone.weak_unlabeled]):
                assert (got_s.rng.bit_generator.state
                        == want_s.rng.bit_generator.state)
        assert 0 < np.mean(kept) < 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_an_image_run_holds_one_strong_block(self, n):
        # an image state's view blocks take (n*B + mu*B)*d*8 bytes in all,
        # one model's strong block whatever n is; a vector state keeps a
        # strong block per model for its one stacked pass
        fusion = (FusionConfig(num_models=1, single_model_mode=True)
                  if n == 1 else
                  FusionConfig(num_models=n,
                               tau_cascade=(0.85, 0.75, 0.65)[:n - 1]))
        cfg = dataclasses.replace(image_config("pair"), num_models=n,
                                  seeds=SeedPlan.from_master(3, n),
                                  fusion=fusion)
        state = TrainerState(cfg, image_dataset())
        views = state.labeled_views.nbytes + state.strong_views.nbytes
        assert views == (n * 8 + 32) * 3072 * 8
        vector = TrainerState(small_config(num_models=n, fusion=fusion),
                              tiny_dataset())
        assert vector.strong_views.shape == (n, 8, 2)

    def test_batch_size_validation(self):
        ds = tiny_dataset()
        cfg = small_config()
        state = TrainerState(cfg, ds)
        idx = ds.observed_indices()[:3]
        labeled = [(ds.features[idx], ds.observed_labels(idx))] * 2
        with pytest.raises(ConfigError, match="batch size"):
            train_step(state, labeled, ds.features[:8], np.zeros(8))
        idx = ds.observed_indices()[:4]
        short = [(ds.features[idx], ds.observed_labels(idx)[:3])] * 2
        with pytest.raises(ConfigError, match="labeled batch size"):
            train_step(state, short, ds.features[:8], np.zeros(8))

    def test_batch_count_and_unlabeled_size_validation(self):
        ds = tiny_dataset()
        state = TrainerState(small_config(), ds)
        idx = ds.observed_indices()[:4]
        labeled = [(ds.features[idx], ds.observed_labels(idx))]
        with pytest.raises(ConfigError, match="^need 2 labeled batches, got 1$"):
            train_step(state, labeled, ds.features[:8], np.zeros(8))
        with pytest.raises(ConfigError, match="^unlabeled batch size mismatch$"):
            train_step(state, labeled * 2, ds.features[:7], np.zeros(7))
        assert state.step == 0

    @pytest.mark.parametrize("bad", [7, 4, -1])
    def test_label_range_validation(self, bad):
        # the supervised pass indexes the log-probability block with the
        # caller's labels, so one out of range would read another row
        ds = tiny_dataset()
        cfg = small_config()
        state = TrainerState(cfg, ds)
        before = copy.deepcopy(state)
        idx = ds.observed_indices()[:4]
        labels = ds.observed_labels(idx)
        labels[-1] = bad
        labeled = [(ds.features[idx], ds.observed_labels(idx)),
                   (ds.features[idx], labels)]
        with pytest.raises(ConfigError, match="^target class out of range$"):
            train_step(state, labeled, ds.features[:8], np.zeros(8))
        assert state.step == 0
        for got, want in zip(state.stack.weights + state.stack.biases,
                             before.stack.weights + before.stack.biases):
            assert got.tobytes() == want.tobytes()
        assert (state.weak_labeled[1].rng.bit_generator.state
                == before.weak_labeled[1].rng.bit_generator.state)


class TestSkippedStrongRowsAreExact:
    """A run that skips the strong views of zero-weight rows against one
    that builds every row: the same parameter, momentum and loss bits."""

    @pytest.mark.parametrize("hidden", [(32,), (16, 8)])
    @pytest.mark.parametrize("mode", sorted(IMAGE_FUSION))
    def test_matches_run_building_every_row(self, monkeypatch, mode, hidden):
        ds = image_dataset()
        cfg = image_config(mode, hidden)
        keeps = []
        real = AugmentStream.apply_batch_into

        def recording(stream, xs, out, keep=None):
            if keep is not None:
                keeps.append(keep.copy())
            return real(stream, xs, out, keep=keep)

        monkeypatch.setattr(AugmentStream, "apply_batch_into", recording)
        got, got_losses = run_steps(cfg, ds)
        monkeypatch.setattr(AugmentStream, "apply_batch_into", full_strong_pass)
        want, want_losses = run_steps(cfg, ds)

        shares = np.reshape(keeps, (cfg.steps, cfg.num_models, -1)).mean(
            axis=(1, 2))
        assert ((shares > 0) & (shares < 1)).any(), shares
        assert got_losses == want_losses
        for name in ("weights", "biases", "weight_bufs", "bias_bufs"):
            for g, w in zip(getattr(got.stack, name), getattr(want.stack, name)):
                assert g.tobytes() == w.tobytes(), name
        for g, w in zip(got.strong_unlabeled, want.strong_unlabeled):
            assert g.rng.bit_generator.state == w.rng.bit_generator.state


# paper shapes: mu = 7 and B = 64 give 448 unlabeled rows a step; each
# config's kept share of strong rows passes through 0, values between 0
# and 1, and 1 within five steps on ``paper_images``
PAPER_FUSION = {
    "pair": FusionConfig(num_models=2, tau=0.2, tau_cascade=(0.18,)),
    "cascade3": FusionConfig(num_models=3, tau=0.3, tau_cascade=(0.25, 0.2)),
    "single": FusionConfig(num_models=2, tau=0.2, single_model_mode=True,
                           pseudo_weight=1.0),
}


@pytest.fixture(scope="module")
def paper_images():
    return image_dataset(size=600, num_classes=10, num_labeled=80)


def step_bytes(state, metrics):
    """The bytes of a state's parameters and momentum buffers and of the
    step's metrics."""
    stack = state.stack
    return ([t.tobytes() for t in stack.weights + stack.biases
             + stack.weight_bufs + stack.bias_bufs]
            + [np.array(metrics.train_losses).tobytes(),
               np.array([metrics.mask_ratio, metrics.pseudo_acc]).tobytes(),
               metrics.source_counts, metrics.weak_probs.tobytes()])


def poison_left_rows(state, seed):
    """Make each strong stream of ``state`` fill the rows it leaves with
    values in [0, 1], as a row left from an earlier step may hold."""
    rng = np.random.default_rng(seed)
    for stream in state.strong_unlabeled:
        def poisoned(xs, out, keep=None, real=stream.apply_batch_into):
            real(xs, out, keep=keep)
            out[~keep] = rng.random((int(np.count_nonzero(~keep)),
                                     out.shape[1]))
            return out

        stream.apply_batch_into = poisoned


class TestKeptRowsProduct:
    """At paper shapes an image run multiplies only the strong rows that
    carry a loss (``ModelStack.first_layer_kept``).  Against a copy of
    the state that multiplies the whole block, and each against a copy
    whose left strong rows hold arbitrary pixels: the same parameter,
    momentum and step-metrics bits at every step."""

    @pytest.mark.parametrize("mode", sorted(PAPER_FUSION))
    def test_same_bits_as_whole_block_and_whatever_left_rows_hold(
            self, monkeypatch, paper_images, mode):
        fusion = PAPER_FUSION[mode]
        n = fusion.num_models
        cfg = TrainConfig(seeds=SeedPlan.from_master(3, n), num_models=n,
                          hidden=(32,), fusion=fusion,
                          objective=ObjectiveConfig(mu=7.0, batch_size=64))
        kept = TrainerState(cfg, paper_images)
        assert kept.kept_chunk_rows == 64 * n
        whole = copy.deepcopy(kept)
        whole.kept_chunk_rows = 0
        states = [kept, whole, copy.deepcopy(kept), copy.deepcopy(whole)]
        for seed, state in enumerate(states[2:]):
            poison_left_rows(state, seed)
        shares = {id(s.strong_views): [] for s in states}
        real = ModelStack.first_layer_kept

        def recording(stack, xs, keep, buf):
            shares[id(xs)].append(float(keep.mean()))
            return real(stack, xs, keep, buf)

        monkeypatch.setattr(ModelStack, "first_layer_kept", recording)
        for _ in range(5):
            batches = kept.draw_batches(paper_images)
            got = [step_bytes(s, train_step(s, *batches)) for s in states]
            for other in got[1:]:
                assert other == got[0]
        seen = shares[id(kept.strong_views)]
        assert shares[id(states[2].strong_views)] == seen
        assert not shares[id(whole.strong_views)]
        assert not shares[id(states[3].strong_views)]
        assert 0.0 in seen and 1.0 in seen
        assert any(0.0 < v < 1.0 for v in seen), seen


class TestPixelBatchesAreExact:
    """Steps on the uint8 pixel batches ``train`` draws against steps on
    their float64 rows: the same parameter, momentum and loss bits."""

    @pytest.mark.parametrize("mode", sorted(IMAGE_FUSION))
    def test_matches_float_rows(self, mode):
        ds = image_dataset()
        cfg = image_config(mode)
        got, got_losses = run_steps(cfg, ds, stored=True)
        want, want_losses = run_steps(cfg, ds)
        assert got_losses == want_losses
        for name in ("weights", "biases", "weight_bufs", "bias_bufs"):
            for g, w in zip(getattr(got.stack, name), getattr(want.stack, name)):
                assert g.tobytes() == w.tobytes(), name


class TestFuseBatch:
    def test_single_model_mode_is_literal_thresholding(self):
        rng = np.random.default_rng(0)
        raw = rng.random((1, 16, 4))
        probs = raw / raw.sum(axis=2, keepdims=True)
        cfg = FusionConfig(num_models=1, single_model_mode=True, tau=0.4,
                           pseudo_weight=1.0)
        fused = fuse_batch(probs, cfg, fusion_seed=1, step=0)
        assert len(fused) == 16
        for b, decision in enumerate(fused):
            conf = probs[0, b].max()
            if conf > 0.4:
                assert decision.pseudo_label == probs[0, b].argmax()
                assert decision.masks == (1.0,)
                assert decision.source == SOURCE_OWN
            else:
                assert decision.pseudo_label is None
                assert decision.masks == (0.0,)
                assert decision.source == SOURCE_NONE

    def test_pair_mode_items_fused_independently(self):
        rng = np.random.default_rng(1)
        raw = rng.random((2, 6, 4))
        probs = raw / raw.sum(axis=2, keepdims=True)
        cfg = FusionConfig()
        fused = fuse_batch(probs, cfg, fusion_seed=5, step=3)
        for b, got in enumerate(fused):
            want = fuse_pair(probs[0, b], probs[1, b], cfg,
                             np.random.default_rng([5, 3, b]))
            assert got == want

    def test_item_streams_keyed_by_step(self):
        probs = np.zeros((2, 1, 4))
        probs[0, 0] = (0.97, 0.01, 0.01, 0.01)
        probs[1, 0] = (0.01, 0.97, 0.01, 0.01)
        cfg = FusionConfig()
        seen = {d.pseudo_label for s in range(40)
                for d in fuse_batch(probs, cfg, fusion_seed=0, step=s)}
        assert seen == {0, 1}


class TestLambdaZeroIsolation:
    def test_each_model_matches_its_supervised_solo_run(self, tmp_path):
        self.check_solo_runs(tmp_path, FusionConfig())

    def test_pseudo_labels_do_not_reach_the_update(self, tmp_path):
        # thresholds low enough that the joint run assigns pseudo-labels:
        # with lambda_u = 0 their gradients still leave every model as it
        # is in its supervised solo run
        ratios = self.check_solo_runs(
            tmp_path, FusionConfig(tau=0.35, tau_cascade=(0.3,)))
        assert max(ratios) > 0, ratios

    def check_solo_runs(self, tmp_path, fusion):
        """Train a two-model run under ``fusion`` with lambda_u = 0 and
        each model alone; returns the joint run's mask_ratio column."""
        ds = tiny_dataset()
        test = eval_set()
        joint_plan = SeedPlan.from_master(21, 2)
        joint_cfg = small_config(
            seeds=joint_plan, steps=6, fusion=fusion,
            objective=ObjectiveConfig(lambda_u=0.0, mu=2.0, batch_size=4))
        train(joint_cfg, ds, test, tmp_path / "joint")

        for i in range(2):
            solo_plan = SeedPlan(
                init=(joint_plan.init[i],),
                data_order=(joint_plan.data_order[i],),
                augment=(joint_plan.augment[i],),
                fusion=joint_plan.fusion,
                unlabeled_order=joint_plan.unlabeled_order,
                unlabeled_weak=joint_plan.unlabeled_weak)
            solo_cfg = small_config(
                num_models=1, seeds=solo_plan, steps=6,
                objective=ObjectiveConfig(lambda_u=0.0, mu=2.0, batch_size=4))
            train(solo_cfg, ds, test, tmp_path / f"solo{i}")
            joint = load_checkpoint(tmp_path / "joint" / f"ckpt-model{i + 1}-step6")
            solo = load_checkpoint(tmp_path / f"solo{i}" / "ckpt-model1-step6")
            for a, b in zip(joint.weights, solo.weights):
                assert (a == b).all()
            for a, b in zip(joint.biases, solo.biases):
                assert (a == b).all()
        return [row.mask_ratio
                for row in read_csv(tmp_path / "joint" / "metrics.csv").rows]


class TestTrainRunDirectory:
    def run_once(self, tmp_path, name="run", **kw):
        ds = tiny_dataset()
        cfg = small_config(steps=4, eval_every=2, **kw)
        out = tmp_path / name
        train(cfg, ds, eval_set(), out)
        return cfg, out

    def test_layout(self, tmp_path):
        _, out = self.run_once(tmp_path)
        names = sorted(p.name for p in out.iterdir())
        assert "config.resolved" in names
        assert "metrics.csv" in names
        assert "ckpt-model1-step4" in names
        assert "ckpt-model2-step4" in names
        for dat in ("accuracy.dat", "test_loss.dat", "train_loss.dat", "mask.dat"):
            assert dat in names

    def test_config_resolved_is_sorted_flat_keys(self, tmp_path):
        cfg, out = self.run_once(tmp_path)
        lines = (out / "config.resolved").read_text().strip().split("\n")
        keys = [ln.split("=", 1)[0] for ln in lines]
        assert keys == sorted(keys)
        assert all("=" in ln for ln in lines)
        as_dict = dict(ln.split("=", 1) for ln in lines)
        assert as_dict["num_models"] == "2"
        assert as_dict["steps"] == "4"
        assert as_dict["tau"] == "0.95"
        assert as_dict["seed.fusion"] == str(cfg.seeds.fusion)
        assert as_dict["seed.init_m2"] == str(cfg.seeds.init[1])
        assert as_dict["aug.sigma_weak"] == "0.05"

    def test_metrics_rows_cover_eval_grid_plus_step_zero(self, tmp_path):
        _, out = self.run_once(tmp_path)
        metrics = read_csv(out / "metrics.csv")
        assert [r.step for r in metrics.rows] == [0, 2, 4]

    def test_final_partial_interval_still_recorded(self, tmp_path):
        ds = tiny_dataset()
        cfg = small_config(steps=5, eval_every=2)
        out = tmp_path / "run"
        train(cfg, ds, eval_set(), out)
        metrics = read_csv(out / "metrics.csv")
        assert [r.step for r in metrics.rows] == [0, 2, 4, 5]

    def test_step_zero_row_reflects_initial_models(self, tmp_path):
        ds = tiny_dataset()
        cfg = small_config(steps=2)
        out = tmp_path / "run"
        train(cfg, ds, eval_set(), out)
        metrics = read_csv(out / "metrics.csv")
        state = TrainerState(cfg, ds)
        (acc0, loss0), (acc1, loss1) = [evaluate(ModelStack([p]), eval_set())
                                        for p in state.stack.models()]
        row0 = metrics.rows[0]
        assert row0.step == 0
        assert row0.test_acc == pytest.approx((acc0 + acc1) / 2, abs=1e-8)
        assert row0.test_loss == pytest.approx((loss0 + loss1) / 2, abs=1e-8)

    def test_dry_run_zero_steps(self, tmp_path):
        ds = tiny_dataset()
        cfg = small_config(steps=0)
        out = tmp_path / "dry"
        train(cfg, ds, eval_set(), out)
        metrics = read_csv(out / "metrics.csv")
        assert [r.step for r in metrics.rows] == [0]
        ckpt = load_checkpoint(out / "ckpt-model1-step0")
        state = TrainerState(cfg, ds)
        for a, b in zip(ckpt.weights, state.stack.models()[0].weights):
            assert (a == b).all()

    def test_deterministic_reruns_are_byte_identical(self, tmp_path):
        _, out_a = self.run_once(tmp_path, name="a")
        _, out_b = self.run_once(tmp_path, name="b")
        assert (out_a / "metrics.csv").read_bytes() == \
            (out_b / "metrics.csv").read_bytes()
        assert (out_a / "ckpt-model1-step4").read_bytes() == \
            (out_b / "ckpt-model1-step4").read_bytes()
        assert (out_a / "config.resolved").read_text() == \
            (out_b / "config.resolved").read_text()

    def test_different_master_seed_changes_history(self, tmp_path):
        _, out_a = self.run_once(tmp_path, name="a")
        _, out_b = self.run_once(tmp_path, name="b",
                                 seeds=SeedPlan.from_master(8, 2))
        assert (out_a / "metrics.csv").read_bytes() != \
            (out_b / "metrics.csv").read_bytes()

    def test_prediction_dumps(self, tmp_path):
        ds = tiny_dataset()
        cfg = small_config(steps=2, dump_predictions_every=2)
        out = tmp_path / "run"
        train(cfg, ds, eval_set(), out)
        path = out / "predictions-step2.csv"
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "item,model,p0,p1,p2,p3"
        assert len(lines) == 1 + 8 * 2
        assert lines[1].startswith("0,1,")
        assert lines[2].startswith("0,2,")
        probs = [float(v) for v in lines[1].split(",")[2:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-6)

    def test_requires_labeled_and_unlabeled_items(self, tmp_path):
        full = generate_synthetic(
            SyntheticSpec(num_classes=4, dim=2, samples_per_class=12,
                          class_separation=3.0, noise_sigma=0.4), seed=0)
        cfg = small_config()
        msg = ("^training data needs at least one labeled and one "
               "unlabeled item$")
        with pytest.raises(ConfigError, match=msg):
            TrainerState(cfg, full)
        with pytest.raises(ConfigError, match=msg):
            train(cfg, full, eval_set(), tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_batch_larger_than_labeled_pool(self, tmp_path):
        ds = tiny_dataset(num_labeled=3)
        cfg = small_config()
        msg = "^batch size 4 exceeds the 3 labeled items$"
        with pytest.raises(ConfigError, match=msg):
            TrainerState(cfg, ds)
        with pytest.raises(ConfigError, match=msg):
            train(cfg, ds, eval_set(), tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_one_class_training_set(self, tmp_path):
        # it used to write config.resolved and fail at step 1, in fusion
        ds = tiny_dataset()
        one = MaskedDataset(ds.features, np.zeros(len(ds), dtype=np.int64),
                            ds.missing, 1)
        test = MaskedDataset(np.zeros((3, 2)), [0, 0, 0], [0, 0, 0], 1)
        msg = "^training data has 1 class, a run needs at least 2$"
        with pytest.raises(ConfigError, match=msg):
            TrainerState(small_config(), one)
        with pytest.raises(ConfigError, match=msg):
            train(small_config(), one, test, tmp_path / "x")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("test, msg", [
        (tiny_dataset(seed=5), "^test set must be fully observed$"),
        (MaskedDataset(np.empty((0, 2)), [], [], 4), "^empty test set$"),
    ])
    def test_unusable_test_set_leaves_no_run_directory(self, tmp_path, test,
                                                       msg):
        with pytest.raises(ConfigError, match=msg):
            train(small_config(), tiny_dataset(), test, tmp_path / "x")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("num_classes, dim", [(3, 2), (5, 2), (4, 3)])
    def test_test_set_must_fit_training_set(self, tmp_path, num_classes, dim):
        # a 3-class set used to train and report a meaningless accuracy;
        # the others failed mid-run and left a run directory behind
        test = generate_synthetic(
            SyntheticSpec(num_classes=num_classes, dim=dim, samples_per_class=5,
                          class_separation=3.0, noise_sigma=0.4), seed=99)
        msg = (f"^test set has {dim} features and {num_classes} classes, "
               "training set 2 and 4$")
        with pytest.raises(ConfigError, match=msg):
            train(small_config(), tiny_dataset(), test, tmp_path / "x")
        assert not (tmp_path / "x").exists()

    def test_refuses_a_used_run_directory(self, tmp_path):
        # a second run used to write beside the first one's checkpoints and
        # dumps, leaving a config.resolved that described only itself
        _, out = self.run_once(tmp_path, dump_predictions_every=2)
        before = dir_bytes(out)
        cfg = small_config(num_models=3, steps=1, fusion=FusionConfig(
            num_models=3, tau_cascade=(0.75, 0.6)))
        with pytest.raises(ConfigError, match=f"^run directory {out} exists "
                           "and is not an empty directory$"):
            train(cfg, tiny_dataset(), eval_set(), out)
        assert dir_bytes(out) == before

    def test_refuses_a_file(self, tmp_path):
        out = tmp_path / "run"
        out.write_text("keep me\n")
        with pytest.raises(ConfigError, match="exists and is not an empty"):
            train(small_config(), tiny_dataset(), eval_set(), out)
        assert out.read_text() == "keep me\n"

    def test_accepts_an_empty_directory(self, tmp_path):
        (tmp_path / "empty").mkdir()
        _, out = self.run_once(tmp_path, name="empty")
        _, fresh = self.run_once(tmp_path, name="fresh")
        assert dir_bytes(out) == dir_bytes(fresh)


def mnar_dataset(seed=0):
    """Desk blobs with long-tailed labels, as in the desk-cascade3-mnar
    benchmark workload."""
    spec = SyntheticSpec(num_classes=4, dim=2, samples_per_class=40,
                         class_separation=3.0, noise_sigma=0.4)
    retention = geometric_retention(4, 0.2, p_tail=0.01)
    return apply_missingness(generate_synthetic(spec, seed=seed),
                             MissingnessSpec.mnar(retention, seed=seed + 1))


SNAPSHOT_RUNS = {
    "pair-mnar": lambda: (small_config(steps=6), mnar_dataset(), eval_set()),
    "cascade3": lambda: (
        small_config(num_models=3, steps=6, fusion=FusionConfig(
            num_models=3, tau=0.6, tau_cascade=(0.5, 0.4))),
        mnar_dataset(), eval_set()),
    "image-single": lambda: (image_config("single", steps=6), image_dataset(),
                             image_dataset(seed=1, size=16, num_labeled=16)),
}


class TestStateSnapshot:
    """A deep copy of the state between steps carries the whole run: the
    copy and the original, stepped in turn, end where ``train`` ends."""

    @pytest.mark.parametrize("name", sorted(SNAPSHOT_RUNS))
    def test_deep_copy_resumes_the_run(self, tmp_path, name):
        cfg, ds, test = SNAPSHOT_RUNS[name]()
        state = TrainerState(cfg, ds)
        for _ in range(3):
            step_once(state, ds)
        snap = copy.deepcopy(state)
        # in turn, so a stream the two shared would throw both off
        for _ in range(3):
            for s in (state, snap):
                step_once(s, ds)
        train(cfg, ds, test, tmp_path / "run")
        ckpts = [load_checkpoint(tmp_path / "run" / f"ckpt-model{i + 1}-step6")
                 for i in range(cfg.num_models)]

        assert state.step == snap.step == 6
        assert snap.cfg == state.cfg == cfg
        for attr in ("weights", "biases", "weight_bufs", "bias_bufs"):
            for a, b in zip(getattr(state.stack, attr),
                            getattr(snap.stack, attr)):
                assert a.tobytes() == b.tobytes(), attr
        streams = zip(state.weak_labeled + state.strong_unlabeled
                      + [state.weak_unlabeled],
                      snap.weak_labeled + snap.strong_unlabeled
                      + [snap.weak_unlabeled])
        for a, b in streams:
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
        cyclers = zip(state.labeled_cyclers + [state.unlabeled_cycler],
                      snap.labeled_cyclers + [snap.unlabeled_cycler])
        for a, b in cyclers:
            assert a._rng.bit_generator.state == b._rng.bit_generator.state
            assert a._pos == b._pos
            assert a._order.tobytes() == b._order.tobytes()
        for s in (state, snap):
            for ckpt, model in zip(ckpts, s.stack.models()):
                for want, got in zip(ckpt.weights + ckpt.biases,
                                     model.weights + model.biases):
                    assert want.tobytes() == got.tobytes()


class TestOneTrainStepPerStep:
    """train runs each step once; row 0 reuses step 1's train-side numbers,
    which train_step measures on the initial parameters."""

    @pytest.mark.parametrize("num_models", [2, 1])
    @pytest.mark.parametrize("steps", [0, 1, 4])
    def test_call_count_and_row_zero(self, tmp_path, monkeypatch, num_models,
                                     steps):
        returned = []

        def counting(*args, **kwargs):
            returned.append(train_step(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(trainer_mod, "train_step", counting)
        cfg = small_config(num_models=num_models, steps=steps, eval_every=2)
        train(cfg, tiny_dataset(), eval_set(), tmp_path / "run")
        assert len(returned) == max(steps, 1)

        def as_written(value):
            return float(format(value, ".9g"))

        first = returned[0]
        row0 = read_csv(tmp_path / "run" / "metrics.csv").rows[0]
        assert first.step == 1
        assert row0.step == 0
        assert row0.train_losses == tuple(as_written(v)
                                          for v in first.train_losses)
        assert row0.mask_ratio == as_written(first.mask_ratio)
        assert row0.pseudo_acc == as_written(first.pseudo_acc)
        assert row0.source_counts == first.source_counts


class TestPredictionDumpWriter:
    # doubles whose shortest and 17-digit forms differ, the extremes, and
    # values a probability block can hold: exact 0 and 1, tiny tails
    EDGES = [1.0, 0.0, -0.0, 1e-300, 5e-324, 2.2250738585072009e-308,
             2.2250738585072014e-308, 0.1, 1 / 3, 0.9999999999999999,
             1.7976931348623157e308, 123456789.0, 1e16, 1e17, 2.5e-5]

    @pytest.mark.parametrize("n,batch,classes", [(1, 1, 2), (2, 16, 4),
                                                 (3, 7, 3), (4, 40, 10)])
    def test_bytes_match_value_at_a_time_writer(self, tmp_path, n, batch, classes):
        rng = np.random.default_rng(n * 100 + batch)
        probs = rng.dirichlet(np.ones(classes) * 0.3, size=(n, batch))
        flat = probs.reshape(-1)
        flat[:len(self.EDGES)] = self.EDGES[:flat.size]
        trainer_mod._dump_predictions(tmp_path / "got.csv", probs)
        reference_dump_predictions(tmp_path / "want.csv", probs)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_random_doubles_round_trip(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2 ** 64, size=2 * 9 * 5, dtype=np.uint64)
        probs = bits.view(np.float64).reshape(2, 9, 5)
        probs[~np.isfinite(probs)] = 0.5
        trainer_mod._dump_predictions(tmp_path / "got.csv", probs)
        reference_dump_predictions(tmp_path / "want.csv", probs)
        got = (tmp_path / "got.csv").read_text()
        assert got == (tmp_path / "want.csv").read_text()
        # random doubles are no distributions: the parse is checked alone
        monkeypatch.setattr(trainer_mod, "first_invalid_row", lambda p: None)
        item_ids, back = trainer_mod.read_predictions(tmp_path / "got.csv")
        assert item_ids == list(range(9))
        assert back.dtype == np.float64 and back.shape == (9, 2, 5)
        assert back.tobytes() == probs.transpose(1, 0, 2).tobytes()

    @pytest.mark.parametrize("row, what", [
        ((0.5, 0.4, 0.05, 0.0), "does not sum to 1"),
        ((0.5, np.nan, 0.5, 0.0), "is not a valid distribution"),
        ((1.25, -0.25, 0.0, 0.0), "is not a valid distribution"),
    ])
    def test_reader_refuses_a_row_that_is_no_distribution(self, tmp_path,
                                                          row, what):
        probs = np.random.default_rng(3).dirichlet(np.ones(4), size=(3, 7))
        probs[2, 4] = row
        probs[1, 5] = row  # a later item's row is not the one named
        path = tmp_path / "dump.csv"
        trainer_mod._dump_predictions(path, probs)
        with pytest.raises(DataError, match=re.escape(
                f"{path}: item 4 model 3 prediction {what}") + "$"):
            cli_mod.read_predictions(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDivergence:
    def test_non_finite_step_raises_naming_the_step(self, tmp_path):
        cfg = small_config(steps=400, lr=1e8)
        with pytest.raises(DivergenceError,
                           match=r"diverged at step \d+: model \d"):
            train(cfg, tiny_dataset(), eval_set(), tmp_path / "run")

    def test_poisoned_parameters_stop_before_fusion(self, monkeypatch):
        cfg = small_config()
        ds = tiny_dataset()
        state = TrainerState(cfg, ds)
        state.stack.weights[-1][1, 0, 0] = np.inf
        state.step = 41
        monkeypatch.setattr(trainer_mod, "fuse_batch", None)  # never reached
        idx = ds.observed_indices()[:4]
        batch = (ds.rows(idx), ds.observed_labels(idx))
        u_idx = ds.missing_indices()[:8]
        with pytest.raises(DivergenceError,
                           match="diverged at step 42: model 2 supervised loss"):
            train_step(state, [batch, batch], ds.rows(u_idx),
                       ds.eval_labels(u_idx))

    def test_non_finite_strong_views_stop_at_the_unlabeled_loss(
            self, monkeypatch):
        # model 2's strong views reach only its unlabeled loss, so that
        # check is the one that names step 3
        ds = tiny_dataset()
        state = TrainerState(small_config(), ds)
        stream = state.strong_unlabeled[1]
        real = stream.apply_batch_into

        def poisoned(xs, out, keep=None):
            real(xs, out, keep=keep)
            if state.step == 2:
                out[...] = np.nan
            return out

        monkeypatch.setattr(stream, "apply_batch_into", poisoned)
        step_once(state, ds)
        step_once(state, ds)
        with pytest.raises(DivergenceError, match=(
                "^training diverged at step 3: model 2 unlabeled loss is "
                "not finite$")):
            step_once(state, ds)

    def test_diverged_last_update_raises(self, tmp_path, monkeypatch):
        real = ModelStack.sgd_step

        def poisoned(stack, grads, lr):
            real(stack, grads, lr)
            stack.biases[0][1, 0] = np.nan

        monkeypatch.setattr(ModelStack, "sgd_step", poisoned)
        out = tmp_path / "run"
        with pytest.raises(DivergenceError,
                           match="diverged at step 1: model 2 parameter"):
            train(small_config(steps=1), tiny_dataset(), eval_set(), out)
        # both rows were recorded before the last update's check
        assert [r.step for r in read_csv(out / "metrics.csv").rows] == [0, 1]
        assert not list(out.glob("ckpt-*"))

    def test_mid_run_divergence_keeps_the_recorded_rows(self, tmp_path,
                                                        monkeypatch):
        # a run whose fifth update turns model 2 non-finite stops at step 6;
        # the rows of steps 0, 2 and 4 are on disk, with the bytes of a run
        # that stops at step 4
        finished = tmp_path / "finished"
        train(small_config(steps=4, eval_every=2), tiny_dataset(), eval_set(),
              finished)
        real, updates = ModelStack.sgd_step, []

        def poisoned(stack, grads, lr):
            real(stack, grads, lr)
            updates.append(lr)
            if len(updates) == 5:
                stack.weights[0][1, 0, 0] = np.nan

        monkeypatch.setattr(ModelStack, "sgd_step", poisoned)
        out = tmp_path / "run"
        with pytest.raises(DivergenceError, match=(
                "^training diverged at step 6: model 2 supervised loss")):
            train(small_config(steps=10, eval_every=2), tiny_dataset(),
                  eval_set(), out)
        history = ("metrics.csv", "accuracy.dat", "test_loss.dat",
                   "train_loss.dat", "mask.dat")
        for name in history:
            assert (out / name).read_bytes() == (finished / name).read_bytes()
        assert [r.step for r in read_csv(out / "metrics.csv").rows] == [0, 2, 4]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ("config.resolved",) + history)


class TestHiddenLabelIsolation:
    def test_poisoned_hidden_labels_change_nothing_but_pseudo_acc(self, tmp_path):
        ds = tiny_dataset()
        # rewrite every hidden label to class 0; training must not notice
        labels = ds.eval_labels()
        poisoned_labels = np.where(ds.missing == 1, 0, labels)
        poisoned = MaskedDataset(ds.features.copy(), poisoned_labels,
                                 ds.missing.copy(), ds.num_classes)
        cfg = small_config(steps=4)
        train(cfg, ds, eval_set(), tmp_path / "clean")
        train(cfg, poisoned, eval_set(), tmp_path / "poisoned")
        for m in (1, 2):
            assert (tmp_path / "clean" / f"ckpt-model{m}-step4").read_bytes() == \
                (tmp_path / "poisoned" / f"ckpt-model{m}-step4").read_bytes()
        clean = read_csv(tmp_path / "clean" / "metrics.csv")
        poisoned_m = read_csv(tmp_path / "poisoned" / "metrics.csv")
        for a, b in zip(clean.rows, poisoned_m.rows):
            assert a.test_acc == b.test_acc
            assert a.train_losses == b.train_losses
            assert a.mask_ratio == b.mask_ratio
            assert a.source_counts == b.source_counts


class TestSingleModelRun:
    def test_runs_and_reports_own_or_none_sources(self, tmp_path):
        ds = tiny_dataset()
        cfg = small_config(num_models=1, steps=3)
        out = tmp_path / "run"
        train(cfg, ds, eval_set(), out)
        metrics = read_csv(out / "metrics.csv")
        assert metrics.num_models == 1
        for row in metrics.rows:
            both, conflict, own, consensus, none = row.source_counts
            assert both == conflict == consensus == 0
            assert own + none == 8


class TestCosineLr:
    def test_first_step_matches_constant_lr(self):
        ds = tiny_dataset()
        cfg_flat = small_config(steps=4)
        cfg_cos = small_config(steps=4, cosine_lr=True)
        idx = ds.observed_indices()[:4]
        labeled = [(ds.features[idx], ds.observed_labels(idx))] * 2
        u_idx = ds.missing_indices()[:8]
        s_flat = TrainerState(cfg_flat, ds)
        s_cos = TrainerState(cfg_cos, ds)
        train_step(s_flat, labeled, ds.features[u_idx],
                   ds.eval_labels(u_idx))
        train_step(s_cos, labeled, ds.features[u_idx],
                   ds.eval_labels(u_idx))
        # cos(0) = 1, so the first update is identical either way
        for a, b in zip(s_flat.stack.weights, s_cos.stack.weights):
            assert (a == b).all()
        # later steps shrink the rate, so the histories diverge
        for _ in range(3):
            train_step(s_flat, labeled, ds.features[u_idx],
                       ds.eval_labels(u_idx))
            train_step(s_cos, labeled, ds.features[u_idx],
                       ds.eval_labels(u_idx))
        assert not all((a == b).all() for a, b in
                       zip(s_flat.stack.weights, s_cos.stack.weights))

    def test_update_k_uses_the_scheduled_rate(self, monkeypatch):
        # update k (0-based) steps at lr * cos(7 pi k / (16 steps)): every
        # model's new parameters equal the one-model reference update at
        # that rate, from the gradient train_step hands to the stack
        ds = tiny_dataset()
        cfg = small_config(steps=4, cosine_lr=True)
        state = TrainerState(cfg, ds)
        idx = ds.observed_indices()[:4]
        labeled = [(ds.features[idx], ds.observed_labels(idx))] * 2
        u_idx = ds.missing_indices()[:8]
        real = ModelStack.sgd_step
        seen = []

        def spy(stack, grads, lr):
            seen.append(grads)
            real(stack, grads, lr)

        monkeypatch.setattr(ModelStack, "sgd_step", spy)
        for k in range(cfg.steps):
            rate = cfg.lr * math.cos(7.0 * math.pi * k / (16.0 * cfg.steps))
            before = copy.deepcopy(state.stack)
            train_step(state, labeled, ds.features[u_idx],
                       ds.eval_labels(u_idx))
            grads = seen[-1]
            for i, (got, params) in enumerate(zip(state.stack.models(),
                                                  before.models())):
                want, _ = reference_sgd_step(
                    params,
                    Gradients(weights=tuple(g[i] for g in grads.weights),
                              biases=tuple(g[i] for g in grads.biases)),
                    model_opt(before, i, rate))
                for a, b in zip(got.weights + got.biases,
                                want.weights + want.biases):
                    assert np.array_equal(a, b), (k, i)


class TestEvaluate:
    def crafted_params(self):
        # identity-ish map: one hidden unit per input, output favors the
        # class whose coordinate is largest
        from copseudo.predictor import ModelParams
        w0 = np.eye(2) * 5.0
        b0 = np.zeros(2)
        w1 = np.array([[6.0, -6.0, 0.0], [-6.0, 6.0, 0.0]])
        b1 = np.zeros(3)
        return ModelParams(arch=(2, 2, 3), weights=(w0, w1), biases=(b0, b1))

    def test_hand_fixture_two_of_three(self):
        params = self.crafted_params()
        feats = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, -1.0]])
        labels = np.array([0, 1, 1])  # last item is predicted 0, labeled 1
        test = MaskedDataset(feats, labels, np.zeros(3, dtype=np.uint8), 3)
        acc, loss = evaluate(ModelStack([params]), test)
        assert acc == pytest.approx(2 / 3)
        probs = ModelStack([params]).predict_proba(feats)[0]
        want = -np.log(probs[np.arange(3), labels]).mean()
        assert loss == pytest.approx(want, abs=1e-12)

    def test_rejects_partially_observed(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        test = MaskedDataset(feats, np.array([0, 1]),
                             np.array([0, 1], dtype=np.uint8), 3)
        with pytest.raises(ConfigError, match="fully observed"):
            evaluate(ModelStack([self.crafted_params()]), test)

    def test_rejects_empty(self):
        test = MaskedDataset(np.empty((0, 2)), np.empty(0, dtype=np.int64),
                             np.empty(0, dtype=np.uint8), 3)
        with pytest.raises(ConfigError, match="empty"):
            evaluate(ModelStack([self.crafted_params()]), test)

    def test_rejects_a_width_the_stack_does_not_take(self):
        test = MaskedDataset(np.zeros((2, 3)), np.array([0, 1]),
                             np.zeros(2, dtype=np.uint8), 3)
        with pytest.raises(ConfigError,
                           match="^feature width 3 does not match input layer 2$"):
            evaluate(ModelStack([self.crafted_params()]), test)


CHUNK = EVAL_CHUNK_ROWS


class TestChunkedEvaluation:
    """``evaluate`` multiplies the first layer of a test set of more than
    ``EVAL_CHUNK_ROWS`` rows in padded row chunks; its probabilities,
    accuracy and loss equal the oracle's on the whole float64 block, and
    no float64 copy of the whole set is made."""

    @staticmethod
    def make_test_set(storage, size):
        rng = np.random.default_rng(size)
        labels = rng.integers(0, 10, size=size)
        missing = np.zeros(size, dtype=np.uint8)
        if storage == "u1":
            pixels = rng.integers(0, 256, size=(size, 3072), dtype=np.uint8)
            return MaskedDataset.from_pixels(pixels, labels, missing, 10,
                                             CIFAR_IMAGE_SHAPE)
        return MaskedDataset(rng.standard_normal((size, 2)), labels, missing,
                             10)

    @pytest.mark.parametrize("size", [CHUNK, CHUNK + 1, CHUNK + 7,
                                      2 * CHUNK + 1, 10000])
    @pytest.mark.parametrize("storage", ["u1", "f8"])
    def test_matches_whole_block_oracle(self, monkeypatch, storage, size):
        test = self.make_test_set(storage, size)
        features = test.features
        labels = test.eval_labels()
        rows_read, probs_seen = [], []
        real_rows = MaskedDataset.rows
        real_predict = ModelStack.predict_proba

        def rows(ds, idx, out=None):
            got = real_rows(ds, idx, out)
            rows_read.append(len(got))
            return got

        def predict(stack, xs, first=None):
            probs_seen.append(real_predict(stack, xs, first))
            return probs_seen[-1]

        monkeypatch.setattr(MaskedDataset, "rows", rows)
        monkeypatch.setattr(ModelStack, "predict_proba", predict)
        for n in (1, 2, 3):
            for hidden in ((32,), (16, 8)):
                models = [init_model((test.width,) + hidden + (10,),
                                     seed=[size, n, i]) for i in range(n)]
                rows_read.clear()
                got = evaluate(ModelStack(models), test)
                want, want_probs = reference_evaluate(models, features, labels)
                assert got == want, (n, hidden)
                assert probs_seen[-1].tobytes() == want_probs.tobytes()
                assert sum(rows_read) == size
                assert max(rows_read) <= CHUNK

    def test_chunked_set_rejects_a_width_the_stack_does_not_take(self):
        test = self.make_test_set("f8", CHUNK + 1)
        stack = ModelStack([init_model((3, 4, 10), seed=0)])
        with pytest.raises(ConfigError,
                           match="^feature width 2 does not match input layer 3$"):
            evaluate(stack, test)


class TestCallBudget:
    """Calls per ``train_step`` at the desk shapes (2-wide blobs of 4
    classes, B = 16, mu = 4, one hidden layer of 32), counted with
    ``sys.setprofile`` over 10 steps after 5 warm-up steps, against
    ceilings.  A change that makes more calls raises a ceiling and says
    why.

    ``direct`` counts the calls made from copseudo's own frames, and is
    the same on every numpy this package supports, because it leaves out
    two kinds of call that numpy versions count differently:
    ``__array_function__`` dispatchers, which numpy >= 1.25 calls from C
    and so from the caller's frame, and numpy.random's methods, which
    only numpy 1.x's Cython builds as functions the profiler sees.
    ``total`` counts every call, numpy's own Python wrappers included,
    and is pinned on numpy >= 2 only."""

    # n: (direct, total) over the 10 counted steps
    CEILINGS = {1: (1361, 1391), 2: (1690, 1720), 3: (1883, 1913)}
    SPEC = SyntheticSpec(num_classes=4, dim=2, samples_per_class=250,
                         class_separation=3.0, noise_sigma=1.0)

    @staticmethod
    def counts(n):
        ds = apply_missingness(generate_synthetic(TestCallBudget.SPEC, seed=5),
                               MissingnessSpec.mcar(num_labeled=20, seed=6))
        fusion = (FusionConfig(num_models=1, single_model_mode=True,
                               pseudo_weight=1.0) if n == 1 else
                  FusionConfig(num_models=n,
                               tau_cascade=(0.85, 0.75)[-(n - 1):]))
        cfg = TrainConfig(seeds=SeedPlan.from_master(9, n), num_models=n,
                          hidden=(32,), fusion=fusion,
                          objective=ObjectiveConfig(mu=4.0, batch_size=16))
        state = TrainerState(cfg, ds)
        for _ in range(5):
            step_once(state, ds)
        batches = [state.draw_batches(ds) for _ in range(10)]
        home = os.path.dirname(trainer_mod.__file__)
        direct = total = 0

        def profile(frame, event, arg):
            nonlocal direct, total
            if event == "call":
                caller = frame.f_back
                counted = not frame.f_code.co_name.endswith("_dispatcher")
            elif event == "c_call" and arg is not sys.setprofile:
                caller = frame
                owner = (getattr(arg, "__module__", None)
                         or type(getattr(arg, "__self__", None)).__module__)
                counted = not owner.startswith("numpy.random")
            else:
                return
            total += 1
            direct += (counted and caller is not None
                       and os.path.dirname(caller.f_code.co_filename) == home)

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            for batch in batches:
                train_step(state, *batch)
        finally:
            sys.setprofile(outer)
        return direct, total

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_calls_per_step_stay_under_the_ceilings(self, n):
        direct, total = self.counts(n)
        ceiling_direct, ceiling_total = self.CEILINGS[n]
        assert direct <= ceiling_direct, (direct, total)
        if int(np.__version__.split(".")[0]) >= 2:
            assert total <= ceiling_total, (direct, total)


class TestValidateOnce:
    def test_train_path_runs_no_input_scans(self, tmp_path, monkeypatch):
        # the loop's blocks come from a validated dataset; the scans kept
        # for outside input (fusion's one-item wrappers, fuse-trace's dump
        # check and the one-model loss_and_grad) stay off its path
        def scan(*args, **kwargs):
            raise AssertionError("the train path scanned a block")

        monkeypatch.setattr("copseudo.fusion._check_block", scan)
        monkeypatch.setattr("copseudo.fusion.first_invalid_row", scan)
        monkeypatch.setattr("copseudo.predictor.loss_and_grad", scan)
        cascade = FusionConfig(num_models=3, tau_cascade=(0.85, 0.75))
        for cfg in (small_config(num_models=1), small_config(),
                    small_config(num_models=3, fusion=cascade)):
            train(cfg, tiny_dataset(), eval_set(),
                  tmp_path / f"run{cfg.num_models}")


class TestStepSummaries:
    """The mask_ratio and pseudo_acc ``train_step`` reports."""

    def test_a_step_with_no_pseudo_label_scores_one(self):
        # no weak-view prediction of the untrained models clears these
        # thresholds, so the step assigns no label
        ds = tiny_dataset()
        cfg = small_config(fusion=FusionConfig(tau=0.99, tau_cascade=(0.98,)))
        state = TrainerState(cfg, ds)
        for _ in range(2):
            metrics = step_once(state, ds)
            assert metrics.mask_ratio == 0.0
            assert metrics.pseudo_acc == 1.0
            assert metrics.source_counts[-1] == 8

    @pytest.mark.parametrize("counts", [(5,), (1, 4), (1, 1, 3), (0, 0)])
    def test_single_model_mode_averages_each_models_share(self, monkeypatch,
                                                           counts):
        # model i's fusion result labels its first counts[i] items; with a
        # 12-item batch the mean of the models' shares differs in its last
        # bit from the pooled share for these counts when n >= 2 (n = 1 has
        # one share), and mask_ratio is the mean of the shares bit for bit
        n, batch = len(counts), 12
        cfg = small_config(
            num_models=n,
            fusion=FusionConfig(num_models=n, single_model_mode=True,
                                pseudo_weight=1.0),
            objective=ObjectiveConfig(mu=3.0, batch_size=4))
        ds = tiny_dataset()
        state = TrainerState(cfg, ds)
        labeled, unlabeled, truth = state.draw_batches(ds)
        rows = np.full((n, batch), -1)
        for i, c in enumerate(counts):
            # every other label is wrong
            rows[i, :c] = (truth[:c] + np.arange(c) % 2) % ds.num_classes
        present = rows >= 0

        def fused(probs, *_):
            labels = rows.reshape(-1)
            return FusedBatch(labels, present.reshape(-1, 1) * 1.0,
                              np.where(labels >= 0, 2, 4), 0 * labels,
                              0 * labels)

        monkeypatch.setattr(trainer_mod, "fuse_batch", fused)
        metrics = train_step(state, labeled, unlabeled, truth)
        want = float(np.mean(present.mean(axis=1)))
        assert metrics.mask_ratio == want
        if n > 1 and any(counts):
            assert want != float(present.mean())
        hits = (rows == truth)[present]
        assert metrics.pseudo_acc == (float(hits.mean()) if hits.size
                                      else 1.0)


class TestPseudoLabelAccuracy:
    def decision(self, label):
        if label is None:
            return FusionDecision(pseudo_label=None, masks=(0.0, 0.0),
                                  source=SOURCE_NONE, source_model=None,
                                  source_level=None)
        return FusionDecision(pseudo_label=label, masks=(0.75, 0.75),
                              source="both_confident_agree", source_model=None,
                              source_level=1)

    def test_counts_only_present_labels(self):
        decisions = [self.decision(1), self.decision(None), self.decision(2),
                     self.decision(0)]
        truth = [1, 1, 0, 0]
        assert pseudo_label_accuracy(decisions, truth) == pytest.approx(2 / 3)

    def test_all_absent_scores_one(self):
        decisions = [self.decision(None)] * 4
        assert pseudo_label_accuracy(decisions, [0, 1, 2, 3]) == 1.0

    def test_random_guessing_near_chance(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=4000)
        decisions = [self.decision(int(v))
                     for v in rng.integers(0, 4, size=4000)]
        acc = pseudo_label_accuracy(decisions, labels)
        assert abs(acc - 0.25) < 0.03


class TestResolvedConfigLines:
    def test_every_seed_appears(self):
        cfg = small_config(num_models=3, fusion=FusionConfig(
            num_models=3, tau_cascade=(0.75, 0.6)))
        lines = resolved_config_lines(cfg)
        text = "\n".join(lines)
        for i in (1, 2, 3):
            assert f"seed.init_m{i}=" in text
            assert f"seed.augment_m{i}=" in text
        assert "tau_cascade=0.75,0.6" in text

    def test_lines_sorted_and_unique(self):
        cfg = small_config()
        lines = resolved_config_lines(cfg)
        keys = [ln.split("=", 1)[0] for ln in lines]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("num_models", [1, 3])
    def test_one_key_per_config_field(self, num_models):
        fusion = (FusionConfig(num_models=3, tau_cascade=(0.75, 0.6))
                  if num_models == 3 else None)
        cfg = small_config(num_models=num_models,
                           **({"fusion": fusion} if fusion else {}))
        want = {}
        for section, prefix in ((cfg, ""), (cfg.fusion, ""),
                                (cfg.objective, ""), (cfg.aug, "aug.")):
            for f in dataclasses.fields(section):
                value = getattr(section, f.name)
                if f.name in ("seeds", "fusion", "objective", "aug") or (
                        section is cfg.fusion and f.name == "num_models"):
                    continue
                if isinstance(value, tuple):
                    value = ",".join(str(v) for v in value)
                want[prefix + f.name] = str(value)
        for f in dataclasses.fields(SeedPlan):
            value = getattr(cfg.seeds, f.name)
            if isinstance(value, tuple):
                assert len(value) == num_models
                for i, v in enumerate(value):
                    want[f"seed.{f.name}_m{i + 1}"] = str(v)
            else:
                want[f"seed.{f.name}"] = str(value)
        got = dict(ln.split("=", 1) for ln in resolved_config_lines(cfg))
        assert got == want
        assert len(got) == 25 + 3 * num_models

    def test_a_new_field_is_written(self):
        @dataclasses.dataclass(frozen=True)
        class Extended(AugmentConfig):
            blur: float = 0.5

        cfg = dataclasses.replace(small_config(), aug=Extended())
        assert "aug.blur=0.5" in resolved_config_lines(cfg)

    def test_key_collision_raises(self):
        @dataclasses.dataclass(frozen=True)
        class Clashing(ObjectiveConfig):
            lr: float = 0.5

        cfg = dataclasses.replace(small_config(), objective=Clashing())
        with pytest.raises(ValueError, match="^two config fields write key "
                                             "lr$"):
            resolved_config_lines(cfg)
