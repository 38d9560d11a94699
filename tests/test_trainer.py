import copy
import math

import numpy as np
import pytest

import copseudo.trainer as trainer_mod
from copseudo.augment import AugmentConfig, AugmentStream
from copseudo.data import (
    CIFAR_IMAGE_SHAPE,
    MaskedDataset,
    MissingnessSpec,
    SyntheticSpec,
    apply_missingness,
    generate_synthetic,
)
from copseudo.errors import ConfigError, DivergenceError
from copseudo.fusion import FusionConfig, FusionDecision, SOURCE_NONE, SOURCE_OWN, fuse_pair
from copseudo.losses import ObjectiveConfig
from copseudo.metrics import read_csv
from copseudo.predictor import (
    Gradients,
    ModelStack,
    add_scaled,
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
    full_strong_pass,
    pseudo_label_accuracy,
    reference_dump_predictions,
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


def run_steps(cfg, ds):
    """``cfg.steps`` calls of train_step on cycled batches; returns the
    state and each step's train losses."""
    state = TrainerState(cfg, ds)
    cyclers = [ShuffleCycler(ds.observed_indices(), seed)
               for seed in cfg.seeds.data_order]
    unlabeled = ShuffleCycler(ds.missing_indices(), cfg.seeds.unlabeled_order)
    losses = []
    for _ in range(cfg.steps):
        labeled = []
        for cycler in cyclers:
            idx = cycler.take(cfg.objective.batch_size)
            labeled.append((ds.rows(idx), ds.observed_labels(idx)))
        u_idx = unlabeled.take(cfg.objective.unlabeled_batch_size)
        losses.append(train_step(state, labeled, ds.rows(u_idx), cfg,
                                 ds.eval_labels(u_idx)).train_losses)
    return state, losses


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
        clone = copy.deepcopy(state)
        models = clone.stack.models()
        n = cfg.num_models
        lam = cfg.objective.lambda_u
        sup = []
        for i, (xs, ys) in enumerate(labeled):
            weak = clone.weak_labeled[i].apply_batch(xs)
            sup.append(loss_and_grad(models[i], weak, ys, np.ones(len(ys))))
        weak_u = clone.weak_unlabeled.apply_batch(unlabeled)
        probs = [ModelStack([p]).predict_proba(weak_u)[0] for p in models]
        decisions = [
            fuse_pair(probs[0][b], probs[1][b], cfg.fusion,
                      np.random.default_rng([cfg.seeds.fusion, step_index, b]))
            for b in range(unlabeled.shape[0])]
        out_params = []
        for i in range(n):
            strong = clone.strong_unlabeled[i].apply_batch(unlabeled)
            targets = np.array([d.pseudo_label if d.has_label else 0
                                for d in decisions])
            weights = np.array([d.masks[i] if d.has_label else 0.0
                                for d in decisions])
            _, g_u = loss_and_grad(models[i], strong, targets, weights)
            total = add_scaled(sup[i][1], g_u, lam)
            params, _ = reference_sgd_step(models[i], total,
                                           model_opt(clone.stack, i, cfg.lr))
            out_params.append(params)
        return out_params

    def test_two_model_step_matches_manual_replication(self):
        ds = tiny_dataset()
        cfg = small_config()
        state = TrainerState(cfg, ds)
        rng = np.random.default_rng(3)
        labeled_idx = [rng.choice(ds.observed_indices(), size=4, replace=False)
                       for _ in range(2)]
        labeled = [(ds.features[idx], ds.observed_labels(idx))
                   for idx in labeled_idx]
        u_idx = rng.choice(ds.missing_indices(), size=8, replace=False)
        unlabeled = ds.features[u_idx]

        expected = self.manual_step(state, labeled, unlabeled, cfg, step_index=1)
        train_step(state, labeled, unlabeled, cfg, ds.eval_labels(u_idx))
        for got, want in zip(state.stack.models(), expected):
            for gw, ww in zip(got.weights, want.weights):
                assert (gw == ww).all()
            for gb, wb in zip(got.biases, want.biases):
                assert (gb == wb).all()

        # second step continues the same streams and fusion sub-streams
        expected = self.manual_step(state, labeled, unlabeled, cfg, step_index=2)
        train_step(state, labeled, unlabeled, cfg, ds.eval_labels(u_idx))
        for got, want in zip(state.stack.models(), expected):
            for gw, ww in zip(got.weights, want.weights):
                assert (gw == ww).all()

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
            train_step(state, labeled, ds.features[u_idx], cfg,
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
        metrics = train_step(state, labeled, ds.features[u_idx], cfg,
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
            weak = clone.weak_labeled[i].apply_batch(ds.features[idx])
            l, _ = loss_and_grad(params, weak,
                                 ds.observed_labels(idx), np.ones(4))
            sup.append(l)
        got_gap = metrics.train_losses[0] - metrics.train_losses[1]
        assert got_gap == pytest.approx(sup[0] - sup[1], abs=1e-12)

    def test_views_are_written_into_the_state_blocks(self):
        # the per-model views land in blocks allocated once per run, not in
        # per-step copies; a strong-view row whose weight is 0 is +0.0, the
        # others are the rows apply_batch builds, and every stream advances
        # as it does under apply_batch
        ds = image_dataset()
        cfg = image_config("pair")
        state = TrainerState(cfg, ds)
        blocks = (state.labeled_views, state.strong_views)
        idx = ds.observed_indices()[:8]
        labeled = [(ds.rows(idx), ds.observed_labels(idx))] * 2
        u_feats = ds.rows(ds.missing_indices()[:32])
        u_true = ds.eval_labels(ds.missing_indices()[:32])
        kept = []
        for _ in range(2):
            clone = copy.deepcopy(state)
            metrics = train_step(state, labeled, u_feats, cfg, u_true)
            assert state.labeled_views is blocks[0]
            assert state.strong_views is blocks[1]
            weak = clone.weak_unlabeled.apply_batch(u_feats)
            np.testing.assert_array_equal(metrics.weak_probs,
                                          clone.stack.predict_proba(weak))
            keep = fuse_batch(metrics.weak_probs, cfg.fusion, cfg.seeds.fusion,
                              state.step).masks.T > 0
            kept.append(keep)
            for i in range(2):
                np.testing.assert_array_equal(
                    state.labeled_views[i],
                    clone.weak_labeled[i].apply_batch(ds.rows(idx)))
                strong = clone.strong_unlabeled[i].apply_batch(u_feats)
                got = state.strong_views[i]
                np.testing.assert_array_equal(got[keep[i]], strong[keep[i]])
                assert (got[~keep[i]].view(np.uint64) == 0).all()
            for got_s, want_s in zip(
                    state.weak_labeled + state.strong_unlabeled
                    + [state.weak_unlabeled],
                    clone.weak_labeled + clone.strong_unlabeled
                    + [clone.weak_unlabeled]):
                assert (got_s.rng.bit_generator.state
                        == want_s.rng.bit_generator.state)
        assert 0 < np.mean(kept) < 1

    def test_batch_size_validation(self):
        ds = tiny_dataset()
        cfg = small_config()
        state = TrainerState(cfg, ds)
        idx = ds.observed_indices()[:3]
        labeled = [(ds.features[idx], ds.observed_labels(idx))] * 2
        with pytest.raises(ConfigError, match="batch size"):
            train_step(state, labeled, ds.features[:8], cfg, np.zeros(8))
        idx = ds.observed_indices()[:4]
        short = [(ds.features[idx], ds.observed_labels(idx)[:3])] * 2
        with pytest.raises(ConfigError, match="labeled batch size"):
            train_step(state, short, ds.features[:8], cfg, np.zeros(8))

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
            train_step(state, labeled, ds.features[:8], cfg, np.zeros(8))
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


class TestFuseBatch:
    def test_single_model_mode_is_literal_thresholding(self):
        rng = np.random.default_rng(0)
        raw = rng.random((1, 16, 4))
        probs = raw / raw.sum(axis=2, keepdims=True)
        cfg = FusionConfig(num_models=1, single_model_mode=True, tau=0.4,
                           pseudo_weight=1.0)
        per_model = fuse_batch(probs, cfg, fusion_seed=1, step=0)
        assert len(per_model) == 1
        for b, decision in enumerate(per_model[0]):
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
        seen = {fuse_batch(probs, cfg, fusion_seed=0, step=s)[0].pseudo_label
                for s in range(40)}
        assert seen == {0, 1}


class TestLambdaZeroIsolation:
    def test_each_model_matches_its_supervised_solo_run(self, tmp_path):
        ds = tiny_dataset()
        test = eval_set()
        joint_plan = SeedPlan.from_master(21, 2)
        joint_cfg = small_config(
            seeds=joint_plan, steps=6,
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
        assert metrics.steps() == [0, 2, 4]

    def test_final_partial_interval_still_recorded(self, tmp_path):
        ds = tiny_dataset()
        cfg = small_config(steps=5, eval_every=2)
        out = tmp_path / "run"
        train(cfg, ds, eval_set(), out)
        metrics = read_csv(out / "metrics.csv")
        assert metrics.steps() == [0, 2, 4, 5]

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
        assert metrics.steps() == [0]
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
        with pytest.raises(ConfigError, match="unlabeled"):
            train(cfg, full, eval_set(), tmp_path / "x")

    def test_batch_larger_than_labeled_pool(self, tmp_path):
        ds = tiny_dataset(num_labeled=3)
        cfg = small_config()
        with pytest.raises(ConfigError, match="exceeds"):
            train(cfg, ds, eval_set(), tmp_path / "x")


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
        assert row0.source_counts() == first.source_counts


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

    def test_random_doubles_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2 ** 64, size=2 * 9 * 5, dtype=np.uint64)
        probs = bits.view(np.float64).reshape(2, 9, 5)
        probs[~np.isfinite(probs)] = 0.5
        trainer_mod._dump_predictions(tmp_path / "got.csv", probs)
        reference_dump_predictions(tmp_path / "want.csv", probs)
        got = (tmp_path / "got.csv").read_text()
        assert got == (tmp_path / "want.csv").read_text()
        rows = [line.split(",") for line in got.splitlines()[1:]]
        back = np.array([[float(v) for v in r[2:]] for r in rows])
        np.testing.assert_array_equal(
            back.view(np.uint64),
            probs.transpose(1, 0, 2).reshape(-1, 5).view(np.uint64))


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
            train_step(state, [batch, batch], ds.rows(u_idx), cfg,
                       ds.eval_labels(u_idx))


    def test_diverged_last_update_raises(self, tmp_path, monkeypatch):
        real = ModelStack._sgd_step

        def poisoned(stack, grads, lr):
            real(stack, grads, lr)
            stack.biases[0][1, 0] = np.nan

        monkeypatch.setattr(ModelStack, "_sgd_step", poisoned)
        with pytest.raises(DivergenceError,
                           match="diverged at step 1: model 2 parameter"):
            train(small_config(steps=1), tiny_dataset(), eval_set(),
                  tmp_path / "run")
        assert not (tmp_path / "run" / "metrics.csv").exists()


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
            assert a.source_counts() == b.source_counts()


class TestSingleModelRun:
    def test_runs_and_reports_own_or_none_sources(self, tmp_path):
        ds = tiny_dataset()
        cfg = small_config(num_models=1, steps=3)
        out = tmp_path / "run"
        train(cfg, ds, eval_set(), out)
        metrics = read_csv(out / "metrics.csv")
        assert metrics.num_models == 1
        for row in metrics.rows:
            assert row.src_both == 0
            assert row.src_conflict == 0
            assert row.src_consensus == 0
            assert row.src_own + row.src_none == 8


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
        train_step(s_flat, labeled, ds.features[u_idx], cfg_flat,
                   ds.eval_labels(u_idx))
        train_step(s_cos, labeled, ds.features[u_idx], cfg_cos,
                   ds.eval_labels(u_idx))
        # cos(0) = 1, so the first update is identical either way
        for a, b in zip(s_flat.stack.weights, s_cos.stack.weights):
            assert (a == b).all()
        # later steps shrink the rate, so the histories diverge
        for _ in range(3):
            train_step(s_flat, labeled, ds.features[u_idx], cfg_flat,
                       ds.eval_labels(u_idx))
            train_step(s_cos, labeled, ds.features[u_idx], cfg_cos,
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
        real = ModelStack._sgd_step
        seen = []

        def spy(stack, grads, lr):
            seen.append(grads)
            real(stack, grads, lr)

        monkeypatch.setattr(ModelStack, "_sgd_step", spy)
        for k in range(cfg.steps):
            rate = cfg.lr * math.cos(7.0 * math.pi * k / (16.0 * cfg.steps))
            before = copy.deepcopy(state.stack)
            train_step(state, labeled, ds.features[u_idx], cfg,
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


class TestValidateOnce:
    def test_train_path_runs_no_input_scans(self, tmp_path, monkeypatch):
        # the loop's blocks come from a validated dataset; the public
        # checks of the stack and of fusion stay off its path
        def scan(*args, **kwargs):
            raise AssertionError("the train path scanned a block")

        monkeypatch.setattr(ModelStack, "_check_batch", scan)
        monkeypatch.setattr(ModelStack, "sgd_step", scan)
        monkeypatch.setattr("copseudo.fusion._check_block", scan)
        cascade = FusionConfig(num_models=3, tau_cascade=(0.85, 0.75))
        for cfg in (small_config(num_models=1), small_config(),
                    small_config(num_models=3, fusion=cascade)):
            train(cfg, tiny_dataset(), eval_set(),
                  tmp_path / f"run{cfg.num_models}")


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
