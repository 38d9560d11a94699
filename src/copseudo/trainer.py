"""Lock-step multi-model training loop.

Each step: every model computes a supervised loss on its own weakly
augmented labeled batch; all models predict on ONE shared weak view of
the unlabeled batch; fusion turns those predictions into
pseudo-labels and per-model masks; every model computes its unlabeled
loss on its own strong views; all parameter updates are applied after
every gradient is computed, so the models never see each other
mid-step.

The shared weak view is written into model 1's slot of the strong-view
block, which is free until the strong views are built.  Each strong
stream gets its model's ``weights > 0`` as ``keep``, so an image row
that carries no loss costs only its draws (see
``augment.strong_images`` for why that leaves every bit unchanged).

``TrainerState`` holds the n models and their momentum buffers as one
``predictor.ModelStack``; ``evaluate`` scores a stack on the test set,
each number averaged over its models.  ``DivergenceError`` is the one
report of a non-finite value inside the loop.
"""
from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .augment import AugmentConfig, AugmentStream
from .data import MaskedDataset
from .errors import ConfigError, DivergenceError
from .fusion import SOURCES, FusionConfig
# benchmarks/tracing.py and bench.py's replay check look it up by this name
from .fusion import fuse_valid_batch as fuse_batch
from .losses import ObjectiveConfig, supervised_loss, total_objective
from .metrics import MetricsRow, RunMetrics, emit_csv, emit_plot_columns
from .predictor import ModelStack, add_scaled, init_model, save_checkpoint

CONFIG_FILENAME = "config.resolved"
METRICS_FILENAME = "metrics.csv"


@dataclass(frozen=True)
class SeedPlan:
    """Every random stream in a run, named and explicit."""

    init: tuple[int, ...]
    data_order: tuple[int, ...]
    augment: tuple[int, ...]
    fusion: int
    unlabeled_order: int
    unlabeled_weak: int

    def __post_init__(self):
        lengths = {len(self.init), len(self.data_order), len(self.augment)}
        if len(lengths) != 1:
            raise ConfigError("per-model seed tuples must have equal length")

    @property
    def num_models(self) -> int:
        return len(self.init)

    @classmethod
    def from_master(cls, master: int, num_models: int) -> "SeedPlan":
        if num_models < 1:
            raise ConfigError("num_models must be >= 1")
        state = np.random.SeedSequence(master).generate_state(3 * num_models + 3)
        vals = [int(v) for v in state]
        return cls(
            init=tuple(vals[0:num_models]),
            data_order=tuple(vals[num_models:2 * num_models]),
            augment=tuple(vals[2 * num_models:3 * num_models]),
            fusion=vals[3 * num_models],
            unlabeled_order=vals[3 * num_models + 1],
            unlabeled_weak=vals[3 * num_models + 2],
        )


@dataclass(frozen=True)
class TrainConfig:
    seeds: SeedPlan
    num_models: int = 2
    steps: int = 2000
    eval_every: int = 50
    hidden: tuple[int, ...] = (32,)
    fusion: FusionConfig = FusionConfig()
    objective: ObjectiveConfig = ObjectiveConfig()
    aug: AugmentConfig = AugmentConfig()
    lr: float = 0.03
    momentum: float = 0.9
    weight_decay: float = 5e-4
    cosine_lr: bool = False
    dump_predictions_every: int = 0

    def __post_init__(self):
        problems = []
        if self.num_models < 1:
            problems.append("num_models must be >= 1")
        if self.steps < 0:
            problems.append("steps must be >= 0 (0 runs the initial "
                            "evaluation only)")
        if self.eval_every < 1:
            problems.append("eval_every must be >= 1")
        if self.dump_predictions_every < 0:
            problems.append("dump_predictions_every must be >= 0")
        if not self.hidden or any(h < 1 for h in self.hidden):
            problems.append("hidden layer sizes must be positive")
        if self.fusion.num_models != self.num_models:
            problems.append(
                f"fusion config is for {self.fusion.num_models} models, "
                f"trainer for {self.num_models}")
        if self.num_models == 1 and not self.fusion.single_model_mode:
            problems.append("a one-model run requires single_model_mode")
        if self.seeds.num_models != self.num_models:
            problems.append(
                f"seed plan covers {self.seeds.num_models} models, "
                f"trainer needs {self.num_models}")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            problems.append("lr must be a positive finite real")
        if not (0.0 <= self.momentum < 1.0):
            problems.append("momentum must lie in [0, 1)")
        if not (self.weight_decay >= 0 and math.isfinite(self.weight_decay)):
            problems.append("weight_decay must be a non-negative finite real")
        if problems:
            raise ConfigError("invalid train config: " + "; ".join(problems))


@dataclass(frozen=True)
class StepMetrics:
    """Quantities of one training step.

    ``source_counts`` is (both, conflict, own, consensus, none) over the
    unlabeled batch; in single-model mode it is taken from model 1 while
    mask_ratio and pseudo-label accuracy pool every model's decisions.
    ``weak_probs`` is the (models, batch, C) block fusion saw.
    """

    step: int
    train_losses: tuple[float, ...]
    mask_ratio: float
    pseudo_acc: float
    source_counts: tuple[int, int, int, int, int]
    weak_probs: np.ndarray = field(default=None, compare=False, repr=False)


class ShuffleCycler:
    """Endless stream of dataset indices: reshuffles when exhausted."""

    def __init__(self, indices, seed):
        self._indices = np.asarray(indices, dtype=np.int64)
        if self._indices.size == 0:
            raise ConfigError("cannot cycle an empty index set")
        self._rng = np.random.default_rng(seed)
        self._order = np.empty(0, dtype=np.int64)
        self._pos = 0

    def take(self, k: int) -> np.ndarray:
        if k < 1:
            raise ConfigError("batch size must be >= 1")
        out = np.empty(k, dtype=np.int64)
        filled = 0
        while filled < k:
            if self._pos >= self._order.size:
                self._order = self._rng.permutation(self._indices)
                self._pos = 0
            grab = min(k - filled, self._order.size - self._pos)
            out[filled:filled + grab] = self._order[self._pos:self._pos + grab]
            self._pos += grab
            filled += grab
        return out


class TrainerState:
    """The stacked models and every stateful stream of the loop."""

    def __init__(self, cfg: TrainConfig, ds: MaskedDataset):
        width = ds.width
        arch = (width,) + tuple(cfg.hidden) + (ds.num_classes,)
        params = [init_model(arch, seed=cfg.seeds.init[i])
                  for i in range(cfg.num_models)]
        self.stack = ModelStack(params, cfg.momentum, cfg.weight_decay)
        # each step writes its per-model views straight into these blocks
        self.labeled_views = np.empty(
            (cfg.num_models, cfg.objective.batch_size, width))
        self.strong_views = np.empty(
            (cfg.num_models, cfg.objective.unlabeled_batch_size, width))
        mod = ds.modality
        shape = ds.feature_shape if mod == "image" else None
        self.weak_labeled = [
            AugmentStream("weak", mod, seed=[cfg.seeds.augment[i], 0],
                          config=cfg.aug, feature_shape=shape)
            for i in range(cfg.num_models)]
        self.strong_unlabeled = [
            AugmentStream("strong", mod, seed=[cfg.seeds.augment[i], 1],
                          config=cfg.aug, feature_shape=shape)
            for i in range(cfg.num_models)]
        self.weak_unlabeled = AugmentStream(
            "weak", mod, seed=cfg.seeds.unlabeled_weak, config=cfg.aug,
            feature_shape=shape)
        self.step = 0


def train_step(state: TrainerState, labeled_batches, unlabeled, cfg: TrainConfig,
               unlabeled_true_labels_eval_only) -> StepMetrics:
    """Advance every model one step; mutates ``state`` in place.

    ``labeled_batches`` is a per-model list of (features, labels);
    ``unlabeled`` is the shared (mu*B, d) feature block.  The true labels
    of the unlabeled items are accepted ONLY to score pseudo-label
    accuracy for the metrics row; they never touch a loss or gradient.
    A non-finite loss or weak-view prediction raises ``DivergenceError``
    naming the step.
    """
    n = cfg.num_models
    if len(labeled_batches) != n:
        raise ConfigError(f"need {n} labeled batches, got {len(labeled_batches)}")
    batch_sizes = {len(part) for batch in labeled_batches for part in batch}
    if batch_sizes != {cfg.objective.batch_size}:
        raise ConfigError("labeled batch size mismatch")
    if unlabeled.shape[0] != cfg.objective.unlabeled_batch_size:
        raise ConfigError("unlabeled batch size mismatch")

    stack = state.stack
    sup_targets = np.stack([ys for _, ys in labeled_batches]).astype(np.int64)
    if sup_targets.min() < 0 or sup_targets.max() >= stack.num_classes:
        raise ConfigError("target class out of range")

    # supervised pass on each model's own weak view of its labeled batch
    for i, (xs, _) in enumerate(labeled_batches):
        state.weak_labeled[i].apply_batch_into(xs, state.labeled_views[i])
    l_s, g_s = stack._loss_and_grad(state.labeled_views, sup_targets,
                                    np.ones(sup_targets.shape))

    # one shared weak view of the unlabeled batch, predicted by every model;
    # it lives in model 1's strong-view slot until the strong views are built
    weak_probs = stack._predict_proba(state.weak_unlabeled.apply_batch_into(
        unlabeled, state.strong_views[0]))
    # a diverged model shows here first; fusion trusts its input, so this
    # is the one check between the softmax and the pseudo-labels
    _check_finite(state.step + 1, "supervised loss", l_s)
    _check_finite(state.step + 1, "weak-view prediction", weak_probs)

    # fusion streams are keyed by the 1-based update index, the same index
    # that names a predictions dump, so offline re-fusion of a dump can
    # replay the exact coin flips
    fused = fuse_batch(weak_probs, cfg.fusion, cfg.seeds.fusion, state.step + 1)
    single = cfg.fusion.single_model_mode
    batches = fused if single else [fused]

    # unlabeled pass on per-model strong views; single-model decisions
    # carry one mask, fused decisions one per model.  Absent labels (-1)
    # become class 0 at mask 0.  Rows of weight 0 need no pixels.
    if single:
        targets = np.stack([f.labels for f in batches])
        weights = np.stack([f.masks[:, 0] for f in batches])
    else:
        targets = fused.labels[None].repeat(n, axis=0)
        weights = fused.masks.T
    keep = weights > 0
    for i in range(n):
        state.strong_unlabeled[i].apply_batch_into(
            unlabeled, state.strong_views[i], keep=keep[i])
    l_u, g_u = stack._loss_and_grad(state.strong_views,
                                    np.maximum(targets, 0), weights)
    _check_finite(state.step + 1, "unlabeled loss", l_u)

    # one update of every model, after all gradients exist
    lr = cfg.lr
    if cfg.cosine_lr and cfg.steps > 0:
        lr *= math.cos(7.0 * math.pi * state.step / (16.0 * cfg.steps))
    grads = add_scaled(g_s, g_u, cfg.objective.lambda_u)
    del g_s, g_u  # the update's temporaries reuse their memory
    stack._sgd_step(grads, lr)
    l_u_all = tuple(float(v) for v in l_u)
    train_losses = [total_objective(float(l_s[i]), l_u_all, i, cfg.objective)
                    for i in range(n)]

    # single-model mode pools every model's decisions
    labels = np.concatenate([f.labels for f in batches])
    hits = labels == np.tile(unlabeled_true_labels_eval_only, len(batches))
    present = labels >= 0
    ratio = float(np.mean([np.mean(f.labels >= 0) for f in batches]))
    acc = float(hits[present].mean()) if present.any() else 1.0
    hist = tuple(int(c) for c in np.bincount(batches[0].sources,
                                             minlength=len(SOURCES)))

    state.step += 1
    return StepMetrics(step=state.step, train_losses=tuple(train_losses),
                       mask_ratio=ratio, pseudo_acc=acc, source_counts=hist,
                       weak_probs=weak_probs)


def _check_finite(step: int, what: str, values: np.ndarray) -> None:
    """Raise ``DivergenceError`` naming ``step`` and the first model whose
    ``values`` (model-major) hold a non-finite entry."""
    if np.isfinite(values).all():
        return
    finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
    raise DivergenceError(f"training diverged at step {step}: model "
                          f"{int(np.argmin(finite)) + 1} {what} is not finite")


def evaluate(stack: ModelStack, test: MaskedDataset) -> tuple[float, float]:
    """Accuracy and mean loss on a fully observed set, no augmentation,
    each averaged over the models of ``stack``."""
    if len(test) == 0:
        raise ConfigError("empty test set")
    if test.num_missing:
        raise ConfigError("test set must be fully observed")
    probs = stack._predict_proba(stack._check_shape(test.rows(slice(None))))
    labels = test.eval_labels()
    accs = (probs.argmax(axis=2) == labels).mean(axis=1)
    losses = [supervised_loss(p, labels) for p in probs]
    return float(np.mean(accs)), float(np.mean(losses))


def resolved_config_lines(cfg: TrainConfig) -> list[str]:
    """Flat key=value lines capturing every knob and seed, sorted."""
    kv = {
        "num_models": cfg.num_models,
        "steps": cfg.steps,
        "eval_every": cfg.eval_every,
        "hidden": ",".join(str(h) for h in cfg.hidden),
        "lr": cfg.lr,
        "momentum": cfg.momentum,
        "weight_decay": cfg.weight_decay,
        "cosine_lr": cfg.cosine_lr,
        "dump_predictions_every": cfg.dump_predictions_every,
        "tau": cfg.fusion.tau,
        "tau_cascade": ",".join(repr(t) for t in cfg.fusion.tau_cascade),
        "pseudo_weight": cfg.fusion.pseudo_weight,
        "single_model_mode": cfg.fusion.single_model_mode,
        "conflict_drop": cfg.fusion.conflict_drop,
        "lambda_u": cfg.objective.lambda_u,
        "shared_unlabeled": cfg.objective.shared_unlabeled,
        "mu": cfg.objective.mu,
        "batch_size": cfg.objective.batch_size,
        "aug.sigma_weak": cfg.aug.sigma_weak,
        "aug.sigma_strong": cfg.aug.sigma_strong,
        "aug.vector_drop_prob": cfg.aug.vector_drop_prob,
        "aug.image_shift_weak": cfg.aug.image_shift_weak,
        "aug.image_shift_strong": cfg.aug.image_shift_strong,
        "seed.fusion": cfg.seeds.fusion,
        "seed.unlabeled_order": cfg.seeds.unlabeled_order,
        "seed.unlabeled_weak": cfg.seeds.unlabeled_weak,
    }
    for i in range(cfg.num_models):
        kv[f"seed.init_m{i + 1}"] = cfg.seeds.init[i]
        kv[f"seed.data_order_m{i + 1}"] = cfg.seeds.data_order[i]
        kv[f"seed.augment_m{i + 1}"] = cfg.seeds.augment[i]
    return [f"{k}={kv[k]}" for k in sorted(kv)]


def _dump_predictions(path, weak_probs) -> None:
    """Offline-fusion input format: item,model,p0..p{C-1}; model is 1-based.

    Values carry 17 significant digits so re-parsing restores the exact
    doubles the in-run fusion saw.  The rows are formatted in one ``%``
    operation over the whole block.
    """
    n, batch, num_classes = weak_probs.shape
    row = "%d,%d," + ",".join(["%.17g"] * num_classes) + "\n"
    probs = weak_probs.transpose(1, 0, 2).reshape(batch * n, num_classes)
    values = []
    for r, p in enumerate(probs.tolist()):
        values += (r // n, r % n + 1, *p)
    with open(path, "w", encoding="ascii") as fh:
        cols = ",".join(f"p{c}" for c in range(num_classes))
        fh.write(f"item,model,{cols}\n")
        fh.write(row * (batch * n) % tuple(values))


def train(cfg: TrainConfig, ds: MaskedDataset, test: MaskedDataset,
          out_dir) -> str:
    """Run the loop and write the run directory; returns its path."""
    num_labeled = ds.num_observed
    if num_labeled == 0 or ds.num_missing == 0:
        raise ConfigError("training data needs at least one labeled and one "
                          "unlabeled item")
    if cfg.objective.batch_size > num_labeled:
        raise ConfigError(
            f"batch size {cfg.objective.batch_size} exceeds the "
            f"{num_labeled} labeled items")
    if len(test) == 0:
        raise ConfigError("empty test set")

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, CONFIG_FILENAME), "w",
              encoding="ascii") as fh:
        fh.write("\n".join(resolved_config_lines(cfg)) + "\n")

    state = TrainerState(cfg, ds)
    labeled_cyclers = [ShuffleCycler(ds.observed_indices(),
                                     seed=cfg.seeds.data_order[i])
                       for i in range(cfg.num_models)]
    unlabeled_cycler = ShuffleCycler(ds.missing_indices(),
                                     seed=cfg.seeds.unlabeled_order)
    metrics = RunMetrics(num_models=cfg.num_models)

    def draw_batches():
        labeled = []
        for i in range(cfg.num_models):
            idx = labeled_cyclers[i].take(cfg.objective.batch_size)
            labeled.append((ds.rows(idx), ds.observed_labels(idx)))
        u_idx = unlabeled_cycler.take(cfg.objective.unlabeled_batch_size)
        return labeled, ds.rows(u_idx), ds.eval_labels(u_idx)

    def record(step_metrics: StepMetrics, eval_step: int, evaluated) -> None:
        acc, loss = evaluated
        metrics.append(MetricsRow(
            step=eval_step, test_acc=acc, test_loss=loss,
            train_losses=step_metrics.train_losses,
            mask_ratio=step_metrics.mask_ratio,
            pseudo_acc=step_metrics.pseudo_acc,
            src_both=step_metrics.source_counts[0],
            src_conflict=step_metrics.source_counts[1],
            src_own=step_metrics.source_counts[2],
            src_consensus=step_metrics.source_counts[3],
            src_none=step_metrics.source_counts[4]))

    # row 0 evaluates the initial parameters and takes its train-side
    # numbers from step 1, which train_step measures on the parameters it
    # starts from; with steps=0 that one step runs only to fill the row, so
    # the checkpoints come from a copy of the initial stack, which the step
    # updates in place
    initial_eval = evaluate(state.stack, test)
    final = state.stack if cfg.steps else copy.deepcopy(state.stack)
    # a diverging run overflows before train_step names the step in a
    # DivergenceError; numpy's warnings about it would only come first
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(1, max(cfg.steps, 1) + 1):
            labeled, u_feats, u_true = draw_batches()
            last = train_step(state, labeled, u_feats, cfg, u_true)
            # free this step's batch before the next one is drawn
            del labeled, u_feats, u_true
            if step == 1:
                record(last, 0, initial_eval)
            if step > cfg.steps:
                break
            if (cfg.dump_predictions_every
                    and step % cfg.dump_predictions_every == 0):
                _dump_predictions(
                    os.path.join(out_dir, f"predictions-step{step}.csv"),
                    last.weak_probs)
            if step % cfg.eval_every == 0 or step == cfg.steps:
                record(last, step, evaluate(state.stack, test))
    # a later step's losses catch a diverged update; the last has no later
    # step, and with the warnings off nothing else would report it
    for tensor in final.weights + final.biases:
        _check_finite(cfg.steps, "parameter", tensor)

    emit_csv(metrics, os.path.join(out_dir, METRICS_FILENAME))
    emit_plot_columns(metrics, out_dir)
    for i, params in enumerate(final.models()):
        save_checkpoint(params, os.path.join(
            out_dir, f"ckpt-model{i + 1}-step{cfg.steps}"))
    return str(out_dir)
