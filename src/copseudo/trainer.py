"""Lock-step multi-model training loop.

Each step: every model computes a supervised loss on its own weakly
augmented labeled batch; all models predict on ONE shared weak view of
the unlabeled batch; fusion turns those predictions into
pseudo-labels and per-model masks; every model computes its unlabeled
loss on its own strong views; all parameter updates are applied after
every gradient is computed, so the models never see each other
mid-step.

The shared weak view is written into model 1's slot of the strong-view
block, which is free until the strong views are built.  An image run's
block has only that slot, so it does not grow with n: each model in turn
writes its strong views there and runs its unlabeled pass alone
(``ModelStack.model``).  A vector run's block has a slot per model and
one stacked pass, since a desk step is bound by call overhead and n
one-model passes made desk-cascade3-mnar steps a quarter slower.  Either
way one loop runs the passes, and each pass adds lambda_u times its
gradient into the supervised gradient in place, so no separate
unlabeled gradient is kept.  Each strong stream gets its model's
``weights > 0`` as ``keep``, so an image row that carries no loss costs
only its draws and is left as it was (see ``augment.strong_images`` for
why that leaves every bit unchanged).  In an image run whose shapes
``ModelStack.kept_chunk_rows`` accepts, which ``TrainerState`` decides
once, only the kept rows enter the first-layer product of the unlabeled
pass: they are gathered into the labeled-view block, free once the
supervised gradient exists.

A pixel dataset's batches reach the augment streams as its uint8
pixels; each view divides them into its float64 block.

``TrainerState`` owns all a run carries between steps: the
``TrainConfig`` it was built from, which ``train_step`` reads, the n
models and their momentum buffers as one ``predictor.ModelStack``, the
augment streams, the batch cyclers and the step; a deep copy of it is a
snapshot of the run.  The config classes hold every default, and
``resolved_config_lines`` reads ``config.resolved`` off their fields, so
a field added to a class is written with no further code.  ``evaluate``
scores a stack on the test set, each number averaged over its models,
and multiplies a large set's first layer in row chunks.
``DivergenceError`` is the one report of a non-finite value inside the
loop.  ``train`` appends each eval point's row to the history files as
it is recorded (``metrics.append_row``); checkpoints come after the loop.
``_dump_predictions`` writes the weak-view dumps that ``fuse-trace``
replays, and ``read_predictions`` parses and checks them.
"""
from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import chain

import numpy as np

from .augment import AugmentConfig, AugmentStream
from .data import MaskedDataset
from .errors import ConfigError, DataError, DivergenceError
from .fusion import SOURCES, FusionConfig, first_invalid_row, fuse_batch
from .losses import ObjectiveConfig, supervised_loss
from .metrics import MetricsRow, RunMetrics, append_row
from .predictor import ModelStack, init_model, save_checkpoint

CONFIG_FILENAME = "config.resolved"


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
    """The config, the stacked models and every stateful stream of a run;
    it keeps no dataset, so a deep copy is a snapshot of the run between
    steps."""

    def __init__(self, cfg: TrainConfig, ds: MaskedDataset):
        self.cfg = cfg
        num_labeled = ds.num_observed
        if num_labeled == 0 or ds.num_missing == 0:
            raise ConfigError("training data needs at least one labeled and one "
                              "unlabeled item")
        if ds.num_classes < 2:
            raise ConfigError(f"training data has {ds.num_classes} class, "
                              "a run needs at least 2")
        if cfg.objective.batch_size > num_labeled:
            raise ConfigError(
                f"batch size {cfg.objective.batch_size} exceeds the "
                f"{num_labeled} labeled items")
        width = ds.width
        arch = (width,) + tuple(cfg.hidden) + (ds.num_classes,)
        params = [init_model(arch, seed=cfg.seeds.init[i])
                  for i in range(cfg.num_models)]
        self.stack = ModelStack(params, cfg.momentum, cfg.weight_decay)
        mod = ds.modality
        # each step writes its per-model views straight into these blocks;
        # a strong image row that carries no loss is left as it was, and
        # must hold finite values >= +0 (see augment.strong_images), so the
        # strong block, one model's in an image run, starts at +0.0
        self.labeled_views = np.empty(
            (cfg.num_models, cfg.objective.batch_size, width))
        self.strong_views = np.zeros(
            (1 if mod == "image" else cfg.num_models,
             cfg.objective.unlabeled_batch_size, width))
        # the rows of labeled_views, free once the supervised gradient
        # exists, that an image run's strong pass lends to the product of
        # its kept rows; 0 multiplies the whole strong block
        self.kept_chunk_rows = self.stack.kept_chunk_rows(
            cfg.objective.unlabeled_batch_size,
            cfg.num_models * cfg.objective.batch_size) if mod == "image" else 0
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
        self.labeled_cyclers = [ShuffleCycler(ds.observed_indices(), seed)
                                for seed in cfg.seeds.data_order]
        self.unlabeled_cycler = ShuffleCycler(ds.missing_indices(),
                                              cfg.seeds.unlabeled_order)
        self.step = 0

    def draw_batches(self, ds: MaskedDataset):
        """The next step's batches from ``ds``, the set the state was built
        on, as stored: a per-model list of (rows, labels), the unlabeled
        rows, and their true labels, which only the metrics read."""
        labeled = []
        for cycler in self.labeled_cyclers:
            idx = cycler.take(self.labeled_views.shape[1])
            labeled.append((ds.stored_rows(idx), ds.observed_labels(idx)))
        u_idx = self.unlabeled_cycler.take(self.strong_views.shape[1])
        return labeled, ds.stored_rows(u_idx), ds.eval_labels(u_idx)


def train_step(state: TrainerState, labeled_batches, unlabeled,
               unlabeled_true_labels_eval_only) -> StepMetrics:
    """Advance every model one step under ``state.cfg``; mutates ``state``
    in place.

    ``labeled_batches`` is a per-model list of (rows, labels);
    ``unlabeled`` is the shared (mu*B, d) block of rows.  Rows are float64
    features or uint8 pixels (see ``AugmentStream.apply_batch_into``), as
    ``MaskedDataset.stored_rows`` gives them.  The true labels
    of the unlabeled items are accepted ONLY to score pseudo-label
    accuracy for the metrics row; they never touch a loss or gradient.
    A non-finite loss or weak-view prediction raises ``DivergenceError``
    naming the step.
    """
    cfg = state.cfg
    n = cfg.num_models
    if len(labeled_batches) != n:
        raise ConfigError(f"need {n} labeled batches, got {len(labeled_batches)}")
    sizes = set(map(len, chain.from_iterable(labeled_batches)))
    if sizes != {cfg.objective.batch_size}:
        raise ConfigError("labeled batch size mismatch")
    batch = unlabeled.shape[0]
    if batch != cfg.objective.unlabeled_batch_size:
        raise ConfigError("unlabeled batch size mismatch")

    stack = state.stack
    sup_targets = np.array([ys for _, ys in labeled_batches], dtype=np.int64)
    if (np.minimum.reduce(sup_targets, axis=None) < 0
            or np.maximum.reduce(sup_targets, axis=None) >= stack.num_classes):
        raise ConfigError("target class out of range")

    # supervised pass on each model's own weak view of its labeled batch
    for i, (xs, _) in enumerate(labeled_batches):
        state.weak_labeled[i].apply_batch_into(xs, state.labeled_views[i])
    l_s, g_s = stack.loss_and_grad(state.labeled_views, sup_targets,
                                   np.ones(sup_targets.shape))

    # one shared weak view of the unlabeled batch, predicted by every model;
    # it lives in model 1's strong-view slot until the strong views are built
    weak_probs = stack.predict_proba(state.weak_unlabeled.apply_batch_into(
        unlabeled, state.strong_views[0]))
    # a diverged model shows here first; fusion trusts its input, so this
    # is the one check between the softmax and the pseudo-labels
    _check_finite(state.step + 1, "supervised loss", l_s)
    _check_finite(state.step + 1, "weak-view prediction", weak_probs)

    # fusion streams are keyed by the 1-based update index, the same index
    # that names a predictions dump, so offline re-fusion of a dump can
    # replay the exact coin flips
    fused = fuse_batch(weak_probs, cfg.fusion, cfg.seeds.fusion, state.step + 1)
    # one label row that every model shares, or in single-model mode one
    # row per model; absent labels (-1) become class 0 at mask 0
    rows = fused.labels.reshape(-1, batch)
    targets = np.maximum(rows, 0).repeat(n // len(rows), axis=0)
    weights = fused.masks.T.reshape(n, batch)

    # unlabeled pass on per-model strong views: one stacked pass when the
    # strong block holds every model's views, else one pass per model.
    # Each pass adds lambda_u times its gradient into the supervised one in
    # place, the same IEEE operations as g_s + lambda_u * g_u; a row of
    # weight 0 needs no pixels nor, with a lent block, a product
    keep = weights > 0
    lam = cfg.objective.lambda_u
    views = state.strong_views
    l_u = np.empty(n)
    for lo in range(0, n, len(views)):
        hi = lo + len(views)
        part = stack if hi - lo == n else stack.model(lo)
        for i in range(lo, hi):
            state.strong_unlabeled[i].apply_batch_into(unlabeled, views[i - lo],
                                                       keep=keep[i])
        first = None
        if state.kept_chunk_rows:
            lent = state.labeled_views.reshape(-1, unlabeled.shape[1])
            first = part.first_layer_kept(views, keep[lo:hi],
                                          lent[:state.kept_chunk_rows])
        l_u[lo:hi], g_u = part.loss_and_grad(views, targets[lo:hi],
                                             weights[lo:hi], first)
        for dst, src in zip(g_s.weights + g_s.biases, g_u.weights + g_u.biases):
            dst[lo:hi] += lam * src
    del g_u  # the update's temporaries reuse its memory
    _check_finite(state.step + 1, "unlabeled loss", l_u)

    # one update of every model, after all gradients exist
    lr = cfg.lr
    if cfg.cosine_lr and cfg.steps > 0:
        lr *= math.cos(7.0 * math.pi * state.step / (16.0 * cfg.steps))
    stack.sgd_step(g_s, lr)
    # each model reports its own l_s plus lambda_u times every model's
    # l_u; Python's sum starts from int 0, which fixes a zero sum's sign
    shared = lam * sum(l_u.tolist())
    train_losses = [v + shared for v in l_s.tolist()]

    # mask_ratio is the mean of each label row's share, which is
    # np.mean(present.mean(axis=1)) bit for bit; pseudo_acc pools every
    # row's labels and is 1.0 when there are none
    present = rows >= 0
    ratio = float(np.add.reduce(
        np.add.reduce(present, axis=1, dtype=np.float64) / batch) / len(rows))
    hits = (rows == unlabeled_true_labels_eval_only)[present]
    acc = (float(np.add.reduce(hits, dtype=np.float64) / len(hits))
           if len(hits) else 1.0)
    hist = tuple(np.bincount(fused.sources[:batch],
                             minlength=len(SOURCES)).tolist())

    state.step += 1
    return StepMetrics(step=state.step, train_losses=tuple(train_losses),
                       mask_ratio=ratio, pseudo_acc=acc, source_counts=hist,
                       weak_probs=weak_probs)


def _check_finite(step: int, what: str, values: np.ndarray) -> None:
    """Raise ``DivergenceError`` naming ``step`` and the first model whose
    ``values`` (model-major) hold a non-finite entry."""
    if np.logical_and.reduce(np.isfinite(values), axis=None):
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
    probs = stack.predict_proba(None, stack._first_layer(test))
    labels = test.eval_labels()
    accs = (probs.argmax(axis=2) == labels).mean(axis=1)
    losses = [supervised_loss(p, labels) for p in probs]
    return float(np.mean(accs)), float(np.mean(losses))


def resolved_config_lines(cfg: TrainConfig) -> list[str]:
    """Flat key=value lines, sorted: every field of ``cfg`` and of its
    fusion, objective, augment (``aug.``) and seed (``seed.``) sections; a
    per-model seed tuple gives one ``_m<i>`` key per model, another tuple
    one comma-joined value."""
    kv = {}
    for section, prefix in ((cfg, ""), (cfg.fusion, ""), (cfg.objective, ""),
                            (cfg.aug, "aug."), (cfg.seeds, "seed.")):
        for f in fields(section):
            key, value = prefix + f.name, getattr(section, f.name)
            # the sections are walked on their own, and the fusion config's
            # model count is the trainer's
            if is_dataclass(value) or (section is cfg.fusion
                                       and f.name == "num_models"):
                continue
            if section is cfg.seeds and isinstance(value, tuple):
                items = [(f"{key}_m{i + 1}", v) for i, v in enumerate(value)]
            elif isinstance(value, tuple):
                items = [(key, ",".join(str(v) for v in value))]
            else:
                items = [(key, value)]
            for key, value in items:
                if key in kv:
                    raise ValueError(f"two config fields write key {key}")
                kv[key] = value
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


def read_predictions(path) -> tuple[list, np.ndarray]:
    """Parse a ``_dump_predictions`` file into (item ids, ascending, and
    their (items, models, classes) float64 probabilities), refusing an item
    without a row for each model 1..n and a row that is no distribution."""
    if not os.path.isfile(path):
        raise DataError(f"missing predictions file: {path}")
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    if not lines[0]:
        raise DataError(f"{path}: empty predictions file")
    header = lines[0].split(",")
    num_classes = len(header) - 2
    if (header[:2] != ["item", "model"] or num_classes < 2
            or header[2:] != [f"p{c}" for c in range(num_classes)]):
        raise DataError(f"{path}:1: expected header item,model,p0,p1,...")
    grouped: dict = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise DataError(f"{path}:{line_no}: expected {len(header)} "
                            f"fields, got {len(parts)}")
        try:
            item, model = int(parts[0]), int(parts[1])
            row = [float(v) for v in parts[2:]]
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from None
        if item < 0:
            raise DataError(f"{path}:{line_no}: negative item id {item}")
        rows = grouped.setdefault(item, {})
        if model in rows:
            raise DataError(f"{path}:{line_no}: duplicate row for item "
                            f"{item} model {model}")
        rows[model] = row
    if not grouped:
        raise DataError(f"{path}: no items")
    n = max(max(rows) for rows in grouped.values())
    item_ids = sorted(grouped)
    for item in item_ids:
        if sorted(grouped[item]) != list(range(1, n + 1)):
            raise DataError(f"{path}: item {item} has models "
                            f"{sorted(grouped[item])}, expected 1..{n}")
    probs = np.array([[grouped[item][m] for m in range(1, n + 1)]
                      for item in item_ids])
    bad = first_invalid_row(probs.swapaxes(0, 1))
    if bad:
        b, m, what = bad
        raise DataError(f"{path}: item {item_ids[b]} model {m + 1} "
                        f"prediction {what}")
    return item_ids, probs


def _metrics_row(last: StepMetrics, step: int, evaluated) -> MetricsRow:
    """The row of eval point ``step``: ``evaluated`` is its (test accuracy,
    test loss), ``last`` the step whose train-side numbers it reports."""
    return MetricsRow(step, *evaluated, last.train_losses, last.mask_ratio,
                      last.pseudo_acc, last.source_counts)


def train(cfg: TrainConfig, ds: MaskedDataset, test: MaskedDataset,
          out_dir) -> str:
    """Run the loop and write the run directory ``out_dir``, new or empty,
    so no earlier run's file sits beside this run's; returns its path.  A
    dataset or test set that cannot make a run leaves no directory.  A run
    that stops early keeps its rows; only a finished run checkpoints."""
    if os.path.exists(out_dir) and (not os.path.isdir(out_dir)
                                    or os.listdir(out_dir)):
        raise ConfigError(f"run directory {out_dir} exists and is not an "
                          "empty directory")
    if (test.width, test.num_classes) != (ds.width, ds.num_classes):
        raise ConfigError(
            f"test set has {test.width} features and {test.num_classes} "
            f"classes, training set {ds.width} and {ds.num_classes}")
    state = TrainerState(cfg, ds)
    # row 0 evaluates the initial parameters and takes its train-side
    # numbers from step 1, which train_step measures on the parameters it
    # starts from; with steps=0 that one step runs only to fill the row, so
    # the checkpoints come from a copy of the initial stack, which the step
    # updates in place
    initial_eval = evaluate(state.stack, test)
    final = state.stack if cfg.steps else copy.deepcopy(state.stack)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, CONFIG_FILENAME), "w",
              encoding="ascii") as fh:
        fh.write("\n".join(resolved_config_lines(cfg)) + "\n")
    metrics = RunMetrics(num_models=cfg.num_models)
    # a diverging run overflows before train_step names the step in a
    # DivergenceError; numpy's warnings about it would only come first
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while state.step < max(cfg.steps, 1):
            labeled, u_feats, u_true = state.draw_batches(ds)
            last = train_step(state, labeled, u_feats, u_true)
            # free this step's batch before the next one is drawn
            del labeled, u_feats, u_true
            if state.step == 1:
                append_row(metrics, _metrics_row(last, 0, initial_eval),
                           out_dir)
            if state.step > cfg.steps:
                break
            if (cfg.dump_predictions_every
                    and state.step % cfg.dump_predictions_every == 0):
                _dump_predictions(os.path.join(
                    out_dir, f"predictions-step{state.step}.csv"),
                    last.weak_probs)
            if state.step % cfg.eval_every == 0 or state.step == cfg.steps:
                append_row(metrics, _metrics_row(
                    last, state.step, evaluate(state.stack, test)), out_dir)
    # a later step's losses catch a diverged update; the last has no later
    # step, and with the warnings off nothing else would report it
    for tensor in final.weights + final.biases:
        _check_finite(cfg.steps, "parameter", tensor)
    for i, params in enumerate(final.models()):
        save_checkpoint(params, os.path.join(
            out_dir, f"ckpt-model{i + 1}-step{cfg.steps}"))
    return str(out_dir)
