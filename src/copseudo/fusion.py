"""Cross-model pseudo-label fusion.

Given each model's predicted class distribution for an unlabeled item,
decide whether the item gets a pseudo-label, which label, and what loss
weight each model applies to it.  One array engine, ``fuse_batch``,
decides a (models, items, classes) block by agreement levels; a tie is
settled by a uniform draw from the item's own generator.  ``fuse_pair``,
``fuse_cascade`` and ``fuse_single`` are one-item wrappers over it that
draw from the caller's generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigError

SOURCE_BOTH = "both_confident_agree"
SOURCE_CONFLICT = "conflict_coin_flip"
SOURCE_OWN = "own_confident"
SOURCE_CONSENSUS = "consensus"
SOURCE_NONE = "none"

SOURCES = (SOURCE_BOTH, SOURCE_CONFLICT, SOURCE_OWN, SOURCE_CONSENSUS, SOURCE_NONE)
_BOTH, _CONFLICT, _OWN, _CONSENSUS, _NONE = range(len(SOURCES))

PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class FusionConfig:
    """Thresholds and weights for pseudo-label fusion.

    ``tau`` is the top confidence threshold; ``tau_cascade`` holds the
    lower thresholds for agreement levels 2..n (two-model case: just the
    consensus threshold).  ``pseudo_weight`` is the loss weight a model
    applies to an item it is itself confident about.
    """

    tau: float = 0.95
    tau_cascade: tuple[float, ...] = (0.75,)
    pseudo_weight: float = 0.75
    num_models: int = 2
    single_model_mode: bool = False
    conflict_drop: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tau_cascade",
                           tuple(float(t) for t in self.tau_cascade))
        problems = []
        if not (0.0 < self.tau <= 1.0):
            problems.append("tau must lie in (0, 1]")
        if not (self.pseudo_weight >= 0 and math.isfinite(self.pseudo_weight)):
            problems.append("pseudo_weight must be a non-negative finite real")
        if self.num_models < 1:
            problems.append("num_models must be >= 1")
        if not self.single_model_mode:
            if self.num_models < 2:
                problems.append("num_models must be >= 2 unless single_model_mode")
            if len(self.tau_cascade) != self.num_models - 1:
                problems.append(
                    f"tau_cascade needs {self.num_models - 1} entries for "
                    f"{self.num_models} models, got {len(self.tau_cascade)}")
            if self.tau_cascade:
                if any(a < b for a, b in zip(self.tau_cascade, self.tau_cascade[1:])):
                    problems.append("tau_cascade must be non-ascending")
                if not (self.tau_cascade[0] < self.tau):
                    problems.append("tau_cascade[0] must be strictly below tau")
                if self.tau_cascade[-1] <= 0.0:
                    problems.append("cascade thresholds must be positive")
        if problems:
            raise ConfigError("invalid fusion config: " + "; ".join(problems))


@dataclass(frozen=True)
class FusionDecision:
    """Outcome for one unlabeled item.

    ``pseudo_label`` is None when no model combination was confident
    enough; ``masks`` holds one loss weight per model (each 0, 1, or the
    configured pseudo_weight).  ``source_model`` is 1-based; for
    consensus decisions ``source_level`` records the agreement level.
    """

    pseudo_label: int | None
    masks: tuple[float, ...]
    source: str
    source_model: int | None = None
    source_level: int | None = None

    @property
    def has_label(self) -> bool:
        return self.pseudo_label is not None


@dataclass(frozen=True, eq=False)
class FusedBatch:
    """Decisions for a block of items, one array entry per item.

    ``labels`` holds each pseudo-label, -1 where absent; ``masks`` is
    (items, models) and zero wherever the label is absent; ``sources``
    indexes ``SOURCES``; ``source_models`` (1-based) and ``source_levels``
    hold 0 where the decision has none.  ``len``, indexing and iteration
    give the per-item ``FusionDecision`` view.
    """

    labels: np.ndarray
    masks: np.ndarray
    sources: np.ndarray
    source_models: np.ndarray
    source_levels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, b) -> FusionDecision:
        return _decision(*(col[b].tolist() for col in self._columns()))

    def __iter__(self):
        return map(_decision, *(col.tolist() for col in self._columns()))

    def _columns(self):
        return (self.labels, self.masks, self.sources, self.source_models,
                self.source_levels)


def _decision(label, masks, source, model, level) -> FusionDecision:
    return FusionDecision(None if label < 0 else label, tuple(masks),
                          SOURCES[source], model or None, level or None)


@dataclass(frozen=True)
class DebiasSubset:
    """Items on which the models agree within an epsilon ball."""

    selected: np.ndarray
    agreement: np.ndarray
    same_argmax: np.ndarray


def _check_block(probs: np.ndarray) -> np.ndarray:
    """Reject a block holding any row that is not a distribution, naming
    the first bad (item, model) row in item order."""
    with np.errstate(invalid="ignore", over="ignore"):
        invalid = (~np.isfinite(probs).all(axis=2)
                   | (probs.min(axis=2) < -1e-12)
                   | (probs.max(axis=2) > 1.0 + 1e-12))
        unnormed = np.abs(probs.sum(axis=2) - 1.0) > PROB_SUM_TOL
    bad = invalid | unnormed
    if bad.any():
        b, m = np.argwhere(bad.T)[0]
        what = "is not a valid distribution" if invalid[m, b] else "does not sum to 1"
        raise ConfigError(f"model {m + 1} prediction {what}")
    return probs


def _fuse(probs: np.ndarray, cfg: FusionConfig, stream_for) -> FusedBatch:
    """Decide every item of an (n, B, C) block by agreement levels.

    Level 1: any model over ``tau`` proposes its own argmax.  Level
    k >= 2: any k models over the level's ``tau_cascade`` threshold that
    share an argmax propose that consensus label.  The smallest level with
    a proposal decides the item.  Distinct labels proposed there, ordered
    by their first supporter's model index, are settled by a uniform draw
    from ``stream_for(b)``, which is called only for such items.
    """
    if probs.shape[1] and probs.shape[2] < 2:
        raise ConfigError("model 1 prediction is not a probability vector")
    n, batch, _ = probs.shape
    peaks = probs.max(axis=2)
    tops = probs.argmax(axis=2)
    own = peaks > cfg.tau
    # same[i, j, b]: models i and j share an argmax on item b
    same = tops[:, None, :] == tops[None, :, :]
    earlier = np.tril(np.ones((n, n), dtype=bool), -1)[:, :, None]

    labels = np.full(batch, -1, dtype=np.int64)
    sources = np.full(batch, _NONE, dtype=np.int64)
    source_models = np.zeros(batch, dtype=np.int64)
    source_levels = np.zeros(batch, dtype=np.int64)
    undecided = np.ones(batch, dtype=bool)
    thresholds = (cfg.tau,) + cfg.tau_cascade[:n - 1]
    for level, threshold in enumerate(thresholds, start=1):
        members = (peaks > threshold) & undecided
        shared = same & members[None, :, :]
        support = shared.sum(axis=1)
        # a label is proposed once, by its first supporter in model order
        proposers = members & ~(shared & earlier).any(axis=1) & (support >= level)
        count = proposers.sum(axis=0)
        chosen = proposers.argmax(axis=0)
        tied = np.flatnonzero(count > 1)
        for b in tied:
            pick = int(stream_for(int(b)).integers(int(count[b])))
            chosen[b] = np.flatnonzero(proposers[:, b])[pick]
        cols = np.flatnonzero(count)
        labels[cols] = tops[chosen[cols], cols]
        if level == 1:
            sources[cols] = np.where(support[chosen[cols], cols] >= 2, _BOTH, _OWN)
            sources[tied] = _CONFLICT
            source_models[cols] = np.where(sources[cols] == _BOTH, 0, chosen[cols] + 1)
        else:
            sources[cols] = _CONSENSUS
            source_levels[cols] = level
            if cfg.conflict_drop:
                sources[tied] = _CONFLICT
        if cfg.conflict_drop:
            labels[tied] = -1
        undecided[cols] = False

    present = (labels >= 0)[:, None]
    weights = np.where(own, cfg.pseudo_weight, 1.0).T
    masks = np.where(present, weights, 0.0)
    return FusedBatch(labels, masks, sources, source_models, source_levels)


def fuse_batch(probs, cfg: FusionConfig, fusion_seed: int, step: int,
               items=None):
    """Fuse a batch of per-model predictions of shape (models, batch, C).

    Returns a ``FusedBatch``, or in single-model mode a list with one
    one-model ``FusedBatch`` per model.  Item b's coin flip draws from
    ``default_rng([fusion_seed, step, items[b]])`` (``items`` defaults to
    the batch positions), so items fuse identically in any order and a
    predictions dump replays exactly.
    """
    return fuse_valid_batch(_check_block(np.asarray(probs, dtype=np.float64)),
                            cfg, fusion_seed, step, items)


def fuse_valid_batch(probs: np.ndarray, cfg: FusionConfig, fusion_seed: int,
                     step: int, items=None):
    """``fuse_batch`` for a float64 block of finite softmax rows, which
    it does not scan."""
    ids = range(probs.shape[1]) if items is None else items

    def stream_for(b):
        return np.random.default_rng([fusion_seed, step, int(ids[b])])

    if cfg.single_model_mode:
        return [_fuse(probs[m:m + 1], cfg, stream_for)
                for m in range(probs.shape[0])]
    if probs.shape[0] != cfg.num_models:
        raise ConfigError(f"got {probs.shape[0]} predictions for a "
                          f"{cfg.num_models}-model config")
    return _fuse(probs, cfg, stream_for)


def _fuse_one(qs, cfg: FusionConfig, stream) -> FusionDecision:
    """Decide one item from per-model rows, drawing from ``stream``; rows
    are checked in model order, shape and values, as in a block."""
    rows = [np.asarray(q, dtype=np.float64) for q in qs]
    for i, q in enumerate(rows):
        if q.ndim != 1 or q.shape[0] < 2:
            problem = f"model {i + 1} prediction is not a probability vector"
        elif q.shape != rows[0].shape:
            problem = "prediction vectors have mismatched lengths"
        else:
            continue
        if i:
            _check_block(np.stack(rows[:i])[:, None, :])
        raise ConfigError(problem)
    block = _check_block(np.stack(rows)[:, None, :])
    return _fuse(block, cfg, lambda b: stream)[0]


def fuse_pair(q1, q2, cfg: FusionConfig, stream) -> FusionDecision:
    """Two-model fusion branch table.

    Confidence comparisons are strict. The own-confident branch outranks
    consensus: a single model over tau decides the label alone even when
    both models would agree at the lower threshold.
    """
    if cfg.num_models != 2:
        raise ConfigError("fuse_pair requires a two-model config")
    return _fuse_one([q1, q2], cfg, stream)


def fuse_single(q, cfg: FusionConfig) -> FusionDecision:
    """Threshold rule for one model alone: keep its prediction iff its
    confidence clears tau (no peers, no consensus)."""
    return _fuse_one([q], cfg, None)


def fuse_cascade(qs, cfg: FusionConfig, stream) -> FusionDecision:
    """n-model fusion of one item by agreement levels; with n = 2 this
    is ``fuse_pair``, including the draw."""
    n = len(qs)
    if n < 2:
        raise ConfigError("fuse_cascade needs at least two models")
    if n != cfg.num_models:
        raise ConfigError(f"got {n} predictions for a {cfg.num_models}-model config")
    return _fuse_one(qs, cfg, stream)


def select_debias_subset(preds, epsilon: float) -> DebiasSubset:
    """Keep items where every model points at the same class and all
    pairwise prediction distances (L-infinity) are within ``epsilon``.

    The boundary is inclusive; the comparison absorbs float representation
    error up to 1e-12 so decimal inputs that land exactly on ``epsilon``
    count as within it.
    """
    if not (epsilon >= 0 and math.isfinite(epsilon)):
        raise ConfigError("epsilon must be a non-negative finite real")
    arrays = [np.asarray(p, dtype=np.float64) for p in preds]
    if len(arrays) < 2:
        raise ConfigError("need predictions from at least two models")
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays) or arrays[0].ndim != 2:
        raise ConfigError("ragged prediction sets: all models must cover the "
                          "same items and classes")
    stacked = np.stack(arrays)  # (models, items, classes)
    tops = stacked.argmax(axis=2)
    same_argmax = (tops == tops[0]).all(axis=0)
    num_items = shape[0]
    agreement = np.zeros(num_items)
    for a, b in combinations(range(len(arrays)), 2):
        dist = np.abs(stacked[a] - stacked[b]).max(axis=1)
        agreement = np.maximum(agreement, dist)
    selected = np.flatnonzero(same_argmax & (agreement <= epsilon + 1e-12))
    return DebiasSubset(selected=selected, agreement=agreement,
                        same_argmax=same_argmax)
