"""Cross-model pseudo-label fusion.

Given each model's predicted class distribution for an unlabeled item,
decide whether the item gets a pseudo-label, which label, and what loss
weight each model applies to it.  One array engine decides items at all
n agreement levels at once, along a leading level axis; each item takes
the lowest level with a proposal, and the engine, which draws nothing,
gives its decision for every pick a tie there can make.  ``fuse_batch``
looks items of at most three models up in a table of its output, filled
once, and runs it once on a larger block; a tied item takes the pick of
a uniform draw from its own generator.  In single-model mode it decides
the block's (model, item) pairs, model-major, as one one-model block.
``fuse_batch`` trusts its rows to be distributions: the trainer's come
from a softmax it has checked for finite values, and ``fuse-trace``
checks a dump's with ``first_invalid_row``.  ``fuse_pair``,
``fuse_cascade`` and ``fuse_single`` are one-item wrappers over it that
check their rows and draw from the caller's generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
        # a NaN compares False both ways, so the checks below let it through
        if not all(map(math.isfinite, self.tau_cascade)):
            problems.append("cascade thresholds must be finite")
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
    hold 0 where the decision has none.  ``len`` and iteration give the
    per-item ``FusionDecision`` view.  In single-model mode an entry is
    one (model, item) pair, model-major, with one mask column and
    ``source_model`` 1.
    """

    labels: np.ndarray
    masks: np.ndarray
    sources: np.ndarray
    source_models: np.ndarray
    source_levels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

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


def first_invalid_row(probs: np.ndarray):
    """The first (item, model) row of an (n, B, C) block, in item order,
    that is not a distribution, as (b, m, what is wrong with it); None
    when every row is one."""
    with np.errstate(invalid="ignore", over="ignore"):
        # one pass over the class axis: NaN fails both bounds, ±inf one
        invalid = ~((probs >= -1e-12) & (probs <= 1.0 + 1e-12)).all(axis=2)
        unnormed = np.abs(probs.sum(axis=2) - 1.0) > PROB_SUM_TOL
    bad = invalid | unnormed
    if not bad.any():
        return None
    b, m = np.argwhere(bad.T)[0]
    what = "is not a valid distribution" if invalid[m, b] else "does not sum to 1"
    return int(b), int(m), what


def _check_block(probs: np.ndarray) -> np.ndarray:
    """Reject a block holding any row that is not a distribution, naming
    the model of the first bad row."""
    bad = first_invalid_row(probs)
    if bad:
        raise ConfigError(f"model {bad[1] + 1} prediction {bad[2]}")
    return probs


@lru_cache(maxsize=64)
def _levels(thresholds: tuple) -> tuple:
    """The level axis of ``_decide`` for its L = n thresholds, as read-only
    arrays: each level's threshold and number, (L, 1, 1), ``earlier[i, j]``,
    model j comes before model i, (L, L, 1), and the thresholds ascending."""
    n = len(thresholds)
    arrays = (np.array(thresholds)[:, None, None],
              np.arange(1, n + 1)[:, None, None],
              np.tri(n, k=-1, dtype=bool)[:, :, None],
              np.array(thresholds[::-1]))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _decide(tops, peaks, thresholds: tuple, pseudo_weight: float,
            conflict_drop: bool) -> tuple:
    """The level engine: decide items by their (n, B) argmaxes and peaks.
    Level 1: any model over the first threshold proposes its argmax; level
    k >= 2: any k models over the level's threshold that share an argmax
    propose it.  All levels are decided at once, and an item takes the
    lowest with a proposal; its proposals there are ordered by their first
    supporter.  Returns each item's proposal count, the (n, B) mask rows
    and a (4, P * B) int table, P the largest count (at least 1): at
    p * B + b, item b's chosen model (n: no label), source, source model
    and level when its draw picks p, which takes its (p + 1)-th proposal,
    or its last when it has fewer."""
    thresholds, levels, earlier, _ = _levels(thresholds)
    # members[l, i, b]: model i clears level l's threshold on item b;
    # shared[l, i, j, b]: model j is a member and shares model i's argmax
    members = peaks > thresholds
    shared = (tops[:, None] == tops) & members[:, None]
    support = np.add.reduce(shared, axis=2)
    # a label is proposed once, by its first supporter in model order
    proposers = (members & (support >= levels)
                 & ~np.logical_or.reduce(shared & earlier, axis=2))
    counts = np.add.reduce(proposers, axis=1)
    # each item's deciding level (0 where none decides) and its proposals
    n, batch = tops.shape
    items = np.arange(batch)
    lv = (counts > 0).argmax(axis=0)
    count = counts[lv, items]
    # rank[i, b]: item b's proposers among models 0..i; its pick p,
    # ints[:, p, b], takes the first model whose rank is min(p + 1, count)
    rank = proposers[lv, :, items].T.cumsum(axis=0)
    picks = max(int(count.max(initial=0)), 1)
    ints = np.empty((4, picks, batch), dtype=np.intp)
    chosen = ints[0]
    (rank >= np.minimum(levels[:picks], count)).argmax(axis=1, out=chosen)
    decided, tied, later = count > 0, count > 1, lv > 0
    # an untied item's chosen model is the same for every pick
    sources = np.where(later, _CONSENSUS,
                       np.where(support[0, chosen[0], items] >= 2, _BOTH, _OWN))
    sources[tied & (conflict_drop | ~later)] = _CONFLICT
    sources[~decided] = _NONE
    ints[1] = sources
    ints[2] = np.where(decided & ~later & (sources != _BOTH), chosen + 1, 0)
    ints[3] = np.where(later, lv + 1, 0)
    kept = decided & ~(tied & conflict_drop)
    chosen[:, ~kept] = n
    # weights are >= 0, so an absent label's masks are +0.0
    masks = np.where(members[0], pseudo_weight, 1.0) * kept
    return count, ints.reshape(4, -1), masks


@lru_cache(maxsize=64)
def _table(n: int, pseudo_weight: float, conflict_drop: bool, sign) -> tuple:
    """``_fuse``'s read-only table for n <= 3: ``_decide``'s output for one
    synthetic item per pattern.  A pattern is each model's tier (how many
    thresholds its peak clears) and which pairs (``pairs``' columns) share
    an argmax, keyed ``tier_weights @ tiers + pair_weights @ shares``; its
    item has peaks tier + 0.5 against thresholds (n, ..., 1).
    pseudo_weight's ``sign`` keys the cache too, since -0.0 == 0.0."""
    pairs = np.array(np.triu_indices(n, k=1))
    pair_weights = 1 << np.arange(pairs.shape[1])
    tier_weights = (n + 1) ** np.arange(n) << pairs.shape[1]
    keys = np.arange((n + 1) ** n << pairs.shape[1])
    # each model's argmax is the first model it shares one with
    tops = np.arange(n)[:, None].repeat(len(keys), axis=1)
    for (i, j), bit in reversed(list(zip(pairs.T, pair_weights))):
        tops[j, (keys & bit) > 0] = i
    arrays = (tier_weights, pair_weights, pairs) + _decide(
        tops, keys // tier_weights[:, None] % (n + 1) + 0.5,
        tuple(range(n, 0, -1)), pseudo_weight, conflict_drop)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _fuse(probs: np.ndarray, cfg: FusionConfig, stream_for) -> FusedBatch:
    """Decide an (n, B, C) block by key: each item's pattern in ``_table``
    (n <= 3), or its index in ``_decide``'s output (n >= 4: a table would
    hold 40,000 patterns), moved to the pick its ``stream_for`` draws when
    tied.  Fewer than two classes is a ``ConfigError``, also with no items."""
    if probs.shape[2] < 2:
        raise ConfigError("model 1 prediction is not a probability vector")
    n, batch, _ = probs.shape
    thresholds = (cfg.tau,) + cfg.tau_cascade[:n - 1]
    items = np.arange(batch)
    # row n is the label of an item that keeps none
    tops = np.empty((n + 1, batch), dtype=np.intp)
    tops[n] = -1
    probs.argmax(axis=2, out=tops[:n])
    # each row's peak, read at its argmax: faster than a max over classes
    peaks = probs[np.arange(n)[:, None], items, tops[:n]]
    if n > 3:
        counts, ints, masks = _decide(tops[:n], peaks, thresholds,
                                      cfg.pseudo_weight, cfg.conflict_drop)
        key = np.arange(batch)
    else:
        tier_weights, pair_weights, pairs, counts, ints, masks = _table(
            n, cfg.pseudo_weight, cfg.conflict_drop,
            math.copysign(1, cfg.pseudo_weight))
        key = (tier_weights @ _levels(thresholds)[3].searchsorted(peaks)
               + pair_weights @ np.equal(*tops.take(pairs, axis=0)))
    masks, count = masks.take(key, axis=1).T, counts.take(key)
    for b in (count > 1).nonzero()[0].tolist():
        key[b] += stream_for(b).integers(count[b]) * counts.size
    chosen, sources, source_models, source_levels = ints.take(key, axis=1)
    return FusedBatch(tops[chosen, items], masks, sources, source_models,
                      source_levels)


def fuse_batch(probs: np.ndarray, cfg: FusionConfig, fusion_seed: int,
               step: int, items=None):
    """Fuse a float64 (models, batch, C) block of softmax rows, which it
    does not scan.

    Returns a ``FusedBatch``; in single-model mode its n * batch entries
    are the (model, item) pairs, model-major, fused as one one-model
    block.  Item b's coin flip draws from
    ``default_rng([fusion_seed, step, items[b]])`` (``items`` defaults to
    the batch positions), so items fuse identically in any order and a
    predictions dump replays exactly.
    """
    if items is not None and len(items) != probs.shape[1]:
        raise ConfigError(f"got {len(items)} item ids for {probs.shape[1]} items")
    ids = range(probs.shape[1]) if items is None else items

    def stream_for(b):
        return np.random.default_rng([fusion_seed, step, int(ids[b])])

    if cfg.single_model_mode:
        n, batch, num_classes = probs.shape
        return _fuse(probs.reshape(1, n * batch, num_classes), cfg, stream_for)
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
    (decision,) = _fuse(block, cfg, lambda b: stream)
    return decision


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
    # the largest pairwise gap in a coordinate is its max minus its min
    agreement = (stacked.max(axis=0) - stacked.min(axis=0)).max(axis=1)
    selected = np.flatnonzero(same_argmax & (agreement <= epsilon + 1e-12))
    return DebiasSubset(selected=selected, agreement=agreement,
                        same_argmax=same_argmax)
