"""Independent oracles shared by unit and acceptance tests.

These deliberately avoid the code paths they are used to check: the
finite-difference routine evaluates the loss only through predict_proba,
never through the analytic gradient code; the pair-fusion oracle is a
flat if/elif chain structured differently from the library's branch
table; the cascade oracle decides one item at a time with Python lists
and dicts, where the library works level by level on arrays; the
augmentation oracles transform one row at a time, each into a fresh
array, drawing paired integers with one ``size=2`` call, where the
library draws scalars and writes a whole batch in place.

The per-decision helpers at the end (``mask_ratio``,
``pseudo_label_accuracy``, ``unlabeled_loss``, ``zero_gradients``) were
once library functions; the library now reads the same numbers from
arrays, and they stay here as readable references.

``save_dataset_v1`` is the text writer of the ``copseudo-ds v1``
container, which the library no longer writes but still reads.

``reference_forward``, ``reference_predict_proba``,
``reference_loss_and_grad`` and ``reference_sgd_step`` are the one-model
MLP the library ran before it trained every model as one stack: a chain
of 2-d ``@`` calls per model.  The stack must reproduce them bit for bit.
"""
import math

import numpy as np

from copseudo.augment import (
    BRIGHTNESS_RANGE,
    CUTOUT_FILL,
    CUTOUT_SIZE,
    NUM_STRONG_OPS,
    AugmentConfig,
)
from copseudo.errors import ConfigError
from copseudo.fusion import (
    SOURCE_BOTH,
    SOURCE_CONFLICT,
    SOURCE_CONSENSUS,
    SOURCE_NONE,
    SOURCE_OWN,
    FusionDecision,
)
from copseudo.losses import _PROB_FLOOR
from copseudo.predictor import Gradients, ModelParams, OptState, predict_proba


def weighted_ce_loss(params: ModelParams, xs, targets, weights) -> float:
    """Loss recomputed from predicted probabilities alone."""
    probs = predict_proba(params, xs)
    rows = np.arange(len(targets))
    picked = probs[rows, np.asarray(targets)]
    return float(-(np.asarray(weights) * np.log(picked)).sum() / len(targets))


def reference_pair_decision(q1, q2, tau, tau2, w, stream):
    """Two-model fusion decided by three separate if/elif chains: one per
    mask, then a label chain that inspects the models in an order drawn
    from ``stream``.  Returns (label or None, (mask1, mask2)).

    The order draw happens on every call, so feed it a stream seeded the
    same way as the implementation under test when comparing tie cases.
    """
    p1, c1 = float(max(q1)), list(q1).index(max(q1))
    p2, c2 = float(max(q2)), list(q2).index(max(q2))
    consensus = p1 > tau2 and p2 > tau2 and c1 == c2

    if p1 > tau:
        m1 = w
    elif p2 > tau or consensus:
        m1 = 1.0
    else:
        m1 = 0.0

    if p2 > tau:
        m2 = w
    elif p1 > tau or consensus:
        m2 = 1.0
    else:
        m2 = 0.0

    first = int(stream.integers(2))
    ordered = [(p1, c1), (p2, c2)] if first == 0 else [(p2, c2), (p1, c1)]
    if ordered[0][0] > tau:
        label = ordered[0][1]
    elif ordered[1][0] > tau:
        label = ordered[1][1]
    elif consensus:
        label = c1
    else:
        label = None
    return label, (m1, m2)


def reference_cascade_decision(qs, cfg, stream) -> FusionDecision:
    """n-model fusion of one item by agreement levels, n >= 1.

    Level 1: any single model over tau proposes its own argmax.  Level
    k >= 2: any k models all over the level's threshold and sharing one
    argmax propose that consensus label.  The smallest level with a
    proposal wins; distinct proposed labels at that level, in the order of
    their first supporter's model index, are resolved by a uniform draw
    from ``stream``.  Inputs are assumed to be valid distributions.
    """
    n = len(qs)
    rows = np.asarray(qs, dtype=np.float64)
    peaks = rows.max(axis=1)
    tops = [int(v) for v in rows.argmax(axis=1)]
    own = [bool(p > cfg.tau) for p in peaks]
    kept = tuple(cfg.pseudo_weight if o else 1.0 for o in own)
    absent = (0.0,) * n

    if any(own):
        labels, proposers = [], {}
        for i in range(n):
            if own[i] and tops[i] not in proposers:
                labels.append(tops[i])
                proposers[tops[i]] = i
        if len(labels) == 1:
            backers = [i for i in range(n) if own[i]]
            if len(backers) >= 2:
                return FusionDecision(labels[0], kept, SOURCE_BOTH)
            return FusionDecision(labels[0], kept, SOURCE_OWN,
                                  source_model=backers[0] + 1)
        label = labels[int(stream.integers(len(labels)))]
        if cfg.conflict_drop:
            return FusionDecision(None, absent, SOURCE_CONFLICT,
                                  source_model=proposers[label] + 1)
        return FusionDecision(label, kept, SOURCE_CONFLICT,
                              source_model=proposers[label] + 1)

    for level in range(2, n + 1):
        threshold = cfg.tau_cascade[level - 2]
        support = {}
        for i in range(n):
            if peaks[i] > threshold:
                support.setdefault(tops[i], []).append(i)
        labels = [lab for lab, members in support.items() if len(members) >= level]
        if not labels:
            continue
        labels.sort(key=lambda lab: support[lab][0])
        if len(labels) == 1:
            label = labels[0]
        else:
            label = labels[int(stream.integers(len(labels)))]
            if cfg.conflict_drop:
                return FusionDecision(None, absent, SOURCE_CONFLICT,
                                      source_level=level)
        return FusionDecision(label, kept, SOURCE_CONSENSUS, source_level=level)
    return FusionDecision(None, absent, SOURCE_NONE)


def peaked_vector(num_classes, peak_class, peak_value):
    """Probability vector with a chosen max at a chosen class, the rest
    split evenly (slightly unevenly for determinism of argmax)."""
    rest = (1.0 - peak_value) / (num_classes - 1)
    q = [rest] * num_classes
    q[peak_class] = peak_value
    # nudge so no other class ties the peak when peak_value is small
    if rest >= peak_value:
        raise ValueError("peak_value too small to be the max")
    return np.asarray(q)


def fd_max_rel_error(params: ModelParams, grads, xs, targets, weights,
                     step: float = 1e-5) -> float:
    """Largest relative disagreement between ``grads`` and central finite
    differences of the weighted loss, over every parameter coordinate."""
    worst = 0.0
    for kind in ("weights", "biases"):
        for tensor, analytic in zip(getattr(params, kind), getattr(grads, kind)):
            for idx in np.ndindex(tensor.shape):
                orig = tensor[idx]
                tensor[idx] = orig + step
                up = weighted_ce_loss(params, xs, targets, weights)
                tensor[idx] = orig - step
                down = weighted_ce_loss(params, xs, targets, weights)
                tensor[idx] = orig
                numeric = (up - down) / (2.0 * step)
                a = float(analytic[idx])
                rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8)
                worst = max(worst, rel)
    return worst


# --- augmentation, one row at a time -------------------------------------

def weak_vector(x: np.ndarray, rng, cfg: AugmentConfig) -> np.ndarray:
    return x + cfg.sigma_weak * rng.standard_normal(x.shape)


def strong_vector(x: np.ndarray, rng, cfg: AugmentConfig) -> np.ndarray:
    out = x + cfg.sigma_strong * rng.standard_normal(x.shape)
    drop = rng.random(x.shape) < cfg.vector_drop_prob
    out[drop] = 0.0
    return out


def _flip(img: np.ndarray) -> np.ndarray:
    return img[:, :, ::-1]


def _translate(img: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Shift content by dx columns and dy rows, zero-filling exposed pixels."""
    _, h, w = img.shape
    out = np.zeros_like(img)
    if abs(dx) >= w or abs(dy) >= h:
        return out
    dst_r = slice(max(dy, 0), h + min(dy, 0))
    dst_c = slice(max(dx, 0), w + min(dx, 0))
    src_r = slice(max(-dy, 0), h + min(-dy, 0))
    src_c = slice(max(-dx, 0), w + min(-dx, 0))
    out[:, dst_r, dst_c] = img[:, src_r, src_c]
    return out


def weak_image(img: np.ndarray, rng, cfg: AugmentConfig) -> np.ndarray:
    if rng.random() < 0.5:
        img = _flip(img)
    s = cfg.image_shift_weak
    dx, dy = (int(v) for v in rng.integers(-s, s + 1, size=2))
    return _translate(img, dx, dy).copy()


def _draw_strong_ops(rng) -> np.ndarray:
    """Two independent draws from the four strong image operations
    (flip, translate, brightness, cutout)."""
    return rng.integers(0, 4, size=NUM_STRONG_OPS)


def strong_image(img: np.ndarray, rng, cfg: AugmentConfig) -> np.ndarray:
    out = img.copy()
    for op in _draw_strong_ops(rng):
        if op == 0:
            out = _flip(out).copy()
        elif op == 1:
            s = cfg.image_shift_strong
            dx, dy = (int(v) for v in rng.integers(-s, s + 1, size=2))
            out = _translate(out, dx, dy)
        elif op == 2:
            factor = rng.uniform(*BRIGHTNESS_RANGE)
            out = np.clip(out * factor, 0.0, 1.0)
        else:
            _, h, w = out.shape
            top, left = (int(v) for v in
                         rng.integers(0, min(h, w) - CUTOUT_SIZE + 1, size=2))
            out[:, top:top + CUTOUT_SIZE, left:left + CUTOUT_SIZE] = CUTOUT_FILL
    return out


# --- per-decision reductions ---------------------------------------------

def mask_ratio(decisions) -> float:
    """Fraction of items that received a pseudo-label."""
    decisions = list(decisions)
    if not decisions:
        raise ConfigError("mask_ratio of an empty decision list")
    return sum(d.has_label for d in decisions) / len(decisions)


def pseudo_label_accuracy(decisions, true_labels) -> float:
    """Fraction of present pseudo-labels matching the hidden truth;
    1.0 when nothing is present (n=0 case)."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    present = [(d.pseudo_label, t) for d, t in zip(decisions, true_labels)
               if d.has_label]
    if not present:
        return 1.0
    return sum(int(p == t) for p, t in present) / len(present)


def unlabeled_loss(probs_strong, decisions, model_index: int) -> float:
    """Mask-weighted mean cross-entropy against pseudo-labels.

    ``probs_strong`` holds this model's predictions on its strong views of
    the unlabeled batch; items without a pseudo-label contribute zero.
    """
    probs_strong = np.asarray(probs_strong, dtype=np.float64)
    decisions = list(decisions)
    if probs_strong.ndim != 2 or probs_strong.shape[0] != len(decisions):
        raise ConfigError("predictions and decisions must have equal length")
    if not decisions:
        raise ConfigError("unlabeled_loss needs a non-empty batch")
    total = 0.0
    for row, decision in zip(probs_strong, decisions):
        if model_index >= len(decision.masks):
            raise ConfigError(
                f"model_index {model_index} out of range for "
                f"{len(decision.masks)}-model decisions")
        if not decision.has_label:
            continue
        mask = decision.masks[model_index]
        if mask == 0.0:
            continue
        p = max(float(row[decision.pseudo_label]), _PROB_FLOOR)
        total += mask * -math.log(p)
    return total / len(decisions)


def zero_gradients(params: ModelParams) -> Gradients:
    return Gradients(weights=tuple(np.zeros_like(w) for w in params.weights),
                     biases=tuple(np.zeros_like(b) for b in params.biases))


# --- dataset container -----------------------------------------------------

def save_dataset_v1(ds, path) -> None:
    """Write ``ds`` as ``copseudo-ds v1`` text: a header with the feature
    width, then one ``index,missing,label,features...`` record per line,
    each float written with ``repr``."""
    labels = ds.eval_labels()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"copseudo-ds v1 {len(ds)} {ds.num_classes} {ds.features.shape[1]}\n")
        for i in range(len(ds)):
            feats = ",".join(repr(float(v)) for v in ds.features[i])
            fh.write(f"{i},{int(ds.missing[i])},{int(labels[i])},{feats}\n")


# --- prediction dumps ------------------------------------------------------

def reference_dump_predictions(path, weak_probs) -> None:
    """The value-at-a-time writer of ``item,model,p0..`` dumps: each
    value formatted with its own ``format(v, ".17g")``."""
    n, batch, num_classes = weak_probs.shape
    with open(path, "w", encoding="ascii") as fh:
        cols = ",".join(f"p{c}" for c in range(num_classes))
        fh.write(f"item,model,{cols}\n")
        for b in range(batch):
            for m in range(n):
                vals = ",".join(format(v, ".17g") for v in weak_probs[m, b])
                fh.write(f"{b},{m + 1},{vals}\n")


# --- the one-model MLP -----------------------------------------------------

def _reference_check_batch(params: ModelParams, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2:
        raise ConfigError("xs must be a 2-d batch")
    if xs.shape[1] != params.arch[0]:
        raise ConfigError(
            f"feature width {xs.shape[1]} does not match input layer {params.arch[0]}")
    if not np.isfinite(xs).all():
        raise ConfigError("non-finite input features")
    return xs


def reference_forward(params: ModelParams, xs: np.ndarray):
    """Returns (per-layer activations starting with xs, log-probabilities)."""
    acts = [xs]
    h = xs
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.tanh(h @ w + b)
        acts.append(h)
    logits = h @ params.weights[-1] + params.biases[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return acts, logp


def reference_predict_proba(params: ModelParams, xs) -> np.ndarray:
    xs = _reference_check_batch(params, xs)
    _, logp = reference_forward(params, xs)
    return np.exp(logp)


def reference_loss_and_grad(params: ModelParams, xs, targets,
                            weights) -> tuple[float, Gradients]:
    """Mean over the batch of weights_b * cross_entropy(targets_b, p(xs_b)),
    with its exact gradient."""
    xs = _reference_check_batch(params, xs)
    n = xs.shape[0]
    if n == 0:
        raise ConfigError("empty batch")
    targets = np.asarray(targets, dtype=np.int64)
    weights_arr = np.asarray(weights, dtype=np.float64)
    if targets.shape != (n,) or weights_arr.shape != (n,):
        raise ConfigError("targets and weights must match the batch length")
    if targets.min() < 0 or targets.max() >= params.num_classes:
        raise ConfigError("target class out of range")
    if (weights_arr < 0).any() or not np.isfinite(weights_arr).all():
        raise ConfigError("weights must be non-negative finite reals")

    acts, logp = reference_forward(params, xs)
    rows = np.arange(n)
    loss = float(-(weights_arr * logp[rows, targets]).sum() / n)

    probs = np.exp(logp)
    dlogits = probs.copy()
    dlogits[rows, targets] -= 1.0
    dlogits *= (weights_arr / n)[:, None]

    num_layers = len(params.weights)
    g_w = [None] * num_layers
    g_b = [None] * num_layers
    g_w[-1] = acts[-1].T @ dlogits
    g_b[-1] = dlogits.sum(axis=0)
    dh = dlogits @ params.weights[-1].T
    for layer in range(num_layers - 2, -1, -1):
        dz = dh * (1.0 - acts[layer + 1] ** 2)
        g_w[layer] = acts[layer].T @ dz
        g_b[layer] = dz.sum(axis=0)
        if layer:
            dh = dz @ params.weights[layer].T
    return loss, Gradients(weights=tuple(g_w), biases=tuple(g_b))


def reference_sgd_step(params: ModelParams, grads: Gradients, opt: OptState):
    """buf <- m*buf + grad + wd*theta; theta <- theta - lr*buf."""
    def update(theta, g, buf):
        nbuf = opt.momentum * buf + g + opt.weight_decay * theta
        return theta - opt.lr * nbuf, nbuf

    w_pairs = [update(w, g, b) for w, g, b in
               zip(params.weights, grads.weights, opt.weight_bufs)]
    b_pairs = [update(b, g, bb) for b, g, bb in
               zip(params.biases, grads.biases, opt.bias_bufs)]
    return (
        ModelParams(arch=params.arch,
                    weights=tuple(p[0] for p in w_pairs),
                    biases=tuple(p[0] for p in b_pairs)),
        OptState(lr=opt.lr, momentum=opt.momentum, weight_decay=opt.weight_decay,
                 weight_bufs=tuple(p[1] for p in w_pairs),
                 bias_bufs=tuple(p[1] for p in b_pairs)),
    )
