"""Reference classifier: a small MLP (tanh hidden layers, softmax output)
with exact analytic gradients and momentum SGD.

Everything is plain numpy so the arithmetic is easy to audit; no autograd.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

CHECKPOINT_MAGIC = "copseudo-ckpt v1"


@dataclass(frozen=True)
class ModelParams:
    """Layer sizes plus the weight/bias tensors, ordered input to output."""

    arch: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    @property
    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    @property
    def num_classes(self) -> int:
        return self.arch[-1]


@dataclass(frozen=True)
class Gradients:
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class OptState:
    lr: float
    momentum: float
    weight_decay: float
    weight_bufs: tuple[np.ndarray, ...]
    bias_bufs: tuple[np.ndarray, ...]


def _check_arch(arch) -> tuple[int, ...]:
    arch = tuple(int(v) for v in arch)
    if len(arch) < 2:
        raise ConfigError("architecture needs at least input and output sizes")
    if any(v < 1 for v in arch):
        raise ConfigError("layer sizes must be positive")
    return arch


def init_model(arch, seed) -> ModelParams:
    """Scaled-uniform weights (bound 1/sqrt(fan_in)), zero biases."""
    arch = _check_arch(arch)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(arch=arch, weights=tuple(weights), biases=tuple(biases))


def init_opt_state(params: ModelParams, lr: float, momentum: float,
                   weight_decay: float) -> OptState:
    if not (lr > 0 and math.isfinite(lr)):
        raise ConfigError("lr must be a positive finite real")
    if not (0.0 <= momentum < 1.0):
        raise ConfigError("momentum must lie in [0, 1)")
    if not (weight_decay >= 0 and math.isfinite(weight_decay)):
        raise ConfigError("weight_decay must be a non-negative finite real")
    return OptState(
        lr=lr, momentum=momentum, weight_decay=weight_decay,
        weight_bufs=tuple(np.zeros_like(w) for w in params.weights),
        bias_bufs=tuple(np.zeros_like(b) for b in params.biases),
    )


def _check_batch(params: ModelParams, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2:
        raise ConfigError("xs must be a 2-d batch")
    if xs.shape[1] != params.arch[0]:
        raise ConfigError(
            f"feature width {xs.shape[1]} does not match input layer {params.arch[0]}")
    if not np.isfinite(xs).all():
        raise ConfigError("non-finite input features")
    return xs


def _forward(params: ModelParams, xs: np.ndarray):
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


def predict_proba(params: ModelParams, xs) -> np.ndarray:
    xs = _check_batch(params, xs)
    _, logp = _forward(params, xs)
    return np.exp(logp)


def loss_and_grad(params: ModelParams, xs, targets, weights) -> tuple[float, Gradients]:
    """Mean over the batch of weights_b * cross_entropy(targets_b, p(xs_b)),
    with its exact gradient."""
    xs = _check_batch(params, xs)
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

    acts, logp = _forward(params, xs)
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


def add_scaled(a: Gradients, b: Gradients, scale: float) -> Gradients:
    """a + scale * b, elementwise."""
    return Gradients(
        weights=tuple(x + scale * y for x, y in zip(a.weights, b.weights)),
        biases=tuple(x + scale * y for x, y in zip(a.biases, b.biases)),
    )


def sgd_step(params: ModelParams, grads: Gradients, opt: OptState):
    """buf <- m*buf + grad + wd*theta; theta <- theta - lr*buf."""
    tensors = list(zip(params.weights, grads.weights, opt.weight_bufs))
    tensors += list(zip(params.biases, grads.biases, opt.bias_bufs))
    for theta, g, buf in tensors:
        if theta.shape != g.shape or theta.shape != buf.shape:
            raise ConfigError("gradient/buffer shape mismatch")
        if not np.isfinite(g).all():
            raise ConfigError("non-finite gradient")
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


def save_checkpoint(params: ModelParams, path) -> None:
    """Two ascii header lines then raw little-endian float64 tensors in
    layer order W0, b0, W1, b1, ..."""
    with open(path, "wb") as fh:
        fh.write((CHECKPOINT_MAGIC + "\n").encode("ascii"))
        fh.write((" ".join(str(v) for v in params.arch) + "\n").encode("ascii"))
        for w, b in zip(params.weights, params.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    if not os.path.isfile(path):
        raise DataError(f"missing checkpoint file: {path}")
    with open(path, "rb") as fh:
        if fh.readline().decode("ascii", "replace").strip() != CHECKPOINT_MAGIC:
            raise DataError(f"bad checkpoint header in {path}")
        try:
            arch = _check_arch(fh.readline().decode("ascii", "replace").split())
        except (ValueError, ConfigError) as exc:
            raise DataError(f"bad architecture line in {path}") from exc
        flat = np.frombuffer(fh.read(), dtype="<f8")
    expected = sum(i * o + o for i, o in zip(arch[:-1], arch[1:]))
    if flat.size != expected:
        raise DataError(
            f"checkpoint {path} holds {flat.size} values, expected {expected}")
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        weights.append(flat[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out).copy())
        pos += fan_in * fan_out
        biases.append(flat[pos:pos + fan_out].copy())
        pos += fan_out
    return ModelParams(arch=arch, weights=tuple(weights), biases=tuple(biases))
