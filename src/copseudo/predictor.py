"""Reference classifier: a small MLP (tanh hidden layers, softmax output)
with exact analytic gradients and momentum SGD.

``ModelStack`` is the one model API: it holds n models of one
architecture as stacked tensors, with their momentum buffers, and runs
the forward pass, the loss with its gradient, and the momentum-SGD
update of all n with one ``np.matmul`` per layer; a single model is a
stack of one.  ``ModelParams`` is the per-model view that checkpoints
are written from and read into.  ``loss_and_grad`` is a one-model
wrapper kept for gradient checks, and ``predict_models`` predicts with
models of mixed architectures.

Public methods validate their inputs; the trainer calls the private
``_predict_proba``, ``_loss_and_grad`` and ``_sgd_step``, which scan
nothing, on blocks it built from a finite dataset.  Everything is plain
numpy so the arithmetic is easy to audit; no autograd.
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
    def num_classes(self) -> int:
        return self.arch[-1]


@dataclass(frozen=True)
class Gradients:
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]


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


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose the last two axes: one transposed operand per model."""
    return np.swapaxes(a, -1, -2)


class ModelStack:
    """n models of one architecture as stacked tensors, trained together.

    ``weights[l]`` is a C-contiguous (n, fan_in, fan_out) array and
    ``biases[l]`` an (n, fan_out) array; ``weight_bufs`` and ``bias_bufs``
    are the momentum buffers, of the same shapes, and start at zero.
    Each method runs one ``np.matmul`` per layer for all n models.  A
    stacked matmul computes every model's slice with the same BLAS call
    as that model's own ``@``; a weight gradient is (dz^T a)^T, the same
    row sums in the same order as a^T dz but the faster call at a wide
    input.  The rest of the arithmetic is elementwise or reduces along
    one model's axis, so every number equals the one-model computation
    bit for bit.  Inputs are either a (B, d) batch shared by every model
    or an (n, B, d) block of per-model batches.  ``sgd_step`` updates the
    stack in place.
    """

    def __init__(self, models, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        models = list(models)
        if not models:
            raise ConfigError("a model stack needs at least one model")
        if not (0.0 <= momentum < 1.0):
            raise ConfigError("momentum must lie in [0, 1)")
        if not (weight_decay >= 0 and math.isfinite(weight_decay)):
            raise ConfigError("weight_decay must be a non-negative finite real")
        self.arch = models[0].arch
        if any(m.arch != self.arch for m in models):
            raise ConfigError("stacked models must share one architecture")
        layers = range(len(self.arch) - 1)
        self.weights = [np.stack([m.weights[l] for m in models]).astype(
            np.float64, copy=False) for l in layers]
        self.biases = [np.stack([m.biases[l] for m in models]).astype(
            np.float64, copy=False) for l in layers]
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.weight_bufs = [np.zeros_like(w) for w in self.weights]
        self.bias_bufs = [np.zeros_like(b) for b in self.biases]

    @property
    def size(self) -> int:
        return self.weights[0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.arch[-1]

    def models(self) -> list[ModelParams]:
        """Per-model views of the parameters; they follow later updates."""
        return [ModelParams(arch=self.arch,
                            weights=tuple(w[i] for w in self.weights),
                            biases=tuple(b[i] for b in self.biases))
                for i in range(self.size)]

    def _check_batch(self, xs) -> np.ndarray:
        xs = self._check_shape(xs)
        if not np.isfinite(xs).all():
            raise ConfigError("non-finite input features")
        return xs

    def _check_shape(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim not in (2, 3) or (xs.ndim == 3 and xs.shape[0] != self.size):
            raise ConfigError(f"xs must be a (B, d) batch or an "
                              f"({self.size}, B, d) block")
        if xs.shape[-1] != self.arch[0]:
            raise ConfigError(f"feature width {xs.shape[-1]} does not match "
                              f"input layer {self.arch[0]}")
        return xs

    def _forward(self, xs: np.ndarray):
        """Returns (per-layer activations starting with xs, log-probabilities
        of shape (n, B, C))."""
        acts = [xs]
        h = xs
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.matmul(h, w)
            h += b[:, None, :]
            np.tanh(h, out=h)
            acts.append(h)
        logp = np.matmul(h, self.weights[-1])
        logp += self.biases[-1][:, None, :]
        logp -= logp.max(axis=-1, keepdims=True)
        logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
        return acts, logp

    def predict_proba(self, xs) -> np.ndarray:
        """(n, B, C) class probabilities of every model."""
        return self._predict_proba(self._check_batch(xs))

    def _predict_proba(self, xs: np.ndarray) -> np.ndarray:
        return np.exp(self._forward(xs)[1])

    def loss_and_grad(self, xs, targets, weights) -> tuple[np.ndarray, Gradients]:
        """Per model, the mean over the batch of weights_b *
        cross_entropy(targets_b, p(xs_b)), with its exact gradient.
        ``targets`` and ``weights`` are (n, B); returns the (n,) losses
        and stacked gradients."""
        xs = self._check_batch(xs)
        n, batch = self.size, xs.shape[-2]
        if batch == 0:
            raise ConfigError("empty batch")
        targets = np.asarray(targets, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if targets.shape != (n, batch) or weights.shape != (n, batch):
            raise ConfigError("targets and weights must match the batch length")
        if targets.min() < 0 or targets.max() >= self.num_classes:
            raise ConfigError("target class out of range")
        if (weights < 0).any() or not np.isfinite(weights).all():
            raise ConfigError("weights must be non-negative finite reals")
        return self._loss_and_grad(xs, targets, weights)

    def _loss_and_grad(self, xs: np.ndarray, targets: np.ndarray,
                       weights: np.ndarray) -> tuple[np.ndarray, Gradients]:
        n, batch = self.size, xs.shape[-2]
        acts, logp = self._forward(xs)
        # flat positions of each (model, row, target) entry of the C-contiguous
        # (n, B, C) block
        picks = np.arange(0, n * batch * self.num_classes, self.num_classes)
        picks += targets.reshape(-1)
        losses = -(weights * logp.reshape(-1)[picks].reshape(n, batch)).sum(
            axis=1) / batch

        dlogits = np.exp(logp)
        dlogits.reshape(-1)[picks] -= 1.0
        dlogits *= (weights / batch)[:, :, None]

        num_layers = len(self.weights)
        g_w = [None] * num_layers
        g_b = [None] * num_layers
        g_w[-1] = _t(np.matmul(_t(dlogits), acts[-1]))
        g_b[-1] = dlogits.sum(axis=1)
        dh = np.matmul(dlogits, _t(self.weights[-1]))
        for layer in range(num_layers - 2, -1, -1):
            dz = acts[layer + 1] ** 2
            np.subtract(1.0, dz, out=dz)
            dz *= dh
            g_w[layer] = _t(np.matmul(_t(dz), acts[layer]))
            g_b[layer] = dz.sum(axis=1)
            if layer:
                dh = np.matmul(dz, _t(self.weights[layer]))
        return losses, Gradients(weights=tuple(g_w), biases=tuple(g_b))

    def sgd_step(self, grads: Gradients, lr: float) -> None:
        """buf <- m*buf + grad + wd*theta; theta <- theta - lr*buf, in
        place for every model."""
        for theta, g in zip(self.weights + self.biases,
                            grads.weights + grads.biases):
            if theta.shape != g.shape:
                raise ConfigError("gradient/buffer shape mismatch")
            if not np.isfinite(g).all():
                raise ConfigError("non-finite gradient")
        self._sgd_step(grads, lr)

    def _sgd_step(self, grads: Gradients, lr: float) -> None:
        for theta, g, buf in zip(self.weights + self.biases,
                                 grads.weights + grads.biases,
                                 self.weight_bufs + self.bias_bufs):
            buf *= self.momentum
            buf += g
            buf += self.weight_decay * theta
            theta -= lr * buf


def predict_models(models, xs) -> list[np.ndarray]:
    """Each model's (B, C) probabilities on one shared batch; models of
    one architecture share a stack."""
    groups: dict = {}
    for i, m in enumerate(models):
        groups.setdefault(m.arch, []).append(i)
    out = [None] * len(models)
    for members in groups.values():
        probs = ModelStack([models[i] for i in members]).predict_proba(xs)
        for i, p in zip(members, probs):
            out[i] = p
    return out


def loss_and_grad(params: ModelParams, xs, targets, weights) -> tuple[float, Gradients]:
    """Mean over the batch of weights_b * cross_entropy(targets_b, p(xs_b)),
    with its exact gradient, for a (B, d) batch."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2:
        raise ConfigError("xs must be a 2-d batch")
    losses, grads = ModelStack([params]).loss_and_grad(
        xs, np.asarray(targets)[None], np.asarray(weights)[None])
    return float(losses[0]), Gradients(weights=tuple(g[0] for g in grads.weights),
                                       biases=tuple(g[0] for g in grads.biases))


def add_scaled(a: Gradients, b: Gradients, scale: float) -> Gradients:
    """a + scale * b, elementwise."""
    return Gradients(
        weights=tuple(x + scale * y for x, y in zip(a.weights, b.weights)),
        biases=tuple(x + scale * y for x, y in zip(a.biases, b.biases)),
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
