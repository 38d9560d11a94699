"""Reference classifier: a small MLP (tanh hidden layers, softmax output)
with exact analytic gradients and momentum SGD.

``ModelStack`` is the one model API: it holds n models of one
architecture as stacked tensors, with their momentum buffers, and runs
the forward pass, the loss with its gradient, and the momentum-SGD
update of all n with one ``np.matmul`` per layer; a single model is a
stack of one, and ``ModelStack.model(i)`` is model i of a stack as a
stack of one that shares the stack's tensors.  ``ModelParams`` is the
per-model view that checkpoints are written from and read into.
``loss_and_grad`` is a one-model wrapper kept for gradient checks, and
``predict_models`` predicts with models of mixed architectures.
``Gradients`` has no arithmetic of its own: the trainer adds lambda_u
times each unlabeled pass's gradient into the supervised gradient in
place and hands that to ``sgd_step``, so no separate unlabeled gradient
is kept.

Only the first layer's product may be taken in row chunks, each padded
to a multiple of 64 rows, by one loop (``_chunk_products``, which states
the 64-row rule that keeps the bits):
a large dataset's rows for evaluation and prediction, and, for the
trainer's strong pass, only the rows of an (n, B, d) block that carry a
loss (``ModelStack.first_layer_kept``), the others given +0.0.

The stack's methods scan nothing: the trainer hands them blocks built
from a dataset whose reader checked it, and the one-model
``loss_and_grad`` checks what it is given.  Everything is plain numpy so
the arithmetic is easy to audit; no autograd.  Reductions call
the ufunc's own ``reduce`` (``np.add.reduce`` for a sum,
``np.maximum.reduce`` for a max), which is what ``ndarray.sum`` and
``ndarray.max`` run behind their Python wrappers, so the bits are the
same and a training step makes fewer calls.
"""
from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

CHECKPOINT_MAGIC = "copseudo-ckpt v1"
# rows per chunk of ModelStack._first_layer; a multiple of CHUNK_ALIGN
EVAL_CHUNK_ROWS = 1024
# a first-layer chunk is padded to a multiple of this many rows (see
# _chunk_products)
CHUNK_ALIGN = 64
# the first hidden widths at which first_layer_kept is taken (see
# _chunk_products)
KEPT_WIDTHS = range(16, 65)


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
    return a.swapaxes(-1, -2)


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

    def model(self, i: int) -> "ModelStack":
        """Model i as a stack of one whose tensors and momentum buffers are
        ``[i:i+1]`` views of this stack's, so nothing is copied."""
        one = copy.copy(self)
        for name in ("weights", "biases", "weight_bufs", "bias_bufs"):
            setattr(one, name, [t[i:i + 1] for t in getattr(self, name)])
        return one

    def _check_shape(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2:
            raise ConfigError("xs must be a 2-d batch")
        if xs.shape[1] != self.arch[0]:
            raise ConfigError(f"feature width {xs.shape[1]} does not match "
                              f"input layer {self.arch[0]}")
        return xs

    def _first_layer(self, ds, idx: np.ndarray | None = None) -> np.ndarray:
        """The (n, M, h) product of the first weight stack and the M rows
        ``idx`` (an index array; every row when None) of the dataset
        ``ds``.  More than ``EVAL_CHUNK_ROWS`` rows are multiplied in
        chunks of that many rows (``_chunk_products``), the tail padded to
        a multiple of ``CHUNK_ALIGN`` rows, through one reused float64
        buffer, so no float64 copy of all M rows is made."""
        w = self.weights[0]
        m = len(ds) if idx is None else len(idx)
        if m <= EVAL_CHUNK_ROWS:
            rows = ds.rows(slice(None) if idx is None else idx)
            return np.matmul(self._check_shape(rows), w)
        buf = self._check_shape(np.empty((EVAL_CHUNK_ROWS, ds.width)))
        first = np.empty((self.size, m, w.shape[2]))

        def load(part, dst):
            ds.rows(part if idx is None else idx[part], out=dst)

        _chunk_products(w, load, buf, first)
        return first

    def kept_chunk_rows(self, batch: int, lendable: int) -> int:
        """The rows of a lent float64 block of ``lendable`` rows that
        ``first_layer_kept`` takes as its buffer on an (n, ``batch``, d)
        block: the largest multiple of ``CHUNK_ALIGN``, or 0 when the
        shapes lie outside those for which the 64-row rule is measured
        (see ``_chunk_products``) and the block is to be multiplied
        whole."""
        rows = lendable // CHUNK_ALIGN * CHUNK_ALIGN
        if (batch % CHUNK_ALIGN or self.arch[1] not in KEPT_WIDTHS
                or rows < CHUNK_ALIGN):
            return 0
        return rows

    def first_layer_kept(self, xs: np.ndarray, keep: np.ndarray,
                         buf: np.ndarray) -> np.ndarray:
        """``np.matmul(xs, weights[0])`` for the rows of the (n, B, d)
        block ``xs`` that the (n, B) bool ``keep`` marks, and +0.0 for the
        others, which is what the whole product gives a +0.0 row.  Each
        model's kept rows are gathered into ``buf``, a C-contiguous
        float64 block of a multiple of ``CHUNK_ALIGN`` rows that the
        caller lends (see ``kept_chunk_rows``), and multiplied in chunks
        (``_chunk_products``)."""
        w = self.weights[0]
        first = np.zeros(xs.shape[:2] + w.shape[2:])
        for i in range(self.size):
            at = keep[i].nonzero()[0]
            # the indices are in range, and mode="clip" writes out unbuffered
            def load(part, dst, rows=xs[i], at=at):
                rows.take(at[part], axis=0, out=dst, mode="clip")

            _chunk_products(w[i], load, buf, first[i], at)
        return first

    def _forward(self, xs: np.ndarray, first: np.ndarray | None = None):
        """Returns (per-layer activations starting with xs, log-probabilities
        of shape (n, B, C)).  ``first``, when given, is the caller's
        ``np.matmul(xs, weights[0])``, and the pass starts from it in place."""
        acts = [xs]
        z = np.matmul(xs, self.weights[0]) if first is None else first
        for w, b in zip(self.weights[1:], self.biases[:-1]):
            z += b[:, None, :]
            np.tanh(z, out=z)
            acts.append(z)
            z = np.matmul(z, w)
        z += self.biases[-1][:, None, :]
        z -= np.maximum.reduce(z, axis=-1, keepdims=True)
        z -= np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))
        return acts, z

    def predict_proba(self, xs: np.ndarray | None,
                      first: np.ndarray | None = None) -> np.ndarray:
        """(n, B, C) class probabilities; ``first`` as in ``_forward``."""
        return np.exp(self._forward(xs, first)[1])

    def loss_and_grad(self, xs, targets, weights,
                      first: np.ndarray | None = None
                      ) -> tuple[np.ndarray, Gradients]:
        """Per model, the mean over the batch of weights_b *
        cross_entropy(targets_b, p(xs_b)), with its exact gradient.
        ``targets`` and ``weights`` are (n, B) arrays; ``first`` as in
        ``_forward``.  Returns the (n,) losses and stacked gradients."""
        n, batch = targets.shape
        num_classes = self.arch[-1]
        acts, logp = self._forward(xs, first)
        # flat positions of each (model, row, target) entry of the C-contiguous
        # (n, B, C) block
        picks = np.arange(0, n * batch * num_classes, num_classes)
        picks += targets.reshape(-1)
        losses = -np.add.reduce(
            weights * logp.reshape(-1)[picks].reshape(n, batch), axis=1) / batch

        dlogits = np.exp(logp)
        dlogits.reshape(-1)[picks] -= 1.0
        dlogits *= (weights / batch)[:, :, None]

        num_layers = len(self.weights)
        g_w = [None] * num_layers
        g_b = [None] * num_layers
        g_w[-1] = _t(np.matmul(_t(dlogits), acts[-1]))
        g_b[-1] = np.add.reduce(dlogits, axis=1)
        dh = np.matmul(dlogits, _t(self.weights[-1]))
        for layer in range(num_layers - 2, -1, -1):
            dz = acts[layer + 1] ** 2
            np.subtract(1.0, dz, out=dz)
            dz *= dh
            g_w[layer] = _t(np.matmul(_t(dz), acts[layer]))
            g_b[layer] = np.add.reduce(dz, axis=1)
            if layer:
                dh = np.matmul(dz, _t(self.weights[layer]))
        return losses, Gradients(weights=tuple(g_w), biases=tuple(g_b))

    def sgd_step(self, grads: Gradients, lr: float) -> None:
        """buf <- m*buf + grad + wd*theta; theta <- theta - lr*buf, in
        place for every model."""
        for theta, g, buf in zip(self.weights + self.biases,
                                 grads.weights + grads.biases,
                                 self.weight_bufs + self.bias_bufs):
            buf *= self.momentum
            buf += g
            buf += self.weight_decay * theta
            theta -= lr * buf


def _chunk_products(w: np.ndarray, load, buf: np.ndarray, out: np.ndarray,
                    at: np.ndarray | None = None) -> None:
    """Multiply m rows by ``w`` (a (d, h) matrix or an (n, d, h) stack) in
    chunks of at most ``len(buf)`` rows, a multiple of ``CHUNK_ALIGN``,
    through the float64 block ``buf``, and write the products into the
    rows ``at`` (an index array; every row when None) of the (..., M, h)
    array ``out``; m is the number of those rows.  For each chunk,
    ``load(part, dst)`` writes the rows ``part`` (a slice of range(m))
    into ``dst``, the chunk's leading rows of ``buf``; the chunk is then
    padded to a multiple of ``CHUNK_ALIGN`` rows and multiplied, and the
    product's first rows are written out.  The padding rows hold whatever
    ``buf`` held there, and their products are cut away: a row's product
    is computed from that row alone.

    The 64-row rule: a row's product in a chunk of a multiple of 64 rows
    has the bits of that row's product in the whole matmul of the rows
    padded with zero rows to a multiple of 64, so the first layer may be
    chunked; a later layer's narrow matmul changes bits with the row
    count, so it runs on the whole block.  Unpadded, the whole matmul
    gives the same bits under the SkylakeX kernels but not under Haswell
    or Zen, which compute a tail row of some odd row counts another way.
    The rule is OpenBLAS's, measured and not derived (scipy-openblas
    0.3.31 on an AVX-512 Xeon, with 1, 2, 3, 4 and 8 BLAS threads, and
    with each kernel set forced by ``OPENBLAS_CORETYPE``).  Tests pin it
    where it is used: evaluation and ``select-subset`` in 1,024-row
    chunks and a tail padded to a multiple of 64 rows at first hidden
    widths 16 and 32, and ``first_layer_kept`` at batches 64 and 448,
    hidden widths 16, 17, 32, 33 and 64 and chunks of 64, 128 and 192
    rows.  Measured exceptions: evaluation's chunks of 3072-wide rows
    change bits at hidden width 1 (M = 1031 and 2049) and at some widths
    above 192; kept chunks change bits at hidden widths 2-5, and, with
    more than one BLAS thread, at widths above 64 that are not a multiple
    of 8.  So ``ModelStack.kept_chunk_rows`` takes widths 16-64 only.
    """
    m = out.shape[-2] if at is None else len(at)
    for start in range(0, m, len(buf)):
        k = min(len(buf), m - start)
        part = slice(start, start + k)
        load(part, buf[:k])
        rows = -(-k // CHUNK_ALIGN) * CHUNK_ALIGN
        out[..., part if at is None else at[part], :] = np.matmul(
            buf[:rows], w)[..., :k, :]


def predict_models(models, ds, idx: np.ndarray | None = None) -> list[np.ndarray]:
    """Each model's (M, C) probabilities on the M rows ``idx`` of the
    dataset ``ds`` (every row when None); models of one architecture
    share a stack, whose first layer reads the rows in chunks (see
    ``ModelStack._first_layer``).  A dataset's features are finite, so
    nothing is scanned."""
    groups: dict = {}
    for i, m in enumerate(models):
        groups.setdefault(m.arch, []).append(i)
    out = [None] * len(models)
    for members in groups.values():
        stack = ModelStack([models[i] for i in members])
        probs = stack.predict_proba(None, stack._first_layer(ds, idx))
        for i, p in zip(members, probs):
            out[i] = p
    return out


def loss_and_grad(params: ModelParams, xs, targets, weights) -> tuple[float, Gradients]:
    """Mean over the batch of weights_b * cross_entropy(targets_b, p(xs_b)),
    with its exact gradient, for a (B, d) batch; checks its inputs, which
    ``ModelStack.loss_and_grad`` does not."""
    stack = ModelStack([params])
    xs = stack._check_shape(xs)
    if not np.isfinite(xs).all():
        raise ConfigError("non-finite input features")
    if len(xs) == 0:
        raise ConfigError("empty batch")
    targets = np.asarray(targets, dtype=np.int64)[None]
    weights = np.asarray(weights, dtype=np.float64)[None]
    if targets.shape != (1, len(xs)) or weights.shape != (1, len(xs)):
        raise ConfigError("targets and weights must match the batch length")
    if targets.min() < 0 or targets.max() >= params.num_classes:
        raise ConfigError("target class out of range")
    if (weights < 0).any() or not np.isfinite(weights).all():
        raise ConfigError("weights must be non-negative finite reals")
    losses, grads = stack.loss_and_grad(xs, targets, weights)
    return float(losses[0]), Gradients(weights=tuple(g[0] for g in grads.weights),
                                       biases=tuple(g[0] for g in grads.biases))


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
        payload = fh.read()
    if len(payload) % 8:
        raise DataError(f"checkpoint {path} is truncated: {len(payload)} "
                        "bytes of values is not a multiple of 8")
    flat = np.frombuffer(payload, dtype="<f8")
    expected = sum(i * o + o for i, o in zip(arch[:-1], arch[1:]))
    if flat.size != expected:
        raise DataError(
            f"checkpoint {path} holds {flat.size} values, expected {expected}")
    if not np.isfinite(flat).all():
        raise DataError(f"checkpoint {path} holds non-finite values")
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        weights.append(flat[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out).copy())
        pos += fan_in * fan_out
        biases.append(flat[pos:pos + fan_out].copy())
        pos += fan_out
    return ModelParams(arch=arch, weights=tuple(weights), biases=tuple(biases))
