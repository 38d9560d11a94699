"""Weak and strong stochastic input transforms, one batch at a time.

Vectors get Gaussian jitter (weak) or heavier jitter plus coordinate
dropout (strong).  Images get flip/translate (weak) or two operations
drawn from {flip, translate, brightness, cutout} (strong).  Each kind
and modality has one batch function, which writes into ``out`` when given
one; ``AugmentStream.apply_batch`` and ``apply_batch_into`` are the only
entry points.  Every batch function draws its random numbers
row by row, in the order a loop over single rows would draw them, so
the stream, and with it every view, does not depend on how rows are
grouped into batches.  Each ``AugmentStream`` owns its generator, so
call order alone determines the sequence of views.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CIFAR_IMAGE_SHAPE
from .errors import ConfigError

BRIGHTNESS_RANGE = (0.6, 1.4)
CUTOUT_SIZE = 8
CUTOUT_FILL = 0.5
NUM_STRONG_OPS = 2
_STRONG_OP_COUNT = 4  # flip, translate, brightness, cutout


@dataclass(frozen=True)
class AugmentConfig:
    sigma_weak: float = 0.05
    sigma_strong: float = 0.25
    vector_drop_prob: float = 0.1
    image_shift_weak: int = 4
    image_shift_strong: int = 8

    def __post_init__(self):
        problems = []
        for name in ("sigma_weak", "sigma_strong"):
            v = getattr(self, name)
            if not (v >= 0 and math.isfinite(v)):
                problems.append(f"{name} must be a non-negative finite real")
        if not (0.0 <= self.vector_drop_prob < 1.0):
            problems.append("vector_drop_prob must lie in [0, 1)")
        for name in ("image_shift_weak", "image_shift_strong"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 0):
                problems.append(f"{name} must be a non-negative integer")
        if problems:
            raise ConfigError("invalid augment config: " + "; ".join(problems))


def weak_vectors(xs: np.ndarray, rng, cfg: AugmentConfig,
                 out: np.ndarray | None = None) -> np.ndarray:
    """(B, d) rows plus Gaussian jitter; one draw yields the rows' normals
    in row order."""
    if out is None:
        out = np.empty_like(xs)
    noise = rng.standard_normal(xs.shape)
    noise *= cfg.sigma_weak
    return np.add(xs, noise, out=out)


def strong_vectors(xs: np.ndarray, rng, cfg: AugmentConfig,
                   out: np.ndarray | None = None) -> np.ndarray:
    """(B, d) rows plus heavier jitter, then coordinate dropout.  Each row
    draws its d normals and then its d uniforms."""
    if out is None:
        out = np.empty_like(xs)
    noise = np.empty_like(xs)
    drop = np.empty_like(xs)
    for i in range(xs.shape[0]):
        rng.standard_normal(out=noise[i])
        rng.random(out=drop[i])
    noise *= cfg.sigma_strong
    np.add(xs, noise, out=out)
    out[drop < cfg.vector_drop_prob] = 0.0
    return out


def _shift_slices(s: int, n: int) -> list:
    """For each shift d in [-s, s] along an axis of length n, the
    (destination, source) slices that move content by d, or None when
    the shift leaves nothing in view; entry ``d + s`` is shift d."""
    return [(slice(max(d, 0), n + min(d, 0)), slice(max(-d, 0), n + min(-d, 0)))
            if abs(d) < n else None for d in range(-s, s + 1)]


def _draw_shift(rng, s: int, rows: list, cols: list):
    """Draw a column shift dx, then a row shift dy, each uniform on
    [-s, s]; return the (destination, source) index tuples over (C, H, W)
    that move content by dx columns and dy rows, or None when the shift
    leaves nothing in view.  ``rows`` and ``cols`` are the axes'
    ``_shift_slices``."""
    col = cols[int(rng.integers(-s, s + 1)) + s]
    row = rows[int(rng.integers(-s, s + 1)) + s]
    if row is None or col is None:
        return None
    return (slice(None), row[0], col[0]), (slice(None), row[1], col[1])


def weak_images(imgs: np.ndarray, rng, cfg: AugmentConfig,
                out: np.ndarray | None = None) -> np.ndarray:
    """(B, C, H, W) images, each flipped with probability 1/2 and then
    shifted, with exposed pixels zero.  Each row draws the flip, then dx,
    then dy."""
    if out is None:
        out = np.empty_like(imgs)
    _, _, h, w = imgs.shape
    s = cfg.image_shift_weak
    rows, cols = _shift_slices(s, h), _shift_slices(s, w)
    out.fill(0.0)
    for i in range(imgs.shape[0]):
        img = imgs[i, :, :, ::-1] if rng.random() < 0.5 else imgs[i]
        shift = _draw_shift(rng, s, rows, cols)
        if shift is not None:
            dst, src = shift
            out[i][dst] = img[src]
    return out


def strong_images(imgs: np.ndarray, rng, cfg: AugmentConfig,
                  out: np.ndarray | None = None) -> np.ndarray:
    """(B, C, H, W) images, each put through two operations drawn with
    replacement from {flip, translate, brightness, cutout}.  Each row
    draws both operations, then each operation's parameters in order.
    A row's first operation reads the source image and writes ``out``;
    the second transforms ``out`` in place."""
    if out is None:
        out = np.empty_like(imgs)
    _, _, h, w = imgs.shape
    s = cfg.image_shift_strong
    rows, cols = _shift_slices(s, h), _shift_slices(s, w)
    scratch = np.empty(imgs.shape[1:])
    cut_range = min(h, w) - CUTOUT_SIZE + 1
    for i in range(out.shape[0]):
        cur = out[i]
        src = imgs[i]
        op1 = int(rng.integers(0, _STRONG_OP_COUNT))
        op2 = int(rng.integers(0, _STRONG_OP_COUNT))
        for op in (op1, op2):
            if op == 0:
                if src is cur:
                    np.copyto(scratch, cur)
                    src = scratch
                np.copyto(cur, src[:, :, ::-1])
            elif op == 1:
                shift = _draw_shift(rng, s, rows, cols)
                if src is cur:
                    np.copyto(scratch, cur)
                    src = scratch
                cur.fill(0.0)
                if shift is not None:
                    dst, from_ = shift
                    cur[dst] = src[from_]
            elif op == 2:
                np.multiply(src, rng.uniform(*BRIGHTNESS_RANGE), out=cur)
                np.clip(cur, 0.0, 1.0, out=cur)
            else:
                top = int(rng.integers(0, cut_range))
                left = int(rng.integers(0, cut_range))
                if src is not cur:
                    np.copyto(cur, src)
                cur[:, top:top + CUTOUT_SIZE, left:left + CUTOUT_SIZE] = CUTOUT_FILL
            src = cur
    return out


_BATCH_FNS = {
    ("weak", "vector"): weak_vectors,
    ("strong", "vector"): strong_vectors,
    ("weak", "image"): weak_images,
    ("strong", "image"): strong_images,
}


class AugmentStream:
    """Stateful source of augmented views for one (kind, consumer) pair."""

    def __init__(self, kind: str, modality: str, seed,
                 config: AugmentConfig | None = None,
                 feature_shape: tuple[int, ...] | None = None):
        if kind not in ("weak", "strong"):
            raise ConfigError(f"kind must be 'weak' or 'strong', got {kind!r}")
        if modality not in ("vector", "image"):
            raise ConfigError(f"modality must be 'vector' or 'image', got {modality!r}")
        self.kind = kind
        self.modality = modality
        self.config = config or AugmentConfig()
        if modality == "image":
            self.feature_shape = tuple(feature_shape) if feature_shape else CIFAR_IMAGE_SHAPE
            if len(self.feature_shape) != 3:
                raise ConfigError("image feature_shape must be (channels, height, width)")
            side = min(self.feature_shape[1:])
            if side < CUTOUT_SIZE:
                raise ConfigError(f"image sides must be >= {CUTOUT_SIZE}")
        else:
            self.feature_shape = tuple(feature_shape) if feature_shape else None
        self.rng = np.random.default_rng(seed)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Augment one flat feature vector; returns a new flat array."""
        return self.apply_batch(np.asarray(x, dtype=np.float64)[None])[0]

    def apply_batch(self, xs: np.ndarray) -> np.ndarray:
        """Augment each row independently; the stream advances exactly as
        it would for the rows one at a time, in row order."""
        xs = np.asarray(xs, dtype=np.float64)
        return self.apply_batch_into(xs, np.empty(xs.shape))

    def apply_batch_into(self, xs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``apply_batch`` writing into ``out``, a C-contiguous float64
        array of the batch's shape that does not overlap ``xs``; returns
        ``out``."""
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2:
            raise ConfigError("apply_batch expects a 2-d array")
        if (out.shape != xs.shape or out.dtype != np.float64
                or not out.flags.c_contiguous):
            raise ConfigError("out must be a C-contiguous float64 array of "
                              "the batch's shape")
        if xs.shape[0] == 0:
            return out
        fn = _BATCH_FNS[(self.kind, self.modality)]
        if self.modality == "vector":
            return fn(xs, self.rng, self.config, out)
        shape = (xs.shape[0],) + self.feature_shape
        fn(xs.reshape(shape), self.rng, self.config, out.reshape(shape))
        return out
