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

``apply_batch_into`` takes an optional per-row ``keep`` mask.  The strong
image transform makes every draw of a row whose entry is False, in the
same order, but writes zeros instead of moving pixels; the other
transforms, whose per-row cost is their draws, build every row.  Either
way the stream advances exactly as without ``keep``.

The image transforms also take uint8 pixels, whose features are
``pixels / 255``: they move bytes and divide each value they write into
``out`` exactly once, with the divide ``MaskedDataset.rows`` uses, so a
view of pixels equals the view of their float64 rows bit for bit.

The image transforms draw their bounded integers (shifts, op codes,
cutout corners) through ``_int_draws``: one call into the bit
generator's C ``next_uint32``, mapped by numpy's 32-bit Lemire rule, gives
the int and the generator state ``rng.integers(lo, hi)`` would give
without numpy's per-call argument handling.  Floats (``rng.random()``,
``rng.uniform``) stay numpy calls: numpy computes ``low + range *
next_double`` in C, which some builds contract to one fused multiply-add,
and Python's two roundings would not match it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CIFAR_IMAGE_SHAPE, PIXEL_SCALE
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


def _int_draws(rng):
    """Return ``draw(lo, hi)``, which gives the int ``rng.integers(lo, hi)``
    gives and advances ``rng`` as that call does, for 1 <= hi - lo <= 2**32.
    It calls the bit generator's C ``next_uint32`` (the function, and with
    it the uint32 buffer, that ``Generator.integers`` uses) and maps the
    value with numpy's 32-bit Lemire rule, which is integer-exact; a range
    of one draws nothing.  The calls skip the Generator's lock, so a
    generator drawn from this way must not be shared between threads, and
    ``draw`` holds the bit generator's address, not a reference to it, so
    ``rng`` must outlive it.  An object without ``bit_generator.ctypes``
    is asked for ``integers``."""
    c = getattr(getattr(rng, "bit_generator", None), "ctypes", None)
    if c is None:
        return lambda lo, hi: int(rng.integers(lo, hi))
    next_uint32, state = c.next_uint32, c.state

    def draw(lo: int, hi: int) -> int:
        r = hi - lo
        if r <= 1:
            if r == 1:
                return lo
            raise ValueError("high <= low")
        m = next_uint32(state) * r
        if m & 0xFFFFFFFF < r:
            threshold = (0x100000000 - r) % r
            while m & 0xFFFFFFFF < threshold:
                m = next_uint32(state) * r
        return lo + (m >> 32)

    return draw


def _draw_shift(draw, s: int, rows: list, cols: list):
    """Draw a column shift dx, then a row shift dy, each uniform on
    [-s, s] through ``draw`` (see ``_int_draws``); return the
    (destination, source) index tuples over (C, H, W) that move content
    by dx columns and dy rows, or None when the shift leaves nothing in
    view.  ``rows`` and ``cols`` are the axes' ``_shift_slices``."""
    col = cols[draw(-s, s + 1) + s]
    row = rows[draw(-s, s + 1) + s]
    if row is None or col is None:
        return None
    return (slice(None), row[0], col[0]), (slice(None), row[1], col[1])


def _load(dst: np.ndarray, src: np.ndarray) -> None:
    """Write ``src`` into the float64 ``dst``; uint8 pixels are divided by
    255 on the way, the one divide each written value gets."""
    if src.dtype == np.uint8:
        np.divide(src, PIXEL_SCALE, out=dst, dtype=np.float64)
    else:
        np.copyto(dst, src)


def weak_images(imgs: np.ndarray, rng, cfg: AugmentConfig,
                out: np.ndarray | None = None) -> np.ndarray:
    """(B, C, H, W) images, each flipped with probability 1/2 and then
    shifted, with exposed pixels zero.  Each row draws the flip, then dx,
    then dy.  uint8 pixels are moved into a uint8 staging block, which one
    divide writes into ``out``."""
    if out is None:
        out = np.empty(imgs.shape)
    _, _, h, w = imgs.shape
    s = cfg.image_shift_weak
    rows, cols = _shift_slices(s, h), _shift_slices(s, w)
    draw = _int_draws(rng)
    moved = np.zeros_like(imgs) if imgs.dtype == np.uint8 else out
    if moved is out:
        out.fill(0.0)
    for i in range(imgs.shape[0]):
        img = imgs[i, :, :, ::-1] if rng.random() < 0.5 else imgs[i]
        shift = _draw_shift(draw, s, rows, cols)
        if shift is not None:
            dst, src = shift
            moved[i][dst] = img[src]
    if moved is not out:
        _load(out, moved)
    return out


def strong_images(imgs: np.ndarray, rng, cfg: AugmentConfig,
                  out: np.ndarray | None = None,
                  keep: np.ndarray | None = None) -> np.ndarray:
    """(B, C, H, W) images, each put through two operations drawn with
    replacement from {flip, translate, brightness, cutout}.  Each row
    draws both operations, then each operation's parameters in order
    (dx and dy, the brightness factor or the cutout corner), and only then
    moves pixels.  A row's first operation reads the source image and
    writes ``out``, dividing uint8 pixels by 255 as it writes them; the
    second transforms ``out`` in place.

    A row whose ``keep`` entry is False makes the same draws and is
    written as +0.0.  The trainer masks the rows whose unlabeled-loss
    weight is 0, and that leaves every loss and gradient bit unchanged:
    such a row adds only signed zeros (its finite activations times a
    zero weight) to each loss sum and gradient matmul, whatever its pixels
    are.  A signed zero added to a nonzero partial sum leaves it as it
    was, and ±0 + x is x, so every sum with a nonzero term keeps its bits.
    A sum whose terms are all zero may flip the sign of its zero; a
    gradient entry reaches the parameters only through a momentum buffer,
    which starts at +0, and +0 + (±0) is +0."""
    if out is None:
        out = np.empty(imgs.shape)
    _, _, h, w = imgs.shape
    s = cfg.image_shift_strong
    rows, cols = _shift_slices(s, h), _shift_slices(s, w)
    scratch = np.empty(imgs.shape[1:])
    cut_range = min(h, w) - CUTOUT_SIZE + 1
    draw = _int_draws(rng)
    # each operation's parameter draws, indexed by its code; flip has none
    draw_params = (
        lambda: None,
        lambda: _draw_shift(draw, s, rows, cols),
        lambda: rng.uniform(*BRIGHTNESS_RANGE),
        lambda: (draw(0, cut_range), draw(0, cut_range)),
    )
    for i in range(out.shape[0]):
        op1 = draw(0, _STRONG_OP_COUNT)
        op2 = draw(0, _STRONG_OP_COUNT)
        steps = ((op1, draw_params[op1]()), (op2, draw_params[op2]()))
        cur = out[i]
        if keep is not None and not keep[i]:
            cur.fill(0.0)
            continue
        src = imgs[i]
        for op, param in steps:
            if op < 2 and src is cur:  # flip and translate overwrite their input
                np.copyto(scratch, cur)
                src = scratch
            if op == 0:
                _load(cur, src[:, :, ::-1])
            elif op == 1:
                cur.fill(0.0)
                if param is not None:
                    dst, from_ = param
                    _load(cur[dst], src[from_])
            elif op == 2:
                if src.dtype == np.uint8:
                    _load(cur, src)
                    src = cur
                np.multiply(src, param, out=cur)
                np.clip(cur, 0.0, 1.0, out=cur)
            else:
                top, left = param
                if src is not cur:
                    _load(cur, src)
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
    """Stateful source of augmented views for one (kind, consumer) pair.
    A stream is single-threaded: its image draws bypass the generator's
    lock (see ``_int_draws``)."""

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

    def apply_batch(self, xs: np.ndarray) -> np.ndarray:
        """Augment each row independently; the stream advances exactly as
        it would for the rows one at a time, in row order."""
        xs = np.asarray(xs)
        return self.apply_batch_into(xs, np.empty(xs.shape))

    def apply_batch_into(self, xs: np.ndarray, out: np.ndarray,
                         keep: np.ndarray | None = None) -> np.ndarray:
        """``apply_batch`` writing into ``out``, a C-contiguous float64
        array of the batch's shape that does not overlap ``xs``; returns
        ``out``.  uint8 rows are pixels whose features are ``pixels /
        255``: an image stream moves them as bytes and divides each value
        it writes once, so the views equal those of the float64 rows
        ``pixels / 255`` bit for bit.  Rows of any other dtype are read
        as float64.  ``keep``, a bool array with one entry per row, marks
        the rows whose view is used: a strong image stream writes +0.0
        rows for the others (see ``strong_images``), every other stream
        builds all rows.  The stream advances as it does without
        ``keep``."""
        xs = np.asarray(xs)
        if xs.dtype != np.uint8:
            xs = np.asarray(xs, dtype=np.float64)
        elif self.modality == "vector":
            xs = np.divide(xs, PIXEL_SCALE, dtype=np.float64)
        if xs.ndim != 2:
            raise ConfigError("apply_batch expects a 2-d array")
        if (out.shape != xs.shape or out.dtype != np.float64
                or not out.flags.c_contiguous):
            raise ConfigError("out must be a C-contiguous float64 array of "
                              "the batch's shape")
        if keep is not None and (not isinstance(keep, np.ndarray)
                                 or keep.dtype != np.bool_
                                 or keep.shape != xs.shape[:1]):
            raise ConfigError("keep must be a bool array with one entry per "
                              "row")
        if xs.shape[0] == 0:
            return out
        fn = _BATCH_FNS[(self.kind, self.modality)]
        if self.modality == "vector":
            return fn(xs, self.rng, self.config, out)
        shape = (xs.shape[0],) + self.feature_shape
        if fn is strong_images:
            fn(xs.reshape(shape), self.rng, self.config, out.reshape(shape),
               keep)
        else:
            fn(xs.reshape(shape), self.rng, self.config, out.reshape(shape))
        return out
