"""Weak and strong stochastic input transforms, one batch at a time.

Vectors get Gaussian jitter (weak) or heavier jitter plus coordinate
dropout (strong).  Images get flip/translate (weak) or two operations
drawn from {flip, translate, brightness, cutout} (strong).  Each kind and
modality has one batch function; ``AugmentStream.apply_batch`` and
``apply_batch_into`` (which also takes a per-row ``keep`` mask and uint8
pixel rows) are the only entry points.  Every batch function draws its
random numbers in the order a loop over single rows would, so no view
depends on how rows are grouped into batches, and each ``AugmentStream``
owns its generator, so call order alone determines the views.

On a ``PCG64`` bit generator, as every ``AugmentStream``'s is, strong
vectors and both image transforms take a batch's 64-bit words from one
``random_raw`` call (more if it runs short) and replay from them, in
row order, what numpy's calls would return: ``next_uint32`` as a word's
low half and then its high half, which waits in the state's
``has_uint32``/``uinteger`` buffer; ``next_double`` as ``(w >> 11) *
2**-53``; bounded ints by numpy's 32-bit Lemire rule, redraws included;
``uniform(low, high)`` as ``low + (high - low) * double``, rounded after
the multiply and after the add or, on a build that fuses the two, once;
and ``standard_normal`` by numpy's ziggurat (``_ziggurat``).  Weak images
and the 98.5% of normals that take one word are computed as arrays,
strong images and the other normals a draw at a time.  The generator is
then reset, advanced by ``advance`` over the words used and given the
buffer, so views and states are those of the calls.  Checks on fixed
seeds at the first strong batch find how ``uniform`` rounds and that the
normals replay.  Other generators, and a build whose draws the checks
reject, make the generator's own calls, one value each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .data import CIFAR_IMAGE_SHAPE, PIXEL_SCALE
from .errors import ConfigError

BRIGHTNESS_RANGE = (0.6, 1.4)
CUTOUT_SIZE = 8
CUTOUT_FILL = 0.5
NUM_STRONG_OPS = 2
_STRONG_OP_COUNT = 4  # flip, translate, brightness, cutout
# the largest image shift: a shift s draws from 2s + 1 values, and the
# bounded-int draws cover ranges of at most 2**32
MAX_IMAGE_SHIFT = 2 ** 31 - 1
_MASK32 = 0xFFFFFFFF
_WORDS_PER_STRONG_ROW = 3  # a strong row takes 2.5 words on average
_TOP_UP_WORDS = 64
# standard_normal reads a word's bits as layer (0-7), sign (8), size (9-60)
_MASK52 = 2 ** 52 - 1


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
            if not (isinstance(v, int) and 0 <= v <= MAX_IMAGE_SHIFT):
                problems.append(f"{name} must be an integer in "
                                f"[0, {MAX_IMAGE_SHIFT}]")
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
    """(B, d) rows plus heavier jitter, then coordinate dropout.  Row by
    row, d normals then d uniforms (``_loop_draws``, ``_vector_draws``)."""
    if out is None:
        out = np.empty_like(xs)
    bg = getattr(rng, "bit_generator", None)
    roundings = type(bg) is np.random.PCG64 and xs.size and _normal_roundings()
    noise, drop = (_vector_draws(bg, *xs.shape, roundings) if roundings
                   else _loop_draws(rng, *xs.shape))
    noise *= cfg.sigma_strong
    np.add(xs, noise, out=out)
    out[drop < cfg.vector_drop_prob] = 0.0
    return out


@cache
def _shift_slices(s: int, n: int) -> dict:
    """For each shift d in [-s, s] along an axis of length n that leaves
    something in view (|d| < n), the (destination, source) slices that
    move content by d; a shift the table lacks leaves nothing in view.
    The table is shared by every call with the same (s, n): read only."""
    m = min(s, n - 1)
    return {d: (slice(max(d, 0), n + min(d, 0)), slice(max(-d, 0), n + min(-d, 0)))
            for d in range(-m, m + 1)}


class _PerDraw:
    """A generator's draws as one call each to its own ``integers``,
    ``random`` and ``uniform``: the source for scripted fakes, for bit
    generators other than ``PCG64`` and for a build whose ``uniform``
    ``_uniform_roundings`` cannot reproduce."""

    def __init__(self, rng):
        self.rng, self.random, self.uniform = rng, rng.random, rng.uniform

    def integers(self, lo: int, hi: int) -> int:
        return int(self.rng.integers(lo, hi))

    def finish(self) -> None:
        pass


@cache
def _once_rounded(low: float, high: float) -> tuple[int, int, int]:
    """(a·d·2**53, c·b, b·d·2**53) for low = a/b and high - low = c/d."""
    (a, b), (c, d) = low.as_integer_ratio(), (high - low).as_integer_ratio()
    return a * d * 2 ** 53, c * b, b * d * 2 ** 53


class _RawDraws:
    """The draws of a ``PCG64`` generator's calls, replayed from its 64-bit
    words.  ``start`` is the generator's state before the first word it
    gave to ``words``; ``used`` words were consumed before ``words[0]``,
    and ``has_uint32`` and ``uinteger`` are the uint32 buffer at that
    point.  ``roundings`` is how ``uniform`` rounds, as
    ``_uniform_roundings`` reports it; weak rows draw no ``uniform``.  The
    draws take words in order from ``words`` (a list or ``array("Q")``),
    extended by ``random_raw`` when it runs out; ``finish`` puts the
    generator where the calls would have left it."""

    def __init__(self, bg, start: dict, words, used: int,
                 has_uint32: int, uinteger: int, roundings: int = 2):
        self.bg, self.start, self.words = bg, start, words
        self.used, self.pos = used, 0
        self.has_uint32, self.uinteger = has_uint32, uinteger
        self.roundings = roundings

    def next64(self) -> int:
        if self.pos == len(self.words):
            self.words.extend(self.bg.random_raw(_TOP_UP_WORDS).tolist())
        self.pos += 1
        return self.words[self.pos - 1]

    def next_uint32(self) -> int:
        """The buffered high half if there is one, else the next word's
        low half, buffering its high half."""
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        w = self.next64()
        self.has_uint32, self.uinteger = 1, w >> 32
        return w & _MASK32

    def random(self) -> float:
        """``next_double``: the top 53 bits of a word, scaled to [0, 1)."""
        return (self.next64() >> 11) * 2.0 ** -53

    def integers(self, lo: int, hi: int) -> int:
        """The int ``rng.integers(lo, hi)`` gives, for 1 <= hi - lo <=
        2**32: numpy's 32-bit Lemire map of ``next_uint32``, which is
        integer-exact, redraws included; a range of one draws nothing.
        The first uint32 is read in place, as this runs once per bounded
        draw."""
        r = hi - lo
        if r <= 1:
            if r == 1:
                return lo
            raise ValueError("high <= low")
        if self.has_uint32:
            self.has_uint32 = 0
            m = self.uinteger * r
        else:
            w = self.next64()
            self.has_uint32, self.uinteger = 1, w >> 32
            m = (w & _MASK32) * r
        if m & _MASK32 < r:
            threshold = (0x100000000 - r) % r
            while m & _MASK32 < threshold:
                m = self.next_uint32() * r
        return lo + (m >> 32)

    def uniform(self, low: float, high: float) -> float:
        """``low + (high - low) * next_double``, rounded after the multiply
        and after the add, or, when ``roundings`` is 1, rounded once: the
        exact value as one int/int division, which Python rounds
        correctly."""
        if self.roundings == 2:
            return low + (high - low) * self.random()
        offset, scale, denominator = _once_rounded(low, high)
        return (offset + scale * (self.next64() >> 11)) / denominator

    def normal(self) -> float:
        """numpy's ``random_standard_normal``; its wedge test has the form
        and so the rounding of ``uniform(fi[k], fi[k - 1])``."""
        z = _tables()[0]
        while True:
            w = self.next64()
            k, rabs = w & 0xFF, (w >> 9) & _MASK52
            x = rabs * z.SIGNED_WI[w & 0x1FF]
            if rabs < z.KI[k]:
                return x
            if k == 0:
                while True:
                    xx = -z.INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        x = z.R + xx
                        return -x if rabs >> 8 & 1 else x
            elif self.uniform(z.FI[k], z.FI[k - 1]) < math.exp(-0.5 * x * x):
                return x

    def finish(self) -> None:
        """Reset the generator to ``start``, advance it by the words used
        and set the uint32 buffer, which ``advance`` leaves at (0, 0)."""
        bg = self.bg
        bg.state = self.start
        bg.advance(self.used + self.pos)
        if self.has_uint32 or self.uinteger:
            state = bg.state
            state["has_uint32"], state["uinteger"] = self.has_uint32, self.uinteger
            bg.state = state


def _raw_draws(bg, words: int, roundings: int) -> _RawDraws:
    """A ``_RawDraws`` of the PCG64 ``bg`` holding its next ``words``."""
    start = bg.state
    return _RawDraws(bg, start, bg.random_raw(words).tolist(), 0,
                     start["has_uint32"], start["uinteger"], roundings)


@cache
def _uniform_roundings(generator=None) -> int | None:
    """How ``generator(seed).uniform`` (``default_rng`` when None) rounds
    ``low + (high - low) * next_double``: 2 or 1 when it gives the
    brightness factors of a ``_RawDraws`` with that many roundings on
    fixed PCG64 seeds (a fused multiply-add changes one in nine), else
    None.  It runs at the first strong batch: loading ``numpy.random`` at
    import raised the vector workloads' peak RSS by 0.5 MB."""
    generator = generator or np.random.default_rng
    low, high = BRIGHTNESS_RANGE
    for roundings in (2, 1):
        for seed in range(4):
            rng = generator(seed)
            twin = _raw_draws(np.random.PCG64(seed), 128, roundings)
            if any(rng.uniform(low, high) != twin.uniform(low, high)
                   for _ in range(128)):
                break
        else:
            return roundings
    return None


@cache
def _tables():
    """``_ziggurat`` and ``array``, imported late to save 0.2 MB of RSS."""
    from array import array
    from . import _ziggurat
    return _ziggurat, array


def _loop_draws(rng, n: int, d: int):
    """(n, d) normals and uniforms, drawn a row of each at a time."""
    noise, drop = np.empty((n, d)), np.empty((n, d))
    for i in range(n):
        rng.standard_normal(out=noise[i])
        rng.random(out=drop[i])
    return noise, drop


def _vector_draws(bg, n: int, d: int, roundings: int, spare=_TOP_UP_WORDS):
    """``_loop_draws`` on the PCG64 ``bg`` from one ``random_raw`` call of
    2nd + nd/8 + ``spare`` words.  Uniforms and 98.5% of normals take one
    word each, so row t's normals are gathered from word 2dt and its
    uniforms from 2dt + d, shifted by the extra words of the normals
    before them, which ``_RawDraws.normal`` replays; a short batch retries."""
    (z, array), start = _tables(), bg.state
    words = bg.random_raw(2 * n * d + n * d // 8 + spare)
    draws = _RawDraws(bg, start, array("Q", words.tobytes()), 0,
                      start["has_uint32"], start["uinteger"], roundings)
    k = (words & np.uint64(0x1FF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64(_MASK52)
    # shifts[j], once accumulated: extra words of the normals before td + c
    shifts, slow, shift = np.zeros(n * d + 1, dtype=np.intp), {}, 0
    for q in np.flatnonzero(rabs >= z.KI_ARRAY[k & 0xFF]).tolist():
        t, c = divmod(q - shift, 2 * d)
        if q < draws.pos or c >= d:  # a replayed normal's word or a uniform
            continue
        if t >= n:
            break
        draws.pos = q
        slow[t * d + c] = draws.normal()
        shift = shifts[t * d + c + 1] = draws.pos - q - 1 + shift
    if 2 * n * d + shift > len(words):
        bg.state = start
        return _vector_draws(bg, n, d, roundings, 2 * spare + _TOP_UP_WORDS)
    draws.pos = 2 * n * d + shift
    draws.finish()
    rows = np.arange(0, 2 * n * d, 2 * d)[:, None] + np.arange(d)
    shifts = np.maximum.accumulate(shifts)
    noise = (rabs * z.SIGNED_WI_ARRAY[k])[rows + shifts[:-1].reshape(n, d)]
    drop = ((words >> np.uint64(11)) * 2.0 ** -53)[rows + d + shifts[d::d, None]]
    noise.reshape(-1)[list(slow)] = list(slow.values())
    return noise, drop


@cache
def _normal_roundings() -> int | None:
    """``_uniform_roundings()`` if ``_vector_draws`` with it gives the draws
    and state of ``_loop_draws`` on seeds whose normals take wedge tests,
    redraws and tails, else None; run at the first strong vector batch."""
    roundings = _uniform_roundings()
    for seed in (0, 41) if roundings else ():
        bg, rng = np.random.PCG64(seed), np.random.default_rng(seed)
        got = np.array(_vector_draws(bg, 32, 16, roundings))
        if (got.tobytes() != np.array(_loop_draws(rng, 32, 16)).tobytes()
                or bg.state != rng.bit_generator.state):
            return None
    return roundings


def _shift_view(col, row):
    """The (destination, source) index tuples over (C, H, W) for a column
    and a row entry of ``_shift_slices``, or None when either shift leaves
    nothing in view."""
    if row is None or col is None:
        return None
    return (slice(None), row[0], col[0]), (slice(None), row[1], col[1])


def _weak_draws(rng, n: int, s: int):
    """The flips and (dx, dy) shifts of the first rows of an n-row weak
    batch, and the draws of ``rng`` that the remaining rows take.

    For a ``PCG64`` the rows are computed as arrays from one
    ``random_raw`` call.  A row takes one word for its flip (``next_double
    < 0.5``) and, when s > 0, one uint32 for dx and one for dy: the first
    from the buffer when the row starts with it full, so the buffer's
    state carries from row to row unchanged, and each row takes one more
    word.  The arrays stop at the first row whose shift the Lemire rule
    redraws; that row and the rest are replayed one draw at a time."""
    bg = getattr(rng, "bit_generator", None)
    if type(bg) is not np.random.PCG64:
        return [], [], [], _PerDraw(rng)
    start = bg.state
    has, buf = start["has_uint32"], start["uinteger"]
    r = 2 * s + 1
    per_row = 1 if r == 1 else 2
    words = bg.random_raw(per_row * n)
    flips = ((words[::per_row] >> np.uint64(11)) * 2.0 ** -53 < 0.5).tolist()
    if r == 1:
        done, dx, dy = n, [0] * n, [0] * n
    else:
        odd = words[1::2]
        halves = np.empty(2 * n + has, dtype=np.uint64)
        halves[:has] = buf
        halves[has::2] = odd & np.uint64(_MASK32)
        halves[has + 1::2] = odd >> np.uint64(32)
        m = halves[:2 * n] * np.uint64(r)
        redraw = (m & np.uint64(_MASK32)) < np.uint64((0x100000000 - r) % r)
        redraw = redraw.reshape(n, 2).any(axis=1)
        done = int(redraw.argmax()) if redraw.any() else n
        if done:
            buf = int(odd[done - 1] >> np.uint64(32))
        d = ((m[:2 * done] >> np.uint64(32)).astype(np.int64) - s).tolist()
        dx, dy = d[0::2], d[1::2]
    rest = _RawDraws(bg, start, words[per_row * done:].tolist(),
                     per_row * done, has, buf)
    return flips[:done], dx, dy, rest


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
    then dy; every row's draws are made before any pixel moves.  uint8
    pixels are moved into a uint8 staging block, which one divide writes
    into ``out``."""
    if out is None:
        out = np.empty(imgs.shape)
    n, _, h, w = imgs.shape
    s = cfg.image_shift_weak
    rows, cols = _shift_slices(s, h), _shift_slices(s, w)
    flips, dx, dy, draws = _weak_draws(rng, n, s)
    for _ in range(len(flips), n):  # the rows the arrays stopped short of
        flips.append(draws.random() < 0.5)
        dx.append(draws.integers(-s, s + 1))
        dy.append(draws.integers(-s, s + 1))
    draws.finish()
    moved = np.zeros_like(imgs) if imgs.dtype == np.uint8 else out
    if moved is out:
        out.fill(0.0)
    for i in range(n):
        shift = _shift_view(cols.get(dx[i]), rows.get(dy[i]))
        if shift is not None:
            dst, src = shift
            img = imgs[i, :, :, ::-1] if flips[i] else imgs[i]
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
    n, _, h, w = imgs.shape
    s = cfg.image_shift_strong
    rows, cols = _shift_slices(s, h), _shift_slices(s, w)
    scratch = np.empty(imgs.shape[1:])
    cut_range = min(h, w) - CUTOUT_SIZE + 1
    bg = getattr(rng, "bit_generator", None)
    roundings = _uniform_roundings() if type(bg) is np.random.PCG64 else None
    draws = (_PerDraw(rng) if roundings is None
             else _raw_draws(bg, _WORDS_PER_STRONG_ROW * n, roundings))
    draw = draws.integers
    for i in range(n):
        steps = []
        for op in (draw(0, _STRONG_OP_COUNT), draw(0, _STRONG_OP_COUNT)):
            if op == 1:  # dx, then dy: arguments are evaluated in order
                param = _shift_view(cols.get(draw(-s, s + 1)),
                                    rows.get(draw(-s, s + 1)))
            elif op == 2:
                param = draws.uniform(*BRIGHTNESS_RANGE)
            elif op == 3:
                param = (draw(0, cut_range), draw(0, cut_range))
            else:  # flip draws nothing
                param = None
            steps.append((op, param))
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
    draws.finish()
    return out


class AugmentStream:
    """Stateful source of augmented views for one (kind, consumer) pair.
    A stream is single-threaded: a batch may replay its draws from
    words read ahead of the generator's state, then rewinds and advances
    that state (see the module docstring), so a draw made on the
    generator between those steps would be lost."""

    def __init__(self, kind: str, modality: str, seed,
                 config: AugmentConfig | None = None,
                 feature_shape: tuple[int, ...] | None = None):
        if kind not in ("weak", "strong"):
            raise ConfigError(f"kind must be 'weak' or 'strong', got {kind!r}")
        if modality not in ("vector", "image"):
            raise ConfigError(f"modality must be 'vector' or 'image', got {modality!r}")
        self.kind, self.modality = kind, modality
        self.config = config or AugmentConfig()
        self.feature_shape = (tuple(feature_shape) if feature_shape else
                              CIFAR_IMAGE_SHAPE if modality == "image" else None)
        if modality == "image":
            if len(self.feature_shape) != 3:
                raise ConfigError("image feature_shape must be (channels, height, width)")
            if min(self.feature_shape[1:]) < CUTOUT_SIZE:
                raise ConfigError(f"image sides must be >= {CUTOUT_SIZE}")
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
        if np.may_share_memory(xs, out):
            raise ConfigError("out must not overlap the rows")
        if self.feature_shape is not None:
            width = math.prod(self.feature_shape)
            if xs.shape[1] != width:
                raise ConfigError(f"{self.modality} rows must have {width} "
                                  f"features, got {xs.shape[1]}")
        if xs.shape[0] == 0:
            return out
        if self.modality == "vector":
            fn = weak_vectors if self.kind == "weak" else strong_vectors
            return fn(xs, self.rng, self.config, out)
        shape = (xs.shape[0],) + self.feature_shape
        imgs, views = xs.reshape(shape), out.reshape(shape)
        if self.kind == "weak":
            weak_images(imgs, self.rng, self.config, views)
        else:
            strong_images(imgs, self.rng, self.config, views, keep)
        return out
