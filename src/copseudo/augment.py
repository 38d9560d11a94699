"""Weak and strong stochastic input transforms, one batch at a time.

Vectors get Gaussian jitter (weak) or heavier jitter plus coordinate
dropout (strong).  Images get flip/translate (weak) or two operations
drawn from {flip, translate, brightness, cutout} (strong).  Weak vectors
and each image kind have one batch function, which writes into ``out``;
strong vectors are served from a stream's block (below).
``AugmentStream.apply_batch_into`` (which also takes a per-row ``keep``
mask, whose False rows a strong image stream leaves unwritten, and uint8
pixel rows) is the one entry point.  Every transform draws its random
numbers in the order a loop over single rows would, so no view depends
on how rows are grouped into batches, and each stream owns its
generator, so call order alone determines the views.

Strong vectors and both image transforms are defined by the 64-bit
words of the stream's ``PCG64`` bit generator, whose stream numpy keeps
stable across versions.  A batch takes its words from one ``random_raw``
call (more if it runs short) and draws from them, in row order:
``next_uint32`` as a word's low half and then its high half, which waits
in the state's ``has_uint32``/``uinteger`` buffer; ``next_double`` as
``(w >> 11) * 2**-53``; bounded ints by numpy's 32-bit Lemire rule,
redraws included; ``uniform(low, high)`` as ``low + (high - low) *
double``, rounded after the multiply and after the add; and
``standard_normal`` by numpy's ziggurat (``_ziggurat``).  These are the
values numpy's own calls return.  Each draw schedule is one function
(``_vector_draws``, ``_weak_draws``, ``_strong_draws``), which computes
image rows up to the first Lemire redraw and the 98.5% of normals that
take one word as arrays and the rest a draw at a time (``_RawDraws``).
The generator is then stepped back by ``advance`` over the words read
but not used and given the buffer, so the state is that of the calls.
The image batch functions only move pixels.  Weak vectors are one
``standard_normal`` call.

A strong vector stream draws ahead (``_VectorBlock``).  When a batch
needs rows its block does not hold, it draws a new block from the
generator's state: the fewest whole batches that hold ``_BLOCK_VALUES``
normals, so never fewer rows than the batch.  The block's noise is
scaled and its dropout mask computed once; each batch takes slices.
``_vector_draws`` gives each row's end, and after each batch the
generator is stepped by ``advance`` to the end of the batch's last row
and given back its buffer, so after every batch its state is exactly
that of per-row draws.  A block is dropped and drawn again from the
current state when the state is not the one the last batch left (after
a draw or a state set from outside) or the batch's width or config
differ.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cache

import numpy as np

from .data import CIFAR_IMAGE_SHAPE, PIXEL_SCALE
from .errors import ConfigError

BRIGHTNESS_RANGE = (0.6, 1.4)
CUTOUT_SIZE = 8
CUTOUT_FILL = 0.5
_STRONG_OP_COUNT = 4  # flip, translate, brightness, cutout
# the largest image shift: a shift s draws from 2s + 1 values, and the
# bounded-int draws cover ranges of at most 2**32
MAX_IMAGE_SHIFT = 2 ** 31 - 1
_MASK32 = 0xFFFFFFFF
# the most words a strong row takes without a redraw: one for its op
# codes and one for each of its two ops
_WORDS_PER_STRONG_ROW = 3
_TOP_UP_WORDS = 64
# the fewest normals (and uniforms) a strong vector stream draws ahead:
# 512 rows at width 2
_BLOCK_VALUES = 1024
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
                 out: np.ndarray) -> np.ndarray:
    """(B, d) rows plus Gaussian jitter; one draw yields the rows' normals
    in row order."""
    noise = rng.standard_normal(xs.shape)
    noise *= cfg.sigma_weak
    return np.add(xs, noise, out=out)


@cache
def _shift_slices(s: int, n: int) -> dict:
    """For each shift d in [-s, s] along an axis of length n that leaves
    something in view (|d| < n), the (destination, source) slices that
    move content by d; a shift the table lacks leaves nothing in view.
    The table is shared by every call with the same (s, n): read only."""
    m = min(s, n - 1)
    return {d: (slice(max(d, 0), n + min(d, 0)), slice(max(-d, 0), n + min(-d, 0)))
            for d in range(-m, m + 1)}


class _RawDraws:
    """A ``PCG64`` generator's draws, computed from its 64-bit words as
    numpy's calls compute them.  One ``random_raw`` call reads the next
    ``count`` words, kept as the uint64 array ``raw`` for array code and
    as the ``array("Q")`` ``words`` for the draws, extended by
    ``random_raw`` when they run out.  ``start`` is the state before
    them, ``end`` their number, ``pos`` the words taken and
    ``has_uint32``/``uinteger`` the uint32 buffer; array code that takes
    words sets these before the draws.  ``finish`` puts the generator
    where the calls would have left it."""

    def __init__(self, bg, count: int):
        self.bg, self.start, self.pos, self.end = bg, bg.state, 0, count
        self.has_uint32 = self.start["has_uint32"]
        self.uinteger = self.start["uinteger"]
        self.raw = bg.random_raw(count)
        self.words = array("Q", self.raw.tobytes())

    def next64(self) -> int:
        if self.pos == self.end:
            self.words.extend(self.bg.random_raw(_TOP_UP_WORDS).tolist())
            self.end += _TOP_UP_WORDS
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
        Image batches call it only from the first row ``_lemire`` redraws."""
        r = hi - lo
        if r <= 1:
            if r == 1:
                return lo
            raise ValueError("high <= low")
        m, threshold = self.next_uint32() * r, (0x100000000 - r) % r
        while m & _MASK32 < threshold:
            m = self.next_uint32() * r
        return lo + (m >> 32)

    def uniform(self, low: float, high: float) -> float:
        """``low + (high - low) * next_double``, rounded after the multiply
        and after the add."""
        return low + (high - low) * self.random()

    def normal(self) -> float:
        """numpy's ``random_standard_normal``; its wedge test has the form
        and so the rounding of ``uniform(fi[k], fi[k - 1])``."""
        z = _tables()
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
        """Step the generator back over the words read but not used."""
        _advance(self.bg, self.pos - self.end, self.has_uint32, self.uinteger)


def _advance(bg, words: int, has_uint32: int, uinteger: int) -> None:
    """Step the PCG64 ``bg`` by ``words`` (modulo its period of 2**128, so
    a negative count steps back) and set the uint32 buffer, which
    ``advance`` leaves at (0, 0)."""
    bg.advance(words % 2**128)
    if has_uint32 or uinteger:
        state = bg.state
        state["has_uint32"], state["uinteger"] = has_uint32, uinteger
        bg.state = state


@cache
def _row_grid(n: int, d: int) -> np.ndarray:
    """The (n, d) word offsets 2dt + c of row t's normals before any
    replay shifts them; shared by every batch of n rows of width d, so
    read only."""
    grid = np.arange(0, 2 * n * d, 2 * d)[:, None] + np.arange(d)
    grid.flags.writeable = False
    return grid


@cache
def _tables():
    """``_ziggurat``, imported late to save 0.2 MB of RSS."""
    from . import _ziggurat
    return _ziggurat


def _vector_draws(bg, n: int, d: int, spare=_TOP_UP_WORDS):
    """(n, d) normals and uniforms, d of each a row, from the PCG64 ``bg``'s
    words, taken by one ``random_raw`` call of 2nd + nd/8 + ``spare``
    words, and the list of each row's end: the words from ``bg``'s state
    to the row's last draw, inclusive.  Uniforms and 98.5% of normals take
    one word each, so row t's normals are gathered from word 2dt and its
    uniforms from 2dt + d, shifted by the extra words of the normals
    before them, which ``_RawDraws.normal`` replays; a short batch
    retries.  Only the n * d words of each kind that the rows take are
    turned into draws.  ``bg`` is left at the last row's end."""
    z, draws = _tables(), _RawDraws(bg, 2 * n * d + n * d // 8 + spare)
    words = draws.raw
    k = (words & np.uint64(0x1FF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64(_MASK52)
    # shifts[j], once accumulated: extra words of the normals before td + c
    shifts, slow, shift = np.zeros(n * d + 1, dtype=np.intp), {}, 0
    for q in (rabs >= z.KI_ARRAY[k & 0xFF]).nonzero()[0].tolist():
        t, c = (q - shift) // (2 * d), (q - shift) % (2 * d)
        if q < draws.pos or c >= d:  # a replayed normal's word or a uniform
            continue
        if t >= n:
            break
        draws.pos = q
        slow[t * d + c] = draws.normal()
        shift = shifts[t * d + c + 1] = draws.pos - q - 1 + shift
    if 2 * n * d + shift > len(words):
        bg.state = draws.start
        return _vector_draws(bg, n, d, 2 * spare + _TOP_UP_WORDS)
    rows = _row_grid(n, d)
    shifts = np.maximum.accumulate(shifts)
    ends = (rows[:, 0] + 2 * d + shifts[d::d]).tolist()
    draws.pos = ends[-1]
    draws.finish()
    at = rows + shifts[:-1].reshape(n, d)
    noise = rabs[at] * z.SIGNED_WI_ARRAY[k[at]]
    drop = (words[rows + d + shifts[d::d, None]] >> np.uint64(11)) * 2.0 ** -53
    noise.reshape(-1)[list(slow)] = list(slow.values())
    return noise, drop, ends


class _VectorBlock:
    """Strong vector draws for ``rows`` rows of width ``d``, made from the
    PCG64 ``bg``'s state by one ``_vector_draws`` and served a batch at a
    time in row order: the noise scaled by ``sigma_strong`` and the
    dropout mask.  ``serve`` leaves ``bg`` at the end of its batch's last
    row, as per-row draws would: ``at`` is the words from the block's
    first state to ``bg``'s, and ``_advance`` gives ``bg`` the uint32
    buffer the block started with, which vector draws never touch.
    ``left`` is the state the last batch left while rows remain."""

    def __init__(self, bg, rows: int, d: int, cfg: AugmentConfig):
        start = bg.state
        self.buffer = start["has_uint32"], start["uinteger"]
        noise, drop, self.ends = _vector_draws(bg, rows, d)
        noise *= cfg.sigma_strong
        self.noise, self.dropped = noise, drop < cfg.vector_drop_prob
        self.bg, self.cfg, self.rows, self.row = bg, cfg, rows, 0
        self.at = self.ends[-1]
        self.left = None

    def holds(self, bg, n: int, d: int, cfg: AugmentConfig) -> bool:
        """Whether the block's next n rows are those that n rows of width
        d draw under ``cfg`` from ``bg``'s state: the block has them, and
        ``bg`` is the block's and where the last batch left it."""
        return (self.row + n <= self.rows and self.noise.shape[1] == d
                and cfg is self.cfg and bg is self.bg and bg.state == self.left)

    def serve(self, xs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The views of the rows ``xs`` from the block's next rows,
        written into ``out``."""
        lo = self.row
        self.row = hi = lo + xs.shape[0]
        np.add(xs, self.noise[lo:hi], out=out)
        np.putmask(out, self.dropped[lo:hi], 0.0)
        end = self.ends[hi - 1]
        if end != self.at:
            _advance(self.bg, end - self.at, *self.buffer)
            self.at = end
        if hi < self.rows:
            self.left = self.bg.state
        return out


def _shift_view(col, row):
    """The (destination, source) index tuples over (C, H, W) for a column
    and a row entry of ``_shift_slices``, or None when either shift leaves
    nothing in view."""
    if row is None or col is None:
        return None
    return (slice(None), row[0], col[0]), (slice(None), row[1], col[1])


def _lemire(u32: np.ndarray, r):
    """numpy's 32-bit Lemire map of the uint32s ``u32`` (a uint64 array)
    onto [0, r), 1 <= r < 2**32 (an int or array), and the number of
    leading rows (along the first axis) with no draw that the rule redraws."""
    r = np.asarray(r, dtype=np.uint64)
    m = u32 * r
    redraw = (m & np.uint64(_MASK32)) < (np.uint64(0x100000000) - r) % r
    redraw = redraw.any(axis=tuple(range(1, m.ndim)))
    return ((m >> np.uint64(32)).astype(np.int64),
            int(redraw.argmax()) if redraw.any() else len(m))


def _weak_draws(rng, n: int, s: int):
    """The flips and (dx, dy) shifts of an n-row weak batch, as lists.

    The rows are computed as arrays from one ``random_raw`` call.  A row
    takes one word for its flip (``next_double < 0.5``) and, when s > 0,
    one uint32 for dx and one for dy: the first from the buffer when the
    row starts with it full, so the buffer's state carries from row to row
    unchanged, and each row takes one more word.  The arrays stop at the
    first row whose shift the Lemire rule redraws; that row and the rest
    are replayed one draw at a time."""
    r = 2 * s + 1
    per_row = 1 if r == 1 else 2
    draws = _RawDraws(rng.bit_generator, per_row * n)
    words, has = draws.raw, draws.has_uint32
    flips = ((words[::per_row] >> np.uint64(11)) * 2.0 ** -53 < 0.5).tolist()
    if r == 1:
        done, dx, dy = n, [0] * n, [0] * n
    else:
        odd = words[1::2]
        halves = np.empty(2 * n + has, dtype=np.uint64)
        halves[:has] = draws.uinteger
        halves[has::2] = odd & np.uint64(_MASK32)
        halves[has + 1::2] = odd >> np.uint64(32)
        d, done = _lemire(halves[:2 * n].reshape(n, 2), r)
        if done:
            draws.uinteger = int(odd[done - 1] >> np.uint64(32))
        dx, dy = (d[:done] - s).T.tolist()
        del flips[done:]
    draws.pos = per_row * done
    for _ in range(done, n):  # the rows the arrays stopped short of
        flips.append(draws.random() < 0.5)
        dx.append(draws.integers(-s, s + 1))
        dy.append(draws.integers(-s, s + 1))
    draws.finish()
    return flips, dx, dy


def _strong_draws(rng, n: int, s: int, cut: int):
    """The op codes, int pairs and brightness factors of an n-row strong
    batch, two per row in flat lists.  With the uint32 buffer empty, a
    row takes one word for its op codes (the top bits of its low, then its
    high half) and one per op that draws: translate if s > 0 (dx, dy),
    brightness (a double), cutout if ``cut`` > 1 (top, left).  So a walk
    over each word's row length finds the row starts.  The arrays stop at
    the first row the Lemire rule redraws on; it and the rest, or a batch
    entered with the buffer full, are replayed one draw at a time."""
    draws = _RawDraws(rng.bit_generator, _WORDS_PER_STRONG_ROW * n)
    words = draws.raw
    ops, params, factors, done, used = [], [], [], 0, 0
    # a cutout on a side under 8 raises in the replay
    if not draws.has_uint32 and cut >= 1:
        ranges = np.array([1, 2 * s + 1, 1, cut], dtype=np.uint64)
        split = ranges > 1  # the ops whose two ints split a word
        cost = split + np.array([0, 0, 1, 0])  # the words an op's draws take
        code = (((words >> np.uint64(28)) & np.uint64(12))  # 4 * op1 + op2
                | (words >> np.uint64(62))).astype(np.intp)
        length = (1 + cost[:, None] + cost).ravel()[code].tolist()
        starts = [0] + [used := used + length[used] for _ in range(n)]
        row = np.array(starts[:n], dtype=np.intp)  # starts[n] is the end
        op = np.stack(np.divmod(code[row], 4), axis=1)
        at = np.stack([row + 1, row + 1 + cost[op[:, 0]]], axis=1)
        pw = words[at]  # each op's word, read when its op draws
        ints, done = _lemire(np.stack([pw & np.uint64(_MASK32),
                                       pw >> np.uint64(32)], axis=2),
                             ranges[op][:, :, None])
        draws.pos = starts[done]
        if done:  # the buffer keeps the high half of the last word split
            last = max(starts[done - 1], *at[done - 1] * split[op[done - 1]])
            draws.uinteger = int(words[last] >> np.uint64(32))
        low, high = BRIGHTNESS_RANGE
        ops = op[:done].ravel().tolist()
        params = (ints - s * (op == 1)[:, :, None])[:done].ravel().tolist()
        factors = (low + (high - low) * ((pw >> np.uint64(11)) * 2.0 ** -53)
                   )[:done].ravel().tolist()
    draw = draws.integers
    for _ in range(done, n):  # the rows the arrays stopped short of
        row = [draw(0, _STRONG_OP_COUNT), draw(0, _STRONG_OP_COUNT)]
        ops += row
        for op in row:  # a list's items draw in order; a range of 1 draws none
            lo, hi = (-s, s + 1) if op == 1 else (0, cut if op == 3 else 1)
            params += [draw(lo, hi), draw(lo, hi)]
            factors.append(draws.uniform(*BRIGHTNESS_RANGE) if op == 2 else 1.0)
    draws.finish()
    return ops, params, factors


def _load(dst: np.ndarray, src: np.ndarray) -> None:
    """Write ``src`` into the float64 ``dst``; uint8 pixels are divided by
    255 on the way, the one divide each written value gets."""
    if src.dtype == np.uint8:
        np.divide(src, PIXEL_SCALE, out=dst, dtype=np.float64)
    else:
        np.copyto(dst, src)


def weak_images(imgs: np.ndarray, rng, cfg: AugmentConfig,
                out: np.ndarray) -> np.ndarray:
    """(B, C, H, W) images, each flipped with probability 1/2 and then
    shifted, with exposed pixels zero.  Each row draws the flip, then dx,
    then dy; every row's draws are made before any pixel moves.  uint8
    pixels are moved into a uint8 staging block, which one divide writes
    into ``out``."""
    n, _, h, w = imgs.shape
    s = cfg.image_shift_weak
    rows, cols = _shift_slices(s, h), _shift_slices(s, w)
    flips, dx, dy = _weak_draws(rng, n, s)
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
                  out: np.ndarray,
                  keep: np.ndarray | None = None) -> np.ndarray:
    """(B, C, H, W) images, each put through two operations drawn with
    replacement from {flip, translate, brightness, cutout}.  Each row
    draws both operations, then each operation's parameters in order
    (dx and dy, the brightness factor or the cutout corner); the draws are
    computed as arrays (``_strong_draws``) before any pixel moves.  A row's
    first operation reads the source image and writes ``out``, dividing
    uint8 pixels by 255 as it writes them; the second transforms ``out`` in
    place.

    A row whose ``keep`` entry is False makes the same draws, moves no
    pixel and is left as it was.  The trainer masks the rows whose
    unlabeled-loss weight is 0, and that leaves every loss and gradient
    bit unchanged: such a row adds only signed zeros (its finite
    activations times a zero weight) to each loss sum and gradient
    matmul, whatever its pixels are.  A signed zero added to a nonzero
    partial sum leaves it as it was, and ±0 + x is x, so every sum with a
    nonzero term keeps its bits.  A sum whose terms are all zero may flip
    the sign of its zero; a gradient entry reaches the parameters only
    through a momentum buffer, which starts at +0, and +0 + (±0) is +0.

    When the trainer multiplies only the kept rows
    (``ModelStack.first_layer_kept``), a left row is read only in the
    layer-0 weight gradient, where it is multiplied by the ±0 of its zero
    weight.  It holds the shared weak view or an earlier model's strong
    view, since an image run writes them all into one block in turn.
    Every view is >= +0 (pixels / 255, the +0.0 fill, brightness by a
    positive factor and a clip, cutout at 0.5), so each such product is
    the signed zero a +0.0 row gives, and the row's old pixels change no
    bit."""
    n, _, h, w = imgs.shape
    s = cfg.image_shift_strong
    rows, cols = _shift_slices(s, h), _shift_slices(s, w)
    scratch = np.empty(imgs.shape[1:])
    ops, params, factors = _strong_draws(rng, n, s,
                                         min(h, w) - CUTOUT_SIZE + 1)
    for i in range(n) if keep is None else np.flatnonzero(keep).tolist():
        cur, src = out[i], imgs[i]
        for k in (2 * i, 2 * i + 1):
            op, a, b = ops[k], params[2 * k], params[2 * k + 1]
            if op < 2 and src is cur:  # flip and translate overwrite their input
                np.copyto(scratch, cur)
                src = scratch
            if op == 0:
                _load(cur, src[:, :, ::-1])
            elif op == 1:  # dx, dy
                cur.fill(0.0)
                shift = _shift_view(cols.get(a), rows.get(b))
                if shift is not None:
                    dst, from_ = shift
                    _load(cur[dst], src[from_])
            elif op == 2:
                if src.dtype == np.uint8:
                    _load(cur, src)
                    src = cur
                np.multiply(src, factors[k], out=cur)
                np.clip(cur, 0.0, 1.0, out=cur)
            else:  # top, left
                if src is not cur:
                    _load(cur, src)
                cur[:, a:a + CUTOUT_SIZE, b:b + CUTOUT_SIZE] = CUTOUT_FILL
            src = cur
    return out


class AugmentStream:
    """Stateful source of augmented views for one (kind, consumer) pair.
    A stream is single-threaded: a batch may replay its draws from
    words read ahead of the generator's state, then rewinds and advances
    that state (see the module docstring), so a draw made on the
    generator between those steps would be lost.

    A strong vector stream keeps a block of rows drawn ahead and serves
    batches from it.  After every batch ``rng``'s state is the one per-row
    draws leave, so a draw on ``rng`` or a state set between batches sees
    the per-row stream; the stream then drops its block and draws from
    the new state."""

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
        # the row width a feature_shape asks for; None takes any width
        self._width = (None if self.feature_shape is None
                       else math.prod(self.feature_shape))
        self.rng = np.random.default_rng(seed)
        self._block = None  # a strong vector stream's rows drawn ahead

    def apply_batch_into(self, xs: np.ndarray, out: np.ndarray,
                         keep: np.ndarray | None = None) -> np.ndarray:
        """Augment each row of the 2-d ``xs`` independently, writing the
        views into ``out``, a C-contiguous float64 array of the batch's
        shape that does not overlap ``xs``; returns ``out``.  The stream
        advances exactly as it would for the rows one at a time, in row
        order.  uint8 rows are pixels whose features are ``pixels /
        255``: an image stream moves them as bytes and divides each value
        it writes once, so the views equal those of the float64 rows
        ``pixels / 255`` bit for bit.  Rows of any other dtype are read
        as float64.  ``keep``, a bool array with one entry per row, marks
        the rows whose view is used: a strong image stream leaves the
        others' rows of ``out`` as they were (see ``strong_images``),
        every other stream builds all rows.  The stream advances as it
        does without ``keep``."""
        xs = np.asarray(xs)
        if xs.dtype == np.uint8:
            if self.modality == "vector":
                xs = np.divide(xs, PIXEL_SCALE, dtype=np.float64)
        elif xs.dtype != np.float64:
            xs = xs.astype(np.float64)
        if xs.ndim != 2:
            raise ConfigError("apply_batch_into expects a 2-d array")
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
        if self._width is not None and xs.shape[1] != self._width:
            raise ConfigError(f"{self.modality} rows must have {self._width} "
                              f"features, got {xs.shape[1]}")
        if xs.shape[0] == 0:
            return out
        if self.modality == "vector":
            if self.kind == "weak":
                return weak_vectors(xs, self.rng, self.config, out)
            return self._strong_vectors(xs, out)
        shape = (xs.shape[0],) + self.feature_shape
        imgs, views = xs.reshape(shape), out.reshape(shape)
        if self.kind == "weak":
            weak_images(imgs, self.rng, self.config, views)
        else:
            strong_images(imgs, self.rng, self.config, views, keep)
        return out

    def _strong_vectors(self, xs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(B, d) rows plus heavier jitter, then coordinate dropout, served
        from the stream's block: row by row, d normals then d uniforms
        (``_vector_draws``).  When the block does not hold the batch's
        rows, a new one is drawn from the generator's state: the fewest
        whole batches of n rows that hold ``_BLOCK_VALUES`` values of each
        kind, so batches of one size use every row drawn."""
        n, d = xs.shape
        if not d:  # rows with no features draw nothing
            return out
        bg, block = self.rng.bit_generator, self._block
        if block is None or not block.holds(bg, n, d, self.config):
            rows = n * -(-_BLOCK_VALUES // (n * d))
            block = self._block = _VectorBlock(bg, rows, d, self.config)
        return block.serve(xs, out)
