from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from copseudo import _ziggurat, augment
from copseudo.augment import (
    BRIGHTNESS_RANGE,
    MAX_IMAGE_SHIFT,
    AugmentConfig,
    AugmentStream,
    _PerDraw,
    _raw_draws,
    _shift_slices,
    _uniform_roundings,
    strong_images,
    strong_vectors,
    weak_images,
    weak_vectors,
)
from copseudo.errors import ConfigError
from oracles import (
    _draw_strong_ops,
    _flip,
    _translate,
    strong_image,
    strong_vector,
    weak_image,
    weak_vector,
)


class ScriptedRng:
    """Generator double that replays a fixed call script, asserting order."""

    def __init__(self, script):
        self.script = list(script)

    def _next(self, method):
        assert self.script, f"unexpected rng call: {method}"
        name, value = self.script.pop(0)
        assert name == method, f"expected call {name}, got {method}"
        return value

    @staticmethod
    def _shaped(v, size, out):
        if out is not None:
            out[...] = v
            return out
        return v if size is None else np.asarray(v, dtype=float).reshape(size)

    def random(self, size=None, out=None):
        return self._shaped(self._next("random"), size, out)

    def integers(self, low, high=None, size=None):
        v = self._next("integers")
        return np.asarray(v) if size is not None else v

    def uniform(self, low, high):
        return self._next("uniform")

    def standard_normal(self, size=None, out=None):
        return self._shaped(self._next("standard_normal"), size, out)


def ramp_image(c=1, h=4, w=4):
    return np.arange(c * h * w, dtype=np.float64).reshape(c, h, w) / (c * h * w)


CFG = AugmentConfig()

# (kind, modality, feature_shape) for the four batch functions
PAIRS = (("weak", "vector", None), ("strong", "vector", None),
         ("weak", "image", (3, 8, 8)), ("strong", "image", (3, 8, 8)))


class TestDefaults:
    def test_pinned_default_values(self):
        cfg = AugmentConfig()
        assert cfg.sigma_weak == 0.05
        assert cfg.sigma_strong == 0.25
        assert cfg.vector_drop_prob == 0.1
        assert cfg.image_shift_weak == 4
        assert cfg.image_shift_strong == 8

    def test_validation(self):
        with pytest.raises(ConfigError):
            AugmentConfig(sigma_weak=-0.1)
        with pytest.raises(ConfigError):
            AugmentConfig(vector_drop_prob=1.0)
        with pytest.raises(ConfigError):
            AugmentConfig(image_shift_weak=-1)
        with pytest.raises(ConfigError):
            AugmentConfig(image_shift_strong=2.5)

    def test_image_shift_limit(self):
        # a shift s draws from 2s + 1 values, at most 2**32
        assert MAX_IMAGE_SHIFT == 2 ** 31 - 1
        AugmentConfig(image_shift_weak=MAX_IMAGE_SHIFT,
                      image_shift_strong=MAX_IMAGE_SHIFT)
        for name in ("image_shift_weak", "image_shift_strong"):
            with pytest.raises(ConfigError, match=name):
                AugmentConfig(**{name: MAX_IMAGE_SHIFT + 1})


class TestVectorTransforms:
    def test_weak_is_additive_noise(self):
        x = np.array([1.0, -2.0, 0.5])
        rng = ScriptedRng([("standard_normal", [1.0, 0.0, -2.0])])
        out = weak_vectors(x[None], rng, CFG)[0]
        np.testing.assert_allclose(out, [1.05, -2.0, 0.4])

    def test_strong_noise_then_dropout(self):
        x = np.array([1.0, 2.0, 3.0])
        rng = ScriptedRng([
            ("standard_normal", [1.0, 1.0, 1.0]),
            ("random", [0.05, 0.5, 0.09]),  # coords 0 and 2 fall under p=0.1
        ])
        out = strong_vectors(x[None], rng, CFG)[0]
        np.testing.assert_allclose(out, [0.0, 2.25, 0.0])

    def test_zero_sigma_weak_is_identity(self):
        cfg = AugmentConfig(sigma_weak=0.0)
        x = np.array([3.0, 4.0])
        rng = ScriptedRng([("standard_normal", [5.0, 5.0])])
        np.testing.assert_array_equal(weak_vectors(x[None], rng, cfg)[0], x)

    def test_weak_noise_scale_statistics(self):
        rng = np.random.default_rng(0)
        x = np.zeros(40000)
        out = weak_vectors(x[None], rng, CFG)[0]
        assert abs(out.std() - CFG.sigma_weak) < 0.002

    def test_strong_dropout_rate_statistics(self):
        rng = np.random.default_rng(1)
        x = np.ones(40000)
        out = strong_vectors(x[None], rng, CFG)[0]
        zero_rate = (out == 0.0).mean()
        assert abs(zero_rate - CFG.vector_drop_prob) < 0.01


class TestImagePrimitives:
    def test_flip_reverses_columns(self):
        img = ramp_image()
        np.testing.assert_array_equal(_flip(img), img[:, :, ::-1])

    def test_flip_is_involution(self):
        img = ramp_image(3, 5, 6)
        np.testing.assert_array_equal(_flip(_flip(img)), img)

    def test_translate_moves_and_zero_fills(self):
        img = ramp_image(1, 3, 3)
        out = _translate(img, dx=1, dy=0)
        # content shifted right one column; leftmost column zero-filled
        np.testing.assert_array_equal(out[0, :, 0], 0.0)
        np.testing.assert_array_equal(out[0, :, 1:], img[0, :, :2])

    def test_translate_vertical(self):
        img = ramp_image(1, 3, 3)
        out = _translate(img, dx=0, dy=-1)
        np.testing.assert_array_equal(out[0, 2, :], 0.0)
        np.testing.assert_array_equal(out[0, :2, :], img[0, 1:, :])

    def test_translate_zero_is_identity(self):
        img = ramp_image(2, 4, 4)
        np.testing.assert_array_equal(_translate(img, 0, 0), img)

    def test_translate_beyond_bounds_blanks_image(self):
        img = ramp_image(1, 4, 4)
        np.testing.assert_array_equal(_translate(img, 4, 0), 0.0)


class TestWeakImage:
    def test_flip_then_no_shift(self):
        img = ramp_image()
        rng = ScriptedRng([("random", 0.3), ("integers", 0), ("integers", 0)])
        out = weak_images(img[None], rng, CFG)[0]
        np.testing.assert_array_equal(out, img[:, :, ::-1])

    def test_no_flip_with_shift(self):
        img = ramp_image(1, 3, 3)
        rng = ScriptedRng([("random", 0.7), ("integers", 1), ("integers", 0)])
        out = weak_images(img[None], rng, CFG)[0]
        np.testing.assert_array_equal(out, _translate(img, 1, 0))

    def test_flip_frequency(self):
        cfg = AugmentConfig(image_shift_weak=0)
        rng = np.random.default_rng(5)
        img = ramp_image()
        flipped = img[:, :, ::-1]
        out = weak_images(np.broadcast_to(img, (4000,) + img.shape), rng, cfg)
        hits = sum(np.array_equal(view, flipped) for view in out)
        assert abs(hits / 4000 - 0.5) < 0.03


class TestStrongImage:
    def test_flip_then_unit_brightness(self):
        img = ramp_image()
        rng = ScriptedRng([("integers", 0), ("integers", 2), ("uniform", 1.0)])
        out = strong_images(img[None], rng, CFG)[0]
        np.testing.assert_array_equal(out, img[:, :, ::-1])

    def test_cutout_patch_value_and_extent(self):
        img = np.full((3, 32, 32), 0.25)
        rng = ScriptedRng([("integers", 3), ("integers", 3),
                           ("integers", 3), ("integers", 5),
                           ("integers", 3), ("integers", 5)])
        out = strong_images(img[None], rng, CFG)[0]
        np.testing.assert_array_equal(out[:, 3:11, 5:13], 0.5)
        mask = np.ones((32, 32), dtype=bool)
        mask[3:11, 5:13] = False
        np.testing.assert_array_equal(out[:, mask], 0.25)

    def test_brightness_clamps_to_unit_range(self):
        img = np.full((1, 8, 8), 0.9)
        rng = ScriptedRng([("integers", 2), ("integers", 2),
                           ("uniform", 1.4), ("uniform", 1.4)])
        out = strong_images(img[None], rng, CFG)[0]
        np.testing.assert_array_equal(out, 1.0)

    def test_two_translations_compose(self):
        img = ramp_image(1, 6, 6)
        rng = ScriptedRng([("integers", 1), ("integers", 1),
                           ("integers", 2), ("integers", 0),
                           ("integers", 0), ("integers", 1)])
        out = strong_images(img[None], rng, CFG)[0]
        np.testing.assert_array_equal(out, _translate(_translate(img, 2, 0), 0, 1))

    def test_does_not_mutate_input(self):
        img = ramp_image(3, 32, 32)
        keep = img.copy()
        strong_images(img[None], np.random.default_rng(0), CFG)
        np.testing.assert_array_equal(img, keep)

    def test_op_pair_includes_any_given_op_at_expected_rate(self):
        # two independent draws over four ops: P(op present) = 1 - (3/4)^2
        rng = np.random.default_rng(123)
        hits = sum(3 in _draw_strong_ops(rng) for _ in range(10000))
        assert abs(hits / 10000 - 0.4375) < 0.015

    def test_each_op_draw_is_uniform(self):
        rng = np.random.default_rng(7)
        draws = np.concatenate([_draw_strong_ops(rng) for _ in range(5000)])
        counts = np.bincount(draws, minlength=4) / draws.size
        np.testing.assert_allclose(counts, 0.25, atol=0.02)


def apply_one(stream, x):
    """One flat feature vector through ``stream``, as a batch of one."""
    return stream.apply_batch(x[None])[0]


class TestStream:
    def test_deterministic_replay(self):
        x = np.linspace(-1, 1, 12)
        a = AugmentStream("strong", "vector", seed=9)
        b = AugmentStream("strong", "vector", seed=9)
        for _ in range(5):
            np.testing.assert_array_equal(apply_one(a, x), apply_one(b, x))

    def test_distinct_seeds_differ(self):
        x = np.linspace(-1, 1, 12)
        a = AugmentStream("weak", "vector", seed=1)
        b = AugmentStream("weak", "vector", seed=2)
        assert not np.array_equal(apply_one(a, x), apply_one(b, x))

    def test_stream_advances(self):
        x = np.ones(6)
        s = AugmentStream("weak", "vector", seed=3)
        assert not np.array_equal(apply_one(s, x), apply_one(s, x))

    def test_image_stream_round_trips_flat_features(self):
        flat = np.random.default_rng(4).random(3 * 32 * 32)
        s = AugmentStream("strong", "image", seed=0)
        out = apply_one(s, flat)
        assert out.shape == flat.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_apply_batch_matches_sequential_apply(self):
        for kind, modality, shape in PAIRS:
            width = 10 if shape is None else int(np.prod(shape))
            xs = np.random.default_rng(8).random((5, width))
            whole = AugmentStream(kind, modality, seed=21, feature_shape=shape)
            batch = whole.apply_batch(xs)
            seq = AugmentStream(kind, modality, seed=21, feature_shape=shape)
            rows = [apply_one(seq, row) for row in xs]
            np.testing.assert_array_equal(batch, np.stack(rows))
            assert whole.rng.bit_generator.state == seq.rng.bit_generator.state

    def test_apply_batch_into_matches_apply_batch(self):
        # written into a row of a stacked block, as the trainer does
        for kind, modality, shape in PAIRS:
            width = 10 if shape is None else int(np.prod(shape))
            xs = np.random.default_rng(8).random((5, width))
            fresh = AugmentStream(kind, modality, seed=21, feature_shape=shape)
            into = AugmentStream(kind, modality, seed=21, feature_shape=shape)
            block = np.full((3, 5, width), np.nan)
            for _ in range(2):
                want = fresh.apply_batch(xs)
                got = into.apply_batch_into(xs, block[1])
                assert np.shares_memory(got, block[1])
                np.testing.assert_array_equal(block[1], want)
            assert np.isnan(block[[0, 2]]).all()
            assert into.rng.bit_generator.state == fresh.rng.bit_generator.state

    def test_apply_batch_into_rejects_bad_out(self):
        s = AugmentStream("weak", "vector", seed=0)
        xs = np.zeros((4, 6))
        for out in (np.empty((4, 5)), np.empty((4, 6), dtype=np.float32),
                    np.empty((6, 4)).T):
            with pytest.raises(ConfigError, match="out must be"):
                s.apply_batch_into(xs, out)

    @pytest.mark.parametrize("kind", ["weak", "strong"])
    def test_apply_batch_into_rejects_rows_of_the_wrong_width(self, kind):
        s = AugmentStream(kind, "image", seed=0, feature_shape=(3, 8, 8))
        state = s.rng.bit_generator.state
        for width in (10, 191, 193):
            for dtype in (np.float64, np.uint8):
                xs = np.zeros((2, width), dtype=dtype)
                with pytest.raises(ConfigError, match=f"image rows must have "
                                   f"192 features, got {width}"):
                    s.apply_batch_into(xs, np.empty((2, width)))
        assert s.rng.bit_generator.state == state

    @pytest.mark.parametrize("kind,modality,shape", PAIRS)
    def test_apply_batch_into_rejects_an_out_that_overlaps_the_rows(
            self, kind, modality, shape):
        # a weak image stream given its own rows would zero them first
        width = 10 if shape is None else int(np.prod(shape))
        s = AugmentStream(kind, modality, seed=0, feature_shape=shape)
        state = s.rng.bit_generator.state
        block = np.random.default_rng(1).random((2, 4, width))
        for xs, out in ((block[0], block[0]), (block[0, 1:], block[0, :3]),
                        (block, block.reshape(-1, width))):
            xs = xs.reshape(-1, width)
            with pytest.raises(ConfigError, match="must not overlap"):
                s.apply_batch_into(xs, out)
        assert s.rng.bit_generator.state == state
        # rows of one block that do not overlap are accepted
        s.apply_batch_into(block[0], block[1])

    @pytest.mark.parametrize("kind", ["weak", "strong"])
    def test_vector_streams_check_a_declared_width(self, kind):
        s = AugmentStream(kind, "vector", seed=1, feature_shape=(5,))
        state = s.rng.bit_generator.state
        for width in (3, 4, 6):
            with pytest.raises(ConfigError, match=f"vector rows must have 5 "
                               f"features, got {width}"):
                s.apply_batch(np.zeros((2, width)))
        assert s.rng.bit_generator.state == state
        assert s.apply_batch(np.zeros((2, 5))).shape == (2, 5)

    def test_empty_batch(self):
        s = AugmentStream("weak", "vector", seed=0)
        out = s.apply_batch(np.zeros((0, 4)))
        assert out.shape == (0, 4)

    def test_validation(self):
        with pytest.raises(ConfigError):
            AugmentStream("medium", "vector", seed=0)
        with pytest.raises(ConfigError):
            AugmentStream("weak", "audio", seed=0)
        with pytest.raises(ConfigError):
            AugmentStream("weak", "image", seed=0, feature_shape=(3, 4, 4))
        with pytest.raises(ConfigError):
            AugmentStream("weak", "image", seed=0, feature_shape=(3, 4))
        with pytest.raises(ConfigError):
            AugmentStream("weak", "vector", seed=0).apply_batch(np.zeros(4))


@st.composite
def small_images(draw):
    c = draw(st.integers(1, 3))
    h = draw(st.integers(2, 8))
    w = draw(st.integers(2, 8))
    arr = draw(hnp.arrays(np.float64, (c, h, w),
                          elements=st.floats(0, 1, allow_nan=False)))
    return arr


class TestProperties:
    @given(small_images(), st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=60, deadline=None)
    def test_translate_values_come_from_source_or_padding(self, img, dx, dy):
        out = _translate(img, dx, dy)
        assert out.shape == img.shape
        allowed = set(img.ravel().tolist()) | {0.0}
        assert set(out.ravel().tolist()) <= allowed

    @given(small_images())
    @settings(max_examples=40, deadline=None)
    def test_flip_preserves_values(self, img):
        out = _flip(img)
        np.testing.assert_array_equal(np.sort(out.ravel()), np.sort(img.ravel()))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_vector_transforms_preserve_shape(self, seed, dim):
        rng = np.random.default_rng(seed)
        x = rng.random(dim)
        assert weak_vectors(x[None], rng, CFG)[0].shape == (dim,)
        assert strong_vectors(x[None], rng, CFG)[0].shape == (dim,)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_strong_image_stays_in_unit_box(self, seed):
        rng = np.random.default_rng(seed)
        img = rng.random((3, 32, 32))
        out = strong_images(img[None], rng, CFG)[0]
        assert out.shape == img.shape
        assert out.min() >= 0.0 and out.max() <= 1.0


ORACLES = {("weak", "vector"): weak_vector, ("strong", "vector"): strong_vector,
           ("weak", "image"): weak_image, ("strong", "image"): strong_image}


class TestBatchAgainstOracle:
    """``apply_batch`` against the one-row-at-a-time reference transforms:
    equal outputs and an equal generator state after every call."""

    # None keeps the defaults (4 weak, 8 strong); a range of 2**31 + 1
    # makes the Lemire rule redraw about half the time
    SHIFTS = (None, 0, 10, 40, 2 ** 30)

    @staticmethod
    def run_pair(kind, modality, shape, cfg, seed, sizes):
        data = np.random.default_rng(seed + 10_000)
        width = data.integers(1, 20) if shape is None else int(np.prod(shape))
        stream = AugmentStream(kind, modality, seed=seed, config=cfg,
                               feature_shape=shape)
        ref_rng = np.random.default_rng(seed)
        oracle = ORACLES[(kind, modality)]
        for size in sizes:  # consecutive calls on one stream
            xs = data.uniform(-0.5, 1.5, size=(size, width))
            got = stream.apply_batch(xs)
            want = np.stack([
                oracle(row if shape is None else row.reshape(shape),
                       ref_rng, cfg).reshape(-1)
                for row in xs])
            assert np.array_equal(got, want), (kind, modality, shape, cfg, seed)
            assert stream.rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kind,modality", sorted(ORACLES))
    def test_batch_equals_rows(self, kind, modality):
        shapes = (None,) if modality == "vector" else ((3, 32, 32), (1, 8, 12))
        size_rng = np.random.default_rng(99)
        for shape in shapes:
            for shift in self.SHIFTS:
                cfg = CFG if shift is None else AugmentConfig(
                    image_shift_weak=shift, image_shift_strong=shift)
                for seed in range(3):
                    sizes = [1, 200, int(size_rng.integers(2, 200))]
                    self.run_pair(kind, modality, shape, cfg, seed, sizes)

    @pytest.mark.parametrize("kind", ["weak", "strong"])
    def test_edge_pixels_keep_their_bits(self, kind):
        # signed zeros, negatives and values above 1 through every operation
        data = np.random.default_rng(7)
        xs = data.choice([-0.0, 0.0, -1.5, 1.0, 2.5, 0.25], size=(300, 3072))
        stream = AugmentStream(kind, "image", seed=3)
        ref_rng = np.random.default_rng(3)
        got = stream.apply_batch(xs)
        want = np.stack([ORACLES[(kind, "image")](row.reshape(3, 32, 32), ref_rng,
                                                  CFG).reshape(-1) for row in xs])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert stream.rng.bit_generator.state == ref_rng.bit_generator.state

    def test_scalar_integer_pairs_match_size_two_draws(self):
        # the batch functions draw each (dx, dy) or (top, left) pair as two
        # scalar calls; the references draw one size=2 array
        ranges = ((-4, 5), (-8, 9), (0, 4), (0, 25), (0, 1), (-40, 41))
        for seed in range(50):
            pair_rng = np.random.default_rng(seed)
            scalar_rng = np.random.default_rng(seed)
            for step in range(40):
                lo, hi = ranges[step % len(ranges)]
                assert pair_rng.random() == scalar_rng.random()
                pair = [int(v) for v in pair_rng.integers(lo, hi, size=2)]
                assert pair == [int(scalar_rng.integers(lo, hi)),
                                int(scalar_rng.integers(lo, hi))]
                assert pair_rng.uniform(0.6, 1.4) == scalar_rng.uniform(0.6, 1.4)
            assert pair_rng.bit_generator.state == scalar_rng.bit_generator.state


def same_state(a, b):
    """Bit-generator states equal entry by entry; Philox and MT19937 keep
    arrays in theirs."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


# every (lo, hi) the image streams draw from: the op code, the shift 2s+1
# for s in {0, 4, 8, 10, 40}, cutout corners on 32- and 12-pixel sides and
# on an 8-pixel side (a range of one); then two ranges that reject often
# and the whole 32-bit range
RANGES = ((0, 4), *((-s, s + 1) for s in (0, 4, 8, 10, 40)), (0, 25),
          (0, 5), (0, 1), (0, 3 * 2 ** 30), (-7, 2 ** 31 - 6), (0, 2 ** 32))


class FusedUniform(np.random.Generator):
    """``default_rng(seed)`` with a ``uniform`` that rounds ``low + (high -
    low) * next_double`` once, as a build that fuses the multiply and the
    add does.  ``differ`` counts the draws that two roundings would give
    differently, out of ``draws``."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.draws = self.differ = 0

    def uniform(self, low, high):
        d = self.random()
        once = float(Fraction(low) + Fraction(high - low) * Fraction(d))
        self.draws += 1
        self.differ += once != low + (high - low) * d
        return once


class SinglePrecisionUniform(FusedUniform):
    """A ``uniform`` that matches neither rounding."""

    def uniform(self, low, high):
        return float(np.float32(super().uniform(low, high)))


class TestRawDraws:
    """``_raw_draws`` against a twin ``Generator``'s calls: equal values and,
    after each ``finish``, an equal bit-generator state.  Each new
    ``_RawDraws`` prefetches 0 to 99 words, so the draws both run out of
    words and leave some unused, and it meets the uint32 buffer full and
    empty."""

    def test_matches_generator_calls(self):
        bg = np.random.PCG64(2024)
        want = np.random.default_rng(2024)
        script = np.random.default_rng(7).integers(0, len(RANGES) + 3,
                                                   size=30_000)
        prefetch = np.random.default_rng(8)
        draws = _raw_draws(bg, 0, _uniform_roundings())
        for step, k in enumerate(script):
            if k < len(RANGES):
                lo, hi = RANGES[k]
                got = draws.integers(lo, hi)
                assert type(got) is int
                assert got == want.integers(lo, hi), (step, lo, hi)
            elif k == len(RANGES):
                assert draws.random() == want.random()
            elif k == len(RANGES) + 1:
                assert draws.uniform(*BRIGHTNESS_RANGE) == want.uniform(
                    *BRIGHTNESS_RANGE)
            else:
                draws.finish()
                assert bg.state == want.bit_generator.state, step
                draws = _raw_draws(bg, int(prefetch.integers(0, 100)),
                                   _uniform_roundings())
        draws.finish()
        assert bg.state == want.bit_generator.state

    def test_empty_range_raises_as_integers_does(self):
        for lo, hi in ((0, 0), (3, 1)):
            with pytest.raises(ValueError):
                np.random.default_rng(0).integers(lo, hi)
            with pytest.raises(ValueError):
                _raw_draws(np.random.PCG64(0), 4, 2).integers(lo, hi)

    # brightness, the unit interval, ranges across zero and below it, a
    # range far narrower than low's magnitude, and extreme exponents
    UNIFORM_PAIRS = (BRIGHTNESS_RANGE, (0.0, 1.0), (-3.5, 2.25), (-2.0, -1.0),
                     (0.1, 0.7), (1e3, 1e3 + 1e-9), (-1e10, 1e-10),
                     (5e-324, 1e-300), (-1e300, 1e300))

    def test_uniform_rounded_once_is_exact(self):
        # against the Fraction rounding of FusedUniform for every pair; and
        # the pairs do round differently from two roundings
        differ = 0
        for seed, (low, high) in enumerate(self.UNIFORM_PAIRS):
            draws = _raw_draws(np.random.PCG64(seed), 0, 1)
            twin = FusedUniform(seed)
            for _ in range(2000):
                assert draws.uniform(low, high) == twin.uniform(low, high), (
                    low, high)
            draws.finish()
            assert draws.bg.state == twin.bit_generator.state
            differ += twin.differ
        assert differ > 0


class TestBatchedPath:
    """The image streams of ``default_rng`` generators take their words
    from ``random_raw``; the per-draw path gives the same views and
    states."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("took the per-draw path")

    def test_uniform_check_holds_on_this_build(self):
        assert _uniform_roundings() == 2

    def test_uniform_check_detects_a_fused_build(self):
        assert _uniform_roundings(FusedUniform) == 1

    def test_uniform_check_rejects_other_roundings(self):
        assert _uniform_roundings(SinglePrecisionUniform) is None

    @pytest.mark.parametrize("kind", ["weak", "strong"])
    def test_default_rng_streams_take_the_batched_path(self, kind,
                                                       monkeypatch):
        monkeypatch.setattr(augment, "_PerDraw", self.refuse)
        for shift in (None, 2 ** 30):
            cfg = CFG if shift is None else AugmentConfig(
                image_shift_weak=shift, image_shift_strong=shift)
            TestBatchAgainstOracle.run_pair(kind, "image", (3, 32, 32), cfg,
                                            seed=4, sizes=[1, 200, 37])

    def test_weak_rows_without_redraws_are_arrays(self, monkeypatch):
        # at the default shift the Lemire rule redraws with odds of about
        # 1e-9, so no row of a weak batch is replayed one draw at a time
        monkeypatch.setattr(augment._RawDraws, "next64", self.refuse)
        TestBatchAgainstOracle.run_pair("weak", "image", (3, 32, 32), CFG,
                                        seed=5, sizes=[1, 200, 37])

    SHIFTS = (None, 0, 2 ** 30)  # None keeps the defaults (4 weak, 8 strong)

    @staticmethod
    def check_calls(stream, ref_rng, cfg, pixels, seed):
        """Three consecutive calls of ``stream`` on CIFAR-shaped rows, uint8
        or float, against the oracle on ``ref_rng``: equal view bytes and
        an equal generator state after each."""
        oracle = ORACLES[(stream.kind, "image")]
        data = np.random.default_rng(seed)
        for size in (1, 150, 37):
            xs = data.integers(0, 256, size=(size, 3072), dtype=np.uint8)
            got = stream.apply_batch(xs if pixels else as_floats(xs))
            want = np.stack([oracle(row.reshape(3, 32, 32), ref_rng,
                                    cfg).reshape(-1)
                             for row in as_floats(xs)])
            assert got.tobytes() == want.tobytes(), (stream.kind, cfg, size)
            assert stream.rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("pixels", [False, True], ids=["float", "uint8"])
    @pytest.mark.parametrize("kind", ["weak", "strong"])
    def test_calls_entered_with_a_full_uint32_buffer(self, kind, pixels):
        for shift in self.SHIFTS:
            cfg = CFG if shift is None else AugmentConfig(
                image_shift_weak=shift, image_shift_strong=shift)
            stream = AugmentStream(kind, "image", seed=11, config=cfg)
            ref_rng = np.random.default_rng(11)
            stream.rng.integers(0, 4)
            ref_rng.integers(0, 4)
            assert stream.rng.bit_generator.state["has_uint32"] == 1
            self.check_calls(stream, ref_rng, cfg, pixels, seed=12)

    @pytest.mark.parametrize("pixels", [False, True], ids=["float", "uint8"])
    def test_fused_build_replays_one_rounding(self, pixels, monkeypatch):
        # a build whose uniform rounds once keeps the replay, and its strong
        # views are those its own uniform gives
        monkeypatch.setattr(augment, "_uniform_roundings",
                            lambda generator=None: 1)
        monkeypatch.setattr(augment, "_PerDraw", self.refuse)
        for shift in self.SHIFTS:
            cfg = CFG if shift is None else AugmentConfig(image_shift_strong=shift)
            ref_rng = FusedUniform(14)
            stream = AugmentStream("strong", "image", seed=14, config=cfg)
            self.check_calls(stream, ref_rng, cfg, pixels, seed=15)
            assert 0 < ref_rng.differ < ref_rng.draws, shift

    def test_strong_per_draw_path_gives_the_same_views(self, monkeypatch):
        data = np.random.default_rng(13)
        batches = [data.integers(0, 256, size=(size, 3072), dtype=np.uint8)
                   for size in (1, 150, 37)]
        batched = AugmentStream("strong", "image", seed=6)
        want = [batched.apply_batch(xs) for xs in batches]
        calls = []

        class Counted(_PerDraw):
            def __init__(self, rng):
                calls.append(rng)
                super().__init__(rng)

        monkeypatch.setattr(augment, "_uniform_roundings",
                            lambda generator=None: None)
        monkeypatch.setattr(augment, "_PerDraw", Counted)
        per_draw = AugmentStream("strong", "image", seed=6)
        got = [per_draw.apply_batch(xs) for xs in batches]
        assert len(calls) == len(batches)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert per_draw.rng.bit_generator.state == batched.rng.bit_generator.state

    def test_shift_tables_hold_only_shifts_in_view(self):
        assert sorted(_shift_slices(4, 32)) == list(range(-4, 5))
        assert sorted(_shift_slices(MAX_IMAGE_SHIFT, 32)) == list(range(-31, 32))

    @pytest.mark.parametrize("kind", ["weak", "strong"])
    def test_shift_tables_are_built_once(self, kind):
        stream = AugmentStream(kind, "image", seed=0, feature_shape=(1, 8, 12))
        xs = np.zeros((5, 96))
        stream.apply_batch(xs)
        before = _shift_slices.cache_info()
        stream.apply_batch(xs)
        after = _shift_slices.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 2  # one table per axis

    @pytest.mark.parametrize("kind", ["weak", "strong"])
    def test_largest_shift_matches_rows(self, kind):
        cfg = AugmentConfig(image_shift_weak=MAX_IMAGE_SHIFT,
                            image_shift_strong=MAX_IMAGE_SHIFT)
        for seed in range(2):
            TestBatchAgainstOracle.run_pair(kind, "image", (1, 8, 12), cfg,
                                            seed, sizes=[1, 100, 17])


class TestPerDraw:
    """The image transforms on generators whose bit generator is not a
    ``PCG64``, which draw one value per call, against the oracle on a twin
    generator: equal views and bit-generator states after every call."""

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
        np.random.SFC64], ids=lambda bg: bg.__name__)
    def test_other_bit_generators_match_rows(self, bit_generator):
        data = np.random.default_rng(16)
        for fn, oracle in ((weak_images, weak_image),
                           (strong_images, strong_image)):
            for shift in TestBatchedPath.SHIFTS:
                cfg = CFG if shift is None else AugmentConfig(
                    image_shift_weak=shift, image_shift_strong=shift)
                got_rng = np.random.Generator(bit_generator(2024))
                want_rng = np.random.Generator(bit_generator(2024))
                for size in (1, 150, 37):  # consecutive calls on one generator
                    imgs = data.random((size, 3, 32, 32))
                    got = fn(imgs, got_rng, cfg)
                    want = np.stack([oracle(img, want_rng, cfg) for img in imgs])
                    assert got.tobytes() == want.tobytes(), (fn, shift, size)
                    assert same_state(got_rng.bit_generator.state,
                                      want_rng.bit_generator.state)


class TestKeepMask:
    """``keep`` against the same call without it: kept rows equal, masked
    strong image rows +0.0, and an equal generator state after every
    call."""

    SHIFTS = (None, 0, 10, 40, 2 ** 30)  # None keeps the default (8)

    @staticmethod
    def make_keep(pattern, size, rng):
        if pattern == "all":
            return np.ones(size, dtype=bool)
        if pattern == "none":
            return np.zeros(size, dtype=bool)
        return rng.random(size) < 0.5

    @pytest.mark.parametrize("pattern", ["all", "none", "random"])
    @pytest.mark.parametrize("shape", [(3, 32, 32), (1, 8, 12)])
    def test_strong_images_skip_masked_rows(self, shape, pattern):
        width = int(np.prod(shape))
        for shift in self.SHIFTS:
            cfg = CFG if shift is None else AugmentConfig(image_shift_strong=shift)
            for seed in range(2):
                data = np.random.default_rng(seed + 500)
                masked = AugmentStream("strong", "image", seed=seed, config=cfg,
                                       feature_shape=shape)
                full = AugmentStream("strong", "image", seed=seed, config=cfg,
                                     feature_shape=shape)
                # three calls in a row on one stream
                for size in (1, 150, int(data.integers(2, 150))):
                    xs = data.uniform(-0.5, 1.5, size=(size, width))
                    keep = self.make_keep(pattern, size, data)
                    want = full.apply_batch(xs)
                    got = masked.apply_batch_into(
                        xs, np.full((size, width), np.nan), keep=keep)
                    assert (masked.rng.bit_generator.state
                            == full.rng.bit_generator.state)
                    assert np.array_equal(got[keep], want[keep])
                    assert (got[~keep].view(np.uint64) == 0).all()

    @pytest.mark.parametrize("kind,modality,shape", PAIRS[:3])
    def test_other_streams_build_every_row(self, kind, modality, shape):
        width = 10 if shape is None else int(np.prod(shape))
        xs = np.random.default_rng(8).random((5, width))
        masked = AugmentStream(kind, modality, seed=21, feature_shape=shape)
        full = AugmentStream(kind, modality, seed=21, feature_shape=shape)
        got = masked.apply_batch_into(xs, np.empty((5, width)),
                                      keep=np.zeros(5, dtype=bool))
        np.testing.assert_array_equal(got, full.apply_batch(xs))
        assert masked.rng.bit_generator.state == full.rng.bit_generator.state

    def test_rejects_bad_keep(self):
        s = AugmentStream("strong", "image", seed=0, feature_shape=(1, 8, 12))
        xs = np.zeros((4, 96))
        for keep in (np.ones(3, dtype=bool), np.ones(5, dtype=bool),
                     np.ones((4, 1), dtype=bool), np.ones(4, dtype=np.int64),
                     np.ones(4), [True] * 4):
            with pytest.raises(ConfigError, match="keep must be"):
                s.apply_batch_into(xs, np.empty((4, 96)), keep=keep)


def as_floats(pixels):
    # astype first: under numpy 1.x value-based casting, uint8 / 255.0
    # would divide in float16
    return pixels.astype(np.float64) / 255.0


class TestPixelRows:
    """uint8 rows are pixels whose features are ``pixels / 255``: their
    views equal the views of those float64 rows by ``.tobytes()``, with an
    equal generator state after every call."""

    SHIFTS = (None, 0, 10, 40)  # None keeps the defaults (4 weak, 8 strong)

    @staticmethod
    def pixel_rows(data, size, width):
        # every byte value 0-255 appears in every call
        values = np.resize(np.arange(256, dtype=np.uint8), size * width)
        return data.permutation(values).reshape(size, width)

    @pytest.mark.parametrize("pattern", [None, "all", "none", "random"])
    @pytest.mark.parametrize("shape", [(3, 32, 32), (1, 8, 12)])
    @pytest.mark.parametrize("kind", ["weak", "strong"])
    def test_views_equal_float_rows(self, kind, shape, pattern):
        width = int(np.prod(shape))
        for shift in self.SHIFTS:
            cfg = CFG if shift is None else AugmentConfig(
                image_shift_weak=shift, image_shift_strong=shift)
            for seed in range(2):
                data = np.random.default_rng(seed + 700)
                pixels = AugmentStream(kind, "image", seed=seed, config=cfg,
                                       feature_shape=shape)
                floats = AugmentStream(kind, "image", seed=seed, config=cfg,
                                       feature_shape=shape)
                # three calls in a row on one stream
                for size in (3, 150, int(data.integers(4, 150))):
                    xs = self.pixel_rows(data, size, width)
                    keep = (None if pattern is None else
                            TestKeepMask.make_keep(pattern, size, data))
                    got = pixels.apply_batch_into(
                        xs, np.full((size, width), np.nan), keep=keep)
                    want = floats.apply_batch_into(
                        as_floats(xs), np.full((size, width), np.nan),
                        keep=keep)
                    assert got.tobytes() == want.tobytes(), (kind, shape, cfg)
                    assert (pixels.rng.bit_generator.state
                            == floats.rng.bit_generator.state)

    @pytest.mark.parametrize("kind", ["weak", "strong"])
    def test_batch_functions_take_pixels(self, kind):
        fn = weak_images if kind == "weak" else strong_images
        data = np.random.default_rng(5)
        imgs = self.pixel_rows(data, 40, 3072).reshape(40, 3, 32, 32)
        got = fn(imgs, np.random.default_rng(1), CFG)
        want = fn(as_floats(imgs), np.random.default_rng(1), CFG)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_vector_streams_divide_pixels_first(self):
        data = np.random.default_rng(6)
        xs = self.pixel_rows(data, 30, 16)
        for kind in ("weak", "strong"):
            got = AugmentStream(kind, "vector", seed=2).apply_batch(xs)
            want = AugmentStream(kind, "vector", seed=2).apply_batch(
                as_floats(xs))
            assert got.tobytes() == want.tobytes()

    def test_other_integer_rows_are_values(self):
        xs = np.arange(96, dtype=np.int64).reshape(1, 96)
        got = AugmentStream("weak", "image", seed=4,
                            feature_shape=(1, 8, 12)).apply_batch(xs)
        want = AugmentStream("weak", "image", seed=4,
                             feature_shape=(1, 8, 12)).apply_batch(
                                 xs.astype(np.float64))
        assert got.tobytes() == want.tobytes()


class CallsOnly:
    """A generator's ``standard_normal`` and ``random`` without its bit
    generator, so that ``strong_vectors`` draws one row per call."""

    def __init__(self, rng):
        self.standard_normal, self.random = rng.standard_normal, rng.random


class TestNormalReplay:
    """Strong vector views on a ``PCG64``, replayed from ``random_raw``
    words, against the per-row loop on a twin generator and against the
    one-row reference transform: equal view bytes and an equal bit-generator
    state after every call."""

    WIDTHS = (1, 2, 5, 32)
    SIZES = (0, 1, 64, 1000)

    @staticmethod
    def count_replays(monkeypatch):
        augment._normal_roundings()  # the probe's own replays come first
        calls = []
        replay = augment._vector_draws

        def counted(bg, n, d, roundings, spare=augment._TOP_UP_WORDS):
            calls.append((n, d))
            return replay(bg, n, d, roundings, spare)

        monkeypatch.setattr(augment, "_vector_draws", counted)
        return calls

    @staticmethod
    def check_rows(width, seed, buffered, fn=strong_vectors):
        """Consecutive batches of every size through ``fn`` on a
        ``default_rng``, the loop and the oracle; ``buffered`` uint32
        draws come first, which leave the buffer full (1) or holding a
        spent value (2)."""
        rngs = [np.random.default_rng(seed) for _ in range(3)]
        for rng in rngs:
            for _ in range(buffered):
                rng.integers(0, 4)
        got_rng, loop_rng, ref_rng = rngs
        data = np.random.default_rng(seed + 100)
        for size in TestNormalReplay.SIZES + TestNormalReplay.SIZES[::-1]:
            xs = data.uniform(-2.0, 2.0, size=(size, width))
            got = fn(xs, got_rng, CFG)
            loop = strong_vectors(xs, CallsOnly(loop_rng), CFG)
            want = np.array([strong_vector(row, ref_rng, CFG) for row in xs])
            assert got.tobytes() == loop.tobytes() == want.reshape(
                size, width).tobytes(), (width, seed, size)
            state = got_rng.bit_generator.state
            assert state == loop_rng.bit_generator.state, (width, seed, size)
            assert state == ref_rng.bit_generator.state, (width, seed, size)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_views_match_the_loop_and_the_oracle(self, width, monkeypatch):
        calls = self.count_replays(monkeypatch)
        for seed, buffered in ((0, 0), (1, 1), (2, 2)):
            self.check_rows(width, seed, buffered)
        # every non-empty batch was replayed
        assert len(calls) == 3 * 2 * (len(self.SIZES) - 1)

    def test_streams_replay_their_batches(self, monkeypatch):
        calls = self.count_replays(monkeypatch)
        stream = AugmentStream("strong", "vector", seed=[3, 1])
        twin = np.random.default_rng([3, 1])
        data = np.random.default_rng(4)
        for size in (64, 1, 200):
            xs = data.random((size, 2))
            want = np.array([strong_vector(row, twin, CFG) for row in xs])
            assert stream.apply_batch(xs).tobytes() == want.tobytes()
            assert stream.rng.bit_generator.state == twin.bit_generator.state
        assert calls == [(64, 2), (1, 2), (200, 2)]

    def test_probe_passes_on_this_build(self):
        assert augment._normal_roundings() == _uniform_roundings() == 2

    @staticmethod
    def trace_normals(monkeypatch):
        """Record (first word, words used) of each ``_RawDraws.normal``."""
        trace = []
        normal = augment._RawDraws.normal

        def traced(self):
            first = self.pos
            x = normal(self)
            trace.append((self.words[first], self.pos - first))
            return x

        monkeypatch.setattr(augment._RawDraws, "normal", traced)
        return trace

    @staticmethod
    def paths(trace):
        """The layers of the first words that took the fast path and of
        those that did not, the number of tails and of redraws."""
        fast, slow, tails, redraws = set(), set(), 0, 0
        for w, used in trace:
            k, rabs = w & 0xFF, (w >> 9) & (2 ** 52 - 1)
            if rabs < _ziggurat.KI[k]:
                fast.add(k)
                assert used == 1
                continue
            slow.add(k)
            tails += k == 0
            redraws += used > (3 if k == 0 else 2)
        return fast, slow, tails, redraws

    def test_probe_seeds_take_every_path(self, monkeypatch):
        trace = self.trace_normals(monkeypatch)
        assert augment._normal_roundings.__wrapped__() == 2
        _, slow, tails, redraws = self.paths(trace)
        assert tails >= 2 and redraws >= 5 and len(slow) > 10

    def test_a_million_normals_match_standard_normal(self, monkeypatch):
        # one draw at a time through _RawDraws.normal, every path traced
        trace = self.trace_normals(monkeypatch)
        bg, want = np.random.PCG64(2025), np.random.default_rng(2025)
        draws = _raw_draws(bg, 1_100_000, _uniform_roundings())
        got = np.array([draws.normal() for _ in range(1_000_000)])
        draws.finish()
        assert got.tobytes() == want.standard_normal(1_000_000).tobytes()
        assert bg.state == want.bit_generator.state
        fast, slow, tails, redraws = self.paths(trace)
        assert _ziggurat.KI[1] == 0
        assert fast == set(range(256)) - {1}
        assert slow == set(range(256))
        assert tails >= 1 and redraws >= 1

    def test_a_batch_that_runs_short_starts_again(self, monkeypatch):
        # with no spare words, 6 normals fetch 12 words, and any normal
        # off the fast path runs past them
        calls = self.count_replays(monkeypatch)
        for seed in range(100):
            bg, rng = np.random.PCG64(seed), np.random.default_rng(seed)
            got = augment._vector_draws(bg, 3, 2, 2, spare=0)
            want = augment._loop_draws(rng, 3, 2)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            assert bg.state == rng.bit_generator.state
        assert len(calls) > 100  # the retries go through the module name

    def test_a_failed_probe_takes_the_loop(self, monkeypatch):
        monkeypatch.setattr(augment, "_normal_roundings", lambda: None)
        monkeypatch.setattr(augment, "_vector_draws",
                            TestBatchedPath.refuse)
        for width in self.WIDTHS:
            self.check_rows(width, seed=6, buffered=0)

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
        np.random.SFC64], ids=lambda bg: bg.__name__)
    def test_other_bit_generators_take_the_loop(self, bit_generator,
                                                monkeypatch):
        monkeypatch.setattr(augment, "_vector_draws",
                            TestBatchedPath.refuse)
        got_rng = np.random.Generator(bit_generator(2024))
        want_rng = np.random.Generator(bit_generator(2024))
        data = np.random.default_rng(17)
        for size, width in ((1, 2), (64, 2), (37, 5), (10, 32)):
            xs = data.random((size, width))
            got = strong_vectors(xs, got_rng, CFG)
            want = np.array([strong_vector(row, want_rng, CFG) for row in xs])
            assert got.tobytes() == want.tobytes(), (size, width)
            assert same_state(got_rng.bit_generator.state,
                              want_rng.bit_generator.state)

    def test_uniform_rounded_once_is_derived_once_per_range(self):
        draws = _raw_draws(np.random.PCG64(3), 0, 1)
        draws.uniform(0.25, 0.75)
        before = augment._once_rounded.cache_info()
        for _ in range(10):
            draws.uniform(0.25, 0.75)
        after = augment._once_rounded.cache_info()
        assert (after.hits, after.misses) == (before.hits + 10, before.misses)
