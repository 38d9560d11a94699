import copy
import itertools

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
    _shift_slices,
    strong_images,
    weak_images,
    weak_vectors,
)
from copseudo.errors import ConfigError
from oracles import (
    _draw_strong_ops,
    _flip,
    _translate,
    apply_batch,
    strong_image,
    strong_vector,
    weak_image,
    weak_vector,
)


class ScriptedWords:
    """A ``PCG64`` double that hands out fixed 64-bit words, then zeros.
    It is its own ``bit_generator``, so it stands in for a generator;
    ``spent()`` says whether the draws took exactly the scripted words."""

    def __init__(self, words):
        self.words, self.pos = list(words), 0
        self.has_uint32 = self.uinteger = 0
        self.bit_generator = self

    @property
    def state(self):
        return {"pos": self.pos, "has_uint32": self.has_uint32,
                "uinteger": self.uinteger}

    @state.setter
    def state(self, state):
        self.pos = state["pos"]
        self.has_uint32, self.uinteger = state["has_uint32"], state["uinteger"]

    def random_raw(self, n):
        got = self.words[self.pos:self.pos + n]
        self.pos += n
        return np.array(got + [0] * (n - len(got)), dtype=np.uint64)

    def advance(self, k):
        # PCG64 advances modulo its period, so a step back is k - 2**128
        self.pos = (self.pos + k) % 2**128

    def spent(self):
        return self.pos == len(self.words)


def scripted(*draws):
    """A ``ScriptedWords`` whose words give ``draws`` in order:
    ("integers", lo, hi, v), ("random", u), which is also the
    ``next_double`` of a ``uniform``, or ("normal", z) for |z| < 3.6, a
    layer-0 word on the ziggurat's fast path.  An int is a uint32: a new
    word's low half, or the high half of the word the int before it
    opened."""
    words, half = [], None
    for name, *args in draws:
        if name == "integers":
            lo, hi, v = args
            if hi - lo == 1:  # a range of one draws nothing
                continue
            u = (((v - lo) << 32) + 2 ** 31) // (hi - lo)
            if half is None:
                words.append(u)
                half = len(words) - 1
            else:
                words[half] |= u << 32
                half = None
        elif name == "random":
            words.append(int(args[0] * 2 ** 53) << 11)
        else:
            (z,) = args
            rabs = round(abs(z) / _ziggurat.WI[0])
            assert rabs < _ziggurat.KI[0]
            words.append(rabs << 9 | (256 if z < 0 else 0))
    return ScriptedWords(words)


def strong_vector_stream(rng):
    """A strong vector stream that draws from ``rng``, a generator or a
    ``ScriptedWords``."""
    stream = AugmentStream("strong", "vector", seed=0)
    stream.rng = rng
    return stream


def block_rows(sizes, width):
    """The rows of each block a strong vector stream draws to serve
    batches of ``sizes`` rows of ``width`` features in turn: a batch the
    block's rows left cannot serve draws the fewest whole batches that
    hold ``augment._BLOCK_VALUES`` values."""
    rows = -(-augment._BLOCK_VALUES // width)  # a block's fewest rows
    left, blocks = 0, []
    for size in sizes:
        if size > left:
            blocks.append(left := size * -(-rows // size))
        left -= size
    return blocks


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
    # weak vectors are one standard_normal call, so a twin generator's
    # normals script them
    def test_weak_is_additive_noise(self):
        x = np.array([1.0, -2.0, 0.5])
        out = weak_vectors(x[None], np.random.default_rng(3), CFG,
                           np.empty((1, 3)))[0]
        noise = np.random.default_rng(3).standard_normal(3)
        np.testing.assert_array_equal(out, x + CFG.sigma_weak * noise)

    def test_strong_noise_then_dropout(self):
        x = np.array([1.0, 2.0, 3.0])
        rng = scripted(("normal", 1.0), ("normal", 1.0), ("normal", 1.0),
                       # coords 0 and 2 fall under p=0.1
                       ("random", 0.05), ("random", 0.5), ("random", 0.09))
        out = apply_batch(strong_vector_stream(rng), x[None])[0]
        np.testing.assert_allclose(out, [0.0, 2.25, 0.0])
        assert rng.spent()

    def test_zero_sigma_weak_is_identity(self):
        cfg = AugmentConfig(sigma_weak=0.0)
        x = np.array([3.0, 4.0])
        rng = np.random.default_rng(5)
        out = weak_vectors(x[None], rng, cfg, np.empty((1, 2)))[0]
        np.testing.assert_array_equal(out, x)

    def test_weak_noise_scale_statistics(self):
        rng = np.random.default_rng(0)
        x = np.zeros(40000)
        out = weak_vectors(x[None], rng, CFG, np.empty((1,) + x.shape))[0]
        assert abs(out.std() - CFG.sigma_weak) < 0.002

    def test_strong_dropout_rate_statistics(self):
        rng = np.random.default_rng(1)
        x = np.ones(40000)
        out = apply_batch(strong_vector_stream(rng), x[None])[0]
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
        rng = scripted(("random", 0.3), ("integers", -4, 5, 0),
                       ("integers", -4, 5, 0))
        out = weak_images(img[None], rng, CFG, np.empty((1,) + img.shape))[0]
        np.testing.assert_array_equal(out, img[:, :, ::-1])
        assert rng.spent()

    def test_no_flip_with_shift(self):
        img = ramp_image(1, 3, 3)
        rng = scripted(("random", 0.7), ("integers", -4, 5, 1),
                       ("integers", -4, 5, 0))
        out = weak_images(img[None], rng, CFG, np.empty((1,) + img.shape))[0]
        np.testing.assert_array_equal(out, _translate(img, 1, 0))
        assert rng.spent()

    def test_flip_frequency(self):
        cfg = AugmentConfig(image_shift_weak=0)
        rng = np.random.default_rng(5)
        img = ramp_image()
        flipped = img[:, :, ::-1]
        imgs = np.broadcast_to(img, (4000,) + img.shape)
        out = weak_images(imgs, rng, cfg, np.empty(imgs.shape))
        hits = sum(np.array_equal(view, flipped) for view in out)
        assert abs(hits / 4000 - 0.5) < 0.03


class TestStrongImage:
    @staticmethod
    def ops(a, b):
        return ("integers", 0, 4, a), ("integers", 0, 4, b)

    def test_flip_then_unit_brightness(self):
        img = ramp_image()
        # uniform(0.6, 1.4) of next_double 0.5 is 1.0
        rng = scripted(*self.ops(0, 2), ("random", 0.5))
        out = strong_images(img[None], rng, CFG, np.empty((1,) + img.shape))[0]
        np.testing.assert_array_equal(out, img[:, :, ::-1])
        assert rng.spent()

    def test_cutout_patch_value_and_extent(self):
        img = np.full((3, 32, 32), 0.25)
        corner = (("integers", 0, 25, 3), ("integers", 0, 25, 5))
        rng = scripted(*self.ops(3, 3), *corner, *corner)
        out = strong_images(img[None], rng, CFG, np.empty((1,) + img.shape))[0]
        np.testing.assert_array_equal(out[:, 3:11, 5:13], 0.5)
        mask = np.ones((32, 32), dtype=bool)
        mask[3:11, 5:13] = False
        np.testing.assert_array_equal(out[:, mask], 0.25)
        assert rng.spent()

    def test_brightness_clamps_to_unit_range(self):
        img = np.full((1, 8, 8), 0.9)
        # factors just under 1.4
        top = 1 - 2.0 ** -53
        rng = scripted(*self.ops(2, 2), ("random", top), ("random", top))
        out = strong_images(img[None], rng, CFG, np.empty((1,) + img.shape))[0]
        np.testing.assert_array_equal(out, 1.0)
        assert rng.spent()

    def test_two_translations_compose(self):
        img = ramp_image(1, 6, 6)
        rng = scripted(*self.ops(1, 1),
                       ("integers", -8, 9, 2), ("integers", -8, 9, 0),
                       ("integers", -8, 9, 0), ("integers", -8, 9, 1))
        out = strong_images(img[None], rng, CFG, np.empty((1,) + img.shape))[0]
        np.testing.assert_array_equal(out, _translate(_translate(img, 2, 0), 0, 1))
        assert rng.spent()

    def test_does_not_mutate_input(self):
        img = ramp_image(3, 32, 32)
        keep = img.copy()
        strong_images(img[None], np.random.default_rng(0), CFG,
                      np.empty((1,) + img.shape))
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
    return apply_batch(stream, x[None])[0]


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
            batch = apply_batch(whole, xs)
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
                want = apply_batch(fresh, xs)
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
                apply_batch(s, np.zeros((2, width)))
        assert s.rng.bit_generator.state == state
        assert apply_batch(s, np.zeros((2, 5))).shape == (2, 5)

    def test_empty_batch(self):
        s = AugmentStream("weak", "vector", seed=0)
        out = apply_batch(s, np.zeros((0, 4)))
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
            apply_batch(AugmentStream("weak", "vector", seed=0), np.zeros(4))


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
        assert weak_vectors(x[None], rng, CFG,
                            np.empty((1, dim)))[0].shape == (dim,)
        assert apply_batch(strong_vector_stream(rng), x[None])[0].shape == (dim,)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_strong_image_stays_in_unit_box(self, seed):
        rng = np.random.default_rng(seed)
        img = rng.random((3, 32, 32))
        out = strong_images(img[None], rng, CFG, np.empty((1,) + img.shape))[0]
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
            got = apply_batch(stream, xs)
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
        got = apply_batch(stream, xs)
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


# every (lo, hi) the image streams draw from: the op code, the shift 2s+1
# for s in {0, 4, 8, 10, 40}, cutout corners on 32- and 12-pixel sides and
# on an 8-pixel side (a range of one); then two ranges that reject often
# and the whole 32-bit range
RANGES = ((0, 4), *((-s, s + 1) for s in (0, 4, 8, 10, 40)), (0, 25),
          (0, 5), (0, 1), (0, 3 * 2 ** 30), (-7, 2 ** 31 - 6), (0, 2 ** 32))


class TestRawDraws:
    """``_RawDraws`` against a twin ``Generator``'s calls: equal values and,
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
        draws = augment._RawDraws(bg, 0)
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
                draws = augment._RawDraws(bg, int(prefetch.integers(0, 100)))
        draws.finish()
        assert bg.state == want.bit_generator.state

    def test_empty_range_raises_as_integers_does(self):
        for lo, hi in ((0, 0), (3, 1)):
            with pytest.raises(ValueError):
                np.random.default_rng(0).integers(lo, hi)
            with pytest.raises(ValueError):
                augment._RawDraws(np.random.PCG64(0), 4).integers(lo, hi)


class TestBatchedPath:
    """The image streams take their words from ``random_raw`` and give the
    views and states of numpy's per-value calls."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("drew one word at a time")

    @pytest.mark.parametrize("kind", ["weak", "strong"])
    def test_default_rng_streams_take_the_batched_path(self, kind):
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

    @pytest.mark.parametrize("shift,shape", [(8, (3, 32, 32)), (0, (3, 32, 32)),
                                             (8, (1, 8, 12))])
    def test_strong_rows_without_redraws_are_arrays(self, shift, shape,
                                                    monkeypatch):
        # the Lemire rule redraws a shift of range 17 with odds 2**-32 and a
        # corner of range 25 with odds 21 * 2**-32; a shift of 0 and an
        # 8-pixel side draw nothing.  So no row of a strong batch is
        # replayed one draw at a time
        monkeypatch.setattr(augment._RawDraws, "next64", self.refuse)
        cfg = AugmentConfig(image_shift_strong=shift)
        TestBatchAgainstOracle.run_pair("strong", "image", shape, cfg,
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
            got = apply_batch(stream, xs if pixels else as_floats(xs))
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

    def test_shift_tables_hold_only_shifts_in_view(self):
        assert sorted(_shift_slices(4, 32)) == list(range(-4, 5))
        assert sorted(_shift_slices(MAX_IMAGE_SHIFT, 32)) == list(range(-31, 32))

    @pytest.mark.parametrize("kind", ["weak", "strong"])
    def test_shift_tables_are_built_once(self, kind):
        stream = AugmentStream(kind, "image", seed=0, feature_shape=(1, 8, 12))
        xs = np.zeros((5, 96))
        apply_batch(stream, xs)
        before = _shift_slices.cache_info()
        apply_batch(stream, xs)
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


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_with_word(p, word, hi):
    """A ``PCG64`` whose word p, counted from 0, is ``word``: the state that
    gives it is built from ``hi``, its top 64 bits, and then stepped back
    p + 1 times.  Each ``hi`` gives other words before and after p."""
    rot = hi >> 58  # PCG64's output is (hi ^ lo) rotated right by rot
    lo = ((word << rot | word >> (64 - rot)) & (2 ** 64 - 1)) ^ hi
    bg = np.random.PCG64(0)
    state = bg.state
    inc, x = state["state"]["inc"], hi << 64 | lo
    back = pow(PCG64_MULTIPLIER, -1, 2 ** 128)
    for _ in range(p + 1):
        x = (x - inc) * back % 2 ** 128
    state["state"]["state"] = x
    bg.state = state
    return bg


def twin(bg):
    copy = np.random.PCG64(0)
    copy.state = bg.state
    return copy


def strong_layout(words, n, s=8, cut=25):
    """(start, op codes, the word each op draws from or None) of each row
    of an n-row strong batch on ``words``, entered with the uint32 buffer
    empty, as long as no draw is redrawn: the op codes are the top two
    bits of the first word's low, then high half, and translate (s > 0),
    brightness and cutout (cut > 1) take one word each."""
    rows, p = [], 0
    for _ in range(n):
        w = int(words[p])
        ops, at, start = ((w & 0xFFFFFFFF) >> 30, w >> 62), [], p
        p += 1
        for op in ops:
            takes = op == 2 or (op == 1 and s > 0) or (op == 3 and cut > 1)
            at.append(p if takes else None)
            p += takes
        rows.append((start, ops, at))
    return rows


class TestStrongDrawArrays:
    """``_strong_draws`` computes a strong batch's rows as arrays up to the
    first row the Lemire rule redraws on.  Real ``PCG64`` streams with one
    chosen word put a redraw where the test wants it, so the views and the
    state are checked against the oracle's numpy calls."""

    @staticmethod
    def check(bg, n, monkeypatch, calls=2, kind="strong"):
        """``calls`` n-row batches of ``kind`` on ``bg`` against the oracle
        on its twin: equal view bytes and states; returns the rows the
        arrays gave per call that computed any (``_lemire``'s count)."""
        from_arrays, lemire = [], augment._lemire

        def counted(*args):
            ints, done = lemire(*args)
            from_arrays.append(done)
            return ints, done

        monkeypatch.setattr(augment, "_lemire", counted)
        fn, oracle = ((weak_images, weak_image) if kind == "weak" else
                      (strong_images, strong_image))
        rng, ref_rng = np.random.Generator(bg), np.random.Generator(twin(bg))
        data = np.random.default_rng(3)
        for _ in range(calls):
            imgs = data.random((n, 3, 32, 32))
            got = fn(imgs, rng, CFG, np.empty(imgs.shape))
            want = np.stack([oracle(img, ref_rng, CFG) for img in imgs])
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        return from_arrays

    # (op, half): a zero uint32 is the one value that ranges 17 (a shift of
    # 8) and 25 (a corner on a 32-pixel side) redraw
    @pytest.mark.parametrize("op,half", [(1, 0), (1, 1), (3, 0), (3, 1)],
                             ids=["dx", "dy", "top", "left"])
    def test_a_redraw_replays_from_its_row(self, op, half, monkeypatch):
        n, p = 24, 30
        word = 0x9E3779B97F4A7C15 & ~(0xFFFFFFFF << 32 * half)
        for hi in itertools.count(1):
            bg = pcg64_with_word(p, word, hi * 0x9E3779B97F4A7C15 % 2 ** 64)
            words = twin(bg).random_raw(3 * n)
            assert int(words[p]) == word
            hits = [i for i, (_, ops, at) in enumerate(strong_layout(words, n))
                    if any(o == op and a == p for o, a in zip(ops, at))]
            if hits and hits[0] > 0:
                break
        # rows before the redraw come from the arrays, the rest are replayed
        assert self.check(bg, n, monkeypatch)[0] == hits[0]

    def test_the_buffer_keeps_the_last_rows_op_word(self, monkeypatch):
        # the last row only flips or changes brightness, so the last word
        # split into uint32s is its op word, and the row before it splits
        # one for a shift or a corner
        n = 7
        for seed in itertools.count():
            words = np.random.PCG64(seed).random_raw(3 * n)
            layout = strong_layout(words, n)
            (start, ops, _), (_, before, _) = layout[-1], layout[-2]
            if set(ops) <= {0, 2} and 2 in ops and before[1] in (1, 3):
                break
        bg = np.random.PCG64(seed)
        assert self.check(bg, n, monkeypatch, calls=1) == [n]
        assert bg.state["has_uint32"] == 0
        assert bg.state["uinteger"] == int(words[start]) >> 32


class TestWeakDrawArrays:
    """``_weak_draws`` computes a weak batch's rows as arrays up to the
    first row whose shift the Lemire rule redraws.  Entered with the
    uint32 buffer empty, row t takes word 2t for its flip and the low and
    high halves of word 2t + 1 for dx and dy.  A real ``PCG64`` stream
    with a zero uint32 there, the one value a shift of 4 (range 9)
    redraws, puts the redraw in a chosen row."""

    @pytest.mark.parametrize("half", [0, 1], ids=["dx", "dy"])
    @pytest.mark.parametrize("row", [0, 15, 23])
    def test_a_redraw_replays_from_its_row(self, row, half, monkeypatch):
        n, p = 24, 2 * row + 1
        assert CFG.image_shift_weak == 4
        word = 0x9E3779B97F4A7C15 & ~(0xFFFFFFFF << 32 * half)
        bg = pcg64_with_word(p, word, 0x7F4A7C159E3779B9)
        assert int(twin(bg).random_raw(2 * n)[p]) == word
        # rows before the redraw come from the arrays, the rest are
        # replayed; the next call starts with the buffer empty again
        got = TestStrongDrawArrays.check(bg, n, monkeypatch, kind="weak")
        assert got == [row, n]


class TestKeepMask:
    """``keep`` against the same call without it: kept rows equal, masked
    strong image rows left as they were, and an equal generator state
    after every call."""

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
                    want = apply_batch(full, xs)
                    fill = np.full((size, width), np.nan)
                    got = masked.apply_batch_into(xs, fill.copy(), keep=keep)
                    assert (masked.rng.bit_generator.state
                            == full.rng.bit_generator.state)
                    assert np.array_equal(got[keep], want[keep])
                    assert got[~keep].tobytes() == fill[~keep].tobytes()

    @pytest.mark.parametrize("kind,modality,shape", PAIRS[:3])
    def test_other_streams_build_every_row(self, kind, modality, shape):
        width = 10 if shape is None else int(np.prod(shape))
        xs = np.random.default_rng(8).random((5, width))
        masked = AugmentStream(kind, modality, seed=21, feature_shape=shape)
        full = AugmentStream(kind, modality, seed=21, feature_shape=shape)
        got = masked.apply_batch_into(xs, np.empty((5, width)),
                                      keep=np.zeros(5, dtype=bool))
        np.testing.assert_array_equal(got, apply_batch(full, xs))
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
        got = fn(imgs, np.random.default_rng(1), CFG, np.empty(imgs.shape))
        want = fn(as_floats(imgs), np.random.default_rng(1), CFG,
                  np.empty(imgs.shape))
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_vector_streams_divide_pixels_first(self):
        data = np.random.default_rng(6)
        xs = self.pixel_rows(data, 30, 16)
        for kind in ("weak", "strong"):
            got = apply_batch(AugmentStream(kind, "vector", seed=2), xs)
            want = apply_batch(AugmentStream(kind, "vector", seed=2),
                               as_floats(xs))
            assert got.tobytes() == want.tobytes()

    def test_other_integer_rows_are_values(self):
        xs = np.arange(96, dtype=np.int64).reshape(1, 96)
        got = apply_batch(AugmentStream("weak", "image", seed=4,
                                        feature_shape=(1, 8, 12)), xs)
        want = apply_batch(AugmentStream("weak", "image", seed=4,
                                         feature_shape=(1, 8, 12)),
                           xs.astype(np.float64))
        assert got.tobytes() == want.tobytes()


class TestNormalReplay:
    """Strong vector views, replayed from ``random_raw`` words, against the
    one-row reference transform on a twin generator: equal view bytes and
    an equal bit-generator state after every call."""

    WIDTHS = (0, 1, 2, 5, 32)
    SIZES = (0, 1, 64, 1000)

    @staticmethod
    def count_replays(monkeypatch):
        calls = []
        replay = augment._vector_draws

        def counted(bg, n, d, spare=augment._TOP_UP_WORDS):
            calls.append((n, d))
            return replay(bg, n, d, spare)

        monkeypatch.setattr(augment, "_vector_draws", counted)
        return calls

    @staticmethod
    def check_rows(width, seed, buffered):
        """Consecutive batches of every size through a strong vector
        stream on a ``default_rng`` and through the oracle; ``buffered``
        uint32 draws come first, which leave the buffer full (1) or
        holding a spent value (2)."""
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        for rng in rngs:
            for _ in range(buffered):
                rng.integers(0, 4)
        got_rng, ref_rng = rngs
        stream = strong_vector_stream(got_rng)
        data = np.random.default_rng(seed + 100)
        for size in TestNormalReplay.SIZES + TestNormalReplay.SIZES[::-1]:
            xs = data.uniform(-2.0, 2.0, size=(size, width))
            got = apply_batch(stream, xs)
            want = np.array([strong_vector(row, ref_rng, CFG) for row in xs])
            assert got.tobytes() == want.reshape(size, width).tobytes(), (
                width, seed, size)
            assert (got_rng.bit_generator.state
                    == ref_rng.bit_generator.state), (width, seed, size)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_views_match_the_loop_and_the_oracle(self, width, monkeypatch):
        calls = self.count_replays(monkeypatch)
        for seed, buffered in ((0, 0), (1, 1), (2, 2)):
            self.check_rows(width, seed, buffered)
        # each seed's stream drew the blocks its batches need; rows with
        # no values draw nothing
        sizes = self.SIZES + self.SIZES[::-1]
        assert calls == (3 * [(rows, width) for rows in block_rows(sizes, width)]
                         if width else [])

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

    def test_streams_replay_their_batches(self, monkeypatch):
        calls = self.count_replays(monkeypatch)
        trace = self.trace_normals(monkeypatch)
        data = np.random.default_rng(4)
        for seed, sizes, width in (([3, 1], (64, 1, 200), 2),
                                   (0, (32,), 16), (41, (32,), 16)):
            stream = AugmentStream("strong", "vector", seed=seed)
            twin = np.random.default_rng(seed)
            for size in sizes:
                xs = data.random((size, width))
                want = np.array([strong_vector(row, twin, CFG) for row in xs])
                assert apply_batch(stream, xs).tobytes() == want.tobytes()
                assert stream.rng.bit_generator.state == twin.bit_generator.state
        # a stream draws blocks of whole batches that hold at least
        # augment._BLOCK_VALUES (1024) values of each kind: 8 batches of
        # 64 rows of 2 serve 64 + 1 + 200 rows, and 2 of 32 rows of 16
        # serve 32
        assert calls == [(512, 2), (64, 16), (64, 16)]

    def test_probe_seeds_take_every_path(self, monkeypatch):
        # 32-row, 16-wide batches on seeds 0 and 41 take wedge tests on
        # many layers, tails and redraws, and still replay default_rng
        trace = self.trace_normals(monkeypatch)
        for seed in (0, 41):
            bg, rng = np.random.PCG64(seed), np.random.default_rng(seed)
            noise, drop, ends = augment._vector_draws(bg, 32, 16)
            for row in range(32):
                assert (noise[row].tobytes()
                        == rng.standard_normal(16).tobytes()), (seed, row)
                assert drop[row].tobytes() == rng.random(16).tobytes()
                # a row's end is the words from the start through its draws
                at_end = np.random.PCG64(seed)
                at_end.advance(ends[row])
                assert at_end.state == rng.bit_generator.state, (seed, row)
            assert bg.state == rng.bit_generator.state
        _, slow, tails, redraws = self.paths(trace)
        assert tails >= 2 and redraws >= 5 and len(slow) > 10

    def test_a_million_normals_match_standard_normal(self, monkeypatch):
        # one draw at a time through _RawDraws.normal, every path traced
        trace = self.trace_normals(monkeypatch)
        bg, want = np.random.PCG64(2025), np.random.default_rng(2025)
        draws = augment._RawDraws(bg, 1_100_000)
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
        # off the fast path runs past them; with _BLOCK_VALUES at 1 the
        # stream's block is just the batch
        calls, replay = [], augment._vector_draws

        def no_spare(bg, n, d, spare=0):
            calls.append(spare)
            return replay(bg, n, d, spare)

        monkeypatch.setattr(augment, "_vector_draws", no_spare)
        monkeypatch.setattr(augment, "_BLOCK_VALUES", 1)
        xs = np.random.default_rng(5).random((3, 2))
        for seed in range(100):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            got = apply_batch(strong_vector_stream(rng), xs)
            want = np.array([strong_vector(row, twin, CFG) for row in xs])
            assert got.tobytes() == want.tobytes(), seed
            assert rng.bit_generator.state == twin.bit_generator.state
        # the retries go through the module name
        assert calls.count(0) == 100 and len(calls) > 100


class TestStrongVectorBlock:
    """Consecutive batches through a strong vector stream, which serves
    them from a block of rows drawn ahead, against ``strong_vector`` on a
    twin generator: equal view bytes and an equal bit-generator state after
    every batch, across refills, outside draws and state sets, copies and
    a uint32 buffer that is full or holds a spent value."""

    @staticmethod
    def check_batch(stream, twin, size, width, data):
        xs = data.uniform(-2.0, 2.0, size=(size, width))
        got = apply_batch(stream, xs)
        want = np.array([strong_vector(row, twin, CFG) for row in xs])
        assert got.tobytes() == want.reshape(size, width).tobytes(), (
            width, size)
        assert stream.rng.bit_generator.state == twin.bit_generator.state, (
            width, size)

    @staticmethod
    def pair(seed, buffered=0):
        """A stream and its twin generator after ``buffered`` uint32 draws,
        which leave the buffer full (1) or holding a spent value (2)."""
        stream = AugmentStream("strong", "vector", seed=seed)
        twin = np.random.default_rng(seed)
        for _ in range(buffered):
            stream.rng.integers(0, 4)
            twin.integers(0, 4)
        assert stream.rng.bit_generator.state["has_uint32"] == (buffered == 1)
        return stream, twin

    @pytest.mark.parametrize("width", [1, 2, 16, 3072])
    def test_batches_across_refills(self, width, monkeypatch):
        calls, replay = [], augment._vector_draws

        def counted(bg, n, d, spare=augment._TOP_UP_WORDS):
            calls.append(n)
            return replay(bg, n, d, spare)

        monkeypatch.setattr(augment, "_vector_draws", counted)
        rows = -(-augment._BLOCK_VALUES // width)  # a block's fewest rows
        sizes = (1, 63, 64, 65, rows - 1, rows, rows + 1, 3 * rows)
        sizes += sizes[::-1]
        for seed, buffered in ((0, 0), (1, 1), (2, 2)):
            stream, twin = self.pair(seed, buffered)
            data = np.random.default_rng(seed + 100)
            for size in sizes:
                self.check_batch(stream, twin, size, width, data)
        assert calls == 3 * block_rows(sizes, width)

    @pytest.mark.parametrize("width", [1, 2, 16, 3072])
    def test_outside_draws_and_state_sets_drop_the_block(self, width):
        stream, twin = self.pair(3)
        data = np.random.default_rng(7)
        self.check_batch(stream, twin, 5, width, data)
        assert stream.rng.random() == twin.random()  # a word from outside
        self.check_batch(stream, twin, 5, width, data)
        assert stream.rng.integers(0, 4) == twin.integers(0, 4)  # a buffer
        self.check_batch(stream, twin, 5, width, data)
        for state in (np.random.PCG64(11).state,
                      twin.bit_generator.state,  # the state the stream left
                      dict(twin.bit_generator.state, has_uint32=1,
                           uinteger=12345)):
            stream.rng.bit_generator.state = state
            twin.bit_generator.state = state
            self.check_batch(stream, twin, 5, width, data)
            self.check_batch(stream, twin, 64, width, data)

    @pytest.mark.parametrize("width", [1, 2, 16, 3072])
    def test_a_copy_taken_mid_block_steps_in_turn(self, width):
        stream, twin = self.pair(4, buffered=1)
        data = np.random.default_rng(8)
        self.check_batch(stream, twin, 3, width, data)
        pairs = [(stream, twin), (copy.deepcopy(stream), copy.deepcopy(twin))]
        for size in (1, 64, 65, 1024):
            for stream, twin in pairs:
                self.check_batch(stream, twin, size, width, data)
