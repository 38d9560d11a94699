import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from copseudo.augment import (
    AugmentConfig,
    AugmentStream,
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


class TestStream:
    def test_deterministic_replay(self):
        x = np.linspace(-1, 1, 12)
        a = AugmentStream("strong", "vector", seed=9)
        b = AugmentStream("strong", "vector", seed=9)
        for _ in range(5):
            np.testing.assert_array_equal(a.apply(x), b.apply(x))

    def test_distinct_seeds_differ(self):
        x = np.linspace(-1, 1, 12)
        a = AugmentStream("weak", "vector", seed=1)
        b = AugmentStream("weak", "vector", seed=2)
        assert not np.array_equal(a.apply(x), b.apply(x))

    def test_stream_advances(self):
        x = np.ones(6)
        s = AugmentStream("weak", "vector", seed=3)
        assert not np.array_equal(s.apply(x), s.apply(x))

    def test_image_stream_round_trips_flat_features(self):
        flat = np.random.default_rng(4).random(3 * 32 * 32)
        s = AugmentStream("strong", "image", seed=0)
        out = s.apply(flat)
        assert out.shape == flat.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_apply_batch_matches_sequential_apply(self):
        for kind, modality, shape in PAIRS:
            width = 10 if shape is None else int(np.prod(shape))
            xs = np.random.default_rng(8).random((5, width))
            whole = AugmentStream(kind, modality, seed=21, feature_shape=shape)
            batch = whole.apply_batch(xs)
            seq = AugmentStream(kind, modality, seed=21, feature_shape=shape)
            rows = [seq.apply(row) for row in xs]
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

    SHIFTS = (None, 0, 10, 40)  # None keeps the defaults (4 weak, 8 strong)

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
