import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from copseudo.data import (
    CIFAR_IMAGE_SHAPE,
    MaskedDataset,
    MissingnessSpec,
    SyntheticSpec,
    apply_missingness,
    generate_synthetic,
    geometric_retention,
    load_cifar10,
    load_dataset,
    read_cifar10_batch,
    save_dataset,
    write_cifar10_batch,
)
from copseudo.errors import ConfigError, DataError, TaintError
from oracles import save_dataset_v1


def make_spec(**kw):
    base = dict(num_classes=4, dim=2, samples_per_class=25,
                class_separation=3.0, noise_sigma=0.5)
    base.update(kw)
    return SyntheticSpec(**base)


class TestSynthetic:
    def test_shapes_and_ordering(self):
        ds = generate_synthetic(make_spec(), seed=7)
        assert len(ds) == 100
        assert ds.features.shape == (100, 2)
        assert ds.num_classes == 4
        # class-major layout: labels are 25 zeros, 25 ones, ...
        expected = np.repeat(np.arange(4), 25)
        np.testing.assert_array_equal(ds.eval_labels(), expected)
        assert ds.num_missing == 0

    @pytest.mark.parametrize("sep, sigma", [(3.0, 1e308), (1.7e308, 1e308)])
    def test_features_beyond_the_float_range_name_the_spec(self, sep, sigma):
        # they were refused as "features must be finite", naming nothing
        with pytest.raises(ConfigError, match=re.escape(
                f"invalid synthetic spec: class_separation {sep:g} and "
                f"noise_sigma {sigma:g} give non-finite features")):
            generate_synthetic(make_spec(class_separation=sep,
                                         noise_sigma=sigma), seed=7)

    def test_zero_noise_hits_exact_means(self):
        ds = generate_synthetic(make_spec(noise_sigma=0.0, samples_per_class=2,
                                          class_separation=3.0), seed=0)
        feats = ds.features
        np.testing.assert_array_equal(feats[0], [3.0, 0.0])
        np.testing.assert_array_equal(feats[2], [0.0, 3.0])
        np.testing.assert_array_equal(feats[4], [-3.0, 0.0])
        np.testing.assert_array_equal(feats[6], [0.0, -3.0])

    def test_zero_noise_exact_quarters_survive_eight_classes(self):
        ds = generate_synthetic(make_spec(num_classes=8, noise_sigma=0.0,
                                          samples_per_class=1,
                                          class_separation=1.0), seed=0)
        np.testing.assert_array_equal(ds.features[0], [1.0, 0.0])
        np.testing.assert_array_equal(ds.features[2], [0.0, 1.0])
        np.testing.assert_array_equal(ds.features[4], [-1.0, 0.0])
        np.testing.assert_array_equal(ds.features[6], [0.0, -1.0])

    def test_noise_scale(self):
        # empirical std of the residuals should sit near noise_sigma
        spec = make_spec(samples_per_class=2000, noise_sigma=0.5)
        ds = generate_synthetic(spec, seed=11)
        block = ds.features[:2000]
        resid = block - np.array([3.0, 0.0])
        assert abs(resid.std() - 0.5) < 0.02

    def test_extra_dims_are_pure_noise(self):
        ds = generate_synthetic(make_spec(dim=5, noise_sigma=0.0,
                                          samples_per_class=3), seed=3)
        np.testing.assert_array_equal(ds.features[:, 2:], 0.0)

    def test_deterministic(self):
        a = generate_synthetic(make_spec(), seed=42)
        b = generate_synthetic(make_spec(), seed=42)
        np.testing.assert_array_equal(a.features, b.features)
        c = generate_synthetic(make_spec(), seed=43)
        assert not np.array_equal(a.features, c.features)

    def test_rejects_bad_specs(self):
        with pytest.raises(ConfigError):
            make_spec(num_classes=1)
        with pytest.raises(ConfigError):
            make_spec(dim=1)
        with pytest.raises(ConfigError):
            make_spec(samples_per_class=0)
        with pytest.raises(ConfigError):
            make_spec(class_separation=0.0)
        with pytest.raises(ConfigError):
            make_spec(noise_sigma=-0.1)
        with pytest.raises(ConfigError):
            make_spec(class_separation=float("inf"))


class TestMcar:
    def test_exact_count(self):
        ds = generate_synthetic(make_spec(samples_per_class=250), seed=1)
        masked = apply_missingness(ds, MissingnessSpec.mcar(num_labeled=20, seed=5))
        assert masked.num_observed == 20
        assert masked.num_missing == 980
        assert len(masked) == len(ds)

    def test_deterministic(self):
        ds = generate_synthetic(make_spec(), seed=1)
        a = apply_missingness(ds, MissingnessSpec.mcar(num_labeled=10, seed=5))
        b = apply_missingness(ds, MissingnessSpec.mcar(num_labeled=10, seed=5))
        np.testing.assert_array_equal(a.missing, b.missing)
        c = apply_missingness(ds, MissingnessSpec.mcar(num_labeled=10, seed=6))
        assert not np.array_equal(a.missing, c.missing)

    def test_label_counts_vs_dataset_size(self):
        ds = generate_synthetic(make_spec(samples_per_class=2), seed=1)
        with pytest.raises(ConfigError):
            apply_missingness(ds, MissingnessSpec.mcar(num_labeled=9, seed=0))
        full = apply_missingness(ds, MissingnessSpec.mcar(num_labeled=8, seed=0))
        assert full.num_observed == 8

    def test_needs_a_positive_label_count(self):
        with pytest.raises(ConfigError, match="^mcar requires num_labeled > 0$"):
            MissingnessSpec.mcar(num_labeled=0, seed=0)

    def test_requires_fully_observed_input(self):
        ds = generate_synthetic(make_spec(), seed=1)
        masked = apply_missingness(ds, MissingnessSpec.mcar(num_labeled=10, seed=0))
        with pytest.raises(ConfigError):
            apply_missingness(masked, MissingnessSpec.mcar(num_labeled=5, seed=0))

    @given(st.integers(1, 80), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_count_always_exact(self, num_labeled, seed):
        ds = generate_synthetic(make_spec(samples_per_class=20), seed=2)
        masked = apply_missingness(ds, MissingnessSpec.mcar(num_labeled=num_labeled,
                                                            seed=seed))
        assert masked.num_observed == num_labeled


class TestMnar:
    def test_degenerate_retention(self):
        ds = generate_synthetic(make_spec(samples_per_class=10), seed=1)
        all_kept = apply_missingness(ds, MissingnessSpec.mnar((1.0,) * 4, seed=0))
        assert all_kept.num_missing == 0
        none_kept = apply_missingness(ds, MissingnessSpec.mnar((0.0,) * 4, seed=0))
        assert none_kept.num_observed == 0

    def test_per_class_counts_within_exact_binomial_bands(self):
        # oracle: equal-tail 99.9% interval from the exact binomial law,
        # computed independently of the sampler under test
        spec = make_spec(num_classes=10, samples_per_class=1000, dim=3)
        ds = generate_synthetic(spec, seed=9)
        retention = geometric_retention(10, p0=0.9, gamma=0.7)
        labels = ds.eval_labels()
        for seed in range(3):
            masked = apply_missingness(ds, MissingnessSpec.mnar(retention, seed=seed))
            observed = masked.missing == 0
            for c, p in enumerate(retention):
                count = int(observed[labels == c].sum())
                lo = int(stats.binom.ppf(0.0005, 1000, p))
                hi = int(stats.binom.ppf(0.9995, 1000, p))
                assert lo <= count <= hi, (seed, c, count, lo, hi)

    def test_retention_length_must_match_classes(self):
        ds = generate_synthetic(make_spec(), seed=1)
        with pytest.raises(ConfigError):
            apply_missingness(ds, MissingnessSpec.mnar((0.5, 0.5), seed=0))

    def test_rejects_bad_retention_values(self):
        with pytest.raises(ConfigError):
            MissingnessSpec.mnar((0.5, 1.5), seed=0)
        with pytest.raises(ConfigError):
            MissingnessSpec.mnar((), seed=0)
        with pytest.raises(ConfigError):
            MissingnessSpec(protocol="nmar", seed=0)


class TestGeometricRetention:
    def test_explicit_gamma(self):
        probs = geometric_retention(4, p0=0.8, gamma=0.5)
        np.testing.assert_allclose(probs, (0.8, 0.4, 0.2, 0.1), rtol=0, atol=1e-15)

    def test_tail_inference(self):
        probs = geometric_retention(10, p0=0.9, p_tail=0.09)
        assert probs[0] == pytest.approx(0.9)
        assert probs[-1] == pytest.approx(0.09)
        ratios = [probs[i + 1] / probs[i] for i in range(9)]
        assert max(ratios) - min(ratios) < 1e-12

    def test_caps_at_one(self):
        probs = geometric_retention(3, p0=1.0, gamma=1.0)
        assert probs == (1.0, 1.0, 1.0)

    def test_a_power_beyond_the_float_range_is_capped(self):
        # gamma ** c raised OverflowError, and gen-data exited 4
        assert geometric_retention(4, p0=0.5, gamma=1e308) == (0.5, 1.0, 1.0,
                                                               1.0)
        # where p0 is small enough the product stays below 1 all the same
        tiny = geometric_retention(3, p0=1e-315, gamma=1e155)
        assert tiny[:2] == (1e-315, 1e-315 * 1e155)
        assert tiny[2] == pytest.approx(1e-5, rel=1e-6)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            geometric_retention(4, p0=0.0, gamma=0.5)
        with pytest.raises(ConfigError):
            geometric_retention(4, p0=0.5)
        with pytest.raises(ConfigError):
            geometric_retention(4, p0=0.5, gamma=-1.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0])
    def test_rejects_a_gamma_that_is_not_positive_and_finite(self, gamma):
        # min(1.0, nan) is 1.0, so a NaN gamma used to keep every label of
        # the classes after the first
        with pytest.raises(ConfigError,
                           match="^gamma must be a positive finite real$"):
            geometric_retention(4, p0=0.5, gamma=gamma)

    def test_rejects_zero_classes(self):
        with pytest.raises(ConfigError, match="^num_classes must be >= 1$"):
            geometric_retention(0, p0=0.5, gamma=0.5)

    @pytest.mark.parametrize("p_tail", [0.0, -0.1, 1.5])
    def test_rejects_tail_outside_unit_interval(self, p_tail):
        with pytest.raises(ConfigError, match=r"^p_tail must lie in \(0, 1\]$"):
            geometric_retention(4, p0=0.5, p_tail=p_tail)


class TestTaint:
    def make_masked(self):
        ds = generate_synthetic(make_spec(samples_per_class=5), seed=1)
        return apply_missingness(ds, MissingnessSpec.mcar(num_labeled=4, seed=3))

    def test_observed_labels_refuses_hidden(self):
        ds = self.make_masked()
        hidden = ds.missing_indices()[0]
        with pytest.raises(TaintError):
            ds.observed_labels([hidden])
        with pytest.raises(TaintError):
            ds.observed_labels()  # full read includes hidden entries

    def test_observed_path_works_for_visible(self):
        ds = self.make_masked()
        idx = ds.observed_indices()
        labels = ds.observed_labels(idx)
        np.testing.assert_array_equal(labels, ds.eval_labels(idx))

    def test_eval_path_is_exempt(self):
        ds = self.make_masked()
        assert len(ds.eval_labels()) == len(ds)

    def test_arrays_are_read_only(self):
        ds = self.make_masked()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            ds.missing[0] = 0


def v2_file(path, n, num_classes, shape, missing, labels, features):
    """Hand-assemble a ``copseudo-ds v2`` file from raw arrays."""
    head = f"copseudo-ds v2 {n} {num_classes} {shape}\n".encode("ascii")
    path.write_bytes(head + np.asarray(missing, dtype="u1").tobytes()
                     + np.asarray(labels, dtype="<i8").tobytes()
                     + np.asarray(features, dtype="<f8").tobytes())
    return path


def assert_same_bits(a, b):
    np.testing.assert_array_equal(a.features.view(np.uint64), b.features.view(np.uint64))
    np.testing.assert_array_equal(a.eval_labels(), b.eval_labels())
    np.testing.assert_array_equal(a.missing, b.missing)
    assert a.num_classes == b.num_classes
    assert a.feature_shape == b.feature_shape


# finite doubles that a careless encoder loses: signed zero, subnormals,
# the extremes and values with no short decimal form
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1 / 3, -2.0 ** -1060]


class TestContainer:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(make_spec(samples_per_class=7, dim=3), seed=13)
        ds = apply_missingness(ds, MissingnessSpec.mcar(num_labeled=9, seed=2))
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.eval_labels(), ds.eval_labels())
        np.testing.assert_array_equal(back.missing, ds.missing)
        assert back.num_classes == ds.num_classes
        assert back.feature_shape == ds.feature_shape

    def test_header_line(self, tmp_path):
        ds = generate_synthetic(make_spec(samples_per_class=1), seed=0)
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        raw = path.read_bytes()
        head = b"copseudo-ds v2 4 4 2\n"
        assert raw.startswith(head)
        assert len(raw) == len(head) + 4 * (1 + 8 + 2 * 8)

    def test_payload_layout(self, tmp_path):
        ds = apply_missingness(generate_synthetic(make_spec(samples_per_class=2), seed=0),
                               MissingnessSpec.mcar(num_labeled=3, seed=1))
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        raw = path.read_bytes()
        body = raw[raw.index(b"\n") + 1:]
        n = len(ds)
        assert body[:n] == ds.missing.tobytes()
        assert body[n:9 * n] == ds.eval_labels().astype("<i8").tobytes()
        assert body[9 * n:] == ds.features.astype("<f8").tobytes()

    def test_hidden_labels_still_serialized(self, tmp_path):
        ds = generate_synthetic(make_spec(samples_per_class=2), seed=0)
        ds = apply_missingness(ds, MissingnessSpec.mcar(num_labeled=1, seed=1))
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        raw = path.read_bytes()
        body = raw[raw.index(b"\n") + 1:]
        n = len(ds)
        missing = np.frombuffer(body[:n], dtype="u1")
        labels = np.frombuffer(body[n:9 * n], dtype="<i8")
        hidden = ds.missing_indices()
        assert hidden.size == n - 1
        assert (missing[hidden] == 1).all()
        np.testing.assert_array_equal(labels[hidden], ds.eval_labels(hidden))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("something-else v1 2 2 2\n")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "cut.txt"
        path.write_text("copseudo-ds v1 3 2 2\n0,0,1,0.5,0.5\n1,1,0,0.25,-1.0\n")
        with pytest.raises(DataError, match="ends after 2 of 3 records"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path / "nope.txt")

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("copseudo-ds v1 1 2 3\n0,0,1,0.5,0.5\n")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_v2_truncated_at_every_offset(self, tmp_path):
        ds = apply_missingness(generate_synthetic(make_spec(samples_per_class=1), seed=3),
                               MissingnessSpec.mcar(num_labeled=2, seed=0))
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.txt"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(DataError, match=re.escape(str(cut))):
                load_dataset(cut)

    @pytest.mark.parametrize("tail", [b"\0", b"\n", b"0,0,1,0.5,0.5\n"])
    def test_v2_trailing_bytes(self, tmp_path, tail):
        ds = generate_synthetic(make_spec(samples_per_class=1), seed=3)
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(DataError, match="payload bytes"):
            load_dataset(path)

    def test_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2 ** 64, size=600, dtype=np.uint64).view(np.float64)
        values = np.concatenate([EDGE_FLOATS, bits[np.isfinite(bits)]])
        values = values[: len(values) // 4 * 4].reshape(-1, 4)
        n = len(values)
        ds = MaskedDataset(values, rng.integers(0, 3, size=n), rng.integers(0, 2, size=n), 3)
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert_same_bits(back, ds)
        assert np.signbit(back.features[0, 1]) and back.features[0, 2] == 5e-324

    def test_v1_and_v2_load_the_same_bits(self, tmp_path):
        ds = apply_missingness(generate_synthetic(make_spec(samples_per_class=9, dim=5), seed=4),
                               MissingnessSpec.mnar(geometric_retention(4, 0.5, p_tail=0.1),
                                                    seed=6))
        save_dataset_v1(ds, tmp_path / "v1.txt")
        save_dataset(ds, tmp_path / "v2.txt")
        assert_same_bits(load_dataset(tmp_path / "v1.txt"), load_dataset(tmp_path / "v2.txt"))
        assert_same_bits(load_dataset(tmp_path / "v2.txt"), ds)


class TestFeatureShape:
    def test_wide_vector_stays_vector(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = MaskedDataset(rng.standard_normal((3, 3072)), [0, 1, 1], [0, 0, 1], 2)
        assert ds.modality == "vector"
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        assert path.read_bytes().startswith(b"copseudo-ds v2 3 2 3072\n")
        back = load_dataset(path)
        assert back.feature_shape == (3072,)
        assert back.modality == "vector"
        # v1 stored only the width, so its reader still infers an image
        save_dataset_v1(ds, tmp_path / "v1.txt")
        assert load_dataset(tmp_path / "v1.txt").feature_shape == CIFAR_IMAGE_SHAPE

    def test_cifar_keeps_image_shape(self, tmp_path):
        rng = np.random.default_rng(1)
        write_cifar10_batch(tmp_path / "test_batch.bin", rng.integers(0, 10, size=4),
                            rng.integers(0, 256, size=(4, 3072)))
        ds = load_cifar10(tmp_path, "test")
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        assert path.read_bytes().startswith(b"copseudo-ds v3 4 10 3,32,32 u1\n")
        back = load_dataset(path)
        assert back.modality == "image"
        assert back.storage == "u1"
        assert_same_bits(back, ds)
        save_dataset_v1(ds, tmp_path / "v1.txt")
        assert_same_bits(load_dataset(tmp_path / "v1.txt"), back)


def v3_file(path, n, num_classes, shape, missing, labels, pixels, dtype="u1"):
    """Hand-assemble a ``copseudo-ds v3`` file from raw arrays."""
    head = f"copseudo-ds v3 {n} {num_classes} {shape} {dtype}\n".encode("ascii")
    path.write_bytes(head + np.asarray(missing, dtype="u1").tobytes()
                     + np.asarray(labels, dtype="<i8").tobytes()
                     + np.asarray(pixels, dtype="u1").tobytes())
    return path


def pixel_dataset(rng, n):
    pixels = rng.integers(0, 256, size=(n, 3072)).astype(np.uint8)
    labels = rng.integers(0, 10, size=n)
    return MaskedDataset.from_pixels(pixels, labels, np.zeros(n), 10,
                                     CIFAR_IMAGE_SHAPE)


class TestPixelStorage:
    def test_rows_match_float_division_for_every_value(self):
        values = np.arange(256, dtype=np.uint8)
        ds = MaskedDataset.from_pixels(values.reshape(2, 128), [0, 1], [0, 0], 2)
        want = values.astype(np.float64) / 255.0
        assert ds.rows(slice(None)).dtype == np.float64
        np.testing.assert_array_equal(ds.rows(slice(None)).reshape(-1).view(np.uint64),
                                      want.view(np.uint64))
        np.testing.assert_array_equal(ds.features.reshape(-1).view(np.uint64),
                                      want.view(np.uint64))
        np.testing.assert_array_equal(ds.rows([1, 0, 1]).view(np.uint64),
                                      want.reshape(2, 128)[[1, 0, 1]].view(np.uint64))

    def test_rows_write_into_out(self):
        for ds in (pixel_dataset(np.random.default_rng(3), 6),
                   generate_synthetic(make_spec(), seed=0)):
            idx = slice(1, 4)
            out = np.full((3, ds.width), np.nan)
            assert ds.rows(idx, out=out) is out
            assert out.tobytes() == ds.rows(idx).tobytes()

    def test_stored_rows_keep_the_storage_form(self):
        ds = pixel_dataset(np.random.default_rng(4), 5)
        got = ds.stored_rows(np.array([4, 0]))
        assert got.dtype == np.uint8
        assert (got.astype(np.float64) / 255.0).tobytes() == \
            ds.rows(np.array([4, 0])).tobytes()
        floats = generate_synthetic(make_spec(), seed=0)
        assert floats.stored_rows(slice(0, 3)).tobytes() == \
            floats.features[:3].tobytes()

    def test_load_cifar10_keeps_uint8_pixels(self, tmp_path):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 10, size=6)
        pixels = rng.integers(0, 256, size=(6, 3072)).astype(np.uint8)
        write_cifar10_batch(tmp_path / "test_batch.bin", labels, pixels)
        ds = load_cifar10(tmp_path, "test")
        assert ds.storage == "u1" and ds.width == 3072
        want = pixels.astype(np.float64) / 255.0
        np.testing.assert_array_equal(ds.features.view(np.uint64), want.view(np.uint64))
        idx = np.array([5, 0, 5, 2])
        np.testing.assert_array_equal(ds.rows(idx).view(np.uint64), want[idx].view(np.uint64))

    def test_storage_follows_construction(self):
        rng = np.random.default_rng(6)
        ds = pixel_dataset(rng, 3)
        assert ds.storage == "u1"
        # the same values as float64 rows stay float64 rows: no sniffing
        floats = MaskedDataset(ds.features, ds.eval_labels(), ds.missing, 10,
                               CIFAR_IMAGE_SHAPE)
        assert floats.storage == "f8" and floats.width == 3072
        assert generate_synthetic(make_spec(), seed=0).storage == "f8"

    def test_derived_datasets_keep_pixel_storage(self):
        ds = pixel_dataset(np.random.default_rng(7), 20)
        hidden = apply_missingness(ds, MissingnessSpec.mcar(num_labeled=5, seed=1))
        assert hidden.storage == "u1" and hidden.num_observed == 5
        relabeled = hidden.with_labels(np.zeros(20, dtype=np.int64), np.zeros(20))
        assert relabeled.storage == "u1"
        np.testing.assert_array_equal(relabeled.eval_labels(), 0)
        for d in (hidden, relabeled):
            np.testing.assert_array_equal(d.features.view(np.uint64),
                                          ds.features.view(np.uint64))

    def test_features_are_built_per_access_and_read_only(self):
        ds = pixel_dataset(np.random.default_rng(9), 2)
        first, second = ds.features, ds.features
        assert first is not second
        np.testing.assert_array_equal(first, second)
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_from_pixels_wants_uint8(self):
        with pytest.raises(ConfigError, match="uint8"):
            MaskedDataset.from_pixels(np.zeros((2, 2), dtype=np.int64), [0, 1], [0, 0], 2)

    def test_u1_container_layout(self, tmp_path):
        ds = apply_missingness(pixel_dataset(np.random.default_rng(10), 5),
                               MissingnessSpec.mcar(num_labeled=2, seed=0))
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        raw = path.read_bytes()
        head = b"copseudo-ds v3 5 10 3,32,32 u1\n"
        assert raw.startswith(head)
        body = raw[len(head):]
        assert body[:5] == ds.missing.tobytes()
        assert body[5:45] == ds.eval_labels().astype("<i8").tobytes()
        assert body[45:] == np.rint(ds.features * 255.0).astype(np.uint8).tobytes()
        back = load_dataset(path)
        assert back.storage == "u1"
        assert_same_bits(back, ds)

    def test_float_datasets_keep_v2_bytes(self, tmp_path):
        ds = pixel_dataset(np.random.default_rng(11), 3)
        floats = MaskedDataset(ds.features, ds.eval_labels(), ds.missing, 10,
                               CIFAR_IMAGE_SHAPE)
        save_dataset(floats, tmp_path / "f8.bin")
        want = v2_file(tmp_path / "want.bin", 3, 10, "3,32,32", ds.missing,
                       ds.eval_labels(), ds.features)
        assert (tmp_path / "f8.bin").read_bytes() == want.read_bytes()
        back = load_dataset(tmp_path / "f8.bin")
        assert back.storage == "f8"
        assert_same_bits(back, load_dataset(v3_file(
            tmp_path / "u1.bin", 3, 10, "3,32,32", ds.missing, ds.eval_labels(),
            np.rint(ds.features * 255.0))))

    def test_u1_truncated_at_every_offset(self, tmp_path):
        ds = MaskedDataset.from_pixels(np.arange(6, dtype=np.uint8).reshape(2, 3),
                                       [0, 1], [0, 1], 2)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(DataError, match=re.escape(str(cut))):
                load_dataset(cut)

    @pytest.mark.parametrize("tail", [b"\0", b"\n", np.zeros(3, "<f8").tobytes()])
    def test_u1_trailing_bytes(self, tmp_path, tail):
        path = v3_file(tmp_path / "ds.bin", 1, 2, "3", [0], [1], [1, 2, 3])
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(DataError, match="payload bytes"):
            load_dataset(path)


V1_BAD_BODIES = {
    "negative_count": "copseudo-ds v1 -1 2 2\n",
    "count_beyond_file": "copseudo-ds v1 1000000000000 2 2\n0,0,1,0.5,0.5\n",
    "non_numeric_feature": "copseudo-ds v1 1 2 2\n0,0,1,abc,0.5\n",
    "non_numeric_label": "copseudo-ds v1 1 2 2\n0,0,x,0.5,0.5\n",
    "missing_flag_2": "copseudo-ds v1 1 2 2\n0,2,1,0.5,0.5\n",
    "missing_flag_overflow": "copseudo-ds v1 1 2 2\n0,300,1,0.5,0.5\n",
    "label_out_of_range": "copseudo-ds v1 1 2 2\n0,0,2,0.5,0.5\n",
    "nan_feature": "copseudo-ds v1 1 2 2\n0,0,1,nan,0.5\n",
    "zero_classes": "copseudo-ds v1 1 0 2\n0,0,0,0.5,0.5\n",
    "trailing_record": "copseudo-ds v1 1 2 2\n0,0,1,0.5,0.5\n1,0,1,0.5,0.5\n",
    "trailing_blank_line": "copseudo-ds v1 1 2 2\n0,0,1,0.5,0.5\n\n",
    "v1_with_shape": "copseudo-ds v1 1 2 1,2\n0,0,1,0.5,0.5\n",
}

V2_BAD = {
    "negative_count": ("-1", "2", "2", [], [], []),
    "negative_dim": ("1", "2", "-2", [0], [1], []),
    "bad_shape": ("1", "2", "3,x", [0], [1], [0.5] * 3),
    "missing_flag_2": ("1", "2", "2", [2], [1], [0.5, 0.5]),
    "label_out_of_range": ("1", "2", "2", [0], [2], [0.5, 0.5]),
    "negative_label": ("1", "2", "2", [0], [-1], [0.5, 0.5]),
    "nan_feature": ("1", "2", "2", [0], [1], [np.nan, 0.5]),
    "inf_feature": ("1", "2", "2", [0], [1], [np.inf, 0.5]),
    "zero_classes": ("1", "0", "2", [0], [0], [0.5, 0.5]),
    "huge_shape": ("0", "2", "4294967296,4294967296", [], [], []),
}


V3_BAD = {
    "negative_count": ("-1", "2", "2", [], [], []),
    "negative_dim": ("1", "2", "-2", [0], [1], []),
    "bad_shape": ("1", "2", "3,x", [0], [1], [5] * 3),
    "missing_flag_2": ("1", "2", "2", [2], [1], [5, 5]),
    "label_out_of_range": ("1", "2", "2", [0], [2], [5, 5]),
    "negative_label": ("1", "2", "2", [0], [-1], [5, 5]),
    "zero_classes": ("1", "0", "2", [0], [0], [5, 5]),
    "huge_shape": ("0", "2", "4294967296,4294967296", [], [], []),
    # the payload type must be u1; f8 rows belong in a v2 file
    "f8_payload": ("1", "2", "2", [0], [1], [5, 5], "f8"),
    "no_payload_type": ("1", "2", "2", [0], [1], [5, 5], ""),
    "extra_field": ("1", "2", "2", [0], [1], [5, 5], "u1 u1"),
    # the pixels of 2 features padded with 14 bytes, as if they were <f8
    "f8_sized_payload": ("1", "2", "2", [0], [1], [5] * 16),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("name", sorted(V1_BAD_BODIES))
    def test_v1_is_data_error_naming_path(self, tmp_path, name):
        path = tmp_path / f"{name}.txt"
        path.write_text(V1_BAD_BODIES[name])
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_dataset(path)

    @pytest.mark.parametrize("name", sorted(V2_BAD))
    def test_v2_is_data_error_naming_path(self, tmp_path, name):
        path = v2_file(tmp_path / f"{name}.txt", *V2_BAD[name])
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_dataset(path)

    @pytest.mark.parametrize("name", sorted(V3_BAD))
    def test_v3_is_data_error_naming_path(self, tmp_path, name):
        path = v3_file(tmp_path / f"{name}.bin", *V3_BAD[name])
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_dataset(path)

    def test_v2_header_with_payload_type(self, tmp_path):
        path = v2_file(tmp_path / "ds.bin", "1", "2", "2", [0], [1], [0.5, 0.5])
        path.write_bytes(path.read_bytes().replace(b" 2\n", b" 2 u1\n", 1))
        with pytest.raises(DataError, match="bad dataset header"):
            load_dataset(path)

    def test_empty_pixel_dataset_round_trips(self, tmp_path):
        ds = MaskedDataset.from_pixels(np.empty((0, 3), dtype=np.uint8), [], [], 2)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.storage == "u1" and back.width == 3
        assert_same_bits(back, ds)

    def test_v1_record_out_of_order(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("copseudo-ds v1 2 2 2\n0,0,1,0.5,0.5\n2,0,1,0.5,0.5\n")
        with pytest.raises(DataError, match=f"^record 1 in {re.escape(str(path))} "
                                            "has out-of-order index 2$"):
            load_dataset(path)

    def test_non_ascii_record(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_bytes(b"copseudo-ds v1 1 2 2\n0,0,1,\xff,0.5\n")
        with pytest.raises(DataError, match="record 0"):
            load_dataset(path)

    def test_header_without_newline(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_bytes(b"copseudo-ds v2 0 2 2")
        with pytest.raises(DataError, match="bad dataset header"):
            load_dataset(path)

    def test_empty_dataset_round_trips(self, tmp_path):
        ds = MaskedDataset(np.empty((0, 2)), [], [], 2)
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        assert_same_bits(load_dataset(path), ds)


class TestCifar:
    def fake_batch(self, rng, n=12):
        labels = rng.integers(0, 10, size=n).astype(np.uint8)
        pixels = rng.integers(0, 256, size=(n, 3072)).astype(np.uint8)
        return labels, pixels

    def test_single_batch_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        labels, pixels = self.fake_batch(rng)
        path = tmp_path / "test_batch.bin"
        write_cifar10_batch(path, labels, pixels)
        got_labels, got_pixels = read_cifar10_batch(path)
        np.testing.assert_array_equal(got_labels, labels)
        np.testing.assert_array_equal(got_pixels, pixels)

    def test_load_test_split(self, tmp_path):
        rng = np.random.default_rng(1)
        labels, pixels = self.fake_batch(rng, n=8)
        write_cifar10_batch(tmp_path / "test_batch.bin", labels, pixels)
        ds = load_cifar10(tmp_path, "test")
        assert len(ds) == 8
        assert ds.feature_shape == CIFAR_IMAGE_SHAPE
        assert ds.modality == "image"
        np.testing.assert_allclose(ds.features, pixels / 255.0)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_load_train_split_concatenates_five_files(self, tmp_path):
        rng = np.random.default_rng(2)
        total = 0
        for i in range(1, 6):
            labels, pixels = self.fake_batch(rng, n=4)
            write_cifar10_batch(tmp_path / f"data_batch_{i}.bin", labels, pixels)
            total += 4
        ds = load_cifar10(tmp_path, "train")
        assert len(ds) == total

    def test_train_split_requires_all_files(self, tmp_path):
        rng = np.random.default_rng(3)
        labels, pixels = self.fake_batch(rng, n=2)
        write_cifar10_batch(tmp_path / "data_batch_1.bin", labels, pixels)
        with pytest.raises(DataError):
            load_cifar10(tmp_path, "train")

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "test_batch.bin"
        path.write_bytes(b"\x00" * 5000)  # not a multiple of 3073
        with pytest.raises(DataError, match="truncated record"):
            read_cifar10_batch(path)

    def test_label_byte_out_of_range(self, tmp_path):
        rng = np.random.default_rng(4)
        labels, pixels = self.fake_batch(rng, n=3)
        labels[1] = 11
        path = tmp_path / "test_batch.bin"
        write_cifar10_batch(path, labels, pixels)
        with pytest.raises(DataError, match="label byte"):
            read_cifar10_batch(path)

    def test_write_rejects_pixels_of_the_wrong_shape(self, tmp_path):
        path = tmp_path / "data_batch_1.bin"
        with pytest.raises(DataError,
                           match=r"^pixels must be \(num_records, 3072\) uint8$"):
            write_cifar10_batch(path, [1, 2], np.zeros((2, 3071), dtype=np.uint8))
        assert not path.exists()

    def test_bad_split_name(self, tmp_path):
        with pytest.raises(ConfigError):
            load_cifar10(tmp_path, "validation")

    def test_train_split_equals_concatenated_files(self, tmp_path):
        rng = np.random.default_rng(8)
        parts = [self.fake_batch(rng, n=n) for n in (3, 1, 7, 2, 5)]
        for i, (labels, pixels) in enumerate(parts, start=1):
            write_cifar10_batch(tmp_path / f"data_batch_{i}.bin", labels, pixels)
        ds = load_cifar10(tmp_path, "train")
        want_pixels = np.concatenate([p for _, p in parts])
        assert ds.storage == "u1"
        np.testing.assert_array_equal(ds.stored_rows(slice(None)), want_pixels)
        np.testing.assert_array_equal(ds.eval_labels(),
                                      np.concatenate([l for l, _ in parts]))

    @pytest.mark.parametrize("bad,match", [
        ("missing", "missing batch file"),
        ("truncated", "truncated record"),
        ("label", "label byte"),
    ])
    def test_each_train_file_is_checked(self, tmp_path, bad, match):
        rng = np.random.default_rng(9)
        for i in range(1, 6):
            labels, pixels = self.fake_batch(rng, n=2)
            write_cifar10_batch(tmp_path / f"data_batch_{i}.bin", labels, pixels)
        path = tmp_path / "data_batch_4.bin"
        if bad == "missing":
            path.unlink()
        elif bad == "truncated":
            path.write_bytes(path.read_bytes()[:-1])
        else:
            labels[1] = 10
            write_cifar10_batch(path, labels, pixels)
        with pytest.raises(DataError, match=match) as info:
            load_cifar10(tmp_path, "train")
        assert "data_batch_4.bin" in str(info.value)


class TestMaskedDatasetValidation:
    def test_rejects_one_dimensional_features(self):
        with pytest.raises(ConfigError, match=r"^features must be a 2-d array "
                                              r"\(samples x dims\)$"):
            MaskedDataset(np.zeros(3), np.zeros(3, dtype=np.int64),
                          np.zeros(3, dtype=np.uint8), 2)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigError):
            MaskedDataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64),
                          np.zeros(3, dtype=np.uint8), 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ConfigError):
            MaskedDataset(np.zeros((2, 2)), np.array([0, 5]),
                          np.zeros(2, dtype=np.uint8), 2)

    def test_rejects_non_finite_features(self):
        feats = np.zeros((2, 2))
        feats[0, 0] = np.nan
        with pytest.raises(ConfigError):
            MaskedDataset(feats, np.zeros(2, dtype=np.int64),
                          np.zeros(2, dtype=np.uint8), 2)

    def test_rejects_non_binary_mask(self):
        with pytest.raises(ConfigError):
            MaskedDataset(np.zeros((2, 2)), np.zeros(2, dtype=np.int64),
                          np.array([0, 2], dtype=np.uint8), 2)

    def test_feature_shape_must_match_width(self):
        with pytest.raises(ConfigError):
            MaskedDataset(np.zeros((2, 4)), np.zeros(2, dtype=np.int64),
                          np.zeros(2, dtype=np.uint8), 2, feature_shape=(5,))
