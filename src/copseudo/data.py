"""Dataset construction and label-missingness simulation.

Every dataset keeps the full ground-truth labels internally, plus a
per-sample indicator saying whether the label is observed (0) or hidden
(1).  Training code may only read labels through ``observed_labels``,
which refuses hidden entries; evaluation code uses the clearly named
``eval_labels`` escape hatch.

A dataset holds its features in one of two storage forms, set by how it
was made: float64 rows, or, for datasets built by ``load_cifar10`` or
``MaskedDataset.from_pixels``, uint8 pixels whose features are
``pixels / 255``.  ``rows`` returns float64 rows in either form, so code
that asks for a batch never sees the difference; ``stored_rows`` returns
them as stored, for the augment streams, which take uint8 pixels too.

Datasets are stored in a binary container: one ascii header line giving
the size, class count and feature shape, then the missing flags (``u1``),
labels (``<i8``) and features as raw arrays, ``<f8`` under a
``copseudo-ds v2`` header or pixels (``u1``) under a ``copseudo-ds v3``
header (see ``save_dataset``).  ``load_dataset`` also reads the
``copseudo-ds v1`` text container of earlier versions.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, DataError, TaintError

CIFAR_RECORD_BYTES = 3073
CIFAR_PIXELS = 3072
CIFAR_IMAGE_SHAPE = (3, 32, 32)
CIFAR_CLASSES = 10
CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR_TEST_FILE = "test_batch.bin"

DATASET_MAGIC = "copseudo-ds v2"
PIXELS_MAGIC = "copseudo-ds v3"
_V1_MAGIC = "copseudo-ds v1"
PIXEL_SCALE = 255.0
_HEADER_LIMIT = 256


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-blob benchmark: class means on a circle in the first two dims."""

    num_classes: int
    dim: int
    samples_per_class: int
    class_separation: float
    noise_sigma: float

    def __post_init__(self):
        problems = []
        if self.num_classes < 2:
            problems.append("num_classes must be >= 2")
        if self.dim < 2:
            problems.append("dim must be >= 2")
        if self.samples_per_class < 1:
            problems.append("samples_per_class must be >= 1")
        if not (self.class_separation > 0 and math.isfinite(self.class_separation)):
            problems.append("class_separation must be a positive finite real")
        if not (self.noise_sigma >= 0 and math.isfinite(self.noise_sigma)):
            problems.append("noise_sigma must be a non-negative finite real")
        if problems:
            raise ConfigError("invalid synthetic spec: " + "; ".join(problems))


@dataclass(frozen=True)
class MissingnessSpec:
    """How to hide labels: 'mcar' keeps exactly ``num_labeled`` labels chosen
    uniformly; 'mnar' keeps each label independently with a per-class
    retention probability."""

    protocol: str
    seed: int
    num_labeled: int | None = None
    retention: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.protocol == "mcar":
            if self.num_labeled is None or self.num_labeled <= 0:
                raise ConfigError("mcar requires num_labeled > 0")
        elif self.protocol == "mnar":
            if not self.retention:
                raise ConfigError("mnar requires per-class retention probabilities")
            if any(not (0.0 <= p <= 1.0) for p in self.retention):
                raise ConfigError("mnar retention probabilities must lie in [0, 1]")
        else:
            raise ConfigError(f"unknown missingness protocol {self.protocol!r}")

    @classmethod
    def mcar(cls, num_labeled: int, seed: int) -> "MissingnessSpec":
        return cls(protocol="mcar", seed=seed, num_labeled=num_labeled)

    @classmethod
    def mnar(cls, retention, seed: int) -> "MissingnessSpec":
        return cls(protocol="mnar", seed=seed, retention=tuple(float(p) for p in retention))


def geometric_retention(num_classes: int, p0: float, gamma: float | None = None,
                        p_tail: float | None = None) -> tuple[float, ...]:
    """Long-tailed per-class retention profile p_c = p0 * gamma**c.

    ``gamma`` may be given directly, or inferred so the last class lands on
    ``p_tail``.
    """
    if num_classes < 1:
        raise ConfigError("num_classes must be >= 1")
    if not (0.0 < p0 <= 1.0):
        raise ConfigError("p0 must lie in (0, 1]")
    if gamma is None:
        if p_tail is None:
            raise ConfigError("geometric retention needs gamma or p_tail")
        if not (0.0 < p_tail <= 1.0):
            raise ConfigError("p_tail must lie in (0, 1]")
        gamma = 1.0 if num_classes == 1 else (p_tail / p0) ** (1.0 / (num_classes - 1))
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ConfigError("gamma must be a positive finite real")
    def retention(c):
        try:
            return min(1.0, p0 * gamma ** c)
        except OverflowError:  # gamma ** c lies beyond the float range
            return math.exp(min(0.0, math.log(p0) + c * math.log(gamma)))

    return tuple(retention(c) for c in range(num_classes))


class MaskedDataset:
    """Immutable feature/label arrays with an observed/missing label mask.

    ``missing[i] == 1`` means sample i's label is hidden from training.
    Features are stored as float64 rows, or, for a dataset made by
    ``from_pixels``, as uint8 pixels whose features are ``pixels / 255``;
    ``storage`` names the form (``"f8"`` or ``"u1"``).
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, missing: np.ndarray,
                 num_classes: int, feature_shape: tuple[int, ...] | None = None):
        self._init(np.ascontiguousarray(features, dtype=np.float64), labels, missing,
                   num_classes, feature_shape)

    @classmethod
    def from_pixels(cls, pixels: np.ndarray, labels: np.ndarray, missing: np.ndarray,
                    num_classes: int,
                    feature_shape: tuple[int, ...] | None = None) -> "MaskedDataset":
        """A dataset that stores ``pixels``, a uint8 (n, width) array, and
        whose features are ``pixels / 255`` in float64."""
        pixels = np.asarray(pixels)
        if pixels.dtype != np.uint8:
            raise ConfigError(f"pixels must be uint8, got {pixels.dtype}")
        ds = cls.__new__(cls)
        ds._init(np.ascontiguousarray(pixels), labels, missing, num_classes,
                 feature_shape)
        return ds

    def _init(self, store, labels, missing, num_classes, feature_shape) -> None:
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        missing = np.ascontiguousarray(missing, dtype=np.uint8)
        if store.ndim != 2:
            raise ConfigError("features must be a 2-d array (samples x dims)")
        n = store.shape[0]
        if labels.shape != (n,) or missing.shape != (n,):
            raise ConfigError("features, labels, and missing must have matching length")
        if store.dtype == np.float64 and not np.isfinite(store).all():
            raise ConfigError("features must be finite")
        if num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
        if n and (labels.min() < 0 or labels.max() >= num_classes):
            raise ConfigError("labels must lie in [0, num_classes)")
        if not np.isin(missing, (0, 1)).all():
            raise ConfigError("missing indicators must be 0 or 1")
        shape = tuple(feature_shape) if feature_shape else (store.shape[1],)
        if int(np.prod(shape)) != store.shape[1]:
            raise ConfigError("feature_shape does not match feature width")
        for arr in (store, labels, missing):
            arr.setflags(write=False)
        self._store = store
        self._labels = labels
        self.missing = missing
        self.num_classes = int(num_classes)
        self.feature_shape = shape

    def __len__(self) -> int:
        return self._store.shape[0]

    @property
    def storage(self) -> str:
        """``"u1"`` for pixel storage, ``"f8"`` for float64 rows."""
        return "u1" if self._store.dtype == np.uint8 else "f8"

    @property
    def width(self) -> int:
        """Features per sample."""
        return self._store.shape[1]

    def rows(self, idx, out: np.ndarray | None = None) -> np.ndarray:
        """Float64 features of the rows ``idx`` selects (an index, an index
        array or a slice), written into ``out`` when it is given.  Pixel
        storage divides just those rows by 255, so each value equals
        ``pixels.astype(float64) / 255`` bit for bit."""
        rows = self._store[idx]
        if rows.dtype == np.uint8:
            return np.divide(rows, PIXEL_SCALE, out=out, dtype=np.float64)
        if out is None:
            return rows
        np.copyto(out, rows)
        return out

    def stored_rows(self, idx) -> np.ndarray:
        """The rows ``idx`` selects in their storage form: uint8 pixels or
        float64 rows.  ``AugmentStream.apply_batch_into`` takes either."""
        return self._store[idx]

    @property
    def features(self) -> np.ndarray:
        """The full (n, width) float64 feature matrix, read-only.  Pixel
        storage builds it anew on every access and keeps no copy; batch
        code asks ``rows`` for the rows it needs instead."""
        if self._store.dtype != np.uint8:
            return self._store
        full = self.rows(slice(None))
        full.setflags(write=False)
        return full

    @property
    def num_observed(self) -> int:
        return int((self.missing == 0).sum())

    @property
    def num_missing(self) -> int:
        return int((self.missing == 1).sum())

    @property
    def modality(self) -> str:
        return "image" if self.feature_shape == CIFAR_IMAGE_SHAPE else "vector"

    def observed_indices(self) -> np.ndarray:
        return np.flatnonzero(self.missing == 0)

    def missing_indices(self) -> np.ndarray:
        return np.flatnonzero(self.missing == 1)

    def observed_labels(self, indices=None) -> np.ndarray:
        """Labels for the given indices; refuses any index whose label is hidden."""
        idx = np.arange(len(self)) if indices is None else np.asarray(indices, dtype=np.int64)
        if idx.size and self.missing[idx].any():
            bad = idx[self.missing[idx] == 1][:5]
            raise TaintError(
                f"label(s) at indices {bad.tolist()} are hidden; "
                "training code must not read them"
            )
        return self._labels[idx].copy()

    def eval_labels(self, indices=None) -> np.ndarray:
        """Evaluation-only accessor returning labels regardless of the mask."""
        idx = np.arange(len(self)) if indices is None else np.asarray(indices, dtype=np.int64)
        return self._labels[idx].copy()

    def with_labels(self, labels: np.ndarray, missing: np.ndarray) -> "MaskedDataset":
        """A dataset with new labels and missing flags that shares this
        one's feature storage."""
        ds = type(self).__new__(type(self))
        ds._init(self._store, labels, missing, self.num_classes, self.feature_shape)
        return ds

    def with_missing(self, missing: np.ndarray) -> "MaskedDataset":
        return self.with_labels(self._labels, missing)


def _unit_circle(c: int, num_classes: int) -> tuple[float, float]:
    # exact coordinates at quarter turns so zero-noise draws hit the means exactly
    quarters = {(0, 1): (1.0, 0.0), (1, 4): (0.0, 1.0), (1, 2): (-1.0, 0.0), (3, 4): (0.0, -1.0)}
    num, den = c % num_classes, num_classes
    g = math.gcd(num, den) if num else den
    if (num // g, den // g) in quarters:
        return quarters[(num // g, den // g)]
    angle = 2.0 * math.pi * c / num_classes
    return (math.cos(angle), math.sin(angle))


def generate_synthetic(spec: SyntheticSpec, seed: int) -> MaskedDataset:
    """Draw ``samples_per_class`` points per class, class-major order, all labels observed."""
    rng = np.random.default_rng(seed)
    blocks = []
    for c in range(spec.num_classes):
        ux, uy = _unit_circle(c, spec.num_classes)
        mean = np.zeros(spec.dim)
        mean[0] = spec.class_separation * ux
        mean[1] = spec.class_separation * uy
        noise = rng.standard_normal((spec.samples_per_class, spec.dim))
        with np.errstate(over="ignore"):
            blocks.append(mean + spec.noise_sigma * noise)
    features = np.concatenate(blocks, axis=0)
    if not np.isfinite(features).all():
        raise ConfigError(
            f"invalid synthetic spec: class_separation {spec.class_separation:g}"
            f" and noise_sigma {spec.noise_sigma:g} give non-finite features")
    labels = np.repeat(np.arange(spec.num_classes), spec.samples_per_class)
    missing = np.zeros(len(labels), dtype=np.uint8)
    return MaskedDataset(features, labels, missing, spec.num_classes)


def apply_missingness(ds: MaskedDataset, spec: MissingnessSpec) -> MaskedDataset:
    """Hide labels per the protocol; ground truth is retained internally for evaluation."""
    if ds.num_missing:
        raise ConfigError("apply_missingness expects a fully observed dataset")
    n = len(ds)
    rng = np.random.default_rng(spec.seed)
    if spec.protocol == "mcar":
        if spec.num_labeled > n:
            raise ConfigError(f"num_labeled {spec.num_labeled} exceeds dataset size {n}")
        keep = rng.choice(n, size=spec.num_labeled, replace=False)
        missing = np.ones(n, dtype=np.uint8)
        missing[keep] = 0
    else:
        if len(spec.retention) != ds.num_classes:
            raise ConfigError(
                f"mnar retention has {len(spec.retention)} entries for "
                f"{ds.num_classes} classes"
            )
        retention = np.asarray(spec.retention)
        # construction-time access to all labels is legitimate: input is fully observed
        per_sample_p = retention[ds.observed_labels()]
        missing = (rng.random(n) >= per_sample_p).astype(np.uint8)
    return ds.with_missing(missing)


def _cifar_record_count(path) -> int:
    """Records in the batch file at ``path``, after checking that it exists
    and holds a positive whole number of them."""
    if not os.path.isfile(path):
        raise DataError(f"missing batch file: {path}")
    size = os.path.getsize(path)
    if size == 0 or size % CIFAR_RECORD_BYTES != 0:
        raise DataError(
            f"truncated record in {path}: {size} bytes is not a "
            f"positive multiple of {CIFAR_RECORD_BYTES}"
        )
    return size // CIFAR_RECORD_BYTES


def read_cifar10_batch(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse one binary batch file into (labels, pixel bytes).

    Records are 3073 bytes: one label byte then 3072 channel-planar,
    row-major pixel bytes.
    """
    count = _cifar_record_count(path)
    records = np.fromfile(path, dtype=np.uint8).reshape(count, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max(initial=0) >= CIFAR_CLASSES:
        raise DataError(f"label byte >= {CIFAR_CLASSES} in {path}")
    return labels, records[:, 1:]


def write_cifar10_batch(path, labels: np.ndarray, pixels: np.ndarray) -> None:
    """Inverse of ``read_cifar10_batch``; pixels are uint8, one row per record."""
    labels = np.asarray(labels, dtype=np.uint8).reshape(-1, 1)
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.shape != (labels.shape[0], CIFAR_PIXELS):
        raise DataError("pixels must be (num_records, 3072) uint8")
    np.hstack([labels, pixels]).tofile(path)


def load_cifar10(path, split: str) -> MaskedDataset:
    """Load the binary batch files under ``path`` into a pixel-backed
    dataset: the uint8 pixels are kept, and features are pixels / 255."""
    if split == "train":
        files = CIFAR_TRAIN_FILES
    elif split == "test":
        files = (CIFAR_TEST_FILE,)
    else:
        raise ConfigError(f"split must be 'train' or 'test', got {split!r}")
    paths = [os.path.join(path, name) for name in files]
    counts = [_cifar_record_count(p) for p in paths]
    # each file is read into its slice, so only one file's records are
    # held beside the pixels
    labels = np.empty(sum(counts), dtype=np.int64)
    pixels = np.empty((sum(counts), CIFAR_PIXELS), dtype=np.uint8)
    start = 0
    for p, count in zip(paths, counts):
        labels[start:start + count], pixels[start:start + count] = \
            read_cifar10_batch(p)
        start += count
    missing = np.zeros(len(labels), dtype=np.uint8)
    return MaskedDataset.from_pixels(pixels, labels, missing, CIFAR_CLASSES,
                                     feature_shape=CIFAR_IMAGE_SHAPE)


def save_dataset(ds: MaskedDataset, path) -> None:
    """Write the binary container in the dataset's storage form.

    One ascii header line: ``copseudo-ds v2 <n> <num_classes> <shape>`` for
    float64 features, ``copseudo-ds v3 <n> <num_classes> <shape> u1`` for
    pixel storage, with the feature shape comma-joined (``3,32,32`` or
    ``2``).  Then three raw arrays with no padding: ``missing`` as
    ``u1[n]``, labels as ``<i8[n]`` (hidden ones included; consumers must
    honor the mask) and the features in row-major order, as
    ``<f8[n * prod(shape)]`` (v2) or as the pixels, ``u1[n * prod(shape)]``
    (v3).  The file ends there.
    """
    shape = ",".join(str(d) for d in ds.feature_shape)
    if ds.storage == "u1":
        head = f"{PIXELS_MAGIC} {len(ds)} {ds.num_classes} {shape} u1\n"
    else:
        head = f"{DATASET_MAGIC} {len(ds)} {ds.num_classes} {shape}\n"
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        for arr, dtype in ((ds.missing, "u1"), (ds._labels, "<i8"),
                           (ds._store, "u1" if ds.storage == "u1" else "<f8")):
            fh.write(np.ascontiguousarray(arr, dtype=dtype))


def load_dataset(path) -> MaskedDataset:
    """Read a ``copseudo-ds v2`` or ``v3`` container (see ``save_dataset``)
    or the ``copseudo-ds v1`` text records of earlier versions.

    A v3 file gives a pixel-backed dataset, v1 and v2 files float64 ones.
    v1 stores only the feature width and infers ``(3, 32, 32)`` from 3072.
    A malformed file of any version raises ``DataError`` naming ``path``.
    """
    if not os.path.isfile(path):
        raise DataError(f"missing dataset file: {path}")
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_LIMIT)
        header = line.decode("ascii", "replace").split()
        magic = " ".join(header[:2])
        if (not line.endswith(b"\n") or magic not in _READERS
                or len(header) < 5 or header[5:] != _READERS[magic][0]):
            raise DataError(f"bad dataset header in {path}")
        try:
            n, num_classes = int(header[2]), int(header[3])
            shape = tuple(int(v) for v in header[4].split(","))
        except ValueError as exc:
            raise DataError(f"bad dataset header in {path}") from exc
        width = math.prod(shape)
        # numpy caps an array's size in bytes at sys.maxsize
        if (n < 0 or min(shape) < 0 or 8 * width > sys.maxsize
                or (magic == _V1_MAGIC and len(shape) != 1)):
            raise DataError(f"bad dataset header in {path}")
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        missing, labels, features = _READERS[magic][1](fh, path, n, width, payload)
    if magic == _V1_MAGIC and shape == (CIFAR_PIXELS,):
        shape = CIFAR_IMAGE_SHAPE
    make = MaskedDataset.from_pixels if magic == PIXELS_MAGIC else MaskedDataset
    try:
        return make(features, labels, missing, num_classes, feature_shape=shape)
    except ConfigError as exc:
        raise DataError(f"invalid dataset in {path}: {exc}") from exc


def _read_raw(fh, path, n, width, payload, dtype):
    expected = n * (1 + 8 + np.dtype(dtype).itemsize * width)
    if payload != expected:
        raise DataError(f"dataset file {path} holds {payload} payload bytes, "
                        f"expected {expected}")
    missing = np.fromfile(fh, dtype="u1", count=n)
    labels = np.fromfile(fh, dtype="<i8", count=n)
    features = np.fromfile(fh, dtype=dtype, count=n * width).reshape(n, width)
    return missing, labels, features


def _read_v1(fh, path, n, dim, payload):
    # a record is 3 + dim fields of one char or more, their commas and a newline
    if n * 2 * (3 + dim) - 1 > payload:
        raise DataError(f"dataset file {path} is too short for {n} records")
    features = np.empty((n, dim))
    labels = np.empty(n, dtype=np.int64)
    missing = np.empty(n, dtype=np.uint8)
    try:
        for i in range(n):
            line = fh.readline().decode("ascii")
            if not line:
                raise DataError(f"dataset file {path} ends after {i} of {n} records")
            parts = line.rstrip("\n").split(",")
            if len(parts) != 3 + dim:
                raise DataError(f"record {i} in {path} has {len(parts)} fields, "
                                f"expected {3 + dim}")
            if int(parts[0]) != i:
                raise DataError(f"record {i} in {path} has out-of-order index {parts[0]}")
            missing[i] = int(parts[1])
            labels[i] = int(parts[2])
            features[i] = [float(v) for v in parts[3:]]
    except (ValueError, OverflowError) as exc:
        raise DataError(f"record {i} in {path}: {exc}") from exc
    if fh.read(1):
        raise DataError(f"dataset file {path} has data after its {n} records")
    return missing, labels, features


# magic -> (header fields after the shape, payload reader)
_READERS = {
    _V1_MAGIC: ([], _read_v1),
    DATASET_MAGIC: ([], partial(_read_raw, dtype="<f8")),
    PIXELS_MAGIC: (["u1"], partial(_read_raw, dtype="u1")),
}
