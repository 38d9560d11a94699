"""The benchmark's workloads: seeded inputs, train configuration and the
reason each workload exists.

A workload's set-up is what ``copseudo gen-data`` followed by the loading
half of ``copseudo train`` does: build the source data, hide labels, save
the train and test datasets in the text container and load them back.
Every input is drawn from the workload seed, so one seed always gives the
same bytes.
"""
from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

import numpy as np

from copseudo import (
    FusionConfig,
    MissingnessSpec,
    ObjectiveConfig,
    SeedPlan,
    SyntheticSpec,
    TrainConfig,
    apply_missingness,
    generate_synthetic,
    geometric_retention,
    load_cifar10,
    load_dataset,
    save_dataset,
)
from copseudo.data import CIFAR_CLASSES, CIFAR_TRAIN_FILES, CIFAR_TEST_FILE
from copseudo.data import write_cifar10_batch

DESK_BLOBS = SyntheticSpec(num_classes=4, dim=2, samples_per_class=250,
                           class_separation=3.0, noise_sigma=1.0)

# paper-image geometry: 600 train images (120 per batch file), 120 test
# images and 120 MCAR labels, enough for the B=64 labeled batch
IMAGE_TRAIN_PER_FILE = 120
IMAGE_TEST = 120
IMAGE_LABELS = 120
IMAGE_NOISE = 0.15
IMAGE_BLEND_SHARE = 0.15
# the class prototypes are part of the workload's definition, like the blob
# means of the desk workloads; the workload seed draws the images from them.
# Seeded prototypes made the learning curve, and so mask_ratio, vary twice
# as much from seed to seed.
IMAGE_PROTOTYPE_SEED = 20010785


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    source: str            # "blobs" or "cifar"
    missingness: str       # "mcar" or "mnar"
    num_labeled: int       # MCAR label count; unused for MNAR
    models: int
    tau_cascade: tuple
    mu: float
    batch_size: int
    steps: int
    eval_every: int
    dump_every: int
    setup_repeats: int
    probe: str             # hostspeed probe made of the same kind of work
    probe_every: int       # train steps between probes inside a run

    def train_config(self, master_seed: int) -> TrainConfig:
        return TrainConfig(
            seeds=SeedPlan.from_master(master_seed, self.models),
            num_models=self.models, steps=self.steps,
            eval_every=self.eval_every,
            fusion=FusionConfig(num_models=self.models,
                                tau_cascade=self.tau_cascade),
            objective=ObjectiveConfig(mu=self.mu, batch_size=self.batch_size),
            dump_predictions_every=self.dump_every)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk-pair",
        why="2 models on 4-class blobs with 20 MCAR labels at the desk "
            "profile (mu=4, B=16), no dumps: fusion is the largest share of "
            "a step and data I/O is negligible, so batched fusion shows here",
        source="blobs", missingness="mcar", num_labeled=20, models=2,
        tau_cascade=(0.75,), mu=4.0, batch_size=16, steps=300,
        eval_every=25, dump_every=0, setup_repeats=5, probe="small",
        probe_every=25),
    Workload(
        name="desk-cascade3-mnar",
        why="the paper's MNAR case: geometric retention (p0=0.2, tail 0.01) "
            "leaves ~80 labels, 3 models run the n>=3 cascade, dumps every "
            "10 steps are replayed with fuse-trace",
        source="blobs", missingness="mnar", num_labeled=0, models=3,
        tau_cascade=(0.85, 0.75), mu=4.0, batch_size=16, steps=300,
        eval_every=25, dump_every=10, setup_repeats=5, probe="small",
        probe_every=25),
    Workload(
        name="paper-image",
        why="CIFAR-format images at the paper profile (mu=7, B=64, 448 "
            "unlabeled items a step): per-image augmentation, the 3072-wide "
            "MLP and the text dataset container dominate",
        source="cifar", missingness="mcar", num_labeled=IMAGE_LABELS,
        models=2, tau_cascade=(0.75,), mu=7.0, batch_size=64, steps=60,
        eval_every=10, dump_every=0, setup_repeats=2, probe="image",
        probe_every=2),
)}


@dataclass
class Setup:
    """One set-up's result: loaded datasets plus what it cost."""

    train: object
    test: object
    cfg: TrainConfig
    wall_s: float
    data_ms: dict          # data-layer call name -> ms
    dataset_bytes: int
    digest: str            # sha256 over both saved dataset files


def derived_seeds(seed: int) -> dict:
    vals = np.random.SeedSequence(seed).generate_state(4)
    return dict(zip(("data", "test", "missing", "train"),
                    (int(v) for v in vals)))


def _class_prototypes() -> np.ndarray:
    """One image per class made of 8x8 blocks, so flips and shifts of up
    to 8 pixels keep most of a class's pattern."""
    rng = np.random.default_rng(IMAGE_PROTOTYPE_SEED)
    grid = rng.random((CIFAR_CLASSES, 3, 4, 4))
    return np.kron(grid, np.ones((8, 8))).reshape(CIFAR_CLASSES, -1)


def _class_images(rng, protos, n):
    """Labels and uint8 pixels: a class prototype plus Gaussian noise; a
    share of items blend two classes evenly so some stay ambiguous."""
    labels = rng.integers(0, CIFAR_CLASSES, n)
    other = (labels + rng.integers(1, CIFAR_CLASSES, n)) % CIFAR_CLASSES
    blend = rng.random(n) < IMAGE_BLEND_SHARE
    weight = np.where(blend, 0.5, 1.0)[:, None]
    x = weight * protos[labels] + (1.0 - weight) * protos[other]
    x += IMAGE_NOISE * rng.standard_normal(x.shape)
    return labels, np.clip(np.rint(x * 255.0), 0, 255).astype(np.uint8)


def _timed(data_ms: dict, name: str, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    data_ms[name] = data_ms.get(name, 0.0) + (time.perf_counter() - t0) * 1e3
    return out


def _write_cifar_dir(seed: int, path: str, data_ms: dict) -> None:
    os.makedirs(path, exist_ok=True)
    rng = np.random.default_rng(seed)
    protos = _class_prototypes()
    for name in CIFAR_TRAIN_FILES:
        labels, pixels = _class_images(rng, protos, IMAGE_TRAIN_PER_FILE)
        _timed(data_ms, "write_cifar10_batch", write_cifar10_batch,
               os.path.join(path, name), labels, pixels)
    labels, pixels = _class_images(rng, protos, IMAGE_TEST)
    _timed(data_ms, "write_cifar10_batch", write_cifar10_batch,
           os.path.join(path, CIFAR_TEST_FILE), labels, pixels)


def set_up(wl: Workload, seed: int, workdir: str) -> Setup:
    """Build, hide, save and reload the workload's datasets in ``workdir``."""
    t_start = time.perf_counter()
    seeds = derived_seeds(seed)
    data_ms: dict = {}
    os.makedirs(workdir, exist_ok=True)
    if wl.source == "blobs":
        full = _timed(data_ms, "generate_synthetic", generate_synthetic,
                      DESK_BLOBS, seeds["data"])
        test = _timed(data_ms, "generate_synthetic", generate_synthetic,
                      DESK_BLOBS, seeds["test"])
    else:
        cifar_dir = os.path.join(workdir, "cifar")
        _write_cifar_dir(seeds["data"], cifar_dir, data_ms)
        full = _timed(data_ms, "load_cifar10", load_cifar10, cifar_dir,
                      "train")
        test = _timed(data_ms, "load_cifar10", load_cifar10, cifar_dir,
                      "test")
    if wl.missingness == "mcar":
        spec = MissingnessSpec.mcar(num_labeled=wl.num_labeled,
                                    seed=seeds["missing"])
    else:
        spec = MissingnessSpec.mnar(
            geometric_retention(full.num_classes, p0=0.2, p_tail=0.01),
            seed=seeds["missing"])
    ds = _timed(data_ms, "apply_missingness", apply_missingness, full, spec)

    paths = [os.path.join(workdir, "train.ds"), os.path.join(workdir, "test.ds")]
    for obj, path in zip((ds, test), paths):
        _timed(data_ms, "save_dataset", save_dataset, obj, path)
    loaded = [_timed(data_ms, "load_dataset", load_dataset, p) for p in paths]
    cfg = wl.train_config(seeds["train"])
    wall = time.perf_counter() - t_start

    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return Setup(train=loaded[0], test=loaded[1], cfg=cfg, wall_s=wall,
                 data_ms=data_ms,
                 dataset_bytes=sum(os.path.getsize(p) for p in paths),
                 digest=digest.hexdigest())
