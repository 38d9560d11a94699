"""A pin on the bytes of every seeded random stream the system draws from.

``stream_digests.json`` holds the sha256 of, for fixed seeds and shapes:
each augment stream's views and end state (weak and strong, vector and
image, float and uint8 rows, strong images with and without ``keep``),
``trainer.ShuffleCycler`` orders, the fusion coin flips on a fixed block
and ``predictor.init_model`` parameters.  Unlike the tests that compare a
batch with a one-row reference on the same numpy, this one compares with
bytes recorded once, so it also fails when a numpy version, or a change
to the draw code, moves a stream that every reference moves with it.

The pin was written by running this file as a script, with ``src`` on
the path: ``python tests/test_stream_digests.py``.  Rewrite it only with
a change that means to move a stream, and say so.
"""
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

from copseudo.augment import AugmentConfig, AugmentStream
from copseudo.fusion import FusionConfig, fuse_batch
from copseudo.predictor import init_model
from copseudo.trainer import ShuffleCycler

PIN = Path(__file__).with_name("stream_digests.json")

# consecutive batch sizes on one stream
SIZES = (1, 64, 37, 200)
# (name, modality, feature_shape, config): the defaults; image shifts of
# 0, so a translate draws no dx or dy; and an image shift of 2**30, whose
# range of 2**31 + 1 makes the Lemire rule redraw about half the time
STREAMS = (
    ("vector2", "vector", (2,), AugmentConfig()),
    ("vector32", "vector", (32,), AugmentConfig()),
    ("cifar", "image", (3, 32, 32), AugmentConfig()),
    ("cifar-noshift", "image", (3, 32, 32),
     AugmentConfig(image_shift_weak=0, image_shift_strong=0)),
    ("image-redraws", "image", (1, 8, 12),
     AugmentConfig(image_shift_weak=2 ** 30, image_shift_strong=2 ** 30)),
)


def sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else
                 json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def rows(size: int, width: int, dtype) -> np.ndarray:
    """Fixed rows with no generator behind them: every byte value for
    uint8, features in [0, 1] otherwise."""
    pixels = (np.arange(size * width) * 37 % 256).reshape(size, width)
    return pixels.astype(np.uint8) if dtype == np.uint8 else pixels / 255.0


def keep_mask(size: int) -> np.ndarray:
    return np.arange(size) % 3 != 1


def stream_digest(kind, modality, shape, cfg, dtype, keep) -> str:
    stream = AugmentStream(kind, modality, seed=[7, 3], config=cfg,
                           feature_shape=shape)
    width = int(np.prod(shape))
    views = []
    for size in SIZES:
        xs = rows(size, width, dtype)
        # a strong image row whose keep is False is left as it was: +0.0
        out = np.zeros((size, width))
        stream.apply_batch_into(xs, out, keep_mask(size) if keep else None)
        views.append(out.tobytes())
    return sha(*views, stream.rng.bit_generator.state)


def digests() -> dict:
    found = {}
    for name, modality, shape, cfg in STREAMS:
        for kind in ("weak", "strong"):
            # only strong image streams skip the pixel work of masked rows
            keeps = (False, True) if (kind, modality) == (
                "strong", "image") else (False,)
            for dtype, keep in itertools.product((np.float64, np.uint8), keeps):
                key = f"augment.{kind}.{name}.{np.dtype(dtype).name}"
                found[key + (".keep" if keep else "")] = stream_digest(
                    kind, modality, shape, cfg, dtype, keep)
    for seed in range(3):
        cycler = ShuffleCycler(np.arange(5, 105), seed)
        orders = [cycler.take(k).tobytes() for k in (1, 64, 37, 200)]
        found[f"trainer.ShuffleCycler.{seed}"] = sha(*orders)
    # peaked rows whose argmaxes are spread so that many items tie
    num_classes, batch = 4, 120
    for n, cascade in ((2, (0.75,)), (3, (0.75, 0.6))):
        tops = (np.arange(batch)[None, :] * np.arange(1, n + 1)[:, None]
                + np.arange(batch) // 5) % num_classes
        probs = np.full((n, batch, num_classes), 0.02 / (num_classes - 1))
        np.put_along_axis(probs, tops[:, :, None], 0.98, axis=2)
        cfg = FusionConfig(num_models=n, tau_cascade=cascade)
        fused = fuse_batch(probs, cfg, fusion_seed=11, step=5,
                           items=np.arange(1000, 1000 + batch))
        found[f"fusion.coin_flips.{n}"] = sha(
            fused.labels.tobytes(), fused.masks.tobytes(),
            fused.sources.tobytes(), fused.source_models.tobytes(),
            fused.source_levels.tobytes())
    for arch in ((2, 16, 4), (3072, 32, 10)):
        params = init_model(arch, seed=[4, 1])
        found["predictor.init_model." + "-".join(map(str, arch))] = sha(
            *(w.tobytes() for w in params.weights),
            *(b.tobytes() for b in params.biases))
    return found


def test_streams_match_the_pinned_digests():
    assert digests() == json.loads(PIN.read_text())


if __name__ == "__main__":
    PIN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
