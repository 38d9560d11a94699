"""Host-speed probes: time a fixed piece of numpy and Python work between
the steps of a run, and scale the run's wall time by how fast the probe ran.

On a shared host the speed of one core drifts by up to 2x over seconds,
as other tenants load the core's siblings. A train run's wall time follows
that drift, so ten runs of the same code spread wider than any bound worth
having. The probe is fixed code that no change to ``copseudo`` touches,
made of the same kinds of work as the workload's step, so a slow phase
slows both alike. ``SpeedClock`` times the probe before a run, every
``every`` steps inside it (``copseudo.trainer.train_step`` is rebound to a
wrapper that runs the probe first) and after it. Each stretch of wall time
between two probes, probe time excluded, is scaled by ``nominal / mean of
the two probe times``. A scaled time is thus wall time counted in units
of the probe's own time, times a fixed constant: a change that makes the
program's work faster or slower moves it in proportion, a change in host
speed moves it far less.

``nominal_s`` of each probe is a fixed constant, part of the metric's
definition: its fastest time seen on an unloaded core of the 2-vCPU Xeon VM
the benchmark was written on (Python 3.11.7, numpy 2.4.6). A probe called
between train steps runs slower than in a tight loop, with colder caches,
so scaled times read lower than wall times even on a quiet host; compare
scaled with scaled. Measured there, over 20 s windows of back-to-back
runs, the median of per-run wall time per step spread (quartile distance
over median) 0.08-0.24 between windows, the scaled one 0.03-0.04. The
probes cost a few percent of a run; their time is left out of every
reported figure, wall or scaled.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import copseudo.trainer as trainer_mod


def _small_probe():
    """A desk step in miniature: one random stream per item, a small dense
    layer with softmax and per-item Python bookkeeping."""
    x = np.linspace(-1.0, 1.0, 64 * 2).reshape(64, 2)
    w1 = np.linspace(-1.0, 1.0, 2 * 32).reshape(2, 32)
    w2 = np.linspace(-1.0, 1.0, 32 * 4).reshape(32, 4)
    acc = 0.0
    for rep in range(4):
        h = np.maximum(x @ w1, 0.0)
        z = h @ w2
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        for item in range(64):
            rng = np.random.default_rng([rep, 5, item])
            row = p[item]
            top = int(row.argmax())
            if float(row[top]) > 0.5 or rng.random() < 0.5:
                acc += top
        acc += float(np.clip(x + 0.1 * rep, -0.5, 0.5).sum())
    return acc


def _image_probe():
    """A paper-image step in miniature: per-image flips, shifts and colour
    scaling of 32x32x3 arrays, and a 3072-wide dense layer."""
    rng = np.random.default_rng(7)
    imgs = rng.random((24, 32, 32, 3))
    w = rng.standard_normal((3072, 64)) * 0.01
    acc = 0.0
    out = []
    for img in imgs:
        dx, dy = (int(v) for v in rng.integers(-4, 5, size=2))
        flipped = img[:, ::-1, :] if rng.random() < 0.5 else img
        moved = np.zeros_like(flipped)
        moved[max(dy, 0):32 + min(dy, 0), max(dx, 0):32 + min(dx, 0)] = \
            flipped[max(-dy, 0):32 + min(-dy, 0), max(-dx, 0):32 + min(-dx, 0)]
        out.append(np.clip(moved * (0.5 + rng.random()), 0.0, 1.0).ravel())
    batch = np.stack(out)
    h = np.maximum(batch @ w, 0.0)
    acc += float(h.sum()) + float((batch.T @ h).sum())
    return acc


@dataclass(frozen=True)
class Probe:
    name: str
    fn: object
    nominal_s: float


PROBES = {p.name: p for p in (
    Probe("small", _small_probe, 0.0032),
    Probe("image", _image_probe, 0.0042),
)}


WARM_UP = 5                    # untimed probe calls before the first


class SpeedClock:
    """Scaled wall time of timed sections, measured between probes."""

    def __init__(self, probe: Probe):
        self.probe = probe
        for _ in range(WARM_UP):
            probe.fn()
        self.probe_s: list = []       # every probe time, in order
        self._last = self._run_probe()

    def _run_probe(self) -> float:
        t0 = perf_counter()
        self.probe.fn()
        t = perf_counter() - t0
        self.probe_s.append(t)
        return t

    @contextmanager
    def section(self, every: int = 0):
        """Time the body; on exit ``result`` holds ``(wall_s, scaled_s)``,
        both without probe time. With ``every``, the probe also runs
        before every ``every``-th call of ``trainer.train_step``."""
        result = []
        stretches = []                 # (wall of stretch, probe before it)
        start = [perf_counter(), self._last]
        calls = [0]
        orig = trainer_mod.train_step

        def probed(*args, **kwargs):
            calls[0] += 1
            if calls[0] % every == 0:
                now = perf_counter()
                stretches.append((now - start[0], start[1]))
                start[1] = self._run_probe()
                start[0] = perf_counter()
            return orig(*args, **kwargs)

        if every:
            trainer_mod.train_step = probed
        try:
            yield result
        finally:
            if every:
                trainer_mod.train_step = orig
            end = perf_counter()
            stretches.append((end - start[0], start[1]))
            self._last = self._run_probe()
            probes = [p for _, p in stretches] + [self._last]
            wall = sum(s for s, _ in stretches)
            scaled = sum(s * self.probe.nominal_s
                         / ((probes[i] + probes[i + 1]) / 2)
                         for i, (s, _) in enumerate(stretches))
            result.extend((wall, scaled))
