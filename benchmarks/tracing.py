"""In-memory spans around the calls ``copseudo.trainer`` makes into each
module, and the per-layer numbers derived from them.

Nothing in ``src/`` changes: ``instrumented`` rebinds names in the
``copseudo.trainer`` (and ``copseudo.cli``) namespace, and
``AugmentStream.apply_batch`` on its class, to timing wrappers, and puts
the originals back on exit. A name the program no longer has is skipped
and listed, so the benchmark keeps running across refactors.

The per-item fusion functions (``fuse_pair``, ``fuse_cascade``,
``fuse_single``) are not wrapped: ``fuse_batch`` covers them, and a span
per item would cost more than the work it measures.
"""
from __future__ import annotations

import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import copseudo.cli as cli_mod
import copseudo.trainer as trainer_mod
from copseudo.augment import AugmentStream

CONFLICT_SOURCE = "conflict_coin_flip"


class Tracer:
    """Spans as (parent index, name, start, end, rows, outcome); a span's
    id is its index, reserved when it opens, so parents precede children.
    ``outcome`` is what ``result_count`` made of the call's result."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def call(self, name, fn, args, kwargs, rows=0, result_count=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (parent, name, t0, t1, rows, None)
        if result_count is not None:
            self.spans[sid] = (parent, name, t0, t1, rows, result_count(out))
        return out

    def wrap(self, name, fn, rows_of=None, result_count=None):
        def traced(*args, **kwargs):
            rows = rows_of(args) if rows_of else 0
            return self.call(name, fn, args, kwargs, rows, result_count)
        traced.__wrapped__ = fn
        return traced


def _rows(index):
    return lambda args: int(args[index].shape[0])


def _flat(decisions):
    for d in decisions:
        if isinstance(d, list):
            yield from d
        else:
            yield d


def _sources(decisions) -> Counter:
    return Counter(getattr(d, "source", None) for d in _flat(decisions))


# (name in copseudo.trainer, span name, rows from args, outcome of result)
_TRAINER_CALLS = (
    ("train_step", "trainer.train_step", None, None),
    ("evaluate", "trainer.evaluate", None, None),
    ("_dump_predictions", "trainer.dump_predictions", None, None),
    ("fuse_batch", "fusion.fuse_batch", lambda a: int(a[0].shape[1]),
     _sources),
    ("mask_ratio", "fusion.mask_ratio", None, None),
    ("total_objective", "losses.total_objective", None, None),
    ("supervised_loss", "losses.supervised_loss", None, None),
    ("init_model", "predictor.init_model", None, None),
    ("init_opt_state", "predictor.init_opt_state", None, None),
    ("loss_and_grad", "predictor.loss_and_grad", _rows(1), None),
    ("predict_proba", "predictor.predict_proba", _rows(1), None),
    ("add_scaled", "predictor.add_scaled", None, None),
    ("sgd_step", "predictor.sgd_step", None, None),
    ("save_checkpoint", "predictor.save_checkpoint", None, None),
    ("emit_csv", "metrics.emit_csv", None, None),
    ("emit_plot_columns", "metrics.emit_plot_columns", None, None),
)


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind the traced names for the duration of the block; yields the
    names that could not be found."""
    patches, missing = [], []

    def patch(owner, attr, wrapper_of):
        orig = getattr(owner, attr, None)
        if orig is None:
            missing.append(f"{owner.__name__}.{attr}")
            return
        patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper_of(orig))

    for attr, name, rows_of, count in _TRAINER_CALLS:
        patch(trainer_mod, attr,
              lambda f, n=name, r=rows_of, c=count: tracer.wrap(n, f, r, c))
    patch(trainer_mod.TrainerState, "clone",
          lambda f: tracer.wrap("trainer.clone", f))

    def augment(orig):
        def apply_batch(stream, xs):
            return tracer.call(f"augment.{stream.kind}", orig, (stream, xs),
                               {}, rows=int(len(xs)))
        return apply_batch
    patch(AugmentStream, "apply_batch", augment)
    patch(cli_mod, "read_predictions",
          lambda f: tracer.wrap("cli.read_predictions", f))
    try:
        yield missing
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)


def _percentile(values, q):
    """Nearest-rank percentile; ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans, steps_per_run: int, arch) -> dict:
    """Per-layer numbers from the spans of traced ``train`` runs (roots
    named ``trainer.train``) and ``fuse-trace`` replays (roots named
    ``cli.fuse_trace``).

    Work inside a train step is divided by the real steps, which excludes
    the step-0 probe; the probe, evaluations, dumps and final writes are
    per train run. Returns the metrics plus per-run counts, so the caller
    can check that counts repeat.
    """
    child_s = [0.0] * len(spans)
    for parent, _, t0, t1, *_ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    root = [0] * len(spans)
    ctx = [""] * len(spans)
    seen_step = set()
    for sid, (parent, name, *_) in enumerate(spans):
        if parent < 0:
            root[sid] = sid
            ctx[sid] = "run" if name == "trainer.train" else "replay"
            continue
        root[sid] = root[parent]
        if name == "trainer.train_step" and ctx[parent] == "run":
            # the first step of a run is the step-0 probe on a cloned state
            ctx[sid] = "step" if root[sid] in seen_step else "probe"
            seen_step.add(root[sid])
        else:
            ctx[sid] = ctx[parent]

    runs = [s for s, sp in enumerate(spans) if sp[1] == "trainer.train"]
    replays = [s for s, sp in enumerate(spans) if sp[1] == "cli.fuse_trace"]
    steps = steps_per_run * len(runs)
    per_run = {r: {"rows": 0, "items": 0, "flops": 0.0, "bytes": 0.0}
               for r in runs}
    step_self_ms = {}       # span name -> self ms over real steps
    layer_self_ms = {}      # layer -> self ms over whole train runs
    sources = Counter()
    step_ms, probe, evals, dump, emit = [], 0.0, 0.0, 0.0, 0.0
    read_ms = fuse_trace_ms = 0.0
    # computed, not measured: matmul flops and bytes of float64 operands
    # for the rows seen at each predictor call, plus the SGD update
    layers = list(zip(arch[:-1], arch[1:]))
    params = sum(i * o + o for i, o in layers)
    fwd_flops = sum(2 * i * o for i, o in layers)
    bwd_flops = 2 * fwd_flops - 2 * arch[0] * arch[1]

    def matmul_bytes(rows, backward):
        mm = [8 * (rows * i + i * o + rows * o) for i, o in layers]
        return sum(mm) + (sum(mm) + sum(mm[1:]) if backward else 0)

    for sid, (parent, name, t0, t1, rows, outcome) in enumerate(spans):
        dur = t1 - t0
        self_s = dur - child_s[sid]
        c = ctx[sid]
        if c in ("run", "step", "probe"):
            layer = layer_of(name)
            layer_self_ms[layer] = layer_self_ms.get(layer, 0.0) + self_s * 1e3
        if c == "step":
            if name == "trainer.train_step":
                step_ms.append(dur * 1e3)
            step_self_ms[name] = step_self_ms.get(name, 0.0) + self_s * 1e3
            run = per_run[root[sid]]
            if name.startswith("augment."):
                run["rows"] += rows
            elif name == "fusion.fuse_batch":
                run["items"] += rows
                sources.update(outcome or {})
            elif name == "predictor.loss_and_grad":
                run["flops"] += rows * (fwd_flops + bwd_flops)
                run["bytes"] += matmul_bytes(rows, True)
            elif name == "predictor.predict_proba":
                run["flops"] += rows * fwd_flops
                run["bytes"] += matmul_bytes(rows, False)
            elif name == "predictor.sgd_step":
                run["flops"] += 6 * params
                run["bytes"] += 5 * 8 * params
            elif name == "predictor.add_scaled":
                run["flops"] += 2 * params
                run["bytes"] += 3 * 8 * params
        elif c == "probe" and name == "trainer.train_step":
            probe += dur * 1e3
        elif c == "run" and parent == root[sid]:
            if name == "trainer.clone":
                probe += dur * 1e3
            elif name == "trainer.evaluate":
                evals += dur * 1e3
            elif name in ("trainer.dump_predictions", "augment.weak",
                          "predictor.predict_proba"):
                # at the top of train, augmentation and prediction happen
                # only on the dump path's second forward pass
                dump += dur * 1e3
            elif layer_of(name) == "metrics":
                emit += dur * 1e3
        elif c == "replay":
            if name == "cli.read_predictions":
                read_ms += dur * 1e3
            elif name == "cli.fuse_trace":
                fuse_trace_ms += self_s * 1e3

    n_runs = max(len(runs), 1)
    steps = max(steps, 1)
    items = sum(r["items"] for r in per_run.values())

    def per_step(name):
        return step_self_ms.get(name, 0.0) / steps

    out = {
        "augment.weak_ms_per_step": per_step("augment.weak"),
        "augment.strong_ms_per_step": per_step("augment.strong"),
        "predictor.predict_proba_ms_per_step":
            per_step("predictor.predict_proba"),
        "predictor.loss_and_grad_ms_per_step":
            per_step("predictor.loss_and_grad"),
        "predictor.sgd_step_ms_per_step": per_step("predictor.sgd_step"),
        "fusion.fuse_batch_ms_per_step": per_step("fusion.fuse_batch"),
        "fusion.coin_flip_share":
            sources[CONFLICT_SOURCE] / items if items else 0.0,
        "losses.total_objective_ms_per_step":
            per_step("losses.total_objective"),
        "trainer.train_step_ms.p50":
            statistics.median(step_ms) if step_ms else 0.0,
        "trainer.train_step_ms.p99":
            _percentile(step_ms, 99) if step_ms else 0.0,
        "trainer.step_self_ms": per_step("trainer.train_step"),
        "trainer.eval_ms": evals / n_runs,
        "trainer.probe_ms": probe / n_runs,
        "trainer.dump_ms": dump / n_runs,
        "metrics.emit_ms": emit / n_runs,
    }
    if replays:
        out["cli.read_predictions_ms_per_dump"] = read_ms / len(replays)
        out["cli.fuse_trace_ms_per_dump"] = fuse_trace_ms / len(replays)
    counts = [{"augment.rows_per_step": r["rows"] / steps_per_run,
               "fusion.items_per_step": r["items"] / steps_per_run,
               "predictor.flops_per_step": r["flops"] / steps_per_run,
               "predictor.bytes_per_step": r["bytes"] / steps_per_run}
              for r in per_run.values()]
    layer_ms = {k: v / steps for k, v in sorted(layer_self_ms.items())}
    return {"metrics": out, "counts": counts, "layer_self_ms_per_step": layer_ms,
            "fusion_sources": dict(sources),
            "train_step_samples": len(step_ms), "traced_runs": len(runs),
            "replays": len(replays)}
