"""Run metrics: per-step rows, CSV emission, plot columns, run comparison.

A row has one layout, ``RunMetrics.header()``: step, test_acc, test_loss,
one train loss column per model, mask_ratio, pseudo_acc, and the five
pseudo-label source counts of ``SOURCE_COLUMNS``.  ``_cells`` formats each
row's cells once in that order; ``emit_csv`` writes them all and
``emit_plot_columns`` writes each ``.dat`` file's columns of them.
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field

from .errors import ConfigError, DataError

SOURCE_COLUMNS = ("src_both", "src_conflict", "src_own", "src_consensus", "src_none")


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


@dataclass(frozen=True)
class MetricsRow:
    """``source_counts`` holds one count per ``SOURCE_COLUMNS`` entry."""

    step: int
    test_acc: float
    test_loss: float
    train_losses: tuple[float, ...]
    mask_ratio: float
    pseudo_acc: float
    source_counts: tuple[int, ...]


@dataclass
class RunMetrics:
    num_models: int
    rows: list = field(default_factory=list)

    def append(self, row: MetricsRow) -> None:
        if len(row.train_losses) != self.num_models:
            raise ConfigError(
                f"row has {len(row.train_losses)} train losses for a "
                f"{self.num_models}-model run")
        if len(row.source_counts) != len(SOURCE_COLUMNS):
            raise ConfigError(
                f"row has {len(row.source_counts)} source counts, not "
                f"{len(SOURCE_COLUMNS)}")
        if self.rows and row.step <= self.rows[-1].step:
            raise ConfigError("steps must be strictly increasing")
        if not (0.0 <= row.mask_ratio <= 1.0 and 0.0 <= row.pseudo_acc <= 1.0):
            raise ConfigError("ratios must lie in [0, 1]")
        self.rows.append(row)

    def header(self) -> list:
        cols = ["step", "test_acc", "test_loss"]
        cols += [f"train_loss_m{i + 1}" for i in range(self.num_models)]
        cols += ["mask_ratio", "pseudo_acc"]
        cols += list(SOURCE_COLUMNS)
        return cols


def _cells(metrics: RunMetrics) -> list:
    """Each row's cells as text, in ``RunMetrics.header()`` order."""
    if not metrics.rows:
        raise ConfigError("no rows")
    return [[str(r.step), _fmt(r.test_acc), _fmt(r.test_loss),
             *map(_fmt, r.train_losses), _fmt(r.mask_ratio),
             _fmt(r.pseudo_acc), *map(str, r.source_counts)]
            for r in metrics.rows]


def emit_csv(metrics: RunMetrics, path) -> None:
    lines = [metrics.header()] + _cells(metrics)
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write("".join(",".join(cells) + "\n" for cells in lines))


def read_csv(path) -> RunMetrics:
    if not os.path.isfile(path):
        raise DataError(f"missing metrics file: {path}")
    try:
        with open(path, "r", newline="", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"empty metrics file: {path}") from None
    train_cols = [c for c in header if c.startswith("train_loss_m")]
    expected = RunMetrics(num_models=len(train_cols)).header()
    if header != expected:
        raise DataError(f"unexpected metrics header in {path}")
    metrics = RunMetrics(num_models=len(train_cols))
    n = len(train_cols)
    for line_no, parts in enumerate(reader, start=2):
        if len(parts) != len(header):
            raise DataError(f"{path}:{line_no}: wrong field count")
        try:
            row = MetricsRow(
                step=int(parts[0]),
                test_acc=float(parts[1]),
                test_loss=float(parts[2]),
                train_losses=tuple(float(v) for v in parts[3:3 + n]),
                mask_ratio=float(parts[3 + n]),
                pseudo_acc=float(parts[4 + n]),
                source_counts=tuple(int(v) for v in parts[5 + n:]),
            )
            metrics.append(row)
        except (ValueError, ConfigError) as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
    if not metrics.rows:
        raise DataError(f"no data rows in {path}")
    return metrics


def emit_plot_columns(metrics: RunMetrics, out_dir) -> None:
    """Whitespace-column .dat files (gnuplot-style) next to the CSV: each
    holds the step and its span of ``_cells``."""
    cells = _cells(metrics)
    n = metrics.num_models
    for name, cols, start in (
            ("accuracy.dat", ["test_acc"], 1),
            ("test_loss.dat", ["test_loss"], 2),
            ("train_loss.dat", [f"model{i + 1}" for i in range(n)], 3),
            ("mask.dat", ["mask_ratio", "pseudo_acc"], 3 + n)):
        lines = [["#", "step", *cols]]
        lines += [[row[0], *row[start:start + len(cols)]] for row in cells]
        with open(os.path.join(out_dir, name), "w", encoding="ascii") as fh:
            fh.write("".join(" ".join(line) + "\n" for line in lines))


@dataclass(frozen=True)
class RunComparison:
    """treatment minus baseline, aligned on the shared step grid."""

    final_step: int
    final_acc_delta: float
    final_mask_delta: float
    best_acc_delta: float
    best_mask_delta: float
    common_steps: tuple[int, ...]


def compare_runs(baseline: RunMetrics, treatment: RunMetrics) -> RunComparison:
    base_by_step = {r.step: r for r in baseline.rows}
    treat_by_step = {r.step: r for r in treatment.rows}
    common = sorted(set(base_by_step) & set(treat_by_step))
    if not common:
        raise ConfigError("disjoint step grids: runs share no evaluation steps")
    final = common[-1]
    base_common = [base_by_step[s] for s in common]
    treat_common = [treat_by_step[s] for s in common]
    return RunComparison(
        final_step=final,
        final_acc_delta=treat_by_step[final].test_acc - base_by_step[final].test_acc,
        final_mask_delta=(treat_by_step[final].mask_ratio
                          - base_by_step[final].mask_ratio),
        best_acc_delta=(max(r.test_acc for r in treat_common)
                        - max(r.test_acc for r in base_common)),
        best_mask_delta=(max(r.mask_ratio for r in treat_common)
                         - max(r.mask_ratio for r in base_common)),
        common_steps=tuple(common),
    )
