"""Run metrics: per-step rows, the run history files, run comparison.

A row has one layout, ``RunMetrics.header()``: step, test_acc, test_loss,
one train loss column per model, mask_ratio, pseudo_acc, and the five
pseudo-label source counts of ``SOURCE_COLUMNS``.  ``append_row`` records
a row and appends its cells to each file of ``_history_files``, the first
row after each header, so a run's history is on disk as far as it got.
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field

from .errors import ConfigError, DataError

SOURCE_COLUMNS = ("src_both", "src_conflict", "src_own", "src_consensus", "src_none")
METRICS_FILENAME = "metrics.csv"


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


def _history_files(n: int) -> tuple:
    """Each history file of an n-model run as (name, separator, newline
    mode, header, start): a row's line is its step, then its cells from
    ``start`` on, one per header column after the first."""
    return ((METRICS_FILENAME, ",", "", RunMetrics(n).header(), 1),
            ("accuracy.dat", " ", None, ["# step", "test_acc"], 1),
            ("test_loss.dat", " ", None, ["# step", "test_loss"], 2),
            ("train_loss.dat", " ", None,
             ["# step", *(f"model{i + 1}" for i in range(n))], 3),
            ("mask.dat", " ", None, ["# step", "mask_ratio", "pseudo_acc"],
             3 + n))


def append_row(metrics: RunMetrics, row: MetricsRow, out_dir) -> None:
    """Record ``row`` in ``metrics``, which checks it, and append its line
    to each history file in ``out_dir``, the run's first after the header."""
    metrics.append(row)
    cells = [str(row.step), _fmt(row.test_acc), _fmt(row.test_loss),
             *map(_fmt, row.train_losses), _fmt(row.mask_ratio),
             _fmt(row.pseudo_acc), *map(str, row.source_counts)]
    first = len(metrics.rows) == 1
    for name, sep, newline, header, start in _history_files(metrics.num_models):
        lines = [header] if first else []
        lines.append([cells[0], *cells[start:start + len(header) - 1]])
        with open(os.path.join(out_dir, name), "w" if first else "a",
                  newline=newline, encoding="ascii") as fh:
            fh.write("".join(sep.join(line) + "\n" for line in lines))


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
    n = len([c for c in header if c.startswith("train_loss_m")])
    metrics = RunMetrics(num_models=n)
    if header != metrics.header():
        raise DataError(f"unexpected metrics header in {path}")
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
