import math
import re

import pytest

from copseudo.errors import ConfigError, DataError
from copseudo.metrics import (
    MetricsRow,
    RunComparison,
    RunMetrics,
    append_row,
    compare_runs,
    read_csv,
)


def make_row(step, test_acc=0.5, test_loss=1.0, train_losses=(1.5, 1.6),
             mask_ratio=0.25, pseudo_acc=0.75, sources=(10, 2, 5, 3, 44)):
    return MetricsRow(step=step, test_acc=test_acc, test_loss=test_loss,
                      train_losses=tuple(train_losses), mask_ratio=mask_ratio,
                      pseudo_acc=pseudo_acc, source_counts=tuple(sources))


class TestRunMetrics:
    def test_header_two_models(self):
        m = RunMetrics(num_models=2)
        assert m.header() == [
            "step", "test_acc", "test_loss", "train_loss_m1", "train_loss_m2",
            "mask_ratio", "pseudo_acc", "src_both", "src_conflict", "src_own",
            "src_consensus", "src_none"]

    def test_header_scales_with_model_count(self):
        m = RunMetrics(num_models=3)
        assert m.header()[3:6] == ["train_loss_m1", "train_loss_m2",
                                   "train_loss_m3"]

    def test_append_checks_train_loss_count(self):
        m = RunMetrics(num_models=3)
        with pytest.raises(ConfigError, match="train losses"):
            m.append(make_row(0, train_losses=(1.0, 2.0)))

    @pytest.mark.parametrize("sources", [(1, 2, 3, 4), (1, 2, 3, 4, 5, 6)])
    def test_append_checks_source_count(self, sources):
        m = RunMetrics(num_models=2)
        with pytest.raises(ConfigError, match=f"^row has {len(sources)} source "
                                              "counts, not 5$"):
            m.append(make_row(0, sources=sources))
        assert m.rows == []

    def test_append_requires_increasing_steps(self):
        m = RunMetrics(num_models=2)
        m.append(make_row(0))
        m.append(make_row(50))
        with pytest.raises(ConfigError, match="strictly increasing"):
            m.append(make_row(50))

    def test_append_checks_ratio_ranges(self):
        m = RunMetrics(num_models=2)
        with pytest.raises(ConfigError, match="ratios"):
            m.append(make_row(0, mask_ratio=1.5))
        with pytest.raises(ConfigError, match="ratios"):
            m.append(make_row(0, pseudo_acc=-0.1))


class TestCsvRoundTrip:
    def test_file_layout(self, tmp_path):
        append_row(RunMetrics(num_models=2),
                   make_row(0, test_acc=0.25, test_loss=1.3862943611198906,
                            train_losses=(1.25, 1.5), mask_ratio=0.0,
                            pseudo_acc=1.0, sources=(0, 0, 0, 0, 64)),
                   tmp_path)
        path = tmp_path / "metrics.csv"
        lines = path.read_text(encoding="ascii").split("\n")
        assert lines[0] == ("step,test_acc,test_loss,train_loss_m1,"
                            "train_loss_m2,mask_ratio,pseudo_acc,src_both,"
                            "src_conflict,src_own,src_consensus,src_none")
        assert lines[1] == "0,0.25,1.38629436,1.25,1.5,0,1,0,0,0,0,64"
        assert lines[2] == ""

    def test_floats_at_nine_significant_digits(self, tmp_path):
        append_row(RunMetrics(num_models=1),
                   make_row(1, test_acc=1 / 3, test_loss=math.pi,
                            train_losses=(2 / 7,)), tmp_path)
        path = tmp_path / "metrics.csv"
        parts = path.read_text(encoding="ascii").split("\n")[1].split(",")
        assert parts[1] == "0.333333333"
        assert parts[2] == "3.14159265"
        assert parts[3] == "0.285714286"

    def test_round_trip(self, tmp_path):
        m = RunMetrics(num_models=2)
        append_row(m, make_row(0, test_acc=0.123456789,
                               train_losses=(1.9, 0.37)), tmp_path)
        append_row(m, make_row(50, test_acc=0.987654321, mask_ratio=1.0),
                   tmp_path)
        back = read_csv(tmp_path / "metrics.csv")
        assert back.num_models == 2
        assert [r.step for r in back.rows] == [0, 50]
        for orig, parsed in zip(m.rows, back.rows):
            assert parsed.step == orig.step
            assert parsed.source_counts == orig.source_counts
            for a, b in ((parsed.test_acc, orig.test_acc),
                         (parsed.test_loss, orig.test_loss),
                         (parsed.mask_ratio, orig.mask_ratio)):
                assert a == pytest.approx(b, rel=1e-8)

    def test_each_row_is_appended_as_it_is_recorded(self, tmp_path):
        m = RunMetrics(num_models=2)
        seen = []
        for step in (0, 5, 10):
            append_row(m, make_row(step, test_acc=step / 20), tmp_path)
            seen.append({p.name: p.read_bytes() for p in tmp_path.iterdir()})
        assert sorted(seen[0]) == ["accuracy.dat", "mask.dat", "metrics.csv",
                                   "test_loss.dat", "train_loss.dat"]
        for before, after in zip(seen, seen[1:]):
            for name, data in before.items():
                assert after[name].startswith(data)
                assert after[name].count(b"\n") == data.count(b"\n") + 1
        assert [r.step for r in read_csv(tmp_path / "metrics.csv").rows] == \
            [0, 5, 10]

    def test_rejected_row_writes_nothing(self, tmp_path):
        m = RunMetrics(num_models=2)
        with pytest.raises(ConfigError, match="ratios"):
            append_row(m, make_row(0, mask_ratio=1.5), tmp_path)
        assert list(tmp_path.iterdir()) == []
        append_row(m, make_row(0), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ConfigError, match="strictly increasing"):
            append_row(m, make_row(0), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert len(m.rows) == 1

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing metrics file"):
            read_csv(tmp_path / "nope.csv")

    def test_read_empty_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_csv(path)

    def test_read_header_only(self, tmp_path):
        m = RunMetrics(num_models=1)
        path = tmp_path / "metrics.csv"
        path.write_text(",".join(m.header()) + "\n")
        with pytest.raises(DataError, match=f"^no data rows in {re.escape(str(path))}$"):
            read_csv(path)

    def test_read_bad_header(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("step,acc\n0,0.5\n")
        with pytest.raises(DataError, match="header"):
            read_csv(path)

    def test_read_wrong_field_count_names_line(self, tmp_path):
        append_row(RunMetrics(num_models=1), make_row(0, train_losses=(1.0,)),
                   tmp_path)
        path = tmp_path / "metrics.csv"
        with open(path, "a") as fh:
            fh.write("50,0.5\n")
        with pytest.raises(DataError, match=r":3: wrong field count"):
            read_csv(path)

    @pytest.mark.parametrize("row,problem", [
        ("0,0.5,1,1,0,1,0,0,0,0,8", "steps must be strictly increasing"),
        ("50,0.5,1,1,1.5,1,0,0,0,0,8", "ratios must lie in"),
    ], ids=["repeated-step", "ratio-above-1"])
    def test_read_row_check_failures_name_line(self, tmp_path, row, problem):
        append_row(RunMetrics(num_models=1), make_row(0, train_losses=(1.0,)),
                   tmp_path)
        path = tmp_path / "metrics.csv"
        with open(path, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: "
                                            f"{problem}"):
            read_csv(path)

    def test_read_non_numeric_names_line(self, tmp_path):
        append_row(RunMetrics(num_models=1), make_row(0, train_losses=(1.0,)),
                   tmp_path)
        path = tmp_path / "metrics.csv"
        text = path.read_text().replace("0.5", "oops")
        path.write_text(text)
        with pytest.raises(DataError, match=":2:"):
            read_csv(path)


class TestPlotColumns:
    def test_files_and_content(self, tmp_path):
        m = RunMetrics(num_models=2)
        append_row(m, make_row(0, test_acc=0.25, train_losses=(1.5, 1.25)),
                   tmp_path)
        append_row(m, make_row(50, test_acc=0.5, train_losses=(0.75, 0.5)),
                   tmp_path)
        acc = (tmp_path / "accuracy.dat").read_text().split("\n")
        assert acc[0] == "# step test_acc"
        assert acc[1] == "0 0.25"
        assert acc[2] == "50 0.5"
        train = (tmp_path / "train_loss.dat").read_text().split("\n")
        assert train[0] == "# step model1 model2"
        assert train[1] == "0 1.5 1.25"
        mask = (tmp_path / "mask.dat").read_text().split("\n")
        assert mask[0] == "# step mask_ratio pseudo_acc"
        assert mask[1] == "0 0.25 0.75"
        assert (tmp_path / "test_loss.dat").is_file()

    def test_each_file_is_the_step_and_its_csv_columns(self, tmp_path):
        m = RunMetrics(num_models=3)
        append_row(m, make_row(0, test_acc=1 / 3, test_loss=math.pi,
                               train_losses=(2 / 7, 1.5, 1e-12)), tmp_path)
        append_row(m, make_row(10, test_acc=0.5, train_losses=(0.1, 0.2, 0.3),
                               mask_ratio=1.0, pseudo_acc=0.0), tmp_path)
        csv_lines = (tmp_path / "metrics.csv").read_text().splitlines()
        header = csv_lines[0].split(",")
        rows = [line.split(",") for line in csv_lines[1:]]
        for name, title, cols in [
                ("accuracy.dat", "test_acc", ["test_acc"]),
                ("test_loss.dat", "test_loss", ["test_loss"]),
                ("train_loss.dat", "model1 model2 model3",
                 ["train_loss_m1", "train_loss_m2", "train_loss_m3"]),
                ("mask.dat", "mask_ratio pseudo_acc",
                 ["mask_ratio", "pseudo_acc"])]:
            at = [0] + [header.index(c) for c in cols]
            want = [f"# step {title}"]
            want += [" ".join(row[i] for i in at) for row in rows]
            assert (tmp_path / name).read_text() == "\n".join(want) + "\n"


class TestCompareRuns:
    def run_with(self, steps, accs, masks):
        m = RunMetrics(num_models=2)
        for s, a, r in zip(steps, accs, masks):
            m.append(make_row(s, test_acc=a, mask_ratio=r))
        return m

    def test_identical_runs_give_zero_deltas(self):
        a = self.run_with([0, 50, 100], [0.2, 0.4, 0.6], [0.1, 0.2, 0.3])
        cmp = compare_runs(a, a)
        assert cmp.final_step == 100
        assert cmp.final_acc_delta == 0.0
        assert cmp.final_mask_delta == 0.0
        assert cmp.best_acc_delta == 0.0
        assert cmp.best_mask_delta == 0.0
        assert cmp.common_steps == (0, 50, 100)

    def test_deltas_are_treatment_minus_baseline(self):
        base = self.run_with([0, 50], [0.3, 0.5], [0.2, 0.4])
        treat = self.run_with([0, 50], [0.35, 0.62], [0.25, 0.51])
        cmp = compare_runs(base, treat)
        assert cmp.final_acc_delta == pytest.approx(0.12)
        assert cmp.final_mask_delta == pytest.approx(0.11)

    def test_swapping_runs_negates_deltas(self):
        base = self.run_with([0, 50, 100], [0.3, 0.5, 0.45], [0.2, 0.4, 0.38])
        treat = self.run_with([0, 50, 100], [0.35, 0.62, 0.6], [0.25, 0.5, 0.52])
        fwd = compare_runs(base, treat)
        rev = compare_runs(treat, base)
        assert fwd.final_acc_delta == pytest.approx(-rev.final_acc_delta)
        assert fwd.best_acc_delta == pytest.approx(-rev.best_acc_delta)
        assert fwd.best_mask_delta == pytest.approx(-rev.best_mask_delta)

    def test_best_uses_peaks_not_final(self):
        # baseline peaks mid-run then decays; treatment climbs steadily
        base = self.run_with([0, 50, 100], [0.2, 0.7, 0.4], [0.0, 0.6, 0.3])
        treat = self.run_with([0, 50, 100], [0.2, 0.4, 0.6], [0.0, 0.2, 0.5])
        cmp = compare_runs(base, treat)
        assert cmp.final_acc_delta == pytest.approx(0.2)
        assert cmp.best_acc_delta == pytest.approx(-0.1)
        assert cmp.best_mask_delta == pytest.approx(-0.1)

    def test_alignment_uses_common_steps_only(self):
        base = self.run_with([0, 50, 100], [0.3, 0.5, 0.9], [0.0, 0.4, 0.9])
        treat = self.run_with([0, 25, 50], [0.3, 0.8, 0.6], [0.0, 0.7, 0.5])
        cmp = compare_runs(base, treat)
        assert cmp.common_steps == (0, 50)
        assert cmp.final_step == 50
        assert cmp.final_acc_delta == pytest.approx(0.1)
        # bests are taken over the common rows, not each run's full history
        assert cmp.best_acc_delta == pytest.approx(0.6 - 0.5)

    def test_disjoint_grids_error(self):
        base = self.run_with([0, 50], [0.3, 0.5], [0.2, 0.4])
        treat = self.run_with([25, 75], [0.3, 0.5], [0.2, 0.4])
        with pytest.raises(ConfigError, match="disjoint step grids"):
            compare_runs(base, treat)

    def test_comparison_is_frozen(self):
        a = self.run_with([0], [0.5], [0.5])
        cmp = compare_runs(a, a)
        assert isinstance(cmp, RunComparison)
        with pytest.raises(AttributeError):
            cmp.final_acc_delta = 1.0
