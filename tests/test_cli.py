import argparse
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import copseudo
import copseudo.cli as cli_mod
from copseudo.cli import build_parser, main
from copseudo.data import (
    CIFAR_TEST_FILE,
    CIFAR_TRAIN_FILES,
    MaskedDataset,
    load_dataset,
    save_dataset,
    write_cifar10_batch,
)
from copseudo.fusion import FusionConfig, fuse_cascade, fuse_pair
from copseudo.metrics import compare_runs, read_csv
from copseudo.predictor import init_model, save_checkpoint
from oracles import reference_predict_proba, save_dataset_v1


def gen_synth(path, classes=4, per_class=20, labeled=None, seed=7, sigma=0.5):
    argv = ["gen-data", "--synthetic", f"C={classes}", f"n={per_class}",
            f"sigma={sigma}", "--seed", str(seed), "--out", str(path)]
    if labeled is not None:
        argv[-4:-4] = ["--mcar", str(labeled)]
    assert main(argv) == 0
    return path


@pytest.fixture
def synth_files(tmp_path):
    train = gen_synth(tmp_path / "train.txt", labeled=25, seed=7)
    test = gen_synth(tmp_path / "test.txt", per_class=10, seed=8)
    return train, test


def quick_train(train, test, out, extra=()):
    return main(["train", "--data", str(train), "--test", str(test),
                 "--out", str(out), "--seed", "5", "--models", "2",
                 "--steps", "4", "--eval-every", "2", "--batch-size", "8",
                 "--mu", "2.0", "--hidden", "8", *extra])


class TestGenData:
    def test_synthetic_counts(self, tmp_path, capsys):
        out = tmp_path / "ds.txt"
        code = main(["gen-data", "--synthetic", "C=4", "n=250", "--mcar",
                     "150", "--seed", "7", "--out", str(out)])
        assert code == 0
        ds = load_dataset(out)
        assert len(ds) == 1000
        assert ds.num_observed == 150
        assert ds.num_classes == 4
        assert "1000 samples, 150 observed" in capsys.readouterr().out

    def test_seed_required(self, tmp_path, capsys):
        code = main(["gen-data", "--synthetic", "C=4", "n=10",
                     "--out", str(tmp_path / "d.txt")])
        assert code == 2
        assert "seed required" in capsys.readouterr().err

    def test_exactly_one_source(self, tmp_path, capsys):
        base = ["--seed", "1", "--out", str(tmp_path / "d.txt")]
        assert main(["gen-data", *base]) == 2
        assert main(["gen-data", "--synthetic", "C=4", "n=2",
                     "--cifar10", str(tmp_path), *base]) == 2

    def test_mcar_mnar_exclusive(self, tmp_path):
        code = main(["gen-data", "--synthetic", "C=4", "n=10", "--mcar", "5",
                     "--mnar", "p0=0.5", "ptail=0.1", "--seed", "1",
                     "--out", str(tmp_path / "d.txt")])
        assert code == 2

    def test_synthetic_needs_class_and_count(self, tmp_path, capsys):
        code = main(["gen-data", "--synthetic", "C=4", "--seed", "1",
                     "--out", str(tmp_path / "d.txt")])
        assert code == 2
        assert "n=" in capsys.readouterr().err

    def test_unknown_synthetic_key_listed(self, tmp_path, capsys):
        code = main(["gen-data", "--synthetic", "C=4", "n=2", "k=9",
                     "--seed", "1", "--out", str(tmp_path / "d.txt")])
        assert code == 2
        assert "unknown key 'k'" in capsys.readouterr().err

    def test_mnar_retention_list(self, tmp_path):
        out = tmp_path / "d.txt"
        code = main(["gen-data", "--synthetic", "C=4", "n=25", "--mnar",
                     "retention=1,1,0,0", "--seed", "3", "--out", str(out)])
        assert code == 0
        ds = load_dataset(out)
        labels = ds.eval_labels()
        assert (ds.missing[labels <= 1] == 0).all()
        assert (ds.missing[labels >= 2] == 1).all()

    def test_mnar_needs_tail_or_ratio(self, tmp_path, capsys):
        code = main(["gen-data", "--synthetic", "C=4", "n=10", "--mnar",
                     "p0=0.5", "--seed", "1", "--out", str(tmp_path / "d.txt")])
        assert code == 2
        assert "ptail" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "d.txt"
        code = main(["gen-data", "--synthetic", "C=3", "n=20", "--mcar", "6",
                     "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "--seed must be a non-negative integer, got -1" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_mnar_retention_excludes_other_keys(self, tmp_path):
        code = main(["gen-data", "--synthetic", "C=4", "n=10", "--mnar",
                     "retention=1,1,0,0", "p0=0.5", "--seed", "1",
                     "--out", str(tmp_path / "d.txt")])
        assert code == 2


class TestGenDataCifar:
    def fake_dir(self, tmp_path, per_file=4):
        rng = np.random.default_rng(0)
        d = tmp_path / "cifar"
        d.mkdir()
        for name in CIFAR_TRAIN_FILES:
            write_cifar10_batch(d / name, rng.integers(0, 10, size=per_file),
                                rng.integers(0, 256, size=(per_file, 3072)))
        write_cifar10_batch(d / CIFAR_TEST_FILE, rng.integers(0, 10, size=3),
                            rng.integers(0, 256, size=(3, 3072)))
        return d

    def test_train_split_with_mnar(self, tmp_path):
        src = self.fake_dir(tmp_path)
        out = tmp_path / "cifar.txt"
        code = main(["gen-data", "--cifar10", str(src), "--mnar", "p0=0.9",
                     "ptail=0.5", "--seed", "1", "--out", str(out)])
        assert code == 0
        ds = load_dataset(out)
        assert len(ds) == 5 * 4
        assert ds.num_classes == 10
        assert ds.feature_shape == (3, 32, 32)

    def test_test_split(self, tmp_path):
        src = self.fake_dir(tmp_path)
        out = tmp_path / "cifar-test.txt"
        code = main(["gen-data", "--cifar10", str(src), "--split", "test",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        ds = load_dataset(out)
        assert len(ds) == 3
        assert ds.num_missing == 0

    def test_missing_dir_is_data_error(self, tmp_path):
        code = main(["gen-data", "--cifar10", str(tmp_path / "nope"),
                     "--seed", "1", "--out", str(tmp_path / "d.txt")])
        assert code == 3


class TestTrainCommand:
    def test_end_to_end(self, synth_files, tmp_path, capsys):
        train_f, test_f = synth_files
        out = tmp_path / "run"
        assert quick_train(train_f, test_f, out) == 0
        stdout = capsys.readouterr().out
        assert "run complete" in stdout
        assert "final step 4" in stdout
        metrics = read_csv(out / "metrics.csv")
        assert metrics.steps() == [0, 2, 4]
        assert (out / "config.resolved").is_file()
        assert (out / "ckpt-model1-step4").is_file()
        assert (out / "ckpt-model2-step4").is_file()

    def test_seed_required(self, synth_files, tmp_path, capsys):
        train_f, test_f = synth_files
        code = main(["train", "--data", str(train_f), "--test", str(test_f),
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "seed required" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, synth_files, tmp_path, capsys):
        train_f, test_f = synth_files
        out = tmp_path / "run"
        code = main(["train", "--data", str(train_f), "--test", str(test_f),
                     "--out", str(out), "--seed", "-1"])
        assert code == 2
        assert "--seed must be a non-negative integer, got -1" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_negative_config_seed_names_key(self, synth_files, tmp_path, capsys):
        train_f, test_f = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-3\n")
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--data", str(train_f),
                     "--test", str(test_f), "--out", str(out)])
        assert code == 2
        assert "config key seed must be a non-negative integer, got -3" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_non_ascii_config_names_file(self, synth_files, tmp_path, capsys):
        train_f, test_f = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"steps=6\ntau=0.9\xff\n")
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--data", str(train_f),
                     "--test", str(test_f), "--out", str(out), "--seed", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "0xff" in err
        assert not out.exists()

    def test_problems_listed_all_at_once(self, capsys):
        assert main(["train"]) == 2
        err = capsys.readouterr().err
        for fragment in ("--data is required", "--test is required",
                         "--out is required", "seed required"):
            assert fragment in err

    def test_config_file_precedence(self, synth_files, tmp_path):
        train_f, test_f = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=6\ntau=0.9\n# comment\n\naug.sigma_weak=0.02\n")
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--data", str(train_f),
                     "--test", str(test_f), "--out", str(out), "--seed", "5",
                     "--steps", "4", "--eval-every", "2", "--batch-size", "8",
                     "--mu", "2.0", "--hidden", "8"])
        assert code == 0
        resolved = dict(
            line.split("=", 1)
            for line in (out / "config.resolved").read_text().split("\n")
            if line)
        assert resolved["steps"] == "4"          # flag beats file
        assert resolved["tau"] == "0.9"          # file beats default
        assert resolved["aug.sigma_weak"] == "0.02"
        assert resolved["momentum"] == "0.9"     # untouched default

    def test_unknown_config_key(self, synth_files, tmp_path, capsys):
        train_f, test_f = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stepz=6\n")
        code = main(["train", "--config", str(cfg), "--data", str(train_f),
                     "--test", str(test_f), "--out", str(tmp_path / "r"),
                     "--seed", "5"])
        assert code == 2
        assert "unknown config keys: stepz" in capsys.readouterr().err

    def test_desk_profile_presets(self, synth_files, tmp_path):
        train_f, test_f = synth_files
        out = tmp_path / "run"
        code = main(["train", "--data", str(train_f), "--test", str(test_f),
                     "--out", str(out), "--seed", "5", "--steps", "2",
                     "--eval-every", "1", "--hidden", "8",
                     "--profile", "desk"])
        assert code == 0
        resolved = dict(
            line.split("=", 1)
            for line in (out / "config.resolved").read_text().split("\n")
            if line)
        assert resolved["mu"] == "4.0"
        assert resolved["batch_size"] == "16"

    def test_flag_overrides_profile(self, synth_files, tmp_path):
        train_f, test_f = synth_files
        out = tmp_path / "run"
        code = main(["train", "--data", str(train_f), "--test", str(test_f),
                     "--out", str(out), "--seed", "5", "--steps", "2",
                     "--eval-every", "1", "--hidden", "8", "--profile",
                     "desk", "--batch-size", "8", "--mu", "2.0"])
        assert code == 0
        resolved = dict(
            line.split("=", 1)
            for line in (out / "config.resolved").read_text().split("\n")
            if line)
        assert resolved["batch_size"] == "8"
        assert resolved["mu"] == "2.0"

    def test_single_model_gets_unit_pseudo_weight(self, synth_files, tmp_path):
        train_f, test_f = synth_files
        out = tmp_path / "run"
        code = main(["train", "--data", str(train_f), "--test", str(test_f),
                     "--out", str(out), "--seed", "5", "--models", "1",
                     "--single-model-mode", "--steps", "2", "--eval-every",
                     "1", "--batch-size", "8", "--mu", "2.0", "--hidden", "8"])
        assert code == 0
        resolved = dict(
            line.split("=", 1)
            for line in (out / "config.resolved").read_text().split("\n")
            if line)
        assert resolved["pseudo_weight"] == "1.0"
        assert resolved["single_model_mode"] == "True"
        assert resolved["tau_cascade"] == ""

    def test_tau2_shorthand(self, synth_files, tmp_path):
        train_f, test_f = synth_files
        out = tmp_path / "run"
        assert quick_train(train_f, test_f, out, extra=("--tau2", "0.8")) == 0
        text = (out / "config.resolved").read_text()
        assert "tau_cascade=0.8\n" in text

    def test_tau2_and_cascade_conflict(self, synth_files, tmp_path, capsys):
        train_f, test_f = synth_files
        code = quick_train(train_f, test_f, tmp_path / "r",
                           extra=("--tau2", "0.8", "--tau-cascade", "0.8"))
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_three_models_need_cascade(self, synth_files, tmp_path, capsys):
        train_f, test_f = synth_files
        code = main(["train", "--data", str(train_f), "--test", str(test_f),
                     "--out", str(tmp_path / "r"), "--seed", "5",
                     "--models", "3"])
        assert code == 2
        assert "--tau-cascade" in capsys.readouterr().err

    def test_single_model_mode_needs_no_cascade(self, synth_files, tmp_path):
        # single-model mode never consults the cascade, so three models run
        # without --tau-cascade
        train_f, test_f = synth_files
        out = tmp_path / "run"
        code = quick_train(train_f, test_f, out,
                           extra=("--models", "3", "--single-model-mode"))
        assert code == 0
        assert "tau_cascade=\n" in (out / "config.resolved").read_text()
        assert read_csv(out / "metrics.csv").num_models == 3

    def test_three_model_run(self, synth_files, tmp_path):
        train_f, test_f = synth_files
        out = tmp_path / "run"
        code = quick_train(train_f, test_f, out,
                           extra=("--models", "3", "--tau-cascade",
                                  "0.85,0.75"))
        assert code == 0
        metrics = read_csv(out / "metrics.csv")
        assert metrics.num_models == 3

    def test_missing_dataset_file(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.txt"), "--test",
                     str(tmp_path / "nope.txt"), "--out", str(tmp_path / "r"),
                     "--seed", "5"])
        assert code == 3
        assert "missing dataset file" in capsys.readouterr().err

    def test_malformed_dataset_is_data_error(self, synth_files, tmp_path, capsys):
        train_f, test_f = synth_files
        bad = tmp_path / "bad.ds"
        bad.write_text("copseudo-ds v1 1 2 2\n0,2,1,0.5,0.5\n")
        code = main(["train", "--data", str(bad), "--test", str(test_f),
                     "--out", str(tmp_path / "r"), "--seed", "5"])
        assert code == 3
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "missing indicators must be 0 or 1" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exits_4_naming_the_step(synth_files, tmp_path, capsys):
    code = quick_train(*synth_files, tmp_path / "run",
                       ("--steps", "400", "--lr", "1e8"))
    assert code == 4
    assert re.search(r"error: training diverged at step \d+: model \d",
                     capsys.readouterr().err)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_augmented_view_exits_4_at_step_1(tmp_path, capsys):
    # the dataset is finite, so it passes the boundary; its weak views
    # overflow to inf inside the loop, where only the divergence check
    # reports a non-finite value
    rng = np.random.default_rng(0)
    feats = np.where(rng.random((80, 2)) < 0.5, -1.0, 1.0) * 1.7e308
    missing = (np.arange(80) >= 25).astype(np.int8)
    big = tmp_path / "big.ds"
    save_dataset(MaskedDataset(feats, np.arange(80) % 4, missing, 4), big)
    test = gen_synth(tmp_path / "test.ds", per_class=10, seed=8)
    code = quick_train(big, test, tmp_path / "run",
                       ("--aug-sigma-weak", "1e308"))
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged at step 1: model "), err
    assert "non-finite input features" not in err


def test_divergence_prints_only_its_error_line(tmp_path):
    # numpy's overflow warnings from the steps before train_step names the
    # divergence stay silent, even with every warning shown (-W default)
    train_f = gen_synth(tmp_path / "mcar.ds", per_class=100, labeled=20,
                        seed=11, sigma=1.0)
    test_f = gen_synth(tmp_path / "test.ds", per_class=50, seed=13, sigma=1.0)
    env = dict(os.environ, PYTHONPATH=str(Path(copseudo.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    result = subprocess.run(
        [sys.executable, "-W", "default", "-m", "copseudo.cli", "train",
         "--profile", "desk", "--lr", "1e8", "--seed", "3",
         "--data", str(train_f), "--test", str(test_f),
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 4
    assert re.fullmatch(r"error: training diverged at step \d+: model \d "
                        r"supervised loss is not finite\n", result.stderr), \
        result.stderr


def tree_bytes(root):
    """Map each file under ``root`` to its bytes, keyed by relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


class TestContainerVersions:
    def test_v1_and_v2_inputs_train_identically(self, synth_files, tmp_path):
        # the same desk data as v2 (what gen-data writes) and as v1 text
        v1_files = []
        for path in synth_files:
            v1 = tmp_path / f"v1-{path.name}"
            save_dataset_v1(load_dataset(path), v1)
            assert v1.read_bytes().startswith(b"copseudo-ds v1 ")
            assert path.read_bytes().startswith(b"copseudo-ds v2 ")
            v1_files.append(v1)
        extra = ("--dump-predictions-every", "2")
        assert quick_train(*synth_files, tmp_path / "run-v2", extra) == 0
        assert quick_train(*v1_files, tmp_path / "run-v1", extra) == 0
        v2_tree = tree_bytes(tmp_path / "run-v2")
        assert "metrics.csv" in v2_tree
        assert v2_tree == tree_bytes(tmp_path / "run-v1")


@pytest.fixture
def image_files(tmp_path):
    """CIFAR-format batches made into a u1 train file with 70 of 120 labels
    observed (the paper profile's labeled batch is 64) and a test file."""
    rng = np.random.default_rng(3)
    src = tmp_path / "cifar"
    src.mkdir()
    for name, count in [(n, 24) for n in CIFAR_TRAIN_FILES] + [(CIFAR_TEST_FILE, 12)]:
        write_cifar10_batch(src / name, rng.integers(0, 10, size=count),
                            rng.integers(0, 256, size=(count, 3072)))
    train, test = tmp_path / "image.ds", tmp_path / "image-test.ds"
    assert main(["gen-data", "--cifar10", str(src), "--mcar", "70", "--seed", "4",
                 "--out", str(train)]) == 0
    assert main(["gen-data", "--cifar10", str(src), "--split", "test",
                 "--seed", "5", "--out", str(test)]) == 0
    return train, test


def image_train(train, test, out):
    return main(["train", "--data", str(train), "--test", str(test),
                 "--out", str(out), "--seed", "5", "--profile", "paper",
                 "--steps", "2", "--eval-every", "1", "--hidden", "8",
                 "--dump-predictions-every", "1", "--tau", "0.3", "--tau2", "0.2"])


class TestPixelDatasets:
    def test_gen_data_writes_u1_payload(self, image_files):
        for path in image_files:
            assert path.read_bytes().startswith(b"copseudo-ds v3 ")
            assert load_dataset(path).storage == "u1"

    def test_v2_and_u1_inputs_train_identically(self, image_files, tmp_path):
        # the same images as float64 rows in a v2 file, as earlier versions
        # of gen-data wrote them
        v2_files = []
        for path in image_files:
            ds = load_dataset(path)
            v2 = tmp_path / f"v2-{path.name}"
            save_dataset(MaskedDataset(ds.features, ds.eval_labels(), ds.missing,
                                       ds.num_classes, ds.feature_shape), v2)
            assert v2.read_bytes().startswith(b"copseudo-ds v2 ")
            v2_files.append(v2)
        assert image_train(*image_files, tmp_path / "run-u1") == 0
        assert image_train(*v2_files, tmp_path / "run-v2") == 0
        u1_tree = tree_bytes(tmp_path / "run-u1")
        assert "predictions-step2.csv" in u1_tree
        assert u1_tree == tree_bytes(tmp_path / "run-v2")

    def test_train_and_select_never_build_the_full_matrix(self, image_files,
                                                          tmp_path, monkeypatch):
        full = MaskedDataset.features

        def guarded(ds):
            if ds.storage == "u1":
                raise AssertionError("built the full float64 feature matrix")
            return full.fget(ds)

        monkeypatch.setattr(MaskedDataset, "features", property(guarded))
        run = tmp_path / "run"
        assert image_train(*image_files, run) == 0
        out = tmp_path / "selected.ds"
        assert main(["select-subset", "--data", str(image_files[0]),
                     "--ckpt", str(run / "ckpt-model1-step2"),
                     "--ckpt", str(run / "ckpt-model2-step2"),
                     "--epsilon", "1", "--out", str(out)]) == 0
        monkeypatch.undo()
        before, after = load_dataset(image_files[0]), load_dataset(out)
        assert after.storage == "u1" and after.num_missing < before.num_missing
        np.testing.assert_array_equal(after.features, before.features)
        assert out.read_bytes().startswith(b"copseudo-ds v3 ")

    def test_malformed_u1_file_exits_3_naming_it(self, image_files, tmp_path,
                                                 capsys):
        train, test = image_files
        bad = tmp_path / "cut.ds"
        bad.write_bytes(train.read_bytes()[:-1])
        assert image_train(bad, test, tmp_path / "run") == 3
        assert str(bad) in capsys.readouterr().err


PAIR_EXAMPLES = """\
item,model,p0,p1,p2
0,1,0.97,0.02,0.01
0,2,0.96,0.03,0.01
1,1,0.97,0.02,0.01
1,2,0.50,0.45,0.05
2,1,0.80,0.15,0.05
2,2,0.78,0.12,0.10
3,1,0.80,0.15,0.05
3,2,0.10,0.78,0.12
4,1,0.96,0.02,0.02
4,2,0.01,0.97,0.02
5,1,0.50,0.45,0.05
5,2,0.02,0.97,0.01
"""


class TestFuseTrace:
    def trace(self, tmp_path, text=PAIR_EXAMPLES, extra=(), seed="0"):
        src = tmp_path / "preds.csv"
        src.write_text(text)
        out = tmp_path / "trace.csv"
        code = main(["fuse-trace", str(src), "--seed", seed, "--out",
                     str(out), *extra])
        return code, out

    def test_documented_pair_decisions(self, tmp_path):
        code, out = self.trace(tmp_path)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("item,pseudo_label,source,source_model,"
                            "source_level,mask_m1,mask_m2")
        rows = [line.split(",") for line in lines[1:]]
        assert rows[0] == ["0", "0", "both_confident_agree", "", "",
                           "0.75", "0.75"]
        assert rows[1] == ["1", "0", "own_confident", "1", "", "0.75", "1"]
        assert rows[2] == ["2", "0", "consensus", "", "2", "1", "1"]
        assert rows[3] == ["3", "", "none", "", "", "0", "0"]
        assert rows[4][2] == "conflict_coin_flip"
        assert rows[4][1] in ("0", "1")
        assert rows[5] == ["5", "1", "own_confident", "2", "", "1", "0.75"]

    def test_coin_flip_matches_direct_call(self, tmp_path):
        code, out = self.trace(tmp_path, seed="123")
        assert code == 0
        row4 = out.read_text().strip().split("\n")[5].split(",")
        want = fuse_pair((0.96, 0.02, 0.02), (0.01, 0.97, 0.02),
                         FusionConfig(),
                         np.random.default_rng([123, 1, 4]))
        assert row4[1] == str(want.pseudo_label)
        assert row4[3] == str(want.source_model)

    def test_deterministic(self, tmp_path):
        _, out_a = self.trace(tmp_path)
        bytes_a = out_a.read_bytes()
        _, out_b = self.trace(tmp_path)
        assert bytes_a == out_b.read_bytes()

    def test_stdout_when_no_out(self, tmp_path, capsys):
        src = tmp_path / "preds.csv"
        src.write_text(PAIR_EXAMPLES)
        assert main(["fuse-trace", str(src), "--seed", "0"]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("item,pseudo_label,")
        assert len(stdout.strip().split("\n")) == 7

    def test_empty_input(self, tmp_path, capsys):
        code, _ = self.trace(tmp_path, text="item,model,p0,p1,p2\n")
        assert code == 3
        assert "no items" in capsys.readouterr().err

    def test_field_count_error_names_line(self, tmp_path, capsys):
        bad = "item,model,p0,p1,p2\n0,1,0.97,0.02,0.01\n0,2,0.96,0.03\n"
        code, _ = self.trace(tmp_path, text=bad)
        assert code == 3
        assert ":3:" in capsys.readouterr().err

    def test_bad_number_names_line(self, tmp_path, capsys):
        bad = "item,model,p0,p1,p2\n0,1,0.97,oops,0.01\n"
        code, _ = self.trace(tmp_path, text=bad)
        assert code == 3
        assert ":2:" in capsys.readouterr().err

    def test_incomplete_item_rejected(self, tmp_path, capsys):
        bad = ("item,model,p0,p1,p2\n0,1,0.97,0.02,0.01\n0,2,0.96,0.03,0.01\n"
               "1,1,0.97,0.02,0.01\n")
        code, _ = self.trace(tmp_path, text=bad)
        assert code == 3
        assert "expected 1..2" in capsys.readouterr().err

    def test_duplicate_row_rejected(self, tmp_path, capsys):
        bad = "item,model,p0,p1,p2\n0,1,0.97,0.02,0.01\n0,1,0.97,0.02,0.01\n"
        code, _ = self.trace(tmp_path, text=bad)
        assert code == 3
        assert "duplicate" in capsys.readouterr().err

    def test_bad_header(self, tmp_path, capsys):
        code, _ = self.trace(tmp_path, text="a,b,c\n")
        assert code == 3
        assert "expected header" in capsys.readouterr().err

    def test_seed_required(self, tmp_path, capsys):
        src = tmp_path / "preds.csv"
        src.write_text(PAIR_EXAMPLES)
        assert main(["fuse-trace", str(src)]) == 2
        assert "seed required" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        code, out = self.trace(tmp_path, seed="-1")
        assert code == 2
        assert "--seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_step_is_config_error(self, tmp_path, capsys):
        code, out = self.trace(tmp_path, extra=("--step", "-1"))
        assert code == 2
        assert "--step must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_item_id_names_line(self, tmp_path, capsys):
        # no item reaches a coin flip, so only the parser can reject it
        text = ("item,model,p0,p1,p2\n0,1,0.97,0.02,0.01\n0,2,0.96,0.03,0.01\n"
                "-3,1,0.50,0.45,0.05\n-3,2,0.50,0.45,0.05\n")
        code, out = self.trace(tmp_path, text=text)
        assert code == 3
        assert ":4: negative item id -3" in capsys.readouterr().err
        assert not out.exists()

    def test_non_ascii_dump_names_file(self, tmp_path, capsys):
        src = tmp_path / "preds.csv"
        src.write_bytes(PAIR_EXAMPLES.encode("ascii").replace(b"0.97", b"0.9\xff"))
        out = tmp_path / "trace.csv"
        code = main(["fuse-trace", str(src), "--seed", "0", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(src) in err and "0xff" in err
        assert not out.exists()

    def test_single_model_mode_needs_one_model_file(self, tmp_path, capsys):
        code, _ = self.trace(tmp_path, extra=("--single-model-mode",))
        assert code == 2
        assert "one model" in capsys.readouterr().err

    def test_single_model_file(self, tmp_path):
        text = ("item,model,p0,p1,p2\n0,1,0.97,0.02,0.01\n"
                "1,1,0.50,0.45,0.05\n")
        code, out = self.trace(tmp_path, text=text,
                               extra=("--single-model-mode",))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("item,pseudo_label,source,source_model,"
                            "source_level,mask_m1")
        assert lines[1] == "0,0,own_confident,1,,1"
        assert lines[2] == "1,,none,,,0"

    def test_three_model_cascade(self, tmp_path):
        text = ("item,model,p0,p1,p2\n"
                "0,1,0.80,0.15,0.05\n0,2,0.78,0.12,0.10\n0,3,0.76,0.14,0.10\n")
        code, out = self.trace(tmp_path, text=text,
                               extra=("--tau-cascade", "0.75,0.6"))
        assert code == 0
        cfg = FusionConfig(num_models=3, tau_cascade=(0.75, 0.6))
        want = fuse_cascade([(0.80, 0.15, 0.05), (0.78, 0.12, 0.10),
                             (0.76, 0.14, 0.10)], cfg,
                            np.random.default_rng([0, 1, 0]))
        row = out.read_text().strip().split("\n")[1].split(",")
        assert row == ["0", str(want.pseudo_label), want.source, "",
                       str(want.source_level), "1", "1", "1"]

    def test_missing_file(self, tmp_path):
        code = main(["fuse-trace", str(tmp_path / "nope.csv"), "--seed", "0"])
        assert code == 3


class TestTraceReproducesRun:
    def test_dumped_predictions_refuse_to_same_mask_ratio(self, tmp_path):
        train_f = gen_synth(tmp_path / "train.txt", classes=3, per_class=12,
                            labeled=8, seed=11)
        test_f = gen_synth(tmp_path / "test.txt", classes=3, per_class=5,
                           seed=12)
        run_dir = tmp_path / "run"
        code = main(["train", "--data", str(train_f), "--test", str(test_f),
                     "--out", str(run_dir), "--seed", "11", "--models", "2",
                     "--steps", "1", "--eval-every", "1", "--batch-size", "2",
                     "--mu", "2.0", "--hidden", "4",
                     "--dump-predictions-every", "1"])
        assert code == 0
        resolved = dict(
            line.split("=", 1)
            for line in (run_dir / "config.resolved").read_text().split("\n")
            if line)
        fusion_seed = resolved["seed.fusion"]
        trace_out = tmp_path / "trace.csv"
        code = main(["fuse-trace", str(run_dir / "predictions-step1.csv"),
                     "--seed", fusion_seed, "--step", "1", "--out",
                     str(trace_out)])
        assert code == 0
        rows = [line.split(",")
                for line in trace_out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 4
        traced_ratio = sum(1 for r in rows if r[1] != "") / len(rows)
        metrics = read_csv(run_dir / "metrics.csv")
        step_one = [r for r in metrics.rows if r.step == 1][0]
        assert step_one.mask_ratio == traced_ratio


class TestSelectSubset:
    def dataset(self, tmp_path):
        return gen_synth(tmp_path / "pool.txt", per_class=10, labeled=12,
                         seed=3)

    def save_model(self, tmp_path, name, seed):
        params = init_model((2, 8, 4), seed=seed)
        path = tmp_path / name
        save_checkpoint(params, path)
        return path

    def test_identical_models_select_everything(self, tmp_path, capsys):
        data = self.dataset(tmp_path)
        ckpt_a = self.save_model(tmp_path, "a.ckpt", seed=0)
        ckpt_b = self.save_model(tmp_path, "b.ckpt", seed=0)
        out = tmp_path / "selected.txt"
        report = tmp_path / "report.csv"
        code = main(["select-subset", "--data", str(data), "--ckpt",
                     str(ckpt_a), "--ckpt", str(ckpt_b), "--epsilon", "0",
                     "--out", str(out), "--report", str(report)])
        assert code == 0
        assert "selected 28 of 28" in capsys.readouterr().out
        ds = load_dataset(out)
        assert ds.num_missing == 0
        lines = report.read_text().strip().split("\n")
        assert lines[0] == "item,selected,same_argmax,agreement,label"
        assert len(lines) == 29
        assert all(line.split(",")[1] == "1" for line in lines[1:])
        assert all(line.split(",")[3] == "0" for line in lines[1:])

    def test_select_then_retrain(self, tmp_path):
        data = self.dataset(tmp_path)
        ckpt_a = self.save_model(tmp_path, "a.ckpt", seed=0)
        ckpt_b = self.save_model(tmp_path, "b.ckpt", seed=1)
        out = tmp_path / "selected.txt"
        report = tmp_path / "report.csv"
        code = main(["select-subset", "--data", str(data), "--ckpt",
                     str(ckpt_a), "--ckpt", str(ckpt_b), "--epsilon", "1.0",
                     "--out", str(out), "--report", str(report)])
        assert code == 0
        before = load_dataset(data)
        after = load_dataset(out)
        # disagreeing models leave a genuine split
        assert before.num_observed < after.num_observed < len(after)
        # promoted items carry the models' agreed label in the container
        lines = report.read_text().strip().split("\n")[1:]
        for line in lines:
            item, selected, same_argmax, _, label = line.split(",")
            if selected == "1":
                assert same_argmax == "1"
                assert after.missing[int(item)] == 0
                assert after.eval_labels([int(item)])[0] == int(label)
            else:
                assert after.missing[int(item)] == 1
        test_f = gen_synth(tmp_path / "test.txt", per_class=5, seed=9)
        assert quick_train(out, test_f, tmp_path / "retrain") == 0

    def test_mixed_hidden_widths_match_one_model_path(self, tmp_path,
                                                      monkeypatch):
        # checkpoints of different hidden widths go through separate stacks;
        # the files written equal those of one forward pass per model
        data = self.dataset(tmp_path)
        wide, narrow = tmp_path / "wide.ckpt", tmp_path / "narrow.ckpt"
        save_checkpoint(init_model((2, 32, 4), seed=0), wide)
        save_checkpoint(init_model((2, 16, 4), seed=1), narrow)

        def select(name):
            out, report = tmp_path / f"{name}.ds", tmp_path / f"{name}.csv"
            code = main(["select-subset", "--data", str(data), "--ckpt",
                         str(wide), "--ckpt", str(narrow), "--epsilon", "1.0",
                         "--out", str(out), "--report", str(report)])
            assert code == 0
            return out.read_bytes(), report.read_bytes()

        stacked = select("stacked")
        monkeypatch.setattr(
            cli_mod, "predict_models",
            lambda models, xs: [reference_predict_proba(m, xs) for m in models])
        assert stacked == select("one-model")
        before, after = load_dataset(data), load_dataset(tmp_path / "stacked.ds")
        assert before.num_observed < after.num_observed < len(after)

    def test_fully_observed_input_rejected(self, tmp_path, capsys):
        data = gen_synth(tmp_path / "full.txt", per_class=5, seed=3)
        ckpt = self.save_model(tmp_path, "a.ckpt", seed=0)
        code = main(["select-subset", "--data", str(data), "--ckpt",
                     str(ckpt), "--ckpt", str(ckpt), "--epsilon", "0",
                     "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "no unlabeled" in capsys.readouterr().err

    def test_needs_two_checkpoints(self, tmp_path, capsys):
        data = self.dataset(tmp_path)
        ckpt = self.save_model(tmp_path, "a.ckpt", seed=0)
        code = main(["select-subset", "--data", str(data), "--ckpt",
                     str(ckpt), "--epsilon", "0",
                     "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "two" in capsys.readouterr().err

    def test_arch_mismatch_rejected(self, tmp_path, capsys):
        data = self.dataset(tmp_path)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(init_model((3, 8, 4), seed=0), bad)
        good = self.save_model(tmp_path, "a.ckpt", seed=0)
        code = main(["select-subset", "--data", str(data), "--ckpt",
                     str(bad), "--ckpt", str(good), "--epsilon", "0",
                     "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "input features" in capsys.readouterr().err


class TestCompareCommand:
    def test_run_against_itself(self, synth_files, tmp_path, capsys):
        train_f, test_f = synth_files
        run_dir = tmp_path / "run"
        assert quick_train(train_f, test_f, run_dir) == 0
        capsys.readouterr()
        out = tmp_path / "cmp.csv"
        code = main(["compare", str(run_dir), str(run_dir), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "final step 4" in stdout
        assert stdout.count("+0.000000") == 4
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "metric,final_delta,best_delta"
        assert lines[1] == "test_acc,0,0"
        assert lines[2] == "mask_ratio,0,0"

    def test_two_runs_match_library_result(self, synth_files, tmp_path, capsys):
        train_f, test_f = synth_files
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        assert quick_train(train_f, test_f, run_a) == 0
        assert quick_train(train_f, test_f, run_b,
                           extra=("--lambda-u", "0.5")) == 0
        capsys.readouterr()
        assert main(["compare", str(run_a), str(run_b)]) == 0
        stdout = capsys.readouterr().out
        want = compare_runs(read_csv(run_a / "metrics.csv"),
                            read_csv(run_b / "metrics.csv"))
        assert f"{want.final_acc_delta:+.6f}" in stdout
        assert f"{want.best_mask_delta:+.6f}" in stdout

    def test_missing_metrics(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = main(["compare", str(tmp_path / "empty"),
                     str(tmp_path / "empty")])
        assert code == 3
        assert "missing metrics file" in capsys.readouterr().err

    def test_non_ascii_metrics_names_file(self, synth_files, tmp_path, capsys):
        train_f, test_f = synth_files
        run_dir = tmp_path / "run"
        assert quick_train(train_f, test_f, run_dir) == 0
        metrics = run_dir / "metrics.csv"
        metrics.write_bytes(metrics.read_bytes() + b"\xff\n")
        capsys.readouterr()
        code = main(["compare", str(run_dir), str(run_dir)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(metrics) in err and "0xff" in err

    def test_disjoint_grids(self, tmp_path, capsys):
        header = ("step,test_acc,test_loss,train_loss_m1,mask_ratio,"
                  "pseudo_acc,src_both,src_conflict,src_own,src_consensus,"
                  "src_none\n")
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        (a / "metrics.csv").write_text(header + "1,0.5,1,1,0,1,0,0,0,0,8\n")
        (b / "metrics.csv").write_text(header + "2,0.5,1,1,0,1,0,0,0,0,8\n")
        assert main(["compare", str(a), str(b)]) == 2
        assert "disjoint" in capsys.readouterr().err


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The launcher text pip writes for a [project.scripts] entry.
SCRIPT_TEMPLATE = r'''# -*- coding: utf-8 -*-
import re
import sys
from %(module)s import %(import_name)s
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\.pyw|\.exe)?$', '', sys.argv[0])
    sys.exit(%(func)s())
'''


def declared_scripts():
    """The [project.scripts] table of the repository's pyproject.toml."""
    text = PYPROJECT.read_text()
    try:
        import tomllib
    except ImportError:  # Python 3.10: read the table's `name = "value"` lines
        table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        return dict(re.findall(r'^([\w.-]+)\s*=\s*["\']([^"\']*)["\']',
                               table, re.M))
    return tomllib.loads(text)["project"]["scripts"]


class TestParserHygiene:
    def subparsers(self):
        parser = build_parser()
        actions = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
        assert len(actions) == 1
        return parser, actions[0].choices

    def test_command_set(self):
        _, choices = self.subparsers()
        assert sorted(choices) == ["compare", "fuse-trace", "gen-data",
                                   "select-subset", "train"]

    def test_every_flag_documented(self):
        parser, choices = self.subparsers()
        for name, sub in [("copseudo", parser)] + sorted(choices.items()):
            for action in sub._actions:
                if isinstance(action, argparse._SubParsersAction):
                    continue
                assert action.help, f"{name}: {action.dest} lacks help text"

    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["train", "--help"]) == 0
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_console_script_installed(self, tmp_path):
        # Builds, from pyproject.toml, the launcher an installer writes for
        # the declared script, so the check needs no installed package.
        module, _, func = declared_scripts()["copseudo"].partition(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "copseudo"
        script.write_text(f"#!{sys.executable}\n" + SCRIPT_TEMPLATE % dict(
            module=module, import_name=func.split(".")[0], func=func))
        script.chmod(0o755)
        env = dict(os.environ,
                   PATH=os.pathsep.join([str(bin_dir), os.environ["PATH"]]),
                   PYTHONPATH=str(Path(copseudo.__file__).parents[1]))
        result = subprocess.run(["copseudo", "--help"], capture_output=True,
                                text=True, env=env)
        assert result.returncode == 0
        assert "gen-data" in result.stdout

    @pytest.mark.skipif(shutil.which("copseudo") is None,
                        reason="no installed copseudo executable on PATH")
    def test_installed_executable(self):
        result = subprocess.run(["copseudo", "--help"], capture_output=True,
                                text=True)
        assert result.returncode == 0
        assert "gen-data" in result.stdout
