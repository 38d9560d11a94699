"""Command-line front end.

Subcommands: ``gen-data`` (synthetic or CIFAR-10 datasets with optional
label hiding), ``train`` (the multi-model loop), ``fuse-trace`` (offline
re-execution of fusion on a predictions dump, read and checked by
``trainer.read_predictions``), ``select-subset`` (agreement-based
pseudo-label promotion, the first half of a select-then-retrain recipe),
and ``compare`` (delta report between two runs).

The config classes hold every setting of a run and its default:
``train`` and ``fuse-trace`` pass a class only the fields a flag or the
config file set, and ``--help`` reads each default off the class.

Seeds are always explicit; nothing is seeded from the clock.  Exit
codes: 0 success, 2 bad configuration, 3 bad data, 4 runtime failure,
including a training run that diverged (``DivergenceError``).
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .augment import AugmentConfig
from .data import (
    MissingnessSpec,
    SyntheticSpec,
    apply_missingness,
    generate_synthetic,
    geometric_retention,
    load_cifar10,
    load_dataset,
    save_dataset,
)
from .errors import ConfigError, DataError
from .fusion import FusionConfig, fuse_batch, select_debias_subset
from .losses import ObjectiveConfig
from .metrics import METRICS_FILENAME, compare_runs, read_csv
from .predictor import load_checkpoint, predict_models
from .trainer import SeedPlan, TrainConfig, read_predictions, train

# profile presets: "paper" mirrors the image-benchmark hyperparameters,
# "desk" shrinks the batch geometry for laptop-scale experiments
PROFILES = {
    "desk": {"mu": 4.0, "batch_size": 16},
    "paper": {"mu": 7.0, "batch_size": 64},
}
DEFAULT_PROFILE = "paper"
# a model that decides alone gives its confident items full weight
SINGLE_MODEL_PSEUDO_WEIGHT = 1.0


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


# how a flag or config-file value is read, by the annotation of its field
_CASTS = {"int": int, "float": float, "bool": _parse_bool,
               "tuple[int, ...]": _int_list, "tuple[float, ...]": _float_list}


def _default(cls, name: str) -> str:
    """The class default of a config field, as ``--help`` shows it."""
    value = getattr(cls, name)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else str(value)


def parse_kv(flag: str, tokens, casts: dict) -> dict:
    """KEY=VALUE token list -> dict, casting per key."""
    out = {}
    for token in tokens:
        if "=" not in token:
            raise ConfigError(f"{flag} expects KEY=VALUE tokens, got {token!r}")
        key, value = token.split("=", 1)
        if key not in casts:
            known = ", ".join(sorted(casts))
            raise ConfigError(f"{flag} got unknown key {key!r} (known: {known})")
        if key in out:
            raise ConfigError(f"{flag} got duplicate key {key!r}")
        try:
            out[key] = casts[key](value)
        except ValueError:
            raise ConfigError(f"{flag} {key}: cannot parse {value!r}") from None
    return out


def read_config_file(path) -> dict:
    """Flat key=value file; '#' starts a comment."""
    if not os.path.isfile(path):
        raise ConfigError(f"missing config file: {path}")
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    out = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


class Resolver:
    """Per-key precedence: command-line flag > config file > class default."""

    def __init__(self, args, file_cfg: dict):
        self._args = args
        self._file = file_cfg
        self._consumed = set()

    def get(self, key: str, cast, default=None):
        """The flag's or the config file's value of ``key``, else default."""
        self._consumed.add(key)
        flag_value = getattr(self._args, key.replace(".", "_"))
        if flag_value is not None:
            return flag_value
        if key in self._file:
            try:
                return cast(self._file[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from None
        return default

    def fields(self, cls, prefix: str = "", skip=()) -> dict:
        """Keywords for config class ``cls``: each field, bar ``skip``,
        whose key ``prefix + name`` a flag or the config file set."""
        kw = {}
        for f in dataclasses.fields(cls):
            if f.name not in skip:
                value = self.get(prefix + f.name, _CASTS[f.type])
                if value is not None:
                    kw[f.name] = value
        return kw

    def reject_unknown_keys(self) -> None:
        unknown = sorted(set(self._file) - self._consumed)
        if unknown:
            raise ConfigError(
                f"unknown config keys: {', '.join(unknown)} (known: "
                f"{', '.join(sorted(self._consumed))})")


def _field_flag(parser, cls, name: str, help: str, flag=None,
                shown=None, **kw) -> None:
    """A flag for config field ``cls.name``, typed by the field's annotation,
    whose help ends in the class default (or ``shown``)."""
    kind = {f.name: f.type for f in dataclasses.fields(cls)}[name]
    if kind == "bool":
        kw.update(nargs="?", const=True, metavar="true|false")
    parser.add_argument(flag or "--" + name.replace("_", "-"),
                        type=_CASTS[kind], default=None, **kw,
                        help=f"{help} (default {shown or _default(cls, name)})")


def _add_fusion_flags(parser) -> None:
    _field_flag(parser, FusionConfig, "tau", "confidence threshold for a "
                "model's own pseudo-label proposal")
    parser.add_argument("--tau2", type=float, default=None,
                        help="two-model consensus threshold, shorthand for a "
                             "one-entry --tau-cascade (default "
                             f"{_default(FusionConfig, 'tau_cascade')})")
    parser.add_argument("--tau-cascade", type=_float_list, default=None,
                        metavar="T2,T3,...",
                        help="consensus thresholds for levels 2..n, "
                             "non-ascending, all below --tau; required when "
                             "--models >= 3")
    _field_flag(parser, FusionConfig, "pseudo_weight", "loss weight of "
                "threshold-passed pseudo-labels; unless given, "
                f"{SINGLE_MODEL_PSEUDO_WEIGHT} in single-model mode")
    _field_flag(parser, FusionConfig, "single_model_mode", "score each model "
                "against its own threshold only; no cross-model fusion")
    _field_flag(parser, FusionConfig, "conflict_drop", "discard items whose "
                "confident models disagree instead of settling them with a "
                "coin flip")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copseudo",
        description="Multi-model confidence-cascade pseudo-labeling for "
                    "semi-supervised training with non-random missing labels.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    g = sub.add_parser(
        "gen-data",
        help="generate a dataset file, optionally hiding labels",
        description="Write a dataset container from synthetic Gaussian "
                    "classes or CIFAR-10 binary batches, with labels hidden "
                    "uniformly (--mcar) or by class-dependent retention "
                    "(--mnar). One seed drives generation and hiding through "
                    "derived substreams.")
    g.add_argument("--synthetic", nargs="+", metavar="KEY=VALUE", default=None,
                   help="synthetic source: C=<classes> n=<per-class count> "
                        "[d=2] [sep=3.0] [sigma=0.5]")
    g.add_argument("--cifar10", metavar="DIR", default=None,
                   help="directory holding the CIFAR-10 binary batch files")
    g.add_argument("--split", choices=("train", "test"), default="train",
                   help="CIFAR-10 split to load (default train)")
    g.add_argument("--mcar", type=int, metavar="L", default=None,
                   help="keep exactly L labels, hide the rest uniformly")
    g.add_argument("--mnar", nargs="+", metavar="KEY=VALUE", default=None,
                   help="class-dependent retention: p0=<rate> with "
                        "ptail=<rate> or gamma=<ratio>, or an explicit "
                        "retention=<r0,r1,...> list")
    g.add_argument("--seed", type=int, default=None,
                   help="random seed (required; never defaulted)")
    g.add_argument("--out", required=True, help="output dataset file")

    t = sub.add_parser(
        "train",
        help="run the multi-model training loop",
        description="Train n models in lock step with fused pseudo-labels "
                    "and write a run directory (resolved config, metrics "
                    "CSV, plot columns, checkpoints). Flags beat config-file "
                    "keys beat defaults.")
    t.add_argument("--config", default=None, metavar="FILE",
                   help="flat key=value config file; a key is its flag's "
                        "name without the leading --, with _ for - and aug. "
                        "for --aug- (e.g. models=2, eval_every=5, "
                        "aug.sigma_weak=0.05)")
    t.add_argument("--data", default=None, help="training dataset file")
    t.add_argument("--test", default=None, help="held-out dataset file "
                   "(fully observed)")
    t.add_argument("--out", default=None, help="run directory to create")
    t.add_argument("--seed", type=int, default=None,
                   help="master seed; every stream seed derives from it "
                        "(required)")
    _field_flag(t, TrainConfig, "num_models", "number of models trained in "
                "lock step", flag="--models")
    _field_flag(t, TrainConfig, "steps", "optimizer steps; 0 just records the "
                "initial evaluation")
    _field_flag(t, TrainConfig, "eval_every", "steps between metric rows")
    _field_flag(t, TrainConfig, "hidden", "hidden layer widths",
                metavar="H1,H2")
    presets = "; ".join(f"{name}: mu={p['mu']:g}, B={p['batch_size']}"
                        for name, p in PROFILES.items())
    t.add_argument("--profile", choices=tuple(PROFILES), default=None,
                   help=f"preset batch geometry ({presets}; default "
                        f"{DEFAULT_PROFILE})")
    _field_flag(t, ObjectiveConfig, "lambda_u", "unlabeled loss weight")
    _field_flag(t, ObjectiveConfig, "mu", "unlabeled batch multiplier",
                shown="per profile")
    _field_flag(t, ObjectiveConfig, "batch_size", "labeled batch size B",
                shown="per profile")
    _field_flag(t, TrainConfig, "lr", "learning rate")
    _field_flag(t, TrainConfig, "momentum", "SGD momentum")
    _field_flag(t, TrainConfig, "weight_decay", "L2 penalty folded into the "
                "update")
    _field_flag(t, TrainConfig, "cosine_lr", "cosine-decay the learning rate "
                "over the step budget")
    _field_flag(t, TrainConfig, "dump_predictions_every", "every K steps, dump "
                "the weak-view predictions the fusion saw, for offline "
                "fuse-trace replay; 0 is off", metavar="K")
    for name, help in (
            ("sigma_weak", "weak augmentation noise sigma for vector data"),
            ("sigma_strong", "strong augmentation noise sigma for vector data"),
            ("vector_drop_prob", "strong augmentation coordinate dropout "
                                 "probability"),
            ("image_shift_weak", "max pixel translation of weak image "
                                 "augmentation"),
            ("image_shift_strong", "max pixel translation of strong image "
                                   "augmentation")):
        _field_flag(t, AugmentConfig, name, help,
                    flag="--aug-" + name.replace("_", "-"))
    _add_fusion_flags(t)

    f = sub.add_parser(
        "fuse-trace",
        help="re-run fusion on a predictions CSV",
        description="Read item,model,p0.. rows and emit one fusion decision "
                    "per item. With the run's fusion seed and the dump's "
                    "step index, reproduces the in-run decisions exactly. "
                    "With --single-model-mode each model decides alone: "
                    "one row per (model, item) pair, all of model 1's "
                    "items first, with one mask column.")
    f.add_argument("predictions", help="predictions CSV (item,model,p0,...)")
    f.add_argument("--seed", type=int, default=None,
                   help="fusion seed (required)")
    f.add_argument("--step", type=int, default=1,
                   help="update index keying each item's random stream "
                        "(default 1; use the step number of a predictions "
                        "dump to replay its coin flips)")
    f.add_argument("--out", default=None,
                   help="output CSV (default: stdout)")
    _add_fusion_flags(f)

    s = sub.add_parser(
        "select-subset",
        help="promote agreed pseudo-labels to observed labels",
        description="Predict on every unlabeled item with two or more "
                    "checkpoints; items whose predictions share an argmax "
                    "and differ by at most epsilon (largest coordinate gap) "
                    "become observed with that label. The output dataset "
                    "feeds a fresh train run (select, then retrain).")
    s.add_argument("--data", required=True, help="input dataset file")
    s.add_argument("--ckpt", action="append", required=True, metavar="FILE",
                   help="model checkpoint; repeat for each model (>= 2)")
    s.add_argument("--epsilon", type=float, required=True,
                   help="max coordinate-wise disagreement between any two "
                        "models' predictions")
    s.add_argument("--out", required=True, help="output dataset file")
    s.add_argument("--report", default=None, metavar="FILE",
                   help="optional per-item CSV: item,selected,same_argmax,"
                        "agreement,label")

    c = sub.add_parser(
        "compare",
        help="delta report between two run directories",
        description="Align two runs' metrics on their common evaluation "
                    "steps and report treatment-minus-baseline deltas for "
                    "test accuracy and mask ratio, at the final common step "
                    "and at each run's best.")
    c.add_argument("baseline", help="baseline run directory")
    c.add_argument("treatment", help="treatment run directory")
    c.add_argument("--out", default=None, metavar="FILE",
                   help="also write the deltas as CSV")

    return parser


def _negative_values(named_values) -> list:
    """A problem for each (name, value) whose value is negative: seeds and
    steps key numpy seed sequences, which take no negative entropy."""
    return [f"{name} must be a non-negative integer, got {value}"
            for name, value in named_values if value < 0]


def _derived_seeds(seed: int, count: int) -> list:
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count)]


def cmd_gen_data(args) -> int:
    if (args.synthetic is None) == (args.cifar10 is None):
        raise ConfigError("choose exactly one source: --synthetic or --cifar10")
    if args.mcar is not None and args.mnar is not None:
        raise ConfigError("choose at most one of --mcar and --mnar")
    if args.seed is None:
        raise ConfigError("seed required")
    problems = _negative_values([("--seed", args.seed)])
    if problems:
        raise ConfigError("; ".join(problems))
    gen_seed, miss_seed = _derived_seeds(args.seed, 2)

    if args.synthetic is not None:
        kv = parse_kv("--synthetic", args.synthetic,
                      {"C": int, "n": int, "d": int, "sep": float,
                       "sigma": float})
        for req in ("C", "n"):
            if req not in kv:
                raise ConfigError(f"--synthetic needs {req}=<value>")
        spec = SyntheticSpec(num_classes=kv["C"], dim=kv.get("d", 2),
                             samples_per_class=kv["n"],
                             class_separation=kv.get("sep", 3.0),
                             noise_sigma=kv.get("sigma", 0.5))
        ds = generate_synthetic(spec, seed=gen_seed)
    else:
        ds = load_cifar10(args.cifar10, args.split)

    if args.mcar is not None:
        ds = apply_missingness(
            ds, MissingnessSpec.mcar(num_labeled=args.mcar, seed=miss_seed))
    elif args.mnar is not None:
        kv = parse_kv("--mnar", args.mnar,
                      {"p0": float, "ptail": float, "gamma": float,
                       "retention": _float_list})
        if "retention" in kv:
            if set(kv) != {"retention"}:
                raise ConfigError("--mnar retention=... excludes p0, ptail, "
                                  "and gamma")
            retention = kv["retention"]
        else:
            if "p0" not in kv:
                raise ConfigError("--mnar needs p0= (plus ptail= or gamma=) "
                                  "or retention=")
            if ("ptail" in kv) == ("gamma" in kv):
                raise ConfigError("--mnar needs exactly one of ptail= and "
                                  "gamma=")
            retention = geometric_retention(ds.num_classes, kv["p0"],
                                            gamma=kv.get("gamma"),
                                            p_tail=kv.get("ptail"))
        ds = apply_missingness(
            ds, MissingnessSpec.mnar(retention=retention, seed=miss_seed))

    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {len(ds)} samples, {ds.num_observed} observed, "
          f"{ds.num_classes} classes")
    return 0


def _fusion_kw(resolver, models: int, problems: list) -> dict:
    """FusionConfig keywords that train and fuse-trace share: the fields
    given, then the CLI's rules for the cascade and the pseudo-weight."""
    kw = resolver.fields(FusionConfig, skip=("tau_cascade", "num_models"))
    single = kw.get("single_model_mode", FusionConfig.single_model_mode)
    if single:
        kw.setdefault("pseudo_weight", SINGLE_MODEL_PSEUDO_WEIGHT)
    tau2 = resolver.get("tau2", float)
    cascade = resolver.get("tau_cascade", _float_list)
    if tau2 is not None and cascade is not None:
        problems.append("give --tau2 or --tau-cascade, not both")
    elif tau2 is not None:
        cascade = (tau2,)
    elif cascade is None and models != 2:
        # the class default is a two-model cascade; single-model mode never
        # consults it, and fewer models have none (cmd_train refuses < 1)
        cascade = ()
        if not (single or models <= 1):
            problems.append(f"a {models}-model cascade needs --tau-cascade "
                            f"with {models - 1} thresholds")
    if cascade is not None:
        kw["tau_cascade"] = cascade
    return dict(kw, num_models=models)


def cmd_train(args) -> int:
    file_cfg = read_config_file(args.config) if args.config else {}
    r = Resolver(args, file_cfg)
    paths = {key: r.get(key, str) for key in ("data", "test", "out")}
    problems = [f"--{key} is required" for key, path in paths.items()
                if path is None]
    seed = r.get("seed", int)
    if seed is None:
        problems.append("seed required")
    else:
        name = "--seed" if args.seed is not None else "config key seed"
        problems += _negative_values([(name, seed)])

    profile = r.get("profile", str, DEFAULT_PROFILE)
    if profile not in PROFILES:
        problems.append(f"unknown profile {profile!r} (choose desk or paper)")

    models = r.get("models", int, TrainConfig.num_models)
    if models < 1:
        name = "--models" if args.models is not None else "config key models"
        problems.append(f"{name} must be >= 1, got {models}")
    fusion_kw = _fusion_kw(r, models, problems)
    objective_kw = dict(PROFILES.get(profile, {}), **r.fields(ObjectiveConfig))
    aug_kw = r.fields(AugmentConfig, prefix="aug.")
    train_kw = r.fields(TrainConfig, skip=("seeds", "num_models", "fusion",
                                           "objective", "aug"))
    r.reject_unknown_keys()
    if problems:
        raise ConfigError("; ".join(problems))

    cfg = TrainConfig(seeds=SeedPlan.from_master(seed, models),
                      num_models=models, fusion=FusionConfig(**fusion_kw),
                      objective=ObjectiveConfig(**objective_kw),
                      aug=AugmentConfig(**aug_kw), **train_kw)
    out = train(cfg, load_dataset(paths["data"]), load_dataset(paths["test"]),
                paths["out"])
    metrics = read_csv(os.path.join(out, METRICS_FILENAME))
    last = metrics.rows[-1]
    print(f"run complete: {out}")
    print(f"final step {last.step}: test_acc {last.test_acc:.4f}, "
          f"mask_ratio {last.mask_ratio:.4f}, pseudo_acc {last.pseudo_acc:.4f}")
    return 0


def cmd_fuse_trace(args) -> int:
    if args.seed is None:
        raise ConfigError("seed required")
    problems = _negative_values([("--seed", args.seed), ("--step", args.step)])
    if problems:
        raise ConfigError("; ".join(problems))
    item_ids, probs = read_predictions(args.predictions)
    models = probs.shape[1]
    fusion_kw = _fusion_kw(Resolver(args, {}), models, problems)
    if problems:
        raise ConfigError("; ".join(problems))
    cfg = FusionConfig(**fusion_kw)
    fused = fuse_batch(probs.swapaxes(0, 1), cfg, args.seed, args.step,
                       items=item_ids)

    def blank_if_none(value):
        return "" if value is None else str(value)

    header = ["item", "pseudo_label", "source", "source_model", "source_level"]
    header += [f"mask_m{i + 1}" for i in range(fused.masks.shape[1])]
    lines = [",".join(header)]
    # single-model mode fuses (model, item) pairs, model-major
    for item, d in zip(item_ids * (len(fused) // len(item_ids)), fused):
        parts = [str(item), blank_if_none(d.pseudo_label), d.source,
                 blank_if_none(d.source_model), blank_if_none(d.source_level)]
        parts += [format(m, ".9g") for m in d.masks]
        lines.append(",".join(parts))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        labeled = int(np.count_nonzero(fused.labels >= 0))
        items = f"{len(item_ids)} items"
        if len(fused) != len(item_ids):  # single-model mode with n > 1
            items += f" x {models} models"
        print(f"wrote {args.out}: {items}, {labeled} labeled")
    else:
        sys.stdout.write(text)
    return 0


def cmd_select_subset(args) -> int:
    if len(args.ckpt) < 2:
        raise ConfigError("need at least two --ckpt checkpoints")
    ds = load_dataset(args.data)
    params = [load_checkpoint(p) for p in args.ckpt]
    for path, p in zip(args.ckpt, params):
        if p.arch[0] != ds.width:
            raise ConfigError(f"{path}: expects {p.arch[0]} input features, "
                              f"dataset has {ds.width}")
        if p.num_classes != ds.num_classes:
            raise ConfigError(f"{path}: predicts {p.num_classes} classes, "
                              f"dataset has {ds.num_classes}")
    missing = ds.missing_indices()
    if missing.size == 0:
        raise ConfigError("dataset has no unlabeled items to select from")
    preds = predict_models(params, ds, missing)
    subset = select_debias_subset(preds, args.epsilon)
    agreed = preds[0].argmax(axis=1)

    selected_rows = np.zeros(missing.size, dtype=bool)
    selected_rows[subset.selected] = True

    new_labels = ds.eval_labels()
    new_missing = np.array(ds.missing, dtype=np.uint8)
    chosen = missing[subset.selected]
    new_labels[chosen] = agreed[subset.selected]
    new_missing[chosen] = 0
    save_dataset(ds.with_labels(new_labels, new_missing), args.out)

    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write("item,selected,same_argmax,agreement,label\n")
            for row, item in enumerate(missing):
                label = str(agreed[row]) if selected_rows[row] else ""
                fh.write(f"{item},{int(selected_rows[row])},"
                         f"{int(subset.same_argmax[row])},"
                         f"{format(subset.agreement[row], '.9g')},{label}\n")
    print(f"selected {subset.selected.size} of {missing.size} unlabeled "
          f"items (epsilon {args.epsilon:g}); wrote {args.out}")
    return 0


def cmd_compare(args) -> int:
    baseline = read_csv(os.path.join(args.baseline, METRICS_FILENAME))
    treatment = read_csv(os.path.join(args.treatment, METRICS_FILENAME))
    result = compare_runs(baseline, treatment)
    rows = [("test_acc", result.final_acc_delta, result.best_acc_delta),
            ("mask_ratio", result.final_mask_delta, result.best_mask_delta)]
    print(f"aligned on {len(result.common_steps)} common steps, "
          f"final step {result.final_step}")
    print(f"{'metric':<12} {'final delta':>12} {'best delta':>12}")
    for name, final, best in rows:
        print(f"{name:<12} {final:>+12.6f} {best:>+12.6f}")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("metric,final_delta,best_delta\n")
            for name, final, best in rows:
                fh.write(f"{name},{format(final, '.9g')},"
                         f"{format(best, '.9g')}\n")
    return 0


_HANDLERS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "fuse-trace": cmd_fuse_trace,
    "select-subset": cmd_select_subset,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
