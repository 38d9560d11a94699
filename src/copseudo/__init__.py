"""Multi-model confidence-cascade pseudo-labeling for semi-supervised
learning under labels that are not missing at random.

The pieces: ``data`` builds and masks datasets, ``augment`` provides
weak/strong views, ``predictor`` is a small from-scratch MLP whose
``ModelStack``, the one model API, trains and evaluates the n models as
one set of stacked tensors, ``fusion`` turns per-model predictions into
pseudo-labels and loss masks, ``losses`` holds the objective's config
and the baseline losses, ``trainer`` runs the lock-step multi-model
loop, ``metrics`` records and compares runs, and ``cli`` wires it all
into a command-line tool.
"""
from .augment import AugmentConfig, AugmentStream
from .data import (
    MaskedDataset,
    MissingnessSpec,
    SyntheticSpec,
    apply_missingness,
    generate_synthetic,
    geometric_retention,
    load_cifar10,
    load_dataset,
    save_dataset,
)
from .errors import ConfigError, CopseudoError, DataError, DivergenceError, TaintError
from .fusion import (
    DebiasSubset,
    FusionConfig,
    FusionDecision,
    fuse_cascade,
    fuse_pair,
    fuse_single,
    select_debias_subset,
)
from .losses import (
    CadrInputs,
    ObjectiveConfig,
    cai_loss,
    cap_loss,
    supervised_loss,
)
from .metrics import MetricsRow, RunComparison, RunMetrics, compare_runs, read_csv
from .predictor import (
    ModelParams,
    ModelStack,
    init_model,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
)
from .trainer import (
    SeedPlan,
    TrainConfig,
    TrainerState,
    evaluate,
    train,
    train_step,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentConfig",
    "AugmentStream",
    "CadrInputs",
    "ConfigError",
    "CopseudoError",
    "DataError",
    "DebiasSubset",
    "DivergenceError",
    "FusionConfig",
    "FusionDecision",
    "MaskedDataset",
    "MetricsRow",
    "MissingnessSpec",
    "ModelParams",
    "ModelStack",
    "ObjectiveConfig",
    "RunComparison",
    "RunMetrics",
    "SeedPlan",
    "SyntheticSpec",
    "TaintError",
    "TrainConfig",
    "TrainerState",
    "apply_missingness",
    "cai_loss",
    "cap_loss",
    "compare_runs",
    "evaluate",
    "fuse_cascade",
    "fuse_pair",
    "fuse_single",
    "generate_synthetic",
    "geometric_retention",
    "init_model",
    "load_checkpoint",
    "load_cifar10",
    "load_dataset",
    "loss_and_grad",
    "read_csv",
    "save_checkpoint",
    "save_dataset",
    "select_debias_subset",
    "supervised_loss",
    "train",
    "train_step",
]
