"""The training objective's config and inverse-propensity baseline losses.

``ObjectiveConfig`` holds the weight λ_u of the unlabeled term in the
FixMatch objective ℓ_s + λ_u·ℓ_u and the batch shapes; ``trainer``
computes both terms with ``ModelStack.loss_and_grad``, and
``supervised_loss`` scores a test set.  The baseline path (cap_loss /
cai_loss) implements propensity-corrected and confidence-gated losses
over a mixed labeled/unlabeled set; these are verified formula
implementations used for diagnostics, not wired into the training loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_PROB_FLOOR = 1e-300  # keeps log() finite; -log(floor) ~ 690


@dataclass(frozen=True)
class ObjectiveConfig:
    """The unlabeled term's weight and the batch shapes of the objective."""

    lambda_u: float = 1.0
    mu: float = 7.0
    batch_size: int = 64

    def __post_init__(self):
        problems = []
        if not (self.lambda_u >= 0 and math.isfinite(self.lambda_u)):
            problems.append("lambda_u must be a non-negative finite real")
        mu_ok = self.mu > 0 and math.isfinite(self.mu)
        if not mu_ok:
            problems.append("mu must be a positive finite real")
        if not (isinstance(self.batch_size, int) and self.batch_size >= 1):
            problems.append("batch_size must be a positive integer")
        elif mu_ok:
            mu_b = self.mu * self.batch_size
            if (not math.isfinite(mu_b) or abs(mu_b - round(mu_b)) > 1e-9
                    or round(mu_b) < 1):
                problems.append("mu * batch_size must be a positive integer")
        if problems:
            raise ConfigError("invalid objective config: " + "; ".join(problems))

    @property
    def unlabeled_batch_size(self) -> int:
        return int(round(self.mu * self.batch_size))


def supervised_loss(probs, labels) -> float:
    """Mean cross-entropy of predicted distributions against known labels."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ConfigError("supervised_loss needs a non-empty batch")
    if labels.shape != (probs.shape[0],):
        raise ConfigError("labels must match the batch length")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ConfigError("label out of range")
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, _PROB_FLOOR)).mean())


@dataclass(frozen=True)
class CadrInputs:
    """Per-item ingredients for the baseline losses.

    ``missing`` is 1 where the label is hidden.  ``propensity`` is the
    per-item probability of being labeled; ``confidence`` and
    ``threshold`` gate the unlabeled term; ``sup_losses`` / ``unsup_losses``
    are caller-computed per-item loss values (any loss works; the gating
    and weighting here do not depend on the choice).
    """

    missing: np.ndarray
    sup_losses: np.ndarray
    propensity: np.ndarray
    unsup_losses: np.ndarray
    confidence: np.ndarray
    threshold: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("missing", "sup_losses", "propensity", "unsup_losses",
                     "confidence", "threshold"):
            arrays[name] = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arrays[name])
        n = arrays["missing"].shape
        if len(n) != 1 or n[0] == 0:
            raise ConfigError("CadrInputs needs non-empty 1-d arrays")
        if any(a.shape != n for a in arrays.values()):
            raise ConfigError("CadrInputs arrays must share one length")
        if not np.isin(arrays["missing"], (0.0, 1.0)).all():
            raise ConfigError("missing indicators must be 0 or 1")

    def __len__(self) -> int:
        return self.missing.shape[0]


def cap_loss(inputs: CadrInputs) -> float:
    """Propensity-corrected supervised loss over the observed items:
    mean over ALL items of (1 - r) * l_s / p."""
    observed = inputs.missing == 0.0
    if (inputs.propensity[observed] <= 0.0).any():
        raise ConfigError("propensity must be positive on observed items")
    terms = np.zeros(len(inputs))
    terms[observed] = inputs.sup_losses[observed] / inputs.propensity[observed]
    return float(terms.sum() / len(inputs))


def cai_loss(inputs: CadrInputs) -> float:
    """Confidence-gated unlabeled loss plus supervised loss, averaged over
    all items; the gate is strict (confidence must exceed the threshold)."""
    observed = inputs.missing == 0.0
    gate = inputs.confidence > inputs.threshold
    unsup = np.where(~observed & gate, inputs.unsup_losses, 0.0)
    sup = np.where(observed, inputs.sup_losses, 0.0)
    return float((unsup + sup).sum() / len(inputs))
