"""Release gate: one test per acceptance contract.

Each test prints a single verdict line with its measured numbers and then
asserts. Thresholds and runtime budgets are pinned; loosening them here
defeats the gate. The fusion, gradient, and loss checks compare against
independent oracles (tests/oracles.py or hand-computed fixtures), not
against the code under test.
"""

import math
import time

import numpy as np
from scipy.stats import binom

from copseudo.data import (MissingnessSpec, SyntheticSpec, apply_missingness,
                           generate_synthetic)
from copseudo.fusion import (SOURCE_BOTH, SOURCE_CONFLICT, SOURCE_CONSENSUS,
                             SOURCE_OWN, FusionConfig, fuse_cascade,
                             fuse_pair, select_debias_subset)
from copseudo.losses import (CadrInputs, ObjectiveConfig, cai_loss, cap_loss,
                             supervised_loss)
from copseudo.metrics import read_csv
from copseudo.predictor import init_model, loss_and_grad
from copseudo.trainer import SeedPlan, TrainConfig, fuse_batch, train
from oracles import fd_max_rel_error, peaked_vector, reference_pair_decision


def _verdict(num: int, claim: str, ok: bool, detail: str) -> None:
    print(f"[gate {num:02d}] {claim}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"gate {num:02d} {claim} ({detail})"


def _simplex(rng, num_classes: int, alpha: float) -> np.ndarray:
    return rng.dirichlet(np.full(num_classes, alpha))


# ---------------------------------------------------------------------------
# 1. Two-model fusion equals an independently written branch-table oracle.


def test_01_pair_fusion_matches_literal_branch_oracle():
    start = time.perf_counter()
    cfg = FusionConfig()  # tau 0.95, consensus threshold 0.75, weight 0.75
    tau, tau2, w = cfg.tau, cfg.tau_cascade[0], cfg.pseudo_weight

    # Grid of peaked vectors, including peaks exactly at both thresholds
    # (strict comparisons make those the sharp edges of the branch table).
    peak_values = [0.34, 0.40, 0.50, 0.60, 0.70, 0.74, 0.75, 0.7500001,
                   0.76, 0.90, 0.94, 0.95, 0.9500001, 0.97, 1.0]
    grid = [peaked_vector(3, cls, p) for p in peak_values for cls in range(3)]
    pairs = [(q1, q2) for q1 in grid for q2 in grid]

    rng = np.random.default_rng(20260816)
    class_counts = (2, 3, 4, 6)
    while len(pairs) < 10_500:
        c = class_counts[len(pairs) % len(class_counts)]
        alpha = 0.3 if len(pairs) % 2 else 3.0
        pairs.append((_simplex(rng, c, alpha), _simplex(rng, c, alpha)))

    mismatches = 0
    for i, (q1, q2) in enumerate(pairs):
        got = fuse_pair(q1, q2, cfg, np.random.default_rng([5150, i]))
        want_label, want_masks = reference_pair_decision(
            q1, q2, tau, tau2, w, np.random.default_rng([5150, i]))
        if got.pseudo_label != want_label or got.masks != want_masks:
            mismatches += 1
    elapsed = time.perf_counter() - start
    _verdict(1, "pair fusion matches the literal branch oracle",
             mismatches == 0 and elapsed < 5.0,
             f"{len(pairs)} pairs, {mismatches} mismatches, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. The n-model cascade collapses to pair fusion at n = 2.


def test_02_cascade_at_two_models_equals_pair_fusion():
    rng = np.random.default_rng(404)
    weight_choices = (0.5, 0.75, 1.0)
    mismatches = 0
    total = 10_000
    for i in range(total):
        c = int(rng.integers(2, 6))
        q1 = _simplex(rng, c, 0.4 if i % 2 else 2.0)
        q2 = _simplex(rng, c, 0.4 if i % 3 else 2.0)
        tau = float(rng.uniform(0.80, 0.99))
        tau2 = float(rng.uniform(0.40, tau - 0.05))
        cfg = FusionConfig(tau=tau, tau_cascade=(tau2,),
                           pseudo_weight=weight_choices[i % 3],
                           conflict_drop=bool(i % 5 == 0))
        s_pair = np.random.default_rng([606, i])
        s_casc = np.random.default_rng([606, i])
        d_pair = fuse_pair(q1, q2, cfg, s_pair)
        d_casc = fuse_cascade([q1, q2], cfg, s_casc)
        same_stream = s_pair.random() == s_casc.random()
        if d_pair != d_casc or not same_stream:
            mismatches += 1
    _verdict(2, "two-model cascade equals pair fusion",
             mismatches == 0, f"{total} random configs, {mismatches} mismatches")


# ---------------------------------------------------------------------------
# 3. The conflict coin flip is a fair coin.


def test_03_conflict_coin_flip_is_calibrated():
    cfg = FusionConfig()
    q1 = np.array([0.96, 0.02, 0.02])
    q2 = np.array([0.01, 0.97, 0.02])
    total = 10_000
    wins = 0
    for i in range(total):
        d = fuse_pair(q1, q2, cfg, np.random.default_rng([917, i]))
        assert d.source == SOURCE_CONFLICT
        wins += d.source_model == 1
    freq = wins / total
    _verdict(3, "conflict coin flip is calibrated",
             0.48 <= freq <= 0.52,
             f"model-1 win frequency {freq:.4f} over {total} draws")


# ---------------------------------------------------------------------------
# 4. Single-model mode is exactly plain confidence masking.


def test_04_single_model_mode_is_plain_confidence_masking():
    rng = np.random.default_rng(1123)
    batches = 1_000
    items = 0
    mismatches = 0
    for b in range(batches):
        c = int(rng.integers(3, 11))
        size = int(rng.integers(8, 33))
        alpha = 0.25 if b % 2 else 1.5
        probs = rng.dirichlet(np.full(c, alpha), size=size)
        weight = 1.0 if b % 2 else 0.75
        cfg = FusionConfig(tau=0.95, tau_cascade=(), pseudo_weight=weight,
                           num_models=1, single_model_mode=True)
        decisions = fuse_batch(probs[None], cfg, fusion_seed=0, step=1)

        conf = probs.max(axis=1)
        argmax = probs.argmax(axis=1)
        for k, d in enumerate(decisions):
            items += 1
            if conf[k] > cfg.tau:
                want = (int(argmax[k]), (weight,))
            else:
                want = (None, (0.0,))
            if (d.pseudo_label, d.masks) != want:
                mismatches += 1
    _verdict(4, "single-model mode is plain confidence masking",
             mismatches == 0,
             f"{batches} batches / {items} items, {mismatches} mismatches")


# ---------------------------------------------------------------------------
# 5. Analytic gradients agree with central finite differences.


def test_05_analytic_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(3407)
    configs = 100
    worst = 0.0
    for k in range(configs):
        dim = int(rng.integers(2, 7))
        classes = int(rng.integers(2, 6))
        depth = int(rng.integers(1, 3))
        hidden = tuple(int(rng.integers(3, 11)) for _ in range(depth))
        batch = int(rng.integers(1, 7))
        arch = (dim,) + hidden + (classes,)
        params = init_model(arch, seed=9000 + k)
        xs = rng.normal(size=(batch, dim))
        targets = rng.integers(classes, size=batch)
        if k % 3 == 0:
            weights = np.ones(batch)
        elif k % 3 == 1:
            weights = rng.uniform(0.25, 1.75, size=batch)
        else:
            weights = rng.integers(0, 2, size=batch) * 0.75
        _, grads = loss_and_grad(params, xs, targets, weights)
        worst = max(worst, fd_max_rel_error(params, grads, xs, targets,
                                            weights, step=1e-5))
    elapsed = time.perf_counter() - start
    _verdict(5, "analytic gradients match finite differences",
             worst <= 1e-4 and elapsed < 30.0,
             f"{configs} configs, max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Baseline losses reproduce hand-computed fixtures.


def test_06_baseline_losses_match_hand_computations():
    # Propensity-weighted supervised loss: observed items 0 and 2 give
    # (0.5/0.25 + 0.3/0.8) / 5 = (2.0 + 0.375) / 5 = 0.475.
    cap_in = CadrInputs(missing=(0, 1, 0, 1, 1),
                        sup_losses=(0.5, 1.2, 0.3, 2.0, 0.7),
                        propensity=(0.25, 0.4, 0.8, 0.5, 0.9),
                        unsup_losses=(0.0,) * 5,
                        confidence=(0.0,) * 5,
                        threshold=(1.0,) * 5)
    cap_err = abs(cap_loss(cap_in) - 0.475)

    # Gated unlabeled + supervised loss: observed sup 0.3 + 0.8; hidden
    # items pass the strict gate at 0.96>0.95 and 0.99>0.5 but not at
    # 0.90>0.90, so (0.3 + 0.8 + 0.9 + 0.5) / 5 = 0.5.
    cai_in = CadrInputs(missing=(0, 1, 0, 1, 1),
                        sup_losses=(0.3, 1.0, 0.8, 0.7, 0.2),
                        propensity=(1.0,) * 5,
                        unsup_losses=(0.4, 0.9, 0.2, 0.5, 0.6),
                        confidence=(0.97, 0.96, 0.80, 0.99, 0.90),
                        threshold=(0.95, 0.95, 0.85, 0.5, 0.90))
    cai_err = abs(cai_loss(cai_in) - 0.5)

    uniform_err = 0.0
    for c in (4, 10):
        probs = np.full((7, c), 1.0 / c)
        labels = np.arange(7) % c
        uniform_err = max(uniform_err,
                          abs(supervised_loss(probs, labels) - math.log(c)))

    _verdict(6, "baseline losses match hand computations",
             cap_err <= 1e-12 and cai_err <= 1e-12 and uniform_err <= 1e-12,
             f"cap err {cap_err:.1e}, cai err {cai_err:.1e}, "
             f"uniform-vs-lnC err {uniform_err:.1e}")


# ---------------------------------------------------------------------------
# 7. The dual-model run beats a single-model run on the desk benchmark.


def test_07_dual_model_beats_single_model_on_desk_benchmark(tmp_path):
    start = time.perf_counter()
    desk = ObjectiveConfig(mu=4.0, batch_size=16)
    acc_deltas, mask_deltas = [], []
    for seed in range(5):
        spec = SyntheticSpec(num_classes=4, dim=2, samples_per_class=250,
                             class_separation=3.0, noise_sigma=1.0)
        full = generate_synthetic(spec, seed=1000 + seed)
        ds = apply_missingness(full, MissingnessSpec.mcar(num_labeled=20,
                                                          seed=2000 + seed))
        test = generate_synthetic(spec, seed=9000 + seed)

        single_cfg = TrainConfig(
            seeds=SeedPlan.from_master(seed, 1), num_models=1, steps=2000,
            eval_every=500,
            fusion=FusionConfig(num_models=1, single_model_mode=True,
                                pseudo_weight=1.0, tau_cascade=()),
            objective=desk)
        dual_cfg = TrainConfig(
            seeds=SeedPlan.from_master(seed, 2), num_models=2, steps=2000,
            eval_every=500, objective=desk)

        rows = {}
        for name, cfg in (("single", single_cfg), ("dual", dual_cfg)):
            out = tmp_path / f"seed{seed}-{name}"
            train(cfg, ds, test, out)
            rows[name] = read_csv(out / "metrics.csv").rows[-1]
        acc_deltas.append(rows["dual"].test_acc - rows["single"].test_acc)
        mask_deltas.append(rows["dual"].mask_ratio - rows["single"].mask_ratio)
        print(f"  seed {seed}: acc delta {acc_deltas[-1]:+.4f}, "
              f"mask delta {mask_deltas[-1]:+.4f}")

    mean_acc = sum(acc_deltas) / len(acc_deltas)
    mean_mask = sum(mask_deltas) / len(mask_deltas)
    worst_acc = min(acc_deltas)
    elapsed = time.perf_counter() - start
    _verdict(7, "dual model beats single model on the desk benchmark",
             mean_mask >= 0.05 and mean_acc >= 0.0
             and worst_acc >= -0.03 and elapsed < 600.0,
             f"mean mask delta {mean_mask:+.4f}, mean acc delta "
             f"{mean_acc:+.4f}, worst seed {worst_acc:+.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. Lowering the consensus threshold only ever adds pseudo-labels.


def test_08_lowering_consensus_threshold_only_adds_labels():
    rng = np.random.default_rng(86)
    pairs = []
    # Consensus candidates that activate at successively lower thresholds,
    # plus one argmax conflict that must stay unlabeled at every setting.
    for peak in (0.62, 0.68, 0.72, 0.78, 0.88):
        pairs.append((peaked_vector(3, 1, peak), peaked_vector(3, 1, peak)))
    pairs.append((peaked_vector(3, 0, 0.80), peaked_vector(3, 1, 0.80)))
    while len(pairs) < 1_000:
        if len(pairs) % 2:
            pairs.append((_simplex(rng, 3, 0.5), _simplex(rng, 3, 0.5)))
        else:
            pairs.append((peaked_vector(3, int(rng.integers(3)),
                                        float(rng.uniform(0.55, 0.995))),
                          peaked_vector(3, int(rng.integers(3)),
                                        float(rng.uniform(0.55, 0.995)))))

    chain = (0.90, 0.85, 0.80, 0.75, 0.70, 0.65, 0.60)
    violations = 0
    gained = 0
    for i, (q1, q2) in enumerate(pairs):
        decisions = [fuse_pair(q1, q2, FusionConfig(tau_cascade=(t2,)),
                               np.random.default_rng([2718, i]))
                     for t2 in chain]
        for d_hi, d_lo in zip(decisions, decisions[1:]):
            if d_hi.has_label and not d_lo.has_label:
                violations += 1
            if d_hi.source in (SOURCE_BOTH, SOURCE_CONFLICT, SOURCE_OWN,
                               SOURCE_CONSENSUS) and d_lo != d_hi:
                violations += 1
        gained += decisions[-1].has_label and not decisions[0].has_label
    _verdict(8, "lowering the consensus threshold only adds labels",
             violations == 0 and gained >= 5,
             f"{len(pairs)} pairs x {len(chain)} thresholds, "
             f"{violations} violations, {gained} pairs gained a label")


# ---------------------------------------------------------------------------
# 9. Identical configs produce byte-identical training metrics.


def test_09_training_runs_are_byte_reproducible(tmp_path):
    spec = SyntheticSpec(num_classes=4, dim=2, samples_per_class=50,
                         class_separation=3.0, noise_sigma=0.5)
    ds = apply_missingness(generate_synthetic(spec, seed=31),
                           MissingnessSpec.mcar(num_labeled=16, seed=32))
    test = generate_synthetic(spec, seed=33)
    cfg = TrainConfig(seeds=SeedPlan.from_master(11, 2), num_models=2,
                      steps=60, eval_every=20, hidden=(8,),
                      objective=ObjectiveConfig(mu=2.0, batch_size=8))
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        train(cfg, ds, test, out)
        blobs.append(((out / "metrics.csv").read_bytes(),
                      (out / "config.resolved").read_bytes()))
    _verdict(9, "identical configs give byte-identical metrics",
             blobs[0] == blobs[1],
             f"{len(blobs[0][0])} metric bytes compared across two runs")


# ---------------------------------------------------------------------------
# 10. Class-dependent masking follows exact binomial statistics.


def test_10_class_dependent_masking_matches_binomial_statistics():
    spec = SyntheticSpec(num_classes=10, dim=2, samples_per_class=1000,
                         class_separation=3.0, noise_sigma=1.0)
    full = generate_synthetic(spec, seed=4242)
    retention = (0.10,) + (0.01,) * 9
    bounds = [(int(binom.ppf(0.0005, 1000, p)),
               int(binom.ppf(0.9995, 1000, p))) for p in retention]

    outside = 0
    seeds = range(7000, 7005)
    for seed in seeds:
        ds = apply_missingness(full, MissingnessSpec.mnar(retention,
                                                          seed=seed))
        counts = np.bincount(ds.observed_labels(ds.observed_indices()),
                             minlength=10)
        outside += sum(not (lo <= c <= hi)
                       for c, (lo, hi) in zip(counts, bounds))
    _verdict(10, "class-dependent masking matches binomial statistics",
             outside == 0,
             f"{len(list(seeds))} seeds x 10 classes, head interval "
             f"{bounds[0]}, tail interval {bounds[1]}, {outside} outside")


# ---------------------------------------------------------------------------
# 11. Agreement selection reproduces hand L-infinity computations.


def test_11_agreement_subset_matches_hand_linf_computations():
    a = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.4, 0.4, 0.2],
                  [0.7, 0.2, 0.1], [1 / 3, 1 / 3, 1 / 3]])
    b = np.array([[0.5, 0.4, 0.1], [0.1, 0.6, 0.3], [0.5, 0.3, 0.2],
                  [0.2, 0.7, 0.1], [1 / 3, 1 / 3, 1 / 3]])
    hand = [max(abs(0.6 - 0.5), abs(0.3 - 0.4), abs(0.1 - 0.1)),
            max(abs(0.2 - 0.1), abs(0.5 - 0.6), abs(0.3 - 0.3)),
            max(abs(0.4 - 0.5), abs(0.4 - 0.3), abs(0.2 - 0.2)),
            max(abs(0.7 - 0.2), abs(0.2 - 0.7), abs(0.1 - 0.1)),
            0.0]

    at_tenth = select_debias_subset([a, b], epsilon=0.1)
    exact_agreement = at_tenth.agreement.tolist() == hand
    exact_argmax = at_tenth.same_argmax.tolist() == [True, True, True,
                                                     False, True]
    # items 0..2 sit exactly on the 0.1 boundary, which is inclusive
    boundary_ok = at_tenth.selected.tolist() == [0, 1, 2, 4]
    below_ok = select_debias_subset([a, b],
                                    epsilon=0.09).selected.tolist() == [4]
    zero_ok = select_debias_subset([a, b],
                                   epsilon=0.0).selected.tolist() == [4]

    # A third model widens the worst pairwise distance on item 0 past the
    # boundary and flips the argmax on item 2.
    c = np.array([[0.45, 0.35, 0.2], [0.15, 0.55, 0.3], [0.3, 0.5, 0.2],
                  [0.6, 0.3, 0.1], [1 / 3, 1 / 3, 1 / 3]])
    triple = select_debias_subset([a, b, c], epsilon=0.1)
    triple_ok = (triple.selected.tolist() == [1, 4]
                 and triple.agreement[0] == max(abs(0.6 - 0.45),
                                                abs(0.3 - 0.35),
                                                abs(0.1 - 0.2)))

    _verdict(11, "agreement selection matches hand L-inf computations",
             exact_agreement and exact_argmax and boundary_ok and below_ok
             and zero_ok and triple_ok,
             "5-item two-model fixture exact, inclusive boundary at 0.1, "
             "three-model worst-pair fixture exact")
