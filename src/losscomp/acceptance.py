"""Self-contained acceptance checks for the shipped behavior.

Each criterion re-derives the claim it guards from the public API —
mostly by running the default seeded experiments and auditing their CSV
output — and reports one pass/fail line.  The same registry backs the
``selftest`` CLI subcommand and the acceptance test module, so "the
tests pass" and "the tool says it works" cannot drift apart.

All statistical gates run at the frozen default master seed; the checks
are deterministic.
"""
from __future__ import annotations

import csv
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import experiments, oscillator
from .compensation import convergence_scan
from .fock_core import make_coherent, make_fock, make_thermal
from .homodyne import (MeasuredRay, error_saturation_profile, estimate_element,
                       sample_quadratures)
from .loss_channel import analytic_threshold, apply_loss, decay_ratio, invert_loss

_THEORY = 4.0 / 27.0


@dataclass
class CriterionResult:
    name: str
    label: str
    passed: bool
    detail: str
    seconds: float
    budget: float


def _read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _group_trials(rows):
    by = defaultdict(list)
    for r in rows:
        by[(float(r["eta"]), int(r["trial"]))].append(r)
    return by


def _ac1_round_trip():
    fixtures = [make_thermal(2.0, 64), make_coherent(1.0, 32), make_fock(3, 16)]
    worst = 0.0
    for rho in fixtures:
        for eta in (0.9, 0.7, 0.55):
            back = invert_loss(apply_loss(rho, eta), eta, 64).state
            worst = max(worst, float(np.max(np.abs(back.elements - rho.elements))))
    return worst < 1e-8, f"max element deviation {worst:.3g} (tol 1e-8)"


def _ac2_thermal_covariance():
    dev = float(np.max(np.abs(
        apply_loss(make_thermal(2.0, 64), 0.5).elements
        - make_thermal(1.0, 64).elements)))
    r = decay_ratio(make_thermal(2.0, 64), 0, 0)
    thr = analytic_threshold(2.0 / 3.0)
    ok = dev < 1e-10 and abs(r - 2.0 / 3.0) < 1e-9 and abs(thr - 0.4) < 1e-12
    return ok, (f"thermal map deviation {dev:.3g} (tol 1e-10); "
                f"decay ratio {r:.9f} vs 2/3; threshold {thr:.9f} vs 2/5")


def _ac3_fig1():
    with tempfile.TemporaryDirectory() as tmp:
        _, trials_path = experiments.run_fig1(out=Path(tmp) / "fig1.csv")
        by = _group_trials(_read_rows(trials_path))
    cfg = experiments.default_config("fig1")
    counts = {}
    for eta in (0.6, 0.55):
        ok = 0
        for trial in range(cfg.trials):
            at20 = next(r for r in by[(eta, trial)] if int(r["j_M"]) == 20)
            if abs(float(at20["value"]) - _THEORY) < 3 * float(at20["propagated_error"]):
                ok += 1
        counts[eta] = ok
    div = sum(by[(0.5, t)][0]["verdict"] == "diverging" for t in range(cfg.trials))
    amp = sum(
        max(abs(float(r["value"])) for r in by[(0.5, t)]) > 10 * _THEORY
        for t in range(cfg.trials))
    ok = (counts[0.6] >= 8 and counts[0.55] >= 8 and div >= 8 and amp >= 8)
    return ok, (f"within 3 errors of 4/27 at j_M=20: {counts[0.6]}/10 (eta 0.6), "
                f"{counts[0.55]}/10 (eta 0.55); eta 0.5 diverging {div}/10, "
                f"|value|>10x theory {amp}/10 (each needs >= 8)")


def _ac4_fig2():
    with tempfile.TemporaryDirectory() as tmp:
        mean_path, _ = experiments.run_fig2(out=Path(tmp) / "fig2.csv")
        rows = _read_rows(mean_path)
    err = {(float(r["eta"]), int(r["j_M"])): float(r["propagated_error"])
           for r in rows}
    etas = sorted({k[0] for k in err})
    high_ok = all(
        max(err[(eta, j)] for j in (10, 20, 100))
        / min(err[(eta, j)] for j in (10, 20, 100)) <= 1.10
        for eta in etas if eta >= 0.7 - 1e-9)
    r_half = err[(0.5, 100)] / err[(0.5, 10)]
    mono_half = err[(0.5, 10)] < err[(0.5, 20)] < err[(0.5, 100)]
    r_45 = err[(0.45, 100)] / err[(0.45, 10)]
    ok = high_ok and mono_half and 2.0 <= r_half <= 5.0 and r_45 > 10.0
    return ok, (f"eta>=0.7 spread within 10%: {high_ok}; eta=0.5 monotone "
                f"{mono_half}, ratio {r_half:.3f} in [2,5]; eta=0.45 ratio "
                f"{r_45:.3g} > 10")


def _ac5_direct_contrast():
    with tempfile.TemporaryDirectory() as tmp:
        _, trials_path = experiments.run_direct_contrast(out=Path(tmp) / "direct.csv")
        by = _group_trials(_read_rows(trials_path))
    cfg = experiments.default_config("direct")
    conv = {eta: sum(by[(eta, t)][0]["verdict"] == "converged"
                     for t in range(cfg.trials)) for eta in (0.45, 0.42)}
    last = by[(0.45, 0)][-1]
    pull_ok = abs(float(last["value"]) - _THEORY) < 3 * float(last["propagated_error"])
    signal = make_thermal(2.0, 64)
    data = sample_quadratures(apply_loss(signal, 0.45), cfg.n_samples,
                              experiments._trial_rng(cfg, 0, 0))
    control = convergence_scan(
        data, 2, 0, 0.45, experiments.default_config("fig1").truncation_grid(0.45))
    ok = (conv[0.45] >= 8 and conv[0.42] >= 8 and pull_ok
          and control.verdict == "diverging")
    return ok, (f"direct verdicts converged {conv[0.45]}/10 (0.45), "
                f"{conv[0.42]}/10 (0.42); value at 0.45 within 3 errors: "
                f"{pull_ok}; homodyne control verdict {control.verdict}")


def _ac6_saturation():
    dressed = apply_loss(make_thermal(2.0, 64), 0.6)
    worst_lo, worst_hi = np.inf, 0.0
    for k, n_samples in enumerate((8000, 24000)):
        rng = np.random.default_rng(
            np.random.SeedSequence((experiments.DEFAULT_MASTER_SEED, 6, k)))
        data = sample_quadratures(dressed, n_samples, rng)
        profile = error_saturation_profile(data, range(5, 16), 2, 0)
        scaled = [s for _, s in profile]
        worst_lo, worst_hi = min(worst_lo, *scaled), max(worst_hi, *scaled)
    ok = worst_lo >= 1.27 and worst_hi <= 1.56
    return ok, (f"scaled errors in [{worst_lo:.3f}, {worst_hi:.3f}] "
                "(band [1.27, 1.56] around sqrt(2))")


def _number_state_overlaps(top, cells):
    """``integral psi_k^2 f_nn``, n, k <= ``top``, as [n, k]: twice the even integrand's sum
    over the first ``cells`` cells by Gauss-Legendre at 4 nodes per cell on the band rows."""
    nodes, w = np.polynomial.legendre.leggauss(4)
    half = 0.5 * oscillator._CELL
    x = (np.arange(cells)[:, None] * oscillator._CELL + half * (1.0 + nodes)).ravel()
    weights = oscillator._psi_half(top, x) ** 2 * np.tile(2.0 * half * w, cells)
    return oscillator.pattern_sums(0, 0, top, [(x, weights)])[0]


def _ac7_unbiasedness():
    overlap = _number_state_overlaps(10, 800)    # |x| <= 8: index 10's turning point plus 4
    worst = float(np.max(np.abs(overlap - np.eye(11))))
    rng = np.random.default_rng(
        np.random.SeedSequence((experiments.DEFAULT_MASTER_SEED, 7)))
    data = sample_quadratures(make_coherent(1.0, 32), 100_000, rng)
    ray = estimate_element(data, 0, 1)
    pull = abs(ray.estimate[0] - np.exp(-1.0)) / ray.stderr[0]
    ok = worst < 1e-6 and pull < 3.0
    return ok, (f"anchor deviation {worst:.3g} (tol 1e-6) for n,k <= 10; "
                f"coherent (0,1) pull {pull:.2f} sigma at N=1e5")


def _ac8_error_algebra():
    eps = 0.01
    ray = MeasuredRay(n=0, d=0, estimate=np.zeros(101), stderr=np.full(101, eps))
    _, _, err = convergence_scan(ray, 0, 0, 0.5, [100]).trace[-1]
    exact_ok = abs(err - eps * np.sqrt(101.0)) <= 1e-14 * err
    verdicts = {}
    with np.errstate(over="ignore"):
        for eta in (0.45, 0.5, 0.55, 0.7):
            z2 = (1.0 - 1.0 / eta) ** 2
            partial = np.cumsum(z2 ** np.arange(10_001) * (2.0 / 8000.0))
            s_mid, s_end = partial[1000], partial[-1]
            converged = np.isfinite(s_end) and (s_end - s_mid) < 1e-9 * s_end
            verdicts[eta] = converged
    iff_ok = (not verdicts[0.45] and not verdicts[0.5]
              and verdicts[0.55] and verdicts[0.7])
    ok = exact_ok and iff_ok
    return ok, (f"sqrt(j_M+1) identity exact: {exact_ok}; partial sums to "
                f"j=1e4 converge only above 1/2: {iff_ok}")


CRITERIA = [
    ("AC-1", "loss-channel round trip", 5.0, _ac1_round_trip),
    ("AC-2", "thermal covariance and threshold", 1.0, _ac2_thermal_covariance),
    ("AC-3", "compensated element vs truncation", 180.0, _ac3_fig1),
    ("AC-4", "error transition across eta=1/2", 180.0, _ac4_fig2),
    ("AC-5", "direct-detection contrast", 120.0, _ac5_direct_contrast),
    ("AC-6", "error saturation at sqrt(2/N)", 60.0, _ac6_saturation),
    ("AC-7", "estimator unbiasedness anchors", 120.0, _ac7_unbiasedness),
    ("AC-8", "error-model algebra", 1.0, _ac8_error_algebra),
]


def run_criterion(index: int) -> CriterionResult:
    name, label, budget, fn = CRITERIA[index]
    start = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - start
    return CriterionResult(name=name, label=label, passed=passed,
                           detail=detail, seconds=elapsed, budget=budget)


def format_line(result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return (f"{result.name} {status} {result.label}: {result.detail} "
            f"[{result.seconds:.2f}s of {result.budget:g}s budget]")


def run_all() -> list[CriterionResult]:
    results = []
    for index in range(len(CRITERIA)):
        result = run_criterion(index)
        results.append(result)
        print(format_line(result))
    return results
