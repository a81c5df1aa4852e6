"""Acceptance suite: quantitative targets and property checks, one test and
one printed `criterion NN: PASS/FAIL - detail` line per criterion (run with
pytest -s to see the checklist).

The finite-chain scans share a window-histogram cache: each (observable,
gamma, N, grid) sweep is evaluated once and then scored against every
reference law and metric, which is sound because the rescale/histogram step
depends on neither. The cache's bit-equality with the public scan() is
asserted before any criterion uses it.

The crossover criterion takes about 10 s and the scan criteria a few
seconds each; the whole file takes about 20 s on two cores.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from benford_xy import cli, windowscan
from benford_xy.criticality import (
    TransitionEstimate,
    auto_fit_range,
    crossover_lines,
    locate_transition,
    scaling_exponent,
)
from benford_xy.firstdigit import (
    DistKind,
    ReferenceDistribution,
    digits_of,
    histogram,
    probabilities,
)
from benford_xy.violation import Metric, violations
from benford_xy.windowscan import Observable, ScanConfig, ScanResult, scan
from benford_xy.xy_exact import (
    ModelParams,
    dmz_dT_many,
    mz_finite_many,
    mz_infinite,
    mz_and_correlators_many,
    mz_infinite_many,
)

CHAIN_LENGTHS = (14, 20, 24, 30, 34, 40)

# Calibrated scan settings; A drives the N-sweeps scored with the mean
# deviation, B is the finer grid the Bhattacharya comparison needs.
GRID_A = dict(lambda_range=(0.8, 1.2), lambda_step=0.002,
              window_width=0.02, samples_per_window=10_000)
GRID_B = dict(lambda_range=(0.8, 1.2), lambda_step=0.001,
              window_width=0.02, samples_per_window=20_000)
FIT_A = dict(fit_half=0.05, smooth_half=0.03)
FIT_B = dict(fit_half=0.04, smooth_half=0.02)

DISTS = {
    "benford": ReferenceDistribution.benford(),
    "uniform": ReferenceDistribution(DistKind.UNIFORM),
    "poisson(1)": ReferenceDistribution(DistKind.POISSON, 1.0),
    "poisson(5)": ReferenceDistribution(DistKind.POISSON, 5.0),
    "poisson(10)": ReferenceDistribution(DistKind.POISSON, 10.0),
}

CROSSOVER_TS = np.linspace(1e-4, 5e-4, 25)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _config(gamma: float, n_sites: int | None, grid: dict,
            observable: Observable = Observable.MZ) -> ScanConfig:
    return ScanConfig(observable=observable, gamma=gamma, n_sites=n_sites, **grid)


_ROWS: dict[tuple, tuple] = {}


def _window_rows(config: ScanConfig) -> tuple:
    """Window midpoints and their rows of digit counts (zeros if degenerate):
    the law/metric-free part of scan(), cached per observable sweep."""
    key = (config.observable, config.gamma, config.n_sites,
           config.lambda_step, config.samples_per_window)
    if key not in _ROWS:
        mids, (counts,) = windowscan.window_histograms([config])
        _ROWS[key] = mids, counts
    return _ROWS[key]


def _scored(config: ScanConfig, dist: ReferenceDistribution, metric: Metric) -> ScanResult:
    mids, counts = _window_rows(config)
    counted = counts.any(axis=1)
    return ScanResult(replace(config, dist=dist, metric=metric), mids[counted],
                      violations(counts[counted], dist, metric), mids[~counted])


def _locate(result: ScanResult, fit: dict) -> TransitionEstimate:
    return locate_transition(result, auto_fit_range(result, **fit))


def _shift_exponent(gamma: float, grid: dict, fit: dict,
                    dist: ReferenceDistribution, metric: Metric) -> float:
    lams = [
        _locate(_scored(_config(gamma, n, grid), dist, metric), fit).lambda_c_n
        for n in CHAIN_LENGTHS
    ]
    return scaling_exponent(CHAIN_LENGTHS, lams).exponent


def test_cached_windows_match_public_scan():
    cfg = _config(0.5, 14, GRID_A)
    got = _scored(cfg, ReferenceDistribution.benford(), Metric.MEAN_DEVIATION)
    want = scan(cfg)
    assert np.array_equal(got.lambdas, want.lambdas)
    assert np.array_equal(got.deltas, want.deltas)
    assert np.array_equal(got.degenerate_windows, want.degenerate_windows)


def test_criterion_01_closed_form_anchors():
    mz_c = mz_infinite(ModelParams(gamma=1.0, lam=1.0))
    mz_4 = mz_finite_many([0.0], 1.0, [4])[0, 0]
    _, cxx, cyy = mz_and_correlators_many([0.0], 1.0)[:, 0]
    ok = (abs(mz_c - 2.0 / math.pi) < 1e-8 and abs(mz_4 - 0.5) < 1e-12
          and abs(cxx + 1.0) < 1e-8 and abs(cyy) < 1e-8)
    report(1, ok, f"mz_inf(1,1)-2/pi={mz_c - 2.0 / math.pi:.1e}, mz_fin(N=4)={mz_4}, "
                  f"Cxx(0)+1={cxx + 1.0:.1e}, Cyy(0)={cyy:.1e}")


def test_criterion_02_pseudo_critical_point_n30():
    res = _scored(_config(0.5, 30, GRID_A),
                  ReferenceDistribution.benford(), Metric.MEAN_DEVIATION)
    est = _locate(res, FIT_A)
    ok = abs(est.lambda_c_n - 0.9830) <= 0.004
    report(2, ok, f"lambda_c_30 = {est.lambda_c_n:.4f}, target 0.9830 +- 0.004")


EXPONENT_BY_GAMMA = ((0.1, -2.14), (0.5, -2.06), (1.0, -2.10))


def test_criterion_03_shift_exponent_by_anisotropy():
    parts, ok = [], True
    for gamma, target in EXPONENT_BY_GAMMA:
        alpha = _shift_exponent(gamma, GRID_A, FIT_A,
                                ReferenceDistribution.benford(), Metric.MEAN_DEVIATION)
        ok &= abs(alpha - target) <= 0.20
        parts.append(f"gamma={gamma}: {alpha:+.3f} (target {target:+.2f})")
    report(3, ok, "; ".join(parts) + "; tol 0.20")


METRIC_TARGETS = ((Metric.MEAN_DEVIATION, -2.06),
                  (Metric.STANDARD_DEVIATION, -2.20),
                  (Metric.BHATTACHARYA, -2.45))


def test_criterion_04_metric_comparison():
    alphas = {
        metric: _shift_exponent(0.5, GRID_A, FIT_A, ReferenceDistribution.benford(), metric)
        for metric, _ in METRIC_TARGETS
    }
    in_band = all(abs(alphas[m] - t) <= 0.25 for m, t in METRIC_TARGETS)
    ordered = (abs(alphas[Metric.BHATTACHARYA]) > abs(alphas[Metric.STANDARD_DEVIATION])
               > abs(alphas[Metric.MEAN_DEVIATION]))
    parts = [f"{m.value}: {alphas[m]:+.3f} (target {t:+.2f})" for m, t in METRIC_TARGETS]
    report(4, in_band and ordered,
           "; ".join(parts) + f"; tol 0.25; |alpha| ordering {'holds' if ordered else 'violated'}")


DIST_TARGETS_MEAN = (("benford", -2.06), ("uniform", -1.48), ("poisson(1)", -1.88),
                     ("poisson(5)", -1.27), ("poisson(10)", -2.24))


def test_criterion_05_reference_laws_mean_deviation():
    alphas = {
        name: _shift_exponent(0.5, GRID_A, FIT_A, DISTS[name], Metric.MEAN_DEVIATION)
        for name, _ in DIST_TARGETS_MEAN
    }
    in_band = all(abs(alphas[n] - t) <= 0.25 for n, t in DIST_TARGETS_MEAN)
    rank = sorted(alphas, key=lambda n: -abs(alphas[n]))
    top_two = "benford" in rank[:2]
    parts = [f"{n}: {alphas[n]:+.3f} (target {t:+.2f})" for n, t in DIST_TARGETS_MEAN]
    report(5, in_band and top_two,
           "; ".join(parts) + f"; tol 0.25; benford rank {rank.index('benford') + 1}")


DIST_TARGETS_BHATTACHARYA = (("benford", -2.45), ("uniform", -1.53), ("poisson(1)", -2.44),
                             ("poisson(5)", -2.28), ("poisson(10)", -1.87))


def test_criterion_06_reference_laws_bhattacharya():
    alphas = {
        name: _shift_exponent(0.5, GRID_B, FIT_B, DISTS[name], Metric.BHATTACHARYA)
        for name, _ in DIST_TARGETS_BHATTACHARYA
    }
    in_band = all(abs(alphas[n] - t) <= 0.25 for n, t in DIST_TARGETS_BHATTACHARYA)
    parts = [f"{n}: {alphas[n]:+.3f} (target {t:+.2f})" for n, t in DIST_TARGETS_BHATTACHARYA]
    report(6, in_band, "; ".join(parts) + "; tol 0.25")


# Slope targets of the violation (bvp) ridge.
LEFT_BAND = (-0.546 * 1.05, -0.546 * 0.95)
RIGHT_BAND = (0.567 * 0.95, 0.567 * 1.05)
DMZDT_SLOPE_RTOL = 0.005


def _ising_ridge_slope() -> float:
    """|slope| 1/(2 v*) of the dMz/dT ridge of the Ising chain near lambda = 1.

    Computed with plain numpy, independently of benford_xy: v* maximizes
    v I(v), I(v) = int_0^inf sech^2(sqrt(v^2 + x^2)) dx, by composite
    Gauss-Legendre quadrature (the integrand is below 1e-34 past x = 40) and
    a golden-section search on a bracket around the maximum.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    edges = np.linspace(0.0, 40.0, 41)
    half = 0.5 * np.diff(edges)
    x = ((edges[:-1] + half)[:, None] + half[:, None] * nodes).ravel()
    w = (half[:, None] * weights).ravel()

    def v_i(v: float) -> float:
        return v * float(np.sum(w / np.cosh(np.hypot(v, x)) ** 2))

    a, b = 0.5, 1.2
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    while b - a > 1e-12:
        if v_i(c) > v_i(d):
            b, d = d, c
            c = b - g * (b - a)
        else:
            a, c = c, d
            d = a + g * (b - a)
    v_star = 0.5 * (a + b)
    return 1.0 / (2.0 * v_star)


def test_ising_ridge_slope_closed_form():
    # 1/(2 v*) with v* = 0.8412585
    assert abs(_ising_ridge_slope() - 0.594348) < 1e-5


def test_criterion_07_crossover_lines():
    # The two quantities have different targets.
    # dmzdt: at gamma = 1, near lambda = 1 and small T, with
    # v = (lambda - 1) / (2 T), dMz/dT -> -(2/pi) v I(v),
    # I(v) = int_0^inf sech^2(sqrt(v^2 + x^2)) dx (Barouch & McCoy,
    # Phys. Rev. A 3, 786 (1971)). Its extrema sit at v = -/+ v*,
    # v* = 0.8412585, so the ridge is the antisymmetric pair of lines
    # T = -/+ (lambda - 1) / (2 v*), slope -/+ 0.594348, held to 0.5%.
    # bvp: the violation ridge is held to the asymmetric bands above.
    # The ridge gap is relative to lambda ~ 1: every ridge point lies within
    # 3 T <= 1.5e-3 of lambda = 1, so that gap cannot exceed about 0.3%.
    # The gap relative to |lambda - 1| (the slopes differ by 9-11%; single
    # points by up to 18%) is reported with no tolerance.
    runs = {q: crossover_lines(q, 1.0, CROSSOVER_TS) for q in ("dmzdt", "bvp")}
    slopes = {q: (r.left.slope, r.right.slope) for q, r in runs.items()}
    target = _ising_ridge_slope()
    on_closed_form = all(
        abs(s - want) <= DMZDT_SLOPE_RTOL * target
        for s, want in zip(slopes["dmzdt"], (-target, target))
    )
    bvp_left, bvp_right = slopes["bvp"]
    in_band = (LEFT_BAND[0] <= bvp_left <= LEFT_BAND[1]
               and RIGHT_BAND[0] <= bvp_right <= RIGHT_BAND[1])
    signs = all(sl < 0.0 < sr for sl, sr in slopes.values())
    # both runs share t_tilde, so one (branch, temperature) is one ridge entry
    assert all(np.array_equal(r.t_tilde, CROSSOVER_TS) for r in runs.values())
    shared = ~np.isnan(runs["dmzdt"].ridge) & ~np.isnan(runs["bvp"].ridge)
    dmzdt, bvp = runs["dmzdt"].ridge[shared], runs["bvp"].ridge[shared]
    gap = float(np.max(np.abs(bvp - dmzdt) / np.abs(dmzdt)))
    gap_offset = float(np.max(np.abs(bvp - dmzdt) / np.abs(dmzdt - 1.0)))
    n_shared = int(shared.sum())
    complete = n_shared == 2 * CROSSOVER_TS.size
    ok = on_closed_form and in_band and signs and gap <= 0.01 and complete
    report(7, ok,
           f"dmzdt slopes {slopes['dmzdt'][0]:+.4f}/{slopes['dmzdt'][1]:+.4f} vs closed form "
           f"-/+{target:.4f} (tol {DMZDT_SLOPE_RTOL:.1%}); "
           f"bvp slopes {bvp_left:+.4f}/{bvp_right:+.4f} vs bands "
           f"[{LEFT_BAND[0]:.4f},{LEFT_BAND[1]:.4f}] and [{RIGHT_BAND[0]:.4f},{RIGHT_BAND[1]:.4f}]; "
           f"max ridge gap {gap * 100:.3f}% of lambda (tol 1%), "
           f"{gap_offset * 100:.1f}% of |lambda-1| over {n_shared} shared points")


def test_criterion_08_qualitative_signatures():
    parts, ok = [], True
    for obs in (Observable.MZ, Observable.CXX):
        res = _scored(_config(1.0, None, GRID_A, observable=obs),
                      ReferenceDistribution.benford(), Metric.MEAN_DEVIATION)
        lo, hi = auto_fit_range(res, **FIT_A)
        center = 0.5 * (lo + hi)
        ok &= abs(center - 1.0) < 0.01
        parts.append(f"{obs.value} steepest at {center:.4f} (|c-1|<0.01)")
    res = _scored(_config(0.5, 30, GRID_A), DISTS["uniform"], Metric.MEAN_DEVIATION)
    est = _locate(res, FIT_A)
    ok &= 0.93 <= est.lambda_c_n <= 1.005
    parts.append(f"uniform dip at {est.lambda_c_n:.4f} (band [0.93, 1.005])")
    report(8, ok, "; ".join(parts))


def test_criterion_09_metric_axioms():
    rng = np.random.default_rng(9)
    nonneg = True
    off_positive = True
    for _ in range(300):
        counts = rng.integers(0, 400, size=9)
        total = int(counts.sum())
        if total == 0:
            continue
        freq = counts / total
        for dist in DISTS.values():
            p = probabilities(dist)
            for metric in Metric:
                v = float(violations(counts, dist, metric)[0])
                nonneg &= v >= 0.0
                if not np.array_equal(freq, p):
                    off_positive &= v > 0.0
    zero_at_match = all(violations([100] * 9, DISTS["uniform"], m)[0] < 1e-12 for m in Metric)
    ok = nonneg and off_positive and zero_at_match
    report(9, ok, f"nonnegative={nonneg}, positive off match={off_positive}, "
                  f"zero at exact match={zero_at_match} (300 histograms x 5 laws x 3 metrics)")


def test_criterion_10_digit_invariances():
    rng = np.random.default_rng(10)
    n = 1_000_000
    v = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-18, 19, n)
    base = digits_of(v)
    ok = (np.array_equal(base, digits_of(v * 10.0))
          and np.array_equal(base, digits_of(v / 10.0))
          and np.array_equal(base, digits_of(-v)))
    report(10, ok, f"decade up, decade down, and sign flip preserve digits on {n} inputs")


def test_criterion_11_log_mantissa_oracle():
    values = cli._load_values("logmantissa:100000", seed=0)
    counts = histogram(values)
    freq = counts / counts.sum()
    worst = float(np.max(np.abs(freq - probabilities(ReferenceDistribution.benford()))))
    ok = counts.sum() == 100_000 and worst < 0.01
    report(11, ok, f"max per-digit gap {worst:.5f} over 100000 samples (tol 0.01)")


def test_criterion_12_numerics_bundle():
    inf_v = mz_infinite(ModelParams(gamma=0.5, lam=0.5))
    gaps = [
        abs(mz_finite_many([0.5], 0.5, [n])[0, 0] - inf_v)
        for n in (100, 400, 1600)
    ]
    conv_ok = gaps[0] > gaps[1] > gaps[2]

    us = np.concatenate([-np.linspace(3.0, 5.0, 10), np.linspace(0.5, 4.5, 10)])
    worst = 0.0
    for t in np.geomspace(5e-3, 0.5, 20):
        h = 1e-6 * t
        for u in us:
            lam = 1.0 + u * t
            ana = dmz_dT_many([lam], 1.0, t)[0]
            fd = (mz_infinite_many([lam], 1.0, t + h)[0]
                  - mz_infinite_many([lam], 1.0, t - h)[0]) / (2.0 * h)
            worst = max(worst, abs(fd - ana) / abs(ana))
    fd_ok = worst < 1e-6

    synth_ok = True
    for alpha in (-1.0, -2.0, -3.0):
        fit = scaling_exponent(CHAIN_LENGTHS, [1.0 - 0.5 * n ** alpha for n in CHAIN_LENGTHS])
        synth_ok &= abs(fit.exponent - alpha) < 1e-9 and abs(fit.prefactor + 0.5) < 1e-9

    report(12, conv_ok and fd_ok and synth_ok,
           f"finite-chain gaps {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}; "
           f"worst dMz/dT mismatch {worst:.2e} on 20x20 grid (tol 1e-6); "
           f"synthetic exponents exact to 1e-9: {synth_ok}")


def test_criterion_13_scale_determinism(tmp_path):
    # run a in this process, run b in a fresh interpreter: no state that one
    # process carries (caches, imports, earlier runs) may reach the bytes
    args = ["scale", "--gamma", "0.5", "--lambda", "0.9:1.06:0.005",
            "--samples", "4000", "--n-list", "20,24,30"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(a)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-m", "benford_xy.cli", *args, "--out", str(b)],
                   env=env, capture_output=True, check=True)
    names = ("scale.csv", "scale_fit.json")
    ok = all((a / name).read_bytes() == (b / name).read_bytes() for name in names)
    report(13, ok, "scale.csv and scale_fit.json each byte-identical between an "
                   "in-process run and a fresh interpreter")
