"""Acceptance gate: the nine numbered criteria, one test and one verdict line each.

Grids, tolerances, replication counts, and pass/fail rules are pinned
here and should not drift. Each test prints 'criterion N: PASS/FAIL'
before asserting so a tee'd run shows the scoreboard even mid-failure.
"""

import math
import subprocess
import sys

import numpy as np

from ar1_tstat import (
    Ar1Params,
    Functional,
    SimulationConfig,
    StudentLaw,
    covariance_cholesky,
    covariance_matrix,
    ks_test,
    mean_covariance_profile,
    mean_of_sample_variance,
    precision_matrix,
    simulate_functional,
    summarize,
    variance_of_scaled_mean,
    variance_of_scaled_mean_regrouped,
    whitening_matrix,
)
from ar1_tstat.moments import (
    covariance_with_mean,
    covariance_with_mean_square_sum,
    covariance_with_mean_total,
    second_moment_of_sample_variance,
    variance_of_sample_variance,
)
from ar1_tstat.oracle import (
    centering_form,
    form_mean,
    form_second_moment,
    form_variance,
    scaled_mean_variance,
)
from ar1_tstat.verification import run_verification

GRID_N = (2, 3, 5, 10, 50, 200)
GRID_RHO = (-0.99, -0.5, 0.0, 0.5, 0.9, 0.99)
SEED = 20260814


def _grid():
    for n in GRID_N:
        for rho in GRID_RHO:
            yield Ar1Params(mu=0.0, sigma=1.0, rho=rho, n=n)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_matrix_identities():
    gap_chol = gap_gram = gap_inv = gap_white = 0.0
    for p in _grid():
        eye = np.eye(p.n)
        om = covariance_matrix(p)
        m = covariance_cholesky(p)
        a = precision_matrix(p)
        ell = whitening_matrix(p)
        gap_chol = max(gap_chol, np.max(np.abs(m @ m.T - om)))
        gap_gram = max(gap_gram, np.max(np.abs(ell.T @ ell - a)))
        gap_inv = max(gap_inv, np.max(np.abs(a @ om - eye)))
        gap_white = max(gap_white, np.max(np.abs(ell @ om @ ell.T - eye)))
    ok = gap_chol < 1e-12 and gap_gram < 1e-12 and gap_inv < 1e-10 and gap_white < 1e-10
    _verdict(
        1,
        ok,
        f"MM'={gap_chol:.2e} L'L={gap_gram:.2e} AO={gap_inv:.2e} LOL'={gap_white:.2e}",
    )


def test_criterion_2_scaled_mean_variance():
    worst = 0.0
    for p in _grid():
        a = variance_of_scaled_mean(p)
        b = variance_of_scaled_mean_regrouped(p)
        oracle = scaled_mean_variance(p)
        worst = max(worst, _rel(a, b), _rel(a, oracle), _rel(b, oracle))
    big = Ar1Params(mu=0.0, sigma=1.0, rho=0.5, n=10**6)
    asym_gap = abs(variance_of_scaled_mean(big) - 1.0 / (1.0 - 0.5) ** 2)
    ok = worst < 1e-12 and asym_gap < 1e-4
    _verdict(2, ok, f"grid max rel {worst:.2e}; asymptotic gap {asym_gap:.2e} at n=1e6")


def test_criterion_3_mean_covariances():
    worst1 = worst2 = worst3 = 0.0
    for p in _grid():
        profile = mean_covariance_profile(p)
        for j in range(1, p.n + 1):
            worst1 = max(worst1, _rel(covariance_with_mean(p, j), profile[j - 1]))
        worst2 = max(worst2, _rel(covariance_with_mean_total(p), variance_of_scaled_mean(p)))
        direct = math.fsum(c * c for c in profile)
        worst3 = max(worst3, _rel(covariance_with_mean_square_sum(p), direct))
    ok = worst1 < 1e-12 and worst2 < 1e-12 and worst3 < 1e-12
    _verdict(3, ok, f"per-term {worst1:.2e}; total {worst2:.2e}; square sum {worst3:.2e}")


def test_criterion_4_sample_variance_mean():
    worst = 0.0
    for p in _grid():
        worst = max(worst, _rel(mean_of_sample_variance(p), form_mean(centering_form(p.n), p)))
    exact = all(
        mean_of_sample_variance(Ar1Params(mu=0.0, sigma=s, rho=0.0, n=n)) == s * s
        for s in (1.0, 2.0, 1.3)
        for n in GRID_N
    )
    ok = worst < 1e-12 and exact
    _verdict(4, ok, f"max rel vs tr(QS) {worst:.2e}; iid unbiasedness exact: {exact}")


def test_criterion_5_fourth_moments():
    failing = []
    for p in _grid():
        q = centering_form(p.n)
        gap_m2 = _rel(second_moment_of_sample_variance(p), form_second_moment(q, p))
        gap_var = _rel(variance_of_sample_variance(p), form_variance(q, p))
        if gap_m2 > 1e-8 or gap_var > 1e-8:
            failing.append((p.n, p.rho, gap_m2, gap_var))
    if not failing:
        _verdict(5, True, "verbatim fourth-moment forms match the oracle")
        return
    # fallback branch: the discrepancy report must name every failing point,
    # and the oracle itself must survive Monte Carlo at a million paths
    report = run_verification(n_grid=GRID_N, rho_grid=GRID_RHO)
    reported = {(r.params.n, r.params.rho) for r in report.discrepancies}
    listed = all((n, rho) in reported for n, rho, _, _ in failing)
    worst_z = 0.0
    for n in (5, 10):
        for rho in (-0.8, 0.0, 0.8):
            p = Ar1Params(mu=0.0, sigma=1.0, rho=rho, n=n)
            cfg = SimulationConfig(params=p, replications=1_000_000, seed=SEED, workers=1)
            s = summarize(simulate_functional(cfg, Functional.SAMPLE_VARIANCE))
            q = centering_form(n)
            worst_z = max(
                worst_z,
                abs(s.mean - form_mean(q, p)) / s.std_error_mean,
                abs(s.variance - form_variance(q, p)) / s.std_error_variance,
            )
    ok = listed and worst_z < 4.0
    _verdict(
        5,
        ok,
        f"{len(failing)} grid points disagree (printed forms); all reported: {listed}; "
        f"oracle vs 1e6-rep MC worst |z| = {worst_z:.2f}",
    )


def test_criterion_6_student_dual_route():
    worst = 0.0
    grid = np.linspace(-8.0, 8.0, 161)
    for dof in (1.0, 2.0, 5.0, 30.0):
        law = StudentLaw(dof)
        closed = law.density_closed(grid)
        worst = max(worst, float(np.max(np.abs(law.density_integral(grid) - closed) / closed)))
    cauchy = StudentLaw(1.0)
    spot = max(
        abs(cauchy.density_closed(0.0) - 1.0 / math.pi),
        abs(cauchy.density_closed(1.0) - 1.0 / (2.0 * math.pi)),
    )
    ok = worst < 1e-8 and spot < 1e-12
    _verdict(6, ok, f"dual-route max rel {worst:.2e}; Cauchy spot gap {spot:.2e}")


def test_criterion_7_distributional_recovery():
    pvals = {}
    for n in (5, 10):
        p = Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=n)
        cfg = SimulationConfig(params=p, replications=100_000, seed=SEED, workers=1)
        vals = simulate_functional(cfg, Functional.T_STAT)
        pvals[f"classical n={n}"] = ks_test(vals, StudentLaw(n - 1).cdf).p_value
    for rho in (0.3, 0.8):
        p = Ar1Params(mu=0.0, sigma=1.0, rho=rho, n=10)
        cfg = SimulationConfig(params=p, replications=100_000, seed=SEED, workers=1)
        vals = simulate_functional(cfg, Functional.MODIFIED_T_STAT)
        pvals[f"modified rho={rho}"] = ks_test(vals, StudentLaw(9).cdf).p_value
    ok = all(v > 0.01 for v in pvals.values())
    detail = ", ".join(f"{k}: p={v:.3f}" for k, v in pvals.items())
    _verdict(7, ok, detail)


def test_criterion_8_classical_is_far_from_student():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.8, n=10)
    cfg = SimulationConfig(params=p, replications=100_000, seed=SEED, workers=1)
    vals = simulate_functional(cfg, Functional.T_STAT)
    report = ks_test(vals, StudentLaw(9).cdf)
    ok = report.p_value < 1e-3
    _verdict(8, ok, f"KS D={report.statistic:.4f}, p={report.p_value:.2e}")


def test_criterion_9_byte_identical_reproducibility(tmp_path):
    runner = "import sys; from ar1_tstat.cli import main; sys.exit(main(sys.argv[1:]))"
    digests = []
    for tag, workers in [("r1", 1), ("r2", 1), ("w2", 2), ("w8", 8)]:
        out = tmp_path / f"{tag}.csv"
        vals = tmp_path / f"{tag}.vals.csv"
        cmd = [
            sys.executable, "-c", runner,
            "simulate", "--functional", "mtstat", "--n", "10", "--rho", "0.6",
            "--reps", "12788", "--seed", str(SEED), "--workers", str(workers),
            "--out", str(out), "--values-out", str(vals),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append((out.read_bytes(), vals.read_bytes()))
    ok = all(d == digests[0] for d in digests[1:])
    _verdict(9, ok, f"4 runs across worker counts (1,1,2,8), {len(digests[0][1])} byte dumps")
