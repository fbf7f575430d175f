"""Closed-form moment layer against the trace oracle.

The second-moment quantities (variance of the scaled mean, the
mean/observation covariances, E[s^2]) reproduce the oracle to float
precision. The two printed fourth-moment expressions are implemented
verbatim and do NOT: away from rho = 0 they disagree with the oracle by
large factors, so the comparison machinery must flag them and expose the
oracle value as authoritative. Tests below pin both behaviors.
"""

import math

import numpy as np
import pytest

from ar1_tstat import (
    Ar1Params,
    DISCREPANCY_RTOL,
    MomentQuantity,
    MomentReport,
    compare_all,
    compare_moment,
    covariance_with_mean,
    covariance_with_mean_square_sum,
    covariance_with_mean_total,
    mean_covariance_profile,
    mean_of_sample_variance,
    second_moment_of_sample_variance,
    variance_of_sample_variance,
    variance_of_scaled_mean,
    variance_of_scaled_mean_regrouped,
)
from ar1_tstat import oracle
from ar1_tstat.oracle import centering_form, form_mean, form_variance, scaled_mean_variance

GRID_N = [2, 3, 5, 10, 50, 200]
GRID_RHO = [-0.99, -0.5, 0.0, 0.5, 0.9, 0.99]


def _grid(sigma=1.0):
    for n in GRID_N:
        for rho in GRID_RHO:
            yield Ar1Params(mu=0.0, sigma=sigma, rho=rho, n=n)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_scaled_mean_variance_two_forms_agree():
    for p in _grid(sigma=1.4):
        a = variance_of_scaled_mean(p)
        b = variance_of_scaled_mean_regrouped(p)
        assert _rel(a, b) < 1e-13, (p.n, p.rho)


def test_scaled_mean_variance_matches_oracle():
    for p in _grid():
        assert _rel(variance_of_scaled_mean(p), scaled_mean_variance(p)) < 1e-13


def test_scaled_mean_variance_iid():
    p = Ar1Params(mu=0.0, sigma=2.0, rho=0.0, n=17)
    assert variance_of_scaled_mean(p) == 4.0


def test_scaled_mean_variance_large_n_limit():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.5, n=10**6)
    assert abs(variance_of_scaled_mean(p) - 4.0) < 1e-4


def test_covariance_with_mean_matches_oracle_profile():
    for p in _grid():
        profile = mean_covariance_profile(p)
        for j in range(1, p.n + 1):
            closed = covariance_with_mean(p, j)
            assert _rel(closed, profile[j - 1]) < 1e-13, (p.n, p.rho, j)


def test_covariance_with_mean_reflection_bitwise():
    # j and n+1-j give the same value, bit for bit
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.85, n=23)
    for j in range(1, 24):
        assert covariance_with_mean(p, j) == covariance_with_mean(p, 24 - j)


def test_covariance_with_mean_index_validated():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.2, n=5)
    with pytest.raises(ValueError):
        covariance_with_mean(p, 0)
    with pytest.raises(ValueError):
        covariance_with_mean(p, 6)


@pytest.mark.parametrize(
    "j", [2.5, 2.0, True, np.True_, "2"], ids=["2.5", "2.0", "True", "np.True_", "str"]
)
@pytest.mark.parametrize(
    "route", [covariance_with_mean, oracle.covariance_with_mean], ids=["moments", "oracle"]
)
def test_covariance_with_mean_refuses_a_non_integer_index(route, j):
    # 2.5 is not read as an index between two observations, nor True as 1
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.5, n=5)
    with pytest.raises(TypeError, match="j must be an integer"):
        route(p, j)


@pytest.mark.parametrize(
    "route", [covariance_with_mean, oracle.covariance_with_mean], ids=["moments", "oracle"]
)
def test_covariance_with_mean_accepts_numpy_integers(route):
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.5, n=5)
    for j in range(1, 6):
        assert route(p, np.int64(j)) == route(p, j) == route(p, np.uint8(j))


def test_covariance_total_consistency():
    """Averaging the per-observation covariances recovers Var(sqrt(n) mean)/n x n."""
    for p in _grid():
        total = covariance_with_mean_total(p)
        assert _rel(total, variance_of_scaled_mean(p)) < 1e-13
        summed = math.fsum(covariance_with_mean(p, j) for j in range(1, p.n + 1))
        assert _rel(summed / p.n * p.n, total) < 1e-12


def test_covariance_square_sum_matches_direct_sum():
    for p in _grid():
        direct = math.fsum(c * c for c in mean_covariance_profile(p))
        assert _rel(covariance_with_mean_square_sum(p), direct) < 1e-12, (p.n, p.rho)


def test_sample_variance_mean_matches_oracle():
    for p in _grid(sigma=1.1):
        closed = mean_of_sample_variance(p)
        oracle = form_mean(centering_form(p.n), p)
        assert _rel(closed, oracle) < 1e-13, (p.n, p.rho)


@pytest.mark.parametrize("sigma", [1.0, 2.0, 1.3])
def test_sample_variance_mean_unbiased_iid(sigma):
    p = Ar1Params(mu=0.0, sigma=sigma, rho=0.0, n=11)
    assert mean_of_sample_variance(p) == sigma * sigma


def test_sample_variance_mean_shrinks_under_positive_rho():
    # positive autocorrelation makes the Bessel variance biased low
    p0 = Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=10)
    p1 = Ar1Params(mu=0.0, sigma=1.0, rho=0.6, n=10)
    assert mean_of_sample_variance(p1) < mean_of_sample_variance(p0) * (
        p1.marginal_variance / 1.0
    )
    # and stays strictly positive
    assert mean_of_sample_variance(p1) > 0.0


def test_fourth_moment_forms_exact_at_rho_zero():
    for n in GRID_N:
        p = Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=n)
        q = centering_form(n)
        m = form_mean(q, p)
        v = form_variance(q, p)
        assert _rel(second_moment_of_sample_variance(p), m * m + v) < 1e-13
        assert _rel(variance_of_sample_variance(p), v) < 1e-13


@pytest.mark.parametrize("rho", [-0.5, 0.5, 0.9])
def test_fourth_moment_forms_flagged_away_from_zero(rho):
    """The verbatim fourth-moment expressions disagree with the oracle.

    This is a property of the printed formulas, not of the oracle: the
    Monte Carlo suite confirms the trace values. The comparison layer
    must mark these reports discrepant and hand authority to the oracle.
    """
    p = Ar1Params(mu=0.0, sigma=1.0, rho=rho, n=10)
    for quantity in (
        MomentQuantity.SAMPLE_VARIANCE_SECOND_MOMENT,
        MomentQuantity.SAMPLE_VARIANCE_VARIANCE,
    ):
        report = compare_moment(quantity, p)
        assert report.discrepant
        assert report.rel_gap > DISCREPANCY_RTOL
        assert report.authoritative == report.oracle


def test_printed_variance_is_not_second_moment_minus_square():
    # the two printed fourth-moment blocks are internally inconsistent too
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.5, n=10)
    e2 = mean_of_sample_variance(p)
    gap = variance_of_sample_variance(p) - (
        second_moment_of_sample_variance(p) - e2 * e2
    )
    assert abs(gap) > 1e-3


def test_definitional_identity_on_oracle_route():
    # Var = E[x^2] - E[x]^2 holds exactly on the trace side
    p = Ar1Params(mu=0.0, sigma=1.0, rho=-0.5, n=30)
    q = centering_form(30)
    m2 = form_mean(q, p) ** 2
    from ar1_tstat.oracle import form_second_moment

    assert abs(form_second_moment(q, p) - m2 - form_variance(q, p)) < 1e-10 * max(
        form_second_moment(q, p), 1.0
    )


def test_compare_moment_report_fields():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.3, n=8)
    report = compare_moment(MomentQuantity.SAMPLE_VARIANCE_MEAN, p)
    assert isinstance(report, MomentReport)
    assert report.quantity is MomentQuantity.SAMPLE_VARIANCE_MEAN
    assert report.params == p
    assert report.abs_gap == abs(report.closed_form - report.oracle)
    assert not report.discrepant
    assert report.authoritative == report.closed_form


def test_compare_all_covers_every_scalar_quantity():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.7, n=12)
    reports = compare_all(p)
    kinds = {r.quantity for r in reports}
    assert kinds == {
        MomentQuantity.SCALED_MEAN_VARIANCE,
        MomentQuantity.MEAN_COVARIANCE_SQUARE_SUM,
        MomentQuantity.SAMPLE_VARIANCE_MEAN,
        MomentQuantity.SAMPLE_VARIANCE_SECOND_MOMENT,
        MomentQuantity.SAMPLE_VARIANCE_VARIANCE,
    }
    flagged = {r.quantity for r in reports if r.discrepant}
    assert flagged == {
        MomentQuantity.SAMPLE_VARIANCE_SECOND_MOMENT,
        MomentQuantity.SAMPLE_VARIANCE_VARIANCE,
    }


def test_extreme_corner_keeps_precision():
    # n=2, rho=0.99 is the cancellation-heavy corner; the closed form must
    # still track the oracle well beyond float64 naive evaluation
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.99, n=2)
    closed = mean_of_sample_variance(p)
    oracle = form_mean(centering_form(2), p)
    assert _rel(closed, oracle) < 1e-12
    assert closed == pytest.approx(1.0 / 1.99, rel=1e-12)  # n=2: E[s^2] = 1/(1+rho)
