"""Trace-identity oracle: exact Gaussian quadratic-form moments.

For centered Gaussian Y with covariance S and symmetric Q:
E[Y'QY] = tr(QS) and Var[Y'QY] = 2 tr((QS)^2). The sample variance is
Y'QY for the centering form Q = (I - 11'/n)/(n-1) applied to the
de-meaned process, so these give exact references with no algebra from
the closed-form layer.
"""

import math

import numpy as np
import pytest

from ar1_tstat import (
    Ar1Params,
    QuadraticForm,
    centering_form,
    covariance_matrix,
    form_mean,
    form_second_moment,
    form_variance,
    mean_covariance_profile,
    paths_from_normals,
    run_verification,
    scaled_mean_variance,
    stream_generator,
)
from ar1_tstat import oracle
from ar1_tstat.oracle import covariance_with_mean
from ar1_tstat.verification import DEFAULT_N_GRID, DEFAULT_RHO_GRID

_LD = np.longdouble


def test_quadratic_form_requires_symmetry():
    with pytest.raises(ValueError):
        QuadraticForm(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        QuadraticForm(np.zeros((2, 3)))


def test_quadratic_form_evaluate():
    q = QuadraticForm(np.array([[2.0, 1.0], [1.0, 3.0]]))
    y = np.array([1.0, -1.0])
    assert y @ q.matrix @ y == pytest.approx(2.0 - 2.0 + 3.0, rel=1e-15)
    assert q.dim == 2


def test_centering_form_structure():
    n = 6
    q = centering_form(n).matrix
    # (n-1) Q is the centering projector: idempotent, trace n-1
    proj = (n - 1) * q
    assert np.allclose(proj @ proj, proj, rtol=0.0, atol=1e-14)
    assert np.trace(proj) == pytest.approx(n - 1, rel=1e-14)
    assert np.allclose(q.sum(axis=0), 0.0, atol=1e-15)


def test_centering_form_is_the_bessel_variance():
    q = centering_form(5)
    y = np.array([0.4, -1.0, 2.2, 0.3, -0.9])
    assert y @ q.matrix @ y == pytest.approx(np.var(y, ddof=1), rel=1e-14)


def test_form_mean_iid_case():
    # iid: E[s^2] = sigma^2 exactly
    p = Ar1Params(mu=0.0, sigma=1.5, rho=0.0, n=7)
    assert form_mean(centering_form(7), p) == pytest.approx(2.25, rel=1e-15)


def test_form_variance_iid_case():
    # iid Gaussian: Var[s^2] = 2 sigma^4 / (n-1)
    n = 9
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=n)
    assert form_variance(centering_form(n), p) == pytest.approx(2.0 / (n - 1), rel=1e-13)


def test_second_moment_consistency():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=-0.5, n=30)
    q = centering_form(30)
    m = form_mean(q, p)
    v = form_variance(q, p)
    m2 = form_second_moment(q, p)
    assert m2 == pytest.approx(m * m + v, rel=1e-12)


def test_scaled_mean_variance_direct_sum():
    p = Ar1Params(mu=0.0, sigma=2.0, rho=0.6, n=8)
    cov = 4.0 * covariance_matrix(p)
    assert scaled_mean_variance(p) == pytest.approx(cov.sum() / 8.0, rel=1e-14)


def test_mean_covariance_profile_columns():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.4, n=6)
    cov = covariance_matrix(p)
    profile = mean_covariance_profile(p)
    assert profile.shape == (6,)
    for j in range(6):
        assert profile[j] == pytest.approx(cov[:, j].sum() / 6.0, rel=1e-14)
    for j in range(1, 7):
        assert covariance_with_mean(p, j) == pytest.approx(profile[j - 1], rel=1e-14)


def test_profile_reflection_symmetry():
    # Cov(mean, X_j) must mirror under j -> n+1-j by stationarity
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.8, n=11)
    profile = mean_covariance_profile(p)
    assert np.allclose(profile, profile[::-1], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n", [5, 20])
@pytest.mark.parametrize("rho", [-0.8, 0.0, 0.8])
def test_oracle_against_monte_carlo(n, rho):
    """Trace identities hold on simulated paths within 4 standard errors."""
    p = Ar1Params(mu=0.0, sigma=1.0, rho=rho, n=n)
    reps = 100_000
    z = stream_generator(515, 0).standard_normal((reps, n))
    paths = paths_from_normals(p, z)
    centered = paths - paths.mean(axis=1, keepdims=True)
    s2 = np.sum(centered * centered, axis=1) / (n - 1)
    q = centering_form(n)
    want_mean, want_var = form_mean(q, p), form_variance(q, p)
    se_mean = s2.std(ddof=1) / math.sqrt(reps)
    assert abs(s2.mean() - want_mean) < 4 * se_mean
    dev = (s2 - s2.mean()) ** 2
    se_var = dev.std(ddof=1) / math.sqrt(reps)
    assert abs(s2.var(ddof=1) - want_var) < 4 * se_var


def test_sigma_enters_as_fourth_power_in_variance():
    q = centering_form(6)
    base = Ar1Params(mu=0.0, sigma=1.0, rho=0.3, n=6)
    scaled = Ar1Params(mu=0.0, sigma=2.0, rho=0.3, n=6)
    assert form_variance(q, scaled) == pytest.approx(16.0 * form_variance(q, base), rel=1e-14)


def test_mu_does_not_enter():
    # s^2 is translation invariant; the oracle must ignore mu
    q = centering_form(5)
    a = Ar1Params(mu=0.0, sigma=1.0, rho=0.5, n=5)
    b = Ar1Params(mu=7.0, sigma=1.0, rho=0.5, n=5)
    assert form_mean(q, a) == form_mean(q, b)
    assert form_variance(q, a) == form_variance(q, b)


def _dense_covariance(p):
    # entrywise rho^|i-j|, one power per entry: independent of the lag gather
    rho = _LD(p.rho)
    scale = _LD(p.sigma) ** 2 / (_LD(1.0) - rho * rho)
    idx = np.arange(p.n)
    return scale * rho ** np.abs(idx[:, None] - idx[None, :])


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63,
    reason="the dense reference is bit-equal only with 80-bit long double",
)
def test_oracle_matches_dense_product_bit_for_bit():
    for n in DEFAULT_N_GRID:
        q = centering_form(n)
        qld = q.matrix.astype(_LD)
        for rho in DEFAULT_RHO_GRID:
            p = Ar1Params(mu=0.0, sigma=1.0, rho=rho, n=n)
            cov = _dense_covariance(p)
            mean = (qld * cov.T).sum()
            prod = qld @ cov
            var = _LD(2.0) * (prod * prod.T).sum()
            assert form_mean(q, p) == float(mean)
            assert form_variance(q, p) == float(var)
            assert form_second_moment(q, p) == float(mean * mean + var)
            assert scaled_mean_variance(p) == float(cov.sum() / _LD(n))
            profile = (cov.sum(axis=1) / _LD(n)).astype(float)
            assert np.array_equal(mean_covariance_profile(p), profile)


@pytest.mark.parametrize("rho", [-0.999, 0.999])
def test_sweep_product_matches_dense_product(rho):
    n = 40
    a = stream_generator(808, 0).standard_normal((n, n))
    q = QuadraticForm(a + a.T)
    p = Ar1Params(mu=0.0, sigma=1.3, rho=rho, n=n)
    qld = q.matrix.astype(_LD)
    dense = qld @ _dense_covariance(p)
    sweep = oracle._form_times_covariance(qld, p)
    assert np.abs(sweep - dense).max() <= 1e-15 * np.abs(dense).max()
    want = 2.0 * (dense * dense.T).sum()
    assert form_variance(q, p) == pytest.approx(float(want), rel=1e-15)


def test_grid_point_builds_covariance_and_product_once():
    oracle._covariance_extended.cache_clear()
    oracle._trace_of_square.cache_clear()
    run_verification(n_grid=[5], rho_grid=[0.5])
    info = oracle._covariance_extended.cache_info()
    assert info.misses == 1
    assert info.hits > 0
    # the variance and the second moment share one Q S product
    assert oracle._trace_of_square.cache_info().misses == 1


def test_cached_covariance_is_read_only():
    cov = oracle._covariance_extended(Ar1Params(mu=0.0, sigma=1.0, rho=0.3, n=4))
    with pytest.raises(ValueError):
        cov[0, 0] = 0.0


def test_grid_point_builds_mean_covariance_profile_once():
    mean_covariance_profile.cache_clear()
    run_verification(n_grid=[5, 10], rho_grid=[0.5, -0.9])
    info = mean_covariance_profile.cache_info()
    assert info.misses == 4
    assert info.hits > 0
    # the per-coordinate oracle reads the cached profile
    p = Ar1Params(mu=0.0, sigma=1.0, rho=-0.9, n=10)
    assert covariance_with_mean(p, 3) == mean_covariance_profile(p)[2]
    assert mean_covariance_profile.cache_info().misses == 4


def test_cached_profile_is_read_only():
    profile = mean_covariance_profile(Ar1Params(mu=0.0, sigma=1.0, rho=0.3, n=4))
    with pytest.raises(ValueError):
        profile[0] = 0.0


@pytest.mark.parametrize("n", [1, 0, -3])
def test_centering_form_needs_two_coordinates(n):
    with pytest.raises(ValueError, match=f"n must be at least 2, got {n}"):
        centering_form(n)


def test_form_of_another_dimension_is_rejected():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.3, n=4)
    with pytest.raises(ValueError, match="form has dim 3, params have n = 4"):
        form_mean(centering_form(3), p)
