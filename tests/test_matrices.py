"""Structural and algebraic checks on the stationary covariance factorizations."""

import numpy as np
import pytest

from ar1_tstat import (
    Ar1Params,
    cholesky_perturbation,
    covariance_cholesky,
    covariance_matrix,
    precision_matrix,
    whitening_matrix,
)

GRID_N = [2, 3, 5, 10, 50]
GRID_RHO = [-0.95, -0.5, 0.0, 0.3, 0.9]


def _params(n, rho):
    return Ar1Params(mu=0.0, sigma=1.0, rho=rho, n=n)


@pytest.mark.parametrize("n", GRID_N)
@pytest.mark.parametrize("rho", GRID_RHO)
def test_covariance_entries(n, rho):
    om = covariance_matrix(_params(n, rho))
    scale = 1.0 / (1.0 - rho * rho)
    for i in range(n):
        for j in range(n):
            assert om[i, j] == pytest.approx(rho ** abs(i - j) * scale, rel=1e-15)


def test_covariance_is_toeplitz_and_symmetric():
    om = covariance_matrix(_params(8, 0.6))
    assert np.array_equal(om, om.T)
    for k in range(1, 8):
        diag = np.diagonal(om, offset=k)
        assert np.all(diag == diag[0])


@pytest.mark.parametrize("n", GRID_N)
@pytest.mark.parametrize("rho", GRID_RHO)
def test_cholesky_reproduces_covariance(n, rho):
    p = _params(n, rho)
    m = covariance_cholesky(p)
    om = covariance_matrix(p)
    assert np.allclose(m @ m.T, om, rtol=0.0, atol=1e-12)
    # lower triangular with positive diagonal
    assert np.array_equal(m, np.tril(m))
    assert np.all(np.diag(m) > 0)


def test_cholesky_matches_numpy_factorization():
    p = _params(12, 0.7)
    m = covariance_cholesky(p)
    ref = np.linalg.cholesky(covariance_matrix(p))
    assert np.allclose(m, ref, rtol=0.0, atol=1e-12)


def test_perturbation_recombines_bitwise():
    """I + N must reassemble the Cholesky factor with no rounding at all."""
    for n, rho in [(2, -0.9), (7, 0.5), (40, 0.99)]:
        p = _params(n, rho)
        m = covariance_cholesky(p)
        recombined = np.eye(n) + cholesky_perturbation(p)
        assert np.array_equal(recombined, m)


@pytest.mark.parametrize("n", GRID_N)
@pytest.mark.parametrize("rho", GRID_RHO)
def test_precision_inverts_covariance(n, rho):
    p = _params(n, rho)
    prod = precision_matrix(p) @ covariance_matrix(p)
    assert np.allclose(prod, np.eye(n), rtol=0.0, atol=1e-10)


def test_precision_is_tridiagonal():
    a = precision_matrix(_params(9, 0.4))
    mask = np.abs(np.subtract.outer(np.arange(9), np.arange(9))) > 1
    assert np.all(a[mask] == 0.0)
    assert a[0, 0] == 1.0 and a[8, 8] == 1.0
    assert a[3, 3] == pytest.approx(1.0 + 0.16, rel=1e-15)
    assert a[3, 4] == -0.4


@pytest.mark.parametrize("n", GRID_N)
@pytest.mark.parametrize("rho", GRID_RHO)
def test_whitening_diagonalizes_covariance(n, rho):
    p = _params(n, rho)
    ell = whitening_matrix(p)
    om = covariance_matrix(p)
    assert np.allclose(ell @ om @ ell.T, np.eye(n), rtol=0.0, atol=1e-10)
    assert np.allclose(ell.T @ ell, precision_matrix(p), rtol=0.0, atol=1e-12)


def test_whitening_is_banded_lower():
    ell = whitening_matrix(_params(6, 0.8))
    assert ell[0, 0] == pytest.approx(np.sqrt(1.0 - 0.64), rel=1e-15)
    assert np.all(np.diag(ell)[1:] == 1.0)
    assert np.all(np.diag(ell, k=-1) == -0.8)
    mask = np.abs(np.subtract.outer(np.arange(6), np.arange(6))) > 1
    assert np.all(ell[mask] == 0.0)


def test_sigma_scaling_is_applied_outside():
    # matrices are normalized to unit innovation variance by contract
    p1 = _params(5, 0.5)
    p2 = Ar1Params(mu=0.0, sigma=3.0, rho=0.5, n=5)
    assert np.array_equal(covariance_matrix(p1), covariance_matrix(p2))


# 14 values of rho: the stationary edges, 1e-300, whose powers underflow,
# and the subnormal -1e-310, whose odd powers underflow to -0.0
_BITS_RHO = [
    0.0, 1e-300, -1e-310, 1e-5, 0.3, -0.123456789, 0.5, -0.5, 0.7, 0.9, -0.95,
    0.999999, 1.0 - 1e-9, -(1.0 - 1e-9),
]


@pytest.mark.parametrize("n", [2, 3, 5, 10, 50, 200, 257, 1000])
def test_builders_have_the_bits_of_elementwise_lag_powers(n):
    # the builders take n powers and gather them by lag; rho ** lags takes
    # n^2, one per entry, with the same bits
    idx = np.arange(n)
    lags = np.abs(idx[:, None] - idx[None, :])
    for rho in _BITS_RHO:
        params = _params(n, rho)
        covariance = rho**lags / (1.0 - rho**2)
        factor = np.where(lags == idx[:, None] - idx[None, :], rho**lags, 0.0)
        factor[:, 0] /= np.sqrt(1.0 - rho * rho)
        assert covariance_matrix(params).tobytes() == covariance.tobytes(), rho
        assert covariance_cholesky(params).tobytes() == factor.tobytes(), rho
