"""Structured matrices of the stationary AR(1) covariance algebra.

Every builder fills entries from explicit closed-form expressions; none
calls a generic factorization routine. The test suite checks the builders
against numpy's generic Cholesky and inverse, so the closed forms stay
authoritative for speed while the generic routines serve as oracles.

The covariance here is normalized to unit innovation variance: multiply by
sigma**2 to get the covariance of the observable process.
"""

from __future__ import annotations

import math

import numpy as np

from .params import Ar1Params

__all__ = [
    "covariance_matrix",
    "covariance_cholesky",
    "cholesky_perturbation",
    "precision_matrix",
    "whitening_matrix",
]


def _lag_powers(n: int, rho: float) -> np.ndarray:
    """The n x n matrix of rho^|i-j|: n powers, gathered by lag."""
    idx = np.arange(n)
    return (rho ** idx)[np.abs(idx[:, None] - idx[None, :])]


def covariance_matrix(params: Ar1Params) -> np.ndarray:
    """Symmetric Toeplitz matrix with entries rho^|i-j| / (1 - rho^2).

    Entry (i, j) equals Cov(X_i, X_j) / sigma^2 for the stationary process.

    Returns
    -------
    numpy.ndarray
        Positive definite matrix of shape (n, n).
    """
    return _lag_powers(params.n, params.rho) / (1.0 - params.rho**2)


def covariance_cholesky(params: Ar1Params) -> np.ndarray:
    """Lower-triangular factor C with C @ C.T equal to covariance_matrix.

    The first column holds rho^(i-1) / sqrt(1 - rho^2); every later column
    holds rho^(i-j) on and below the diagonal. Entries above the diagonal
    are exact zeros.
    """
    rho = params.rho
    factor = np.tril(_lag_powers(params.n, rho))
    factor[:, 0] /= math.sqrt(1.0 - rho * rho)
    return factor


def cholesky_perturbation(params: Ar1Params) -> np.ndarray:
    """covariance_cholesky minus the identity, as an exact difference.

    Diagonal entries of the factor are >= 1, so subtracting 1 is exact in
    floating point and adding the identity back reproduces the factor bit
    for bit.
    """
    pert = covariance_cholesky(params)
    diag = np.diag_indices(params.n)
    pert[diag] -= 1.0
    return pert


def precision_matrix(params: Ar1Params) -> np.ndarray:
    """Tridiagonal inverse of covariance_matrix.

    Interior diagonal entries are 1 + rho^2, the two corners are 1, and
    both off-diagonals hold -rho. The product with covariance_matrix is
    the identity in exact arithmetic.
    """
    n, rho = params.n, params.rho
    diag = np.full(n, 1.0 + rho * rho)
    diag[0] = diag[-1] = 1.0
    prec = np.diag(diag)
    sub = np.arange(n - 1)
    prec[sub + 1, sub] = -rho
    prec[sub, sub + 1] = -rho
    return prec


def whitening_matrix(params: Ar1Params) -> np.ndarray:
    """Lower-bidiagonal map W with W @ Omega @ W.T = I for the covariance Omega.

    Row 1 scales the first observation by sqrt(1 - rho^2); each later row i
    forms X_i - rho * X_{i-1}. W.T @ W equals precision_matrix, and applying
    W to a path yields uncorrelated coordinates of variance sigma^2.
    """
    n, rho = params.n, params.rho
    wh = np.eye(n)
    wh[0, 0] = math.sqrt(1.0 - rho * rho)
    sub = np.arange(n - 1)
    wh[sub + 1, sub] = -rho
    return wh
