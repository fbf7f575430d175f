"""Matrix-route ground truth for the closed-form moment expressions.

For a zero-mean Gaussian vector Y with covariance S and a symmetric matrix
Q, the classical quadratic-form identities give

    E[Y' Q Y]   = tr(Q S)
    Var[Y' Q Y] = 2 tr((Q S)^2)

The Bessel-corrected sample variance is exactly such a quadratic form (see
``centering_form``), and every statistic treated here is invariant under
adding a constant to the path, so working with the centered process loses
nothing. None of these routines touches the scalar closed forms in
``moments``; agreement between the two routes is therefore evidence, not
circularity.

All matrix work runs in 80-bit extended precision with pairwise
reductions. That keeps the oracle comfortably more accurate than the
float64 expressions it is used to judge: the binding comparisons are at
1e-12 relative, and cancellation at grid corners like (n=2, rho=0.99)
leaves plain float64 with almost no headroom there.

S = s R with s = sigma^2 / (1 - rho^2) and R[i, j] = rho^|i-j| is
Toeplitz, so it is built from the n powers rho^0 .. rho^(n-1) gathered by
lag. The last S built is cached (read-only), so the several queries made
at one grid point share one build. The last profile S 1 / n, the last
centering form and the last tr((Q S)^2) are cached too; the variance and
the second moment share the latter. The product Q S is never formed as a
dense matmul: column j of Q R is

    F[:, j] + B[:, j],   F[:, j] = sum_{k <= j} rho^(j-k) Q[:, k],
                         B[:, j] = sum_{k > j}  rho^(k-j) Q[:, k],

and both sums are first-order recursions over j, one run forward and one
backward, advanced together in one loop: O(n^2) in all.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .params import Ar1Params, integer

__all__ = [
    "QuadraticForm",
    "centering_form",
    "form_mean",
    "form_variance",
    "form_second_moment",
    "scaled_mean_variance",
    "covariance_with_mean",
    "mean_covariance_profile",
]

_LD = np.longdouble


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """A symmetric matrix viewed as the map y -> y' Q y.

    Forms compare and hash by identity, so a form can key a cache.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        q = np.array(self.matrix, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"quadratic form must be square, got shape {q.shape}")
        if not np.allclose(q, q.T, rtol=0.0, atol=1e-14):
            raise ValueError("quadratic form must be symmetric (within 1e-14)")
        q.setflags(write=False)
        object.__setattr__(self, "matrix", q)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@functools.lru_cache(maxsize=1)
def centering_form(n: int) -> QuadraticForm:
    """Form whose value at a path is the Bessel-corrected sample variance.

    The matrix is (I - J/n) / (n - 1) with J the all-ones matrix; it
    annihilates the constant vector, so the form only sees deviations from
    the sample mean. The last form built is cached; it is immutable.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    q = (np.eye(n) - np.full((n, n), 1.0 / n)) / (n - 1)
    return QuadraticForm(q)


def _scale(params: Ar1Params) -> np.longdouble:
    # the marginal variance sigma^2 / (1 - rho^2)
    rho = _LD(params.rho)
    return _LD(params.sigma) ** 2 / (_LD(1.0) - rho * rho)


@functools.lru_cache(maxsize=1)
def _covariance_extended(params: Ar1Params) -> np.ndarray:
    # sigma^2 Omega in extended precision, from the n lag powers
    rho = _LD(params.rho)
    idx = np.arange(params.n)
    cov = _scale(params) * (rho**idx)[np.abs(idx[:, None] - idx[None, :])]
    cov.setflags(write=False)
    return cov


def _form_times_covariance(q: np.ndarray, params: Ar1Params) -> np.ndarray:
    """Q S in extended precision, by one AR sweep run both ways over Q.

    Column j of Q R is F_j + B_j, where F_0 = Q_0, F_j = rho F_(j-1) + Q_j,
    and B_(n-1) = 0, B_j = rho G_j with G_(n-2) = Q_(n-1),
    G_j = rho G_(j+1) + Q_(j+1). F and G are the same recursion, one
    forward and one backward, so a single loop advances both: sweep[j]
    holds F_j and G_(n-2-j).
    """
    rho = _LD(params.rho)
    n = len(q)
    sweep = np.empty((n, 2, n), dtype=_LD)
    sweep[:, 0] = q.T
    sweep[:, 1] = q.T[::-1]
    for j in range(1, n):
        sweep[j] += rho * sweep[j - 1]
    prod_t = sweep[:, 0]
    prod_t[:-1] += rho * sweep[-2::-1, 1]
    prod_t *= _scale(params)
    return prod_t.T


def _check_dim(form: QuadraticForm, params: Ar1Params) -> None:
    if form.dim != params.n:
        raise ValueError(f"form has dim {form.dim}, params have n = {params.n}")


def _trace_of_product(form: QuadraticForm, params: Ar1Params) -> np.longdouble:
    # tr(Q S) without forming the product: sum of Q entrywise times S.T
    return (form.matrix.astype(_LD) * _covariance_extended(params).T).sum()


def form_mean(form: QuadraticForm, params: Ar1Params) -> float:
    """E[Y' Q Y] = tr(Q S) for the centered path covariance S = sigma^2 Omega."""
    _check_dim(form, params)
    return float(_trace_of_product(form, params))


@functools.lru_cache(maxsize=1)
def _trace_of_square(form: QuadraticForm, params: Ar1Params) -> np.longdouble:
    # tr((Q S)^2), shared by the variance and the second moment
    prod = _form_times_covariance(form.matrix, params)
    return (prod * prod.T).sum()


def form_variance(form: QuadraticForm, params: Ar1Params) -> float:
    """Var[Y' Q Y] = 2 tr((Q S)^2)."""
    _check_dim(form, params)
    return float(_LD(2.0) * _trace_of_square(form, params))


def form_second_moment(form: QuadraticForm, params: Ar1Params) -> float:
    """E[(Y' Q Y)^2] = (tr Q S)^2 + 2 tr((Q S)^2)."""
    _check_dim(form, params)
    mean = _trace_of_product(form, params)
    return float(mean * mean + _LD(2.0) * _trace_of_square(form, params))


def scaled_mean_variance(params: Ar1Params) -> float:
    """Variance of sqrt(n) times the sample mean: the full sum of S over n."""
    cov = _covariance_extended(params)
    return float(cov.sum() / _LD(params.n))


@functools.lru_cache(maxsize=1)
def mean_covariance_profile(params: Ar1Params) -> np.ndarray:
    """Vector of Cov(sample mean, X_j) for j = 1..n, i.e. S 1 / n.

    The last profile built is cached; it is read-only.
    """
    cov = _covariance_extended(params)
    profile = (cov.sum(axis=1) / _LD(params.n)).astype(float)
    profile.setflags(write=False)
    return profile


def covariance_with_mean(params: Ar1Params, j: int) -> float:
    """Cov(sample mean, X_j) as the j-th entry of S 1 / n, 1-based j."""
    j = integer("j", j)
    if not 1 <= j <= params.n:
        raise ValueError(f"j must lie in 1..{params.n}, got {j}")
    return float(mean_covariance_profile(params)[j - 1])
