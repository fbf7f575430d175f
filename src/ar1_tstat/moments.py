"""Closed-form moments of the sample mean and sample variance under AR(1).

Each function evaluates one closed-form expression for a moment of the
t-statistic's numerator or denominator. The matrix-trace routines in
``oracle`` reach the same quantities by an independent route; the
``compare_moment`` helper reports both values side by side for each of
the five scalar quantities of ``MomentQuantity`` and flags relative gaps
above DISCREPANCY_RTOL; ``moment_grid`` runs it over an (n, rho) grid. The
per-coordinate covariances and their total are checked by ``verification``.

Status of the expressions, established against the trace oracle over the
full (n, rho) grid:

* the scaled-mean variance (both printed forms), the per-coordinate
  covariances with the mean, their total and their square sum, and the
  mean of the sample variance agree with the oracle to near machine
  precision everywhere;
* the fourth-moment expressions (``second_moment_of_sample_variance``,
  ``variance_of_sample_variance``) collapse to the classical chi-square
  values at rho = 0 but disagree with the oracle for rho != 0 by margins
  far above rounding. They are kept verbatim by design; their reports
  carry ``discrepant=True`` and the oracle value is authoritative
  downstream.

Internally everything is evaluated in 80-bit scalars: several expressions
cancel catastrophically near |rho| = 1 (for instance the mean of the
sample variance at n = 2, rho = 0.99 computes 1 - 198 + 197.01), and plain
float64 would not survive the 1e-12 comparisons at those corners.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .params import Ar1Params, integer

__all__ = [
    "DISCREPANCY_RTOL",
    "MomentQuantity",
    "MomentReport",
    "variance_of_scaled_mean",
    "variance_of_scaled_mean_regrouped",
    "covariance_with_mean",
    "covariance_with_mean_square_sum",
    "mean_of_sample_variance",
    "second_moment_of_sample_variance",
    "variance_of_sample_variance",
    "compare_moment",
    "moment_grid",
]

# A closed form whose relative gap to the trace oracle exceeds this is
# reported as discrepant and the oracle value wins downstream.
DISCREPANCY_RTOL = 1e-8

_LD = np.longdouble
_ONE = _LD(1.0)


def _ld(params: Ar1Params) -> tuple[np.longdouble, np.longdouble, int]:
    return _LD(params.rho), _LD(params.sigma), params.n


def variance_of_scaled_mean(params: Ar1Params) -> float:
    """Variance of sqrt(n) times the sample mean of the path.

    Closed form sigma^2/(1-rho^2) [(1+rho)/(1-rho) - 2 rho (1-rho^n) /
    (n (1-rho)^2)]. Tends to sigma^2/(1-rho)^2 as n grows and reduces to
    sigma^2 at rho = 0.
    """
    rho, sigma, n = _ld(params)
    rho_n = rho**n
    bracket = (_ONE + rho) / (_ONE - rho) - 2 * rho * (_ONE - rho_n) / (
        _LD(n) * (_ONE - rho) ** 2
    )
    return float(sigma**2 / (_ONE - rho**2) * bracket)


def variance_of_scaled_mean_regrouped(params: Ar1Params) -> float:
    """Algebraically equal regrouping of variance_of_scaled_mean.

    Written as sigma^2/(1-rho)^2 [1 - 2 rho (1-rho^n)/(n (1-rho)(1+rho))];
    kept as a separate evaluation path so the two printed forms can be
    checked against each other numerically.
    """
    rho, sigma, n = _ld(params)
    rho_n = rho**n
    bracket = _ONE - 2 * rho * (_ONE - rho_n) / (_LD(n) * (_ONE - rho) * (_ONE + rho))
    return float(sigma**2 / (_ONE - rho) ** 2 * bracket)


def covariance_with_mean(params: Ar1Params, j: int) -> float:
    """Cov(sample mean, X_j) for 1-based j.

    Closed form sigma^2/(n (1-rho^2)) (1 + rho - rho^(n+1-j) - rho^j) /
    (1-rho). The two boundary powers are summed before subtraction so the
    value is bitwise symmetric under j <-> n+1-j.
    """
    j = integer("j", j)
    if not 1 <= j <= params.n:
        raise ValueError(f"j must lie in 1..{params.n}, got {j}")
    rho, sigma, n = _ld(params)
    boundary = rho ** (n + 1 - j) + rho**j
    bracket = (_ONE + rho - boundary) / (_ONE - rho)
    return float(sigma**2 / (_LD(n) * (_ONE - rho**2)) * bracket)


def covariance_with_mean_total(params: Ar1Params) -> float:
    """Sum over j of covariance_with_mean, i.e. n Var(sample mean).

    The closed form of the total coincides with variance_of_scaled_mean,
    the public name; this one is left out of __all__, has no caller in
    the package and stays only because bench/spans.py traces it by name.
    """
    return variance_of_scaled_mean(params)


def covariance_with_mean_square_sum(params: Ar1Params) -> float:
    """Sum over j of Cov(sample mean, X_j)^2, in closed form."""
    rho, sigma, n = _ld(params)
    rho_n = rho**n
    one_minus = _ONE - rho
    first = ((_ONE + rho) ** 2 + 2 * rho * rho_n) / one_minus**2 / _LD(n)
    second = (
        (4 * (_ONE + rho) ** 2 * rho * (_ONE - rho_n) - 2 * rho**2 * (_ONE - rho_n**2))
        / (one_minus**2 * (_ONE - rho**2))
        / _LD(n) ** 2
    )
    return float(sigma**4 / (_ONE - rho**2) ** 2 * (first - second))


def mean_of_sample_variance(params: Ar1Params) -> float:
    """Expectation of the Bessel-corrected sample variance.

    sigma^2/(1-rho^2) (1 - 2 rho/((1-rho)(n-1)) + 2 rho (1-rho^n) /
    (n (n-1) (1-rho)^2)); equal to sigma^2 at rho = 0 (unbiasedness) and
    strictly below the marginal variance for rho > 0.
    """
    rho, sigma, n = _ld(params)
    rho_n = rho**n
    bracket = (
        _ONE
        - 2 * rho / ((_ONE - rho) * _LD(n - 1))
        + 2 * rho * (_ONE - rho_n) / (_LD(n) * _LD(n - 1) * (_ONE - rho) ** 2)
    )
    return float(sigma**2 / (_ONE - rho**2) * bracket)


def second_moment_of_sample_variance(params: Ar1Params) -> float:
    """E[(sample variance)^2] via the four-block closed form, verbatim.

    Known to disagree with the trace oracle for rho != 0 (see the module
    docstring); compare_moment surfaces the gap instead of patching the
    expression.
    """
    rho, sigma, n = _ld(params)
    rho_n = rho**n
    one_minus_sq = _ONE - rho**2
    block1 = -4 / one_minus_sq
    block2 = (
        -2
        * (
            3
            + 9 * rho
            + 11 * rho**2
            + 3 * rho**3
            + 6 * rho_n
            + 12 * rho * rho_n
            + 6 * rho**2 * rho_n
            - 2 * rho**2 * rho_n**2
        )
        / one_minus_sq**2
    )
    block3 = (
        4
        * (_ONE - rho_n)
        * (_ONE - 3 * rho + 4 * rho**2 - 8 * rho * rho_n)
        / ((_ONE - rho) ** 3 * (_ONE + rho))
    )
    block4 = 12 * rho * (_ONE - rho_n) ** 2 / (_ONE - rho) ** 4
    combined = _LD(n * n - 1) + rho * (
        _LD(n) * block1 + block2 + block3 / _LD(n) + block4 / _LD(n) ** 2
    )
    return float(sigma**4 / one_minus_sq**2 / _LD(n - 1) ** 2 * combined)


def variance_of_sample_variance(params: Ar1Params) -> float:
    """Var(sample variance) via the four-block closed form, verbatim.

    Same status as second_moment_of_sample_variance: correct at rho = 0
    (classical 2 sigma^4/(n-1)), discrepant against the oracle elsewhere.
    """
    rho, sigma, n = _ld(params)
    rho_n = rho**n
    one_minus = _ONE - rho
    one_minus_sq = _ONE - rho**2
    block1 = -2 / (_ONE + rho)
    block2 = (
        -2 / one_minus
        - 4 * rho**2 / one_minus**2
        - 2 * (_ONE - rho_n) / one_minus**2
        - 2
        * (
            12 * rho * rho_n
            + 6 * rho**2 * rho_n
            - 2 * rho**2 * rho_n**2
            + 6 * rho_n
            + 3 * rho**3
            + 11 * rho**2
            + 9 * rho
            + 3
        )
        / one_minus_sq**2
    )
    block3 = (
        (_ONE - rho_n)
        * (13 - 4 * rho + 15 * rho**2 - rho_n - 32 * rho * rho_n + rho**2 * rho_n)
        / (one_minus**3 * (_ONE + rho))
    )
    block4 = -4 * (_ONE - 3 * rho) * (_ONE - rho_n) ** 2 / one_minus**4
    combined = _LD(2.0) + rho / _LD(n - 1) * (
        _LD(n) * block1 + block2 + block3 / _LD(n) + block4 / _LD(n) ** 2
    )
    return float(sigma**4 / one_minus_sq**2 / _LD(n - 1) * combined)


class MomentQuantity(enum.Enum):
    """Scalar moment quantities with both a closed form and a matrix oracle."""

    SCALED_MEAN_VARIANCE = "scaled_mean_variance"
    MEAN_COVARIANCE_SQUARE_SUM = "mean_covariance_square_sum"
    SAMPLE_VARIANCE_MEAN = "sample_variance_mean"
    SAMPLE_VARIANCE_SECOND_MOMENT = "sample_variance_second_moment"
    SAMPLE_VARIANCE_VARIANCE = "sample_variance_variance"


@dataclass(frozen=True)
class MomentReport:
    """Closed form vs oracle for one quantity at one parameter point.

    rel_gap uses max(|oracle|, 1e-300) as denominator; discrepant is set
    when rel_gap exceeds DISCREPANCY_RTOL or is NaN.
    """

    quantity: MomentQuantity
    params: Ar1Params
    closed_form: float
    oracle: float
    abs_gap: float
    rel_gap: float
    discrepant: bool

    @property
    def authoritative(self) -> float:
        """The value downstream code should trust."""
        return self.oracle if self.discrepant else self.closed_form


def _routes(quantity: MomentQuantity, params: Ar1Params) -> tuple[float, float]:
    """(closed form, oracle) of one quantity, closed form evaluated first.

    Every function is looked up at call time, so swapping a module
    attribute (as call-time tracing does) reaches this route too.
    """
    q = MomentQuantity
    if quantity is q.SCALED_MEAN_VARIANCE:
        return variance_of_scaled_mean(params), oracle.scaled_mean_variance(params)
    if quantity is q.MEAN_COVARIANCE_SQUARE_SUM:
        closed = covariance_with_mean_square_sum(params)
        profile = oracle.mean_covariance_profile(params)
        return closed, math.fsum(float(c) * float(c) for c in profile)
    form = oracle.centering_form(params.n)
    if quantity is q.SAMPLE_VARIANCE_MEAN:
        return mean_of_sample_variance(params), oracle.form_mean(form, params)
    if quantity is q.SAMPLE_VARIANCE_SECOND_MOMENT:
        return second_moment_of_sample_variance(params), oracle.form_second_moment(form, params)
    return variance_of_sample_variance(params), oracle.form_variance(form, params)


def compare_moment(quantity: MomentQuantity, params: Ar1Params) -> MomentReport:
    """Evaluate one quantity by both routes and report the gap."""
    closed, oracle_value = _routes(quantity, params)
    abs_gap = abs(closed - oracle_value)
    rel_gap = abs_gap / max(abs(oracle_value), 1e-300)
    return MomentReport(
        quantity=quantity,
        params=params,
        closed_form=closed,
        oracle=oracle_value,
        abs_gap=abs_gap,
        rel_gap=rel_gap,
        discrepant=not rel_gap <= DISCREPANCY_RTOL,
    )


def moment_grid(n_grid, rho_grid, sigma: float):
    """Closed form against oracle at every (n, rho) point, n-major.

    The one grid evaluator behind ``table-moments`` and
    ``verification.run_verification``. Yields ``(params, {quantity:
    MomentReport})`` with mu = 0: ``compare_moment`` of every
    ``MomentQuantity``, in the enum's order, looked up at call time.
    """
    for n in n_grid:
        for rho in rho_grid:
            params = Ar1Params(mu=0.0, sigma=sigma, rho=rho, n=n)
            yield params, {q: compare_moment(q, params) for q in MomentQuantity}
