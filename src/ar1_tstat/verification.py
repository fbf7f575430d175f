"""Grid verification: exact identities plus closed-form-vs-oracle reports.

The identity checks are hard contracts (matrix factorizations, equality of
the two printed scaled-mean forms, closed forms against the trace oracle
at second order) and make the report fail when violated. The fourth-moment
closed forms are handled separately: their disagreement with the oracle is
an established property of the expressions, so flagged gaps are collected
into a non-fatal discrepancy section instead.

The matrix identities are dense BLAS products, whose last bits follow the
thread count; the CLI runs one thread at every n (see ``__main__``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import moments, oracle
from .matrices import (
    covariance_cholesky,
    covariance_matrix,
    cholesky_perturbation,
    precision_matrix,
    whitening_matrix,
)
from .moments import MomentQuantity
from .params import Ar1Params, integer

__all__ = [
    "DEFAULT_N_GRID",
    "DEFAULT_RHO_GRID",
    "SMALL_N_GRID",
    "SMALL_RHO_GRID",
    "IdentityCheck",
    "VerificationReport",
    "moment_grid",
    "run_verification",
]

DEFAULT_N_GRID = (2, 3, 5, 10, 50, 200)
DEFAULT_RHO_GRID = (-0.99, -0.5, 0.0, 0.5, 0.9, 0.99)

SMALL_N_GRID = (2, 3, 10, 50)
SMALL_RHO_GRID = (-0.9, 0.0, 0.5, 0.9)

# absolute tolerances for entrywise matrix identities, relative for scalars
_TOLERANCES = {
    "cholesky_reproduces_covariance": 1e-12,
    "whitening_gram_is_precision": 1e-12,
    "precision_inverts_covariance": 1e-10,
    "whitening_diagonalizes_covariance": 1e-10,
    "perturbation_recombines_exactly": 0.0,
    "scaled_mean_variance_forms_agree": 1e-12,
    "scaled_mean_variance_matches_oracle": 1e-12,
    "mean_covariance_matches_oracle": 1e-12,
    "mean_covariance_sum_is_total": 1e-12,
    "mean_covariance_square_sum_matches_oracle": 1e-12,
    "sample_variance_mean_matches_oracle": 1e-12,
}


# checks read straight off the grid evaluator's closed-form-vs-oracle reports
_ORACLE_CHECKS = {
    "scaled_mean_variance_matches_oracle": MomentQuantity.SCALED_MEAN_VARIANCE,
    "mean_covariance_square_sum_matches_oracle": MomentQuantity.MEAN_COVARIANCE_SQUARE_SUM,
    "sample_variance_mean_matches_oracle": MomentQuantity.SAMPLE_VARIANCE_MEAN,
}
_FOURTH_MOMENT = (
    MomentQuantity.SAMPLE_VARIANCE_SECOND_MOMENT,
    MomentQuantity.SAMPLE_VARIANCE_VARIANCE,
)


@dataclass(frozen=True)
class IdentityCheck:
    """Worst observed gap of one identity over the whole grid."""

    name: str
    tolerance: float
    max_gap: float
    worst_n: int
    worst_rho: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a verification run.

    passed reflects the identity checks only; discrepancies list the
    fourth-moment grid points where the verbatim closed forms disagree
    with the trace oracle (expected, non-fatal).
    """

    checks: tuple[IdentityCheck, ...]
    discrepancies: tuple[moments.MomentReport, ...]
    n_grid: tuple[int, ...]
    rho_grid: tuple[float, ...]
    sigma: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "grid": {
                "n": list(self.n_grid),
                "rho": list(self.rho_grid),
                "sigma": self.sigma,
            },
            "checks": [asdict(c) for c in self.checks],
            "discrepancies": [
                {
                    "quantity": r.quantity.value,
                    "n": r.params.n,
                    "rho": r.params.rho,
                    "sigma": r.params.sigma,
                    "closed_form": r.closed_form,
                    "oracle": r.oracle,
                    "abs_gap": r.abs_gap,
                    "rel_gap": r.rel_gap,
                }
                for r in self.discrepancies
            ],
        }


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _matrix_gaps(params: Ar1Params) -> dict[str, float]:
    cov = covariance_matrix(params)
    chol = covariance_cholesky(params)
    prec = precision_matrix(params)
    wh = whitening_matrix(params)
    eye = np.eye(params.n)
    recombined = eye + cholesky_perturbation(params)
    return {
        "cholesky_reproduces_covariance": float(np.abs(chol @ chol.T - cov).max()),
        "whitening_gram_is_precision": float(np.abs(wh.T @ wh - prec).max()),
        "precision_inverts_covariance": float(np.abs(prec @ cov - eye).max()),
        "whitening_diagonalizes_covariance": float(np.abs(wh @ cov @ wh.T - eye).max()),
        "perturbation_recombines_exactly": float(np.abs(recombined - chol).max()),
    }


def _scalar_gaps(params: Ar1Params, reports: dict) -> dict[str, float]:
    form_a = reports[MomentQuantity.SCALED_MEAN_VARIANCE].closed_form
    form_b = moments.variance_of_scaled_mean_regrouped(params)
    profile = oracle.mean_covariance_profile(params)
    closed_profile = [
        moments.covariance_with_mean(params, j) for j in range(1, params.n + 1)
    ]
    per_j = max(_rel_gap(c, float(o)) for c, o in zip(closed_profile, profile))
    # the covariances with the mean sum to n Var(sample mean), whose closed form is form_a
    try:
        total = math.fsum(closed_profile)
    except (ValueError, OverflowError):  # inf - inf, or a sum past the float range
        total = math.nan  # an overflowed profile has no sum, and its gap fails as NaN
    return {
        "scaled_mean_variance_forms_agree": _rel_gap(form_a, form_b),
        "mean_covariance_matches_oracle": per_j,
        "mean_covariance_sum_is_total": _rel_gap(total, form_a),
        **{name: reports[q].rel_gap for name, q in _ORACLE_CHECKS.items()},
    }


def moment_grid(n_grid, rho_grid, sigma: float):
    """Closed form against oracle at every (n, rho) point, n-major.

    The one grid evaluator behind ``table-moments`` and
    ``run_verification``. Yields ``(params, {quantity: MomentReport})``
    with mu = 0: ``moments.compare_moment`` of every ``MomentQuantity``,
    in the enum's order.
    """
    for n in n_grid:
        for rho in rho_grid:
            params = Ar1Params(mu=0.0, sigma=sigma, rho=rho, n=n)
            yield params, {q: moments.compare_moment(q, params) for q in MomentQuantity}


def run_verification(
    n_grid=None,
    rho_grid=None,
    sigma: float = 1.0,
    tolerance_override: float | None = None,
) -> VerificationReport:
    """Run every identity check over the grid and collect discrepancies.

    Parameters
    ----------
    n_grid, rho_grid : sequences, optional
        Default to the full acceptance grid; an empty one raises ValueError.
    sigma : float
        Innovation scale used at every grid point.
    tolerance_override : float, optional
        Replaces every per-check tolerance (used by the CLI --tol flag);
        must be a number >= 0, else ValueError.
    """
    if tolerance_override is not None and not tolerance_override >= 0.0:
        raise ValueError(f"tolerance must be a number >= 0, got {tolerance_override!r}")
    n_grid = tuple(integer("n", n) for n in (n_grid if n_grid is not None else DEFAULT_N_GRID))
    rho_grid = tuple(
        float(r) for r in (rho_grid if rho_grid is not None else DEFAULT_RHO_GRID)
    )
    if not (n_grid and rho_grid):
        raise ValueError("verification needs a non-empty n grid and rho grid")
    points: list[tuple[int, float]] = []
    gaps: dict[str, list[float]] = {name: [] for name in _TOLERANCES}  # grid order
    flagged: list[moments.MomentReport] = []
    for params, reports in moment_grid(n_grid, rho_grid, sigma):
        points.append((params.n, params.rho))
        for name, gap in {**_matrix_gaps(params), **_scalar_gaps(params, reports)}.items():
            gaps[name].append(gap)
        flagged.extend(reports[q] for q in _FOURTH_MOMENT if reports[q].discrepant)
    checks = []
    for name, tolerance in _TOLERANCES.items():
        if tolerance_override is not None:
            tolerance = tolerance_override
        worst = int(np.argmax(gaps[name]))  # the first largest gap, or the first NaN
        gap, (n, rho) = gaps[name][worst], points[worst]
        checks.append(
            IdentityCheck(
                name=name,
                tolerance=tolerance,
                max_gap=gap,
                worst_n=n,
                worst_rho=rho,
                passed=gap <= tolerance,  # a NaN gap fails
            )
        )
    return VerificationReport(
        checks=tuple(checks),
        discrepancies=tuple(flagged),
        n_grid=n_grid,
        rho_grid=rho_grid,
        sigma=float(sigma),
        passed=all(c.passed for c in checks),
    )
