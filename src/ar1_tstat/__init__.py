"""Exact moments and Monte Carlo checks for the t-statistic of a Gaussian AR(1) process.

The package covers four layers that cross-validate each other:

- exact stationary covariance matrices and their factorizations
  (:mod:`~ar1_tstat.matrices`),
- closed-form moments of the sample mean and sample variance next to an
  exact matrix-trace oracle (:mod:`~ar1_tstat.moments`,
  :mod:`~ar1_tstat.oracle`),
- classical and whitened t-statistics with Student reference laws computed
  by two independent routes (:mod:`~ar1_tstat.tstat`,
  :mod:`~ar1_tstat.student`),
- a deterministic, worker-count-invariant Monte Carlo engine
  (:mod:`~ar1_tstat.montecarlo`) plus an identity-verification harness
  (:mod:`~ar1_tstat.verification`).

The public names load on first access (PEP 562), so ``import ar1_tstat``,
which ``python -m ar1_tstat`` runs first, imports no numpy: the entry point
can still put its one-thread BLAS default in the environment before numpy
loads (one worker model, see :mod:`~ar1_tstat.__main__`).
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "params": ("Ar1Params", "STATIONARITY_MARGIN", "Functional"),
    "matrices": (
        "covariance_matrix",
        "covariance_cholesky",
        "cholesky_perturbation",
        "precision_matrix",
        "whitening_matrix",
    ),
    "process": (
        "NormalLaw",
        "SamplePath",
        "stream_generator",
        "paths_from_normals",
        "simulate_path",
        "linear_combination_law",
    ),
    "oracle": (
        "QuadraticForm",
        "centering_form",
        "form_mean",
        "form_variance",
        "form_second_moment",
        "scaled_mean_variance",
        "mean_covariance_profile",
    ),
    "moments": (
        "DISCREPANCY_RTOL",
        "MomentQuantity",
        "MomentReport",
        "variance_of_scaled_mean",
        "variance_of_scaled_mean_regrouped",
        "covariance_with_mean",
        "covariance_with_mean_total",
        "covariance_with_mean_square_sum",
        "mean_of_sample_variance",
        "second_moment_of_sample_variance",
        "variance_of_sample_variance",
        "compare_moment",
        "compare_all",
    ),
    "tstat": (
        "StatKind",
        "TStatResult",
        "DegenerateSampleError",
        "noncentrality",
        "whiten",
        "whitened_mean",
        "t_statistic",
        "modified_t_statistic",
    ),
    "student": ("StudentLaw", "QuadratureError"),
    "montecarlo": (
        "BLOCK_SIZE",
        "SimulationConfig",
        "EmpiricalSummary",
        "KsReport",
        "pool_layout",
        "simulate_functional",
        "sample_paths",
        "summarize",
        "ks_test",
        "silverman_bandwidth",
        "empirical_density",
    ),
    "verification": ("IdentityCheck", "VerificationReport", "run_verification"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
