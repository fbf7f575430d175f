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

Each module's ``__all__`` is the one list of its public names; the package
re-exports them lazily (PEP 562), searching the modules in ``_MODULES`` order.
``import ar1_tstat``, which ``python -m ar1_tstat`` runs first, imports
nothing, so the entry point can put its one-thread BLAS default in the
environment before numpy loads (see :mod:`~ar1_tstat.__main__`). The first
access of a name imports the modules ahead of its own (``params`` is first:
``ar1_tstat.Ar1Params`` loads no numpy); ``__all__``, ``dir()`` and a name
that no module lists import all nine.
"""

import importlib

__version__ = "0.1.0"

_MODULES = (
    "params", "matrices", "process", "oracle", "moments",
    "tstat", "student", "montecarlo", "verification",
)


def __getattr__(name: str):
    if name in _MODULES or name == "cli":  # cli's own names are not re-exported
        return importlib.import_module(f".{name}", __name__)
    modules = map(__getattr__, _MODULES)  # each imported when the search reaches it
    if name == "__all__":
        value = ["__version__", *(listed for module in modules for listed in module.__all__)]
    else:
        owner = next((module for module in modules if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    names = globals().get("__all__") or __getattr__("__all__")
    return sorted({*globals(), *_MODULES, *names})
