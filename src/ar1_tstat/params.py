"""Parameter container and validation for the stationary Gaussian AR(1) model,
and the names of the per-path statistics a simulation accumulates."""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass

__all__ = ["Ar1Params", "STATIONARITY_MARGIN", "Functional"]

# |rho| may approach 1 only up to this margin: the stationary variance
# sigma^2 / (1 - rho^2) diverges at the unit root, so boundary values are
# rejected outright instead of producing huge, meaningless numbers.
STATIONARITY_MARGIN = 1e-9


def real(name: str, value) -> float:
    """value as a float: any real number, numpy's too, but a bool; else TypeError."""
    # python's bool is a numbers.Real (and Integral), numpy's bool is neither
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def integer(name: str, value) -> int:
    """value as an int: any integer, numpy's too, but a bool; else TypeError (2.7 too)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def philox_seed(value) -> int:
    """value as a seed: an integer in [0, 2**64), the range of a 64-bit Philox key."""
    seed = integer("seed", value)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _own_or_copy(array, out, name: str):
    """The buffer contract of the Monte Carlo tile and its readouts: out=None
    gives a float64 copy of array, out=array (a float64 ndarray) array
    itself; any other out raises ValueError naming the caller's argument."""
    import numpy as np  # here, so that the parameters alone load no numpy

    if out is None:
        return np.array(array, dtype=float)
    if out is array and isinstance(out, np.ndarray) and out.dtype == np.float64:
        return out
    raise ValueError(f"out must be None or {name} itself, a float64 array")


def stationary_rho(value) -> float:
    """value as an AR(1) coefficient: a finite real, |rho| <= 1 - STATIONARITY_MARGIN."""
    rho = real("rho", value)
    if not math.isfinite(rho):
        raise ValueError(f"rho must be finite, got {rho!r}")
    if abs(rho) > 1.0 - STATIONARITY_MARGIN:
        raise ValueError(
            f"stationarity requires |rho| <= 1 - {STATIONARITY_MARGIN:g}, got rho = {rho}"
        )
    return rho


@dataclass(frozen=True)
class Ar1Params:
    """Parameters of a stationary Gaussian first-order autoregression.

    The process is X_t = mu + rho * (X_{t-1} - mu) + sigma * e_t with e_t
    i.i.d. standard normal and X_1 drawn from the stationary marginal
    N(mu, sigma^2 / (1 - rho^2)), so the whole path is stationary.

    Parameters
    ----------
    mu : float
        Location of the stationary distribution.
    sigma : float
        Innovation standard deviation, strictly positive.
    rho : float
        Lag-one autocorrelation, |rho| <= 1 - STATIONARITY_MARGIN.
    n : int
        Number of consecutive observations, at least 2.
    """

    mu: float
    sigma: float
    rho: float
    n: int

    def __post_init__(self) -> None:
        for name in ("mu", "sigma"):
            value = real(name, getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "rho", stationary_rho(self.rho))
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        object.__setattr__(self, "n", integer("n", self.n))
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")

    @property
    def marginal_variance(self) -> float:
        """Variance sigma^2 / (1 - rho^2) of a single observation."""
        return self.sigma**2 / (1.0 - self.rho**2)

    @property
    def marginal_std(self) -> float:
        return math.sqrt(self.marginal_variance)


class Functional(enum.Enum):
    """Per-path statistics the Monte Carlo engine can accumulate."""

    SAMPLE_MEAN = "mean"
    SAMPLE_VARIANCE = "s2"
    T_STAT = "tstat"
    MODIFIED_T_STAT = "mtstat"
