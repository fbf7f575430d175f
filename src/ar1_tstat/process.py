"""Path simulation and elementary distribution theory for stationary AR(1).

paths_from_normals runs the AR recursion at unit scale (mu = 0, sigma = 1),
time-major, one vector of all rows per step, in place: in a fresh copy of
the innovations, or, given out=normals, in the caller's array itself,
whatever its memory layout. The Monte Carlo engine passes its time-major
tile and gets the unit paths back there; simulate_path returns the path of
its params, mu + sigma times the unit path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Ar1Params, integer, philox_seed

__all__ = [
    "NormalLaw",
    "SamplePath",
    "simulate_path",
    "linear_combination_law",
    "paths_from_normals",
    "stream_generator",
]


@dataclass(frozen=True)
class NormalLaw:
    """Mean and variance of a univariate normal distribution."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError("normal law needs finite mean and variance")
        if self.variance < 0.0:
            raise ValueError(f"variance must be nonnegative, got {self.variance}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class SamplePath:
    """A simulated path together with the exact inputs that produced it.

    Regenerating with the same (params, seed, stream) reproduces ``values``
    bit for bit; the array is frozen to keep that guarantee meaningful.
    """

    values: np.ndarray
    params: Ar1Params
    seed: int
    stream: int

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.shape != (self.params.n,):
            raise ValueError(
                f"path has shape {values.shape}, expected ({self.params.n},)"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for the (seed, stream) pair.

    Philox is counter-based, so the pair fully determines the draws, with
    no dependence on how many other streams exist or on scheduling.
    """
    seed, stream = philox_seed(seed), integer("stream", stream)
    if stream < 0:
        raise ValueError(f"stream must be nonnegative, got {stream}")
    return np.random.Generator(np.random.Philox(key=seed).jumped(stream))


def _own_or_copy(array, out, name: str) -> np.ndarray:
    """The buffer contract of the Monte Carlo tile: out=None gives a float64
    copy of array, out=array (a float64 ndarray) array itself; any other out
    raises ValueError naming the caller's argument."""
    if out is None:
        return np.array(array, dtype=float)
    if out is array and isinstance(out, np.ndarray) and out.dtype == np.float64:
        return out
    raise ValueError(f"out must be None or {name} itself, a float64 array")


def paths_from_normals(
    params: Ar1Params, normals: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Turn standard-normal innovations into unit AR(1) paths along the last axis.

    The paths are those of params.rho and params.n at mu = 0 and sigma = 1;
    mu + sigma times them are the paths of params (simulate_path). The first
    coordinate is scaled into the stationary marginal; later coordinates
    follow the recursion y[t] = z[t] + rho y[t-1]. Both the single-path
    simulator and the replication engine route through this function, so a
    path drawn in a block matches the standalone draw bit for bit.

    The recursion runs time-major, in place, in any memory layout: each
    step updates all rows at one time step with two array operations, the
    float operation sequence of a row-by-row recursion, so rows never
    depend on how many other rows are passed along.

    Parameters
    ----------
    params : Ar1Params
    normals : numpy.ndarray
        Array whose last axis has length params.n.
    out : numpy.ndarray, optional
        None runs the recursion in a copy of normals; normals itself, a
        float64 array, has it run there. The paths are returned in either
        case; any other out raises ValueError.
    """
    x = _own_or_copy(normals, out, "normals")
    n, rho = params.n, params.rho
    if x.ndim == 0 or x.shape[-1] != n:
        raise ValueError(f"innovations have shape {x.shape}, expected a last axis of {n}")
    lanes = np.moveaxis(np.atleast_2d(x), -1, 0)  # a view: lanes[t] is time step t
    # a multiplication by the reciprocal: dividing by the root rounds
    # differently and would move every pinned bit
    lanes[0] *= 1.0 / math.sqrt(1.0 - rho * rho)
    step = np.empty(lanes.shape[1:])
    for t in range(1, n):
        np.multiply(lanes[t - 1], rho, out=step)
        lanes[t] += step
    return x


def _scaled(params: Ar1Params, unit: np.ndarray) -> np.ndarray:
    """The unit paths turned in place into those of params: mu + sigma y."""
    unit *= params.sigma
    unit += params.mu
    return unit


def simulate_path(params: Ar1Params, seed: int, stream: int = 0) -> SamplePath:
    """Draw one stationary path from the counter-based stream (seed, stream).

    The values are mu + sigma y, with y the unit path of the stream's draws.
    """
    rng = stream_generator(seed, stream)
    unit = paths_from_normals(params, rng.standard_normal(params.n))
    return SamplePath(_scaled(params, unit), params, int(seed), int(stream))


def linear_combination_law(params: Ar1Params, weights) -> NormalLaw:
    """Exact law of the scalar product of weights with the path.

    Any linear combination of jointly Gaussian coordinates is normal; the
    mean is mu times the weight sum and the variance is the double sum
    sigma^2 * sum_{j,k} w_j w_k Omega_{jk} over the covariance entries.

    Parameters
    ----------
    params : Ar1Params
    weights : array_like
        Finite coefficients, length params.n.

    Returns
    -------
    NormalLaw
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (params.n,):
        raise ValueError(f"weights must have shape ({params.n},), got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    from .matrices import covariance_matrix  # only this law needs the dense matrix

    cov = covariance_matrix(params)
    try:
        variance = params.sigma**2 * float(w @ cov @ w)
    except OverflowError:  # sigma**2 past the float range
        raise ValueError(f"the variance overflows at sigma = {params.sigma!r}") from None
    # roundoff can push an exact zero a hair negative
    return NormalLaw(mean=params.mu * float(w.sum()), variance=max(variance, 0.0))
