"""Path simulation and elementary distribution theory for stationary AR(1).

paths_from_normals runs the AR recursion time-major, one vector of all rows
per step, in place: in a fresh copy of the innovations, or, given
out=normals, in the caller's array itself, whatever its memory layout. The
Monte Carlo engine passes its time-major tile and gets the paths back there.
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


def paths_from_normals(
    params: Ar1Params, normals: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Turn standard-normal innovations into AR(1) paths along the last axis.

    The first coordinate is scaled into the stationary marginal; later
    coordinates follow the mean-reverting recursion. Both the single-path
    simulator and the replication engine route through this function, so a
    path drawn in a block matches the standalone draw bit for bit.

    The recursion runs time-major, in place, in any memory layout: each
    step updates all rows at one time step as (mu + rho (x[t-1] - mu)) +
    sigma z[t], the float operation sequence of a row-by-row recursion, so
    rows never depend on how many other rows are passed along.

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
    if out is None:
        x = np.array(normals, dtype=float)
    elif out is normals and isinstance(out, np.ndarray) and out.dtype == np.float64:
        x = out
    else:
        raise ValueError("out must be None or normals itself, a float64 array")
    n, mu, sigma, rho = params.n, params.mu, params.sigma, params.rho
    if x.ndim == 0 or x.shape[-1] != n:
        raise ValueError(f"innovations have shape {x.shape}, expected a last axis of {n}")
    lanes = np.moveaxis(np.atleast_2d(x), -1, 0)  # a view: lanes[t] is time step t
    # in-place updates swap the operands of + and *, which IEEE keeps exact
    lanes[0] *= sigma / math.sqrt(1.0 - rho * rho)
    lanes[0] += mu
    lanes[1:] *= sigma
    step = np.empty(lanes.shape[1:])
    for t in range(1, n):
        np.subtract(lanes[t - 1], mu, out=step)
        step *= rho
        step += mu
        lanes[t] += step
    return x


def simulate_path(params: Ar1Params, seed: int, stream: int = 0) -> SamplePath:
    """Draw one stationary path from the counter-based stream (seed, stream)."""
    rng = stream_generator(seed, stream)
    normals = rng.standard_normal(params.n)
    return SamplePath(paths_from_normals(params, normals), params, int(seed), int(stream))


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
    variance = params.sigma**2 * float(w @ cov @ w)
    # roundoff can push an exact zero a hair negative
    return NormalLaw(mean=params.mu * float(w.sum()), variance=max(variance, 0.0))
