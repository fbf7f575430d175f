"""Path simulation and elementary distribution theory for stationary AR(1).

paths_from_normals runs the AR recursion at unit scale (mu = 0, sigma = 1),
in place in any memory layout; simulate_path returns mu + sigma times the
unit path. linear_combination_law resolves the normal law of w'X by one
O(n) backward AR sweep, with no n x n matrix; NormalLaw.cdf is its cdf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Ar1Params, _own_or_copy, integer, philox_seed

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

    def cdf(self, x):
        """P(X <= x) elementwise, a float for a scalar x; at variance 0 the step at the mean."""
        x = np.asarray(x, dtype=float)
        if self.variance == 0.0:  # a point mass
            cdf = np.heaviside(x - self.mean, 1.0)
        else:
            z = (x - self.mean) / (self.std * math.sqrt(2.0))
            # libm's erf, one Python call per value, written straight into float64
            cdf = np.fromiter(map(math.erf, z.ravel()), float, z.size).reshape(z.shape)
            del z
            cdf += 1.0  # 0.5 * (1.0 + erf(z)), in place
            cdf *= 0.5
        return cdf if cdf.ndim else float(cdf)


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
    no dependence on how many other streams exist or on scheduling. Stream
    s is Philox keyed by the seed and started at counter s * 2**128, the
    state of Philox(key=seed).jumped(s). The 256-bit counter would wrap at
    stream 2**128 and repeat stream 0, so streams of 2**128 or more raise.
    """
    seed, stream = philox_seed(seed), integer("stream", stream)
    if not 0 <= stream < 2**128:
        raise ValueError(f"stream must lie in [0, 2**128), got {stream}")
    return np.random.Generator(np.random.Philox(key=seed, counter=stream << 128))


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
    for prev, row in zip(lanes, lanes[1:]):  # views of steps t - 1 and t
        np.multiply(prev, rho, out=step)
        np.add(row, step, out=row)
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


def _high_half(a: float) -> float:
    t = 134217729.0 * a  # Dekker's split by 2**27 + 1: a product of high halves is exact
    return t - (t - a)


def linear_combination_law(params: Ar1Params, weights) -> NormalLaw:
    """Exact law of the scalar product of weights with the path.

    The law is normal, with mean mu sum(w) and variance sigma^2 w' Omega w
    = sigma^2 |C'w|^2, C the AR Cholesky factor. C'w is the backward sweep
    v_j = w_j + rho v_{j+1}, its first entry over sqrt((1 - rho)(1 + rho)),
    compensated (Graillat, Langlois and Louvet's Horner scheme), so as
    accurate as at twice the precision; math.fsum sums the squares.

    Parameters
    ----------
    params : Ar1Params
    weights : array_like
        Finite coefficients, length params.n.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (params.n,):
        raise ValueError(f"weights must have shape ({params.n},), got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    rho, v, low, squares = params.rho, 0.0, 0.0, []
    rho_hi = _high_half(rho)
    for weight in reversed(w.tolist()):
        # the exact rounding errors of the product (Dekker) and the sum (Knuth) go to low
        product, v_hi = rho * v, _high_half(v)
        error = (rho_hi * v_hi - product) + rho_hi * (v - v_hi) + (rho - rho_hi) * v
        v = product + weight
        back = v - product
        low = rho * low + (error + (product - (v - back)) + (weight - back))
        squares.append((v + low) * (v + low))
    squares[-1] /= (1.0 - rho) * (1.0 + rho)  # 1 - rho**2 is 5e-10 off at |rho| = 1 - 1e-9
    try:
        variance = params.sigma**2 * math.fsum(squares)
    except OverflowError:  # sigma**2 past the float range
        raise ValueError(f"the variance overflows at sigma = {params.sigma!r}") from None
    return NormalLaw(mean=params.mu * float(w.sum()), variance=variance)
