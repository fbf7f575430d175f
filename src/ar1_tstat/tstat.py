"""Location t-statistics for AR(1) paths, classical and whitened.

whiten and the statistic kernel row_statistics work in place in rows of
any memory layout; the kernel's row sums repeat numpy's pairwise order
along the summed axis, so the Monte Carlo engine's time-major tiles give
the bits of C-ordered paths. The engine runs the kernel on unit paths
(mu = 0, sigma = 1): a t-value centred at the true mean does not depend
on sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Ar1Params, Functional, _own_or_copy, stationary_rho

__all__ = [
    "TStatResult",
    "DegenerateSampleError",
    "row_means",
    "row_statistics",
    "t_statistic",
    "modified_t_statistic",
    "whiten",
    "whitened_mean",
]


class DegenerateSampleError(ValueError):
    """All sample values identical: the Bessel variance vanishes."""


@dataclass(frozen=True)
class TStatResult:
    """A t-statistic value together with its building blocks.

    kind is Functional.T_STAT or Functional.MODIFIED_T_STAT, the engine's
    names of the two statistics. whitened_mean is filled only for the
    modified statistic: it is the exact expectation of the average
    whitened coordinate, which differs from mu whenever mu != 0.
    """

    value: float
    sample_mean: float
    bessel_variance: float
    kind: Functional
    whitened_mean: float | None = None


# bytes of the lagged-step temporary of an in-place whiten
_WHITEN_BLOCK_BYTES = 2**17


def whiten(values: np.ndarray, rho: float, *, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the bidiagonal decorrelating map along the last axis.

    Equivalent to multiplying by whitening_matrix in O(n): the first
    coordinate is scaled by sqrt(1 - rho^2) and each later coordinate
    becomes X_i - rho * X_{i-1}. Accepts stacked paths (any leading axes).

    The map runs in place, in any memory layout, backward from the last
    time step a block of steps at a time, so each block reads its lagged
    step before that step is overwritten; the temporary holds one block
    (about _WHITEN_BLOCK_BYTES). out=None whitens a copy of values and
    out=values, a float64 array, values itself; either is returned. Any
    other out, or an empty last axis, raises ValueError; a rho that
    Ar1Params rejects raises its error before anything is written.
    """
    rho = stationary_rho(rho)
    x = _own_or_copy(values, out, "values")
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError(f"whiten needs a last axis of length >= 1, got shape {x.shape}")
    n = x.shape[-1]
    rows = max(1, x.size // n)
    steps = max(1, min(n - 1, _WHITEN_BLOCK_BYTES // (x.itemsize * rows)))
    lagged = np.empty_like(x[..., :steps])  # in the layout of x
    for hi in range(n, 1, -steps):
        lo = max(1, hi - steps)
        x[..., lo:hi] -= np.multiply(x[..., lo - 1 : hi - 1], rho, out=lagged[..., : hi - lo])
    x[..., 0] *= math.sqrt(1.0 - rho * rho)
    return x


def whitened_mean(params: Ar1Params) -> float:
    """Exact mean of the average whitened coordinate.

    Whitening rescales the location: the average of the decorrelated
    coordinates has expectation mu (sqrt(1-rho^2) + (n-1)(1-rho)) / n,
    which collapses to mu only at rho = 0 and vanishes when mu = 0.
    """
    n, rho = params.n, params.rho
    return params.mu * (math.sqrt(1.0 - rho * rho) + (n - 1) * (1.0 - rho)) / n


def _values_of(path_or_values) -> np.ndarray:
    # a copy: the statistic kernel overwrites the array it is given
    values = np.array(getattr(path_or_values, "values", path_or_values), dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need a one-dimensional sample of length >= 2")
    if not np.all(np.isfinite(values)):
        raise ValueError("sample values must be finite")
    return values


# numpy's pairwise_sum unrolls runs of at most this many terms by 8
_PW_BLOCKSIZE = 128


def _lane_sums(lanes: np.ndarray) -> np.ndarray:
    """Sums along axis 0 in the order of numpy's pairwise_sum.

    Below 8 terms a sequential sum from 0.0; up to _PW_BLOCKSIZE terms 8
    accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and the
    remainder added in order; above it, the sums of two halves split at
    n/2 rounded down to a multiple of 8. Every step is a vector operation
    over the other axes, so a long axis 0 of short rows costs a few dozen
    calls instead of one per row.
    """
    n = lanes.shape[0]
    if n > _PW_BLOCKSIZE:
        half = n // 2 - (n // 2) % 8
        total = _lane_sums(lanes[:half])
        total += _lane_sums(lanes[half:])
        return total
    done = n - n % 8
    if done:
        # numpy starts its 8 accumulators from the first 8 terms; a reduce
        # starts them from 0.0, which changes at most the sign of an all-zero
        # sum, and the final 0.0 + of _row_sums clears that sign again
        r = lanes[:8]
        if done > 8:
            r = np.add.reduce(lanes[:done].reshape((done // 8, 8) + lanes.shape[1:]), axis=0)
        r = r[0::2] + r[1::2]  # r0+r1, r2+r3, r4+r5, r6+r7
        r = r[0::2] + r[1::2]
        total = r[0] + r[1]
    else:
        total = np.zeros(lanes.shape[1:])
    for term in lanes[done:]:
        total += term
    return total


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """Sums along the last axis in any layout, bit for bit those of
    np.add.reduce on a C-ordered copy; 0.0 + is numpy's reduction identity."""
    return 0.0 + _lane_sums(rows.T).T  # rows.T leads with the summed axis


def row_means(rows: np.ndarray) -> np.ndarray:
    """Sample mean of each row (last axis): the kernel's mean step."""
    return _row_sums(rows) / rows.shape[-1]


def row_statistics(rows: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample mean, Bessel variance and t-value of each row (last axis).

    The one statistic kernel, for single paths (as 1-row arrays) and for
    engine tiles alike, in any memory layout: the row sums follow numpy's
    pairwise order (_row_sums), so a time-major tile gives the bits of its
    C-ordered copy. Two passes, mean first and then the centered sum of
    squares: the one-pass update loses digits once mean^2 dominates the
    variance. The t-value sqrt(n) (mean - mu) / s is NaN where s is 0, or
    where the squared deviations overflow and s is inf (on the engine's
    unit paths only a whitened location mu / sigma above about 1e154 can
    do that).
    The squared deviations are formed in rows, a float64 array, which is
    overwritten; a caller that needs its rows passes a copy.
    """
    n = rows.shape[-1]
    means = row_means(rows)
    centered = np.subtract(rows, means[..., None], out=rows)
    centered *= centered
    bessel = _row_sums(centered) / (n - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = math.sqrt(n) * (means - mu) / np.sqrt(bessel)
    values[(bessel == 0.0) | (bessel == np.inf)] = np.nan  # an overflowed variance is no scale
    return means, bessel, values


def _single_path(
    values: np.ndarray, mu: float, kind: Functional, error: str, whitened_mean: float | None = None
) -> TStatResult:
    mean, bessel, value = (float(a[0]) for a in row_statistics(values[None, :], mu))
    if bessel == 0.0:
        raise DegenerateSampleError(error)
    return TStatResult(value, mean, bessel, kind, whitened_mean)


def t_statistic(path_or_values, mu: float = 0.0) -> TStatResult:
    """Classical statistic sqrt(n) (sample mean - mu) / s.

    s is the Bessel-corrected standard deviation. Under i.i.d. Gaussian
    sampling (rho = 0) with mu the true mean, the value follows a Student
    t law with n - 1 degrees of freedom; under correlation it does not.

    Parameters
    ----------
    path_or_values : SamplePath or array_like
        The observed sample.
    mu : float
        Location subtracted in the numerator.

    Raises
    ------
    DegenerateSampleError
        If every sample value is identical.
    """
    return _single_path(
        _values_of(path_or_values),
        mu,
        Functional.T_STAT,
        "sample variance is zero (all values identical); t-statistic undefined",
    )


def modified_t_statistic(
    path_or_values, params: Ar1Params | None = None
) -> TStatResult:
    """t-statistic of the decorrelated path, numerator still centered at mu.

    The path is whitened first, which makes the coordinates independent
    Gaussians of variance sigma^2. For mu = 0 they are also centered, so
    the statistic follows a Student t law with n - 1 degrees of freedom
    exactly, for every admissible rho. For mu != 0 the numerator keeps
    subtracting mu even though the whitened average has the smaller mean
    reported in the whitened_mean field; that centering mismatch is
    deliberate and left observable.

    Parameters
    ----------
    path_or_values : SamplePath or array_like
        Sample to whiten. A bare array requires explicit params.
    params : Ar1Params, optional
        Must agree with the path's own params when both are present.
    """
    own = getattr(path_or_values, "params", None)
    if params is None:
        params = own
    if params is None:
        raise ValueError("params are required when passing a bare array")
    if own is not None and own != params:
        raise ValueError("params disagree with the path's own params")
    values = _values_of(path_or_values)
    if values.size != params.n:
        raise ValueError(f"sample length {values.size} does not match n = {params.n}")
    return _single_path(
        whiten(values, params.rho, out=values),
        params.mu,
        Functional.MODIFIED_T_STAT,
        "whitened sample variance is zero; modified t-statistic undefined",
        whitened_mean(params),
    )
