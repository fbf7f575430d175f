"""Replication engine with counter-based streams and distribution-free checks.

Replications are organized in fixed blocks of BLOCK_SIZE paths. Block b is
drawn from the Philox stream with jump index b, whatever the worker count,
so the full value array is a pure function of (params, seed, replications,
functional): workers change wall time only, never bits. Row r of block b
is replication b * BLOCK_SIZE + r, and simulate_path(params, seed,
stream=b) reproduces row 0 of block b exactly, which makes any single
replication auditable in isolation.

Each block is streamed through row tiles of about TILE_NORMALS normals:
the draw, recursion, whitening and statistic kernel run one tile at a
time in buffers a worker reuses for all its blocks, so memory is bounded
by the tile, not by BLOCK_SIZE x n. Philox is counter-based, so drawing a
block tile by tile yields the same normals as one draw of the block.
"""

from __future__ import annotations

import concurrent.futures
import enum
import math
from dataclasses import dataclass

import numpy as np

from .params import Ar1Params
from .process import paths_from_normals, stream_generator
from .tstat import row_statistics, whiten

__all__ = [
    "BLOCK_SIZE",
    "Functional",
    "SimulationConfig",
    "EmpiricalSummary",
    "KsReport",
    "simulate_functional",
    "sample_paths",
    "estimate_moments",
    "summarize",
    "ks_test",
    "empirical_density",
    "silverman_bandwidth",
]

BLOCK_SIZE = 4096  # replications per stream; fixed so results never depend on workers
TILE_NORMALS = 2**20  # normals per tile (8 MB): rows per tile are about TILE_NORMALS / n


class Functional(enum.Enum):
    """Per-path statistics the engine can accumulate."""

    SAMPLE_MEAN = "mean"
    SAMPLE_VARIANCE = "s2"
    T_STAT = "tstat"
    MODIFIED_T_STAT = "mtstat"


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs that fully determine a simulation run."""

    params: Ar1Params
    replications: int
    seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class EmpiricalSummary:
    """Moments of a functional across replications.

    replications counts the values actually summarized; degenerate counts
    paths whose functional was undefined (zero sample variance) and was
    recorded as NaN, then excluded.
    """

    mean: float
    variance: float
    std_error_mean: float
    std_error_variance: float
    replications: int
    degenerate: int = 0


@dataclass(frozen=True)
class KsReport:
    """Two-sided Kolmogorov-Smirnov statistic with asymptotic p-value."""

    statistic: float
    p_value: float
    sample_size: int
    reference: str


def _block_layout(replications: int) -> list[tuple[int, int]]:
    """(block index, rows) pairs covering the requested replications."""
    starts = range(0, replications, BLOCK_SIZE)
    return [(b, min(BLOCK_SIZE, replications - start)) for b, start in enumerate(starts)]


def _path_tiles(params: Ar1Params, seed: int, blocks: list[tuple[int, int]]):
    """Paths of the given (block, rows) pairs, one tile at a time.

    Yields (offset, paths, spare): offset is the tile's first row counted
    from the start of the first block, and spare is a free buffer of the
    tile's shape (the recursion's workspace). Every tile reuses the same
    two buffers, so both are valid only until the next tile.
    """
    n = params.n
    tile_rows = min(BLOCK_SIZE, max(1, TILE_NORMALS // n))
    buffer = np.empty((tile_rows, n))
    workspace = np.empty(tile_rows * n)
    offset = 0
    for block, rows in blocks:
        rng = stream_generator(seed, block)
        for start in range(0, rows, tile_rows):
            m = min(tile_rows, rows - start)
            tile = rng.standard_normal(out=buffer[:m])
            spare = workspace[: m * n]
            paths = paths_from_normals(params, tile, out=tile, workspace=spare.reshape(n, m))
            yield offset, paths, spare.reshape(m, n)
            offset += m


def _functional_blocks(
    params: Ar1Params, seed: int, blocks: list[tuple[int, int]], functional: Functional
) -> np.ndarray:
    # row_statistics returns (means, bessel variances, t-values)
    column = {Functional.SAMPLE_MEAN: 0, Functional.SAMPLE_VARIANCE: 1}.get(functional, 2)
    values = np.empty(sum(rows for _, rows in blocks))
    for offset, paths, spare in _path_tiles(params, seed, blocks):
        if functional is Functional.MODIFIED_T_STAT:
            paths = whiten(paths, params.rho, out=spare)
        stats = row_statistics(paths, params.mu, overwrite_rows=True)
        values[offset : offset + len(paths)] = stats[column]
    return values


def simulate_functional(config: SimulationConfig, functional: Functional) -> np.ndarray:
    """Functional value of every replication, in replication order.

    Degenerate replications (zero sample variance under a t functional)
    appear as NaN so positions stay stable across functionals. With more
    than one worker, each pool process takes one contiguous share of the
    blocks.
    """
    params, seed = config.params, config.seed
    blocks = _block_layout(config.replications)
    workers = min(config.workers, len(blocks))
    if workers == 1:
        return _functional_blocks(params, seed, blocks, functional)
    cuts = [len(blocks) * i // workers for i in range(workers + 1)]
    shares = [blocks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    with concurrent.futures.ProcessPoolExecutor(workers) as pool:
        parts = list(
            pool.map(
                _functional_blocks,
                [params] * workers,
                [seed] * workers,
                shares,
                [functional] * workers,
            )
        )
    return np.concatenate(parts)


def sample_paths(config: SimulationConfig) -> np.ndarray:
    """All replication paths as a (replications, n) array, block order."""
    blocks = _block_layout(config.replications)
    paths = np.empty((config.replications, config.params.n))
    for offset, tile, _ in _path_tiles(config.params, config.seed, blocks):
        paths[offset : offset + len(tile)] = tile
    return paths


def summarize(values) -> EmpiricalSummary:
    """Mean/variance of the finite values with large-sample standard errors.

    The standard error of the variance uses the fourth central moment:
    Var(sample variance) ~ (m4 - m2^2) / R for i.i.d. replications.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("no replications to summarize")
    finite = values[np.isfinite(values)]
    degenerate = int(values.size - finite.size)
    r = finite.size
    if r < 2:
        raise ValueError("need at least two usable replications")
    mean = float(np.mean(finite))
    centered = finite - mean
    m2 = float(np.mean(centered * centered))
    m4 = float(np.mean(centered**4))
    variance = m2 * r / (r - 1)
    return EmpiricalSummary(
        mean=mean,
        variance=variance,
        std_error_mean=math.sqrt(variance / r),
        std_error_variance=math.sqrt(max(m4 - m2 * m2, 0.0) / r),
        replications=r,
        degenerate=degenerate,
    )


def estimate_moments(config: SimulationConfig, functional: Functional) -> EmpiricalSummary:
    """Simulate the functional and summarize it in one step."""
    return summarize(simulate_functional(config, functional))


def _kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov sup-statistic law.

    Alternating series 2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 x^2); terms are
    dropped once below 1e-12, and the alternating structure bounds the
    truncation error by the first dropped term.
    """
    if x <= 0.0:
        return 1.0
    total = 0.0
    for j in range(1, 1001):
        term = 2.0 * math.exp(-2.0 * (j * x) ** 2)
        total += term if j % 2 else -term
        if term < 1e-12:
            break
    return min(max(total, 0.0), 1.0)


def ks_test(samples, reference_cdf, reference: str = "") -> KsReport:
    """Two-sided one-sample Kolmogorov-Smirnov test.

    Parameters
    ----------
    samples : array_like
        Observed values; non-finite entries (degenerate replications)
        are dropped before testing.
    reference_cdf : callable
        Vectorized distribution function of the reference law, called once
        on the sorted sample. A result of another shape, or outside [0, 1],
        raises ValueError.
    reference : str
        Label stored in the report; defaults to the callable's name.

    Returns
    -------
    KsReport
    """
    samples = np.asarray(samples, dtype=float)
    sorted_values = samples[np.isfinite(samples)]  # a copy, sorted in place
    sorted_values.sort()
    m = sorted_values.size
    if m == 0:
        raise ValueError("ks_test needs a non-empty sample")
    cdf_values = np.asarray(reference_cdf(sorted_values), dtype=float)
    if cdf_values.shape != sorted_values.shape:
        raise ValueError(f"reference_cdf returned shape {cdf_values.shape} for {m} samples")
    if not np.all(np.isfinite(cdf_values)) or cdf_values.min() < 0 or cdf_values.max() > 1:
        raise ValueError("reference_cdf must return probabilities in [0, 1]")
    ranks = np.arange(1, m + 1, dtype=float)
    d_plus = float(np.max(ranks / m - cdf_values))
    d_minus = float(np.max(cdf_values - (ranks - 1.0) / m))
    statistic = max(d_plus, d_minus, 0.0)
    p_value = _kolmogorov_sf(math.sqrt(m) * statistic)
    label = reference or getattr(reference_cdf, "__qualname__", "")
    return KsReport(statistic, p_value, m, label)


def silverman_bandwidth(samples) -> float:
    """Silverman's reference bandwidth with an interquartile guard.

    0.9 min(std, IQR/1.34) m^(-1/5), floored at 1e-6 times the sample
    range. A constant sample has no usable scale and raises.
    """
    samples = np.asarray(samples, dtype=float)
    samples = samples[np.isfinite(samples)]
    if samples.size < 2:
        raise ValueError("bandwidth needs at least two finite samples")
    sample_range = float(samples.max() - samples.min())
    if sample_range == 0.0:
        raise ValueError("all samples identical; no bandwidth exists")
    std = float(np.std(samples, ddof=1))
    q25, q75 = np.percentile(samples, [25.0, 75.0])
    spread = min(std, float(q75 - q25) / 1.34)
    bandwidth = 0.9 * spread * samples.size ** (-0.2)
    return max(bandwidth, 1e-6 * sample_range)


def empirical_density(samples, grid, bandwidth: float | None = None) -> np.ndarray:
    """Gaussian-kernel density estimate of the samples on the grid.

    Kernels farther than eight bandwidths from a grid point are skipped;
    the neglected mass is below exp(-32), invisible at working precision.

    Parameters
    ----------
    samples : array_like
    grid : array_like
        Evaluation points.
    bandwidth : float, optional
        Positive kernel width; Silverman's rule when omitted.
    """
    samples = np.asarray(samples, dtype=float)
    samples = np.sort(samples[np.isfinite(samples)])
    if samples.size == 0:
        raise ValueError("empirical_density needs finite samples")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(samples)
    bandwidth = float(bandwidth)
    if not bandwidth > 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    grid = np.asarray(grid, dtype=float)
    norm = 1.0 / (samples.size * bandwidth * math.sqrt(2.0 * math.pi))
    out = np.empty(grid.shape)
    flat = grid.ravel()
    flat_out = out.reshape(-1)
    for i, x in enumerate(flat):
        lo = np.searchsorted(samples, x - 8.0 * bandwidth)
        hi = np.searchsorted(samples, x + 8.0 * bandwidth)
        if hi == lo:
            flat_out[i] = 0.0
            continue
        z = (samples[lo:hi] - x) / bandwidth
        flat_out[i] = norm * float(np.exp(-0.5 * z * z).sum())
    return out
