"""Replication engine with counter-based streams and distribution-free checks.

Replications are organized in fixed blocks of BLOCK_SIZE paths. Block b is
drawn from Philox stream b, keyed by the seed and started at counter
b * 2**128, whatever the worker count, so the full value array is a pure
function of (params, seed, replications, functional): workers change wall
time only, never bits. Row r of block b is replication b * BLOCK_SIZE + r,
and simulate_path(params, seed, stream=b) reproduces the path of row 0 of
block b exactly, which makes any single replication auditable in isolation
(the README states which single-path call gives each functional's value).

Each block is streamed through row tiles of about TILE_NORMALS normals.
A worker holds one tile buffer, the time-major (n, rows) lanes, and a draw
stage of at most TILE_NORMALS // 64 normals (64 KB), and reuses both for
all its blocks, so memory is bounded by one tile, not by BLOCK_SIZE x n.
Philox is counter-based, so drawing a block stage by stage yields the same
normals as one draw of the block. Each stage slice is copied into the lanes'
(rows, n) view paths, where the recursion and whitening (out=paths) and
the statistic kernel run in place along the long rows axis; the kernel
sums in numpy's pairwise order, so every value has the bits of a
row-major tile.

The tiles hold unit paths (mu = 0, sigma = 1): in exact arithmetic a
t-value centred at the true mean depends only on rho and the draws, the
whitened one also on mu / sigma. The engine applies mu and sigma once per
functional: tstat is the unit paths' t-value centred at 0; mtstat adds
the whitened location (mu / sigma) (sqrt(1 - rho^2), 1 - rho, ...) to the
whitened unit paths and centres at mu / sigma; mean is mu + sigma times
the unit mean (the kernel's mean step only) and s2 sigma^2 times the unit
variance. sample_paths returns the paths of params, mu + sigma y.

ks_test and empirical_density take the tile's buffer contract for their
samples (out=None sorts a finite copy, out=samples sorts the finite values
in place), and summarize takes each power in place, so the readouts of a
simulation can work in its values array, every result bit unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Ar1Params, Functional, _own_or_copy, integer, philox_seed
from .process import _scaled, paths_from_normals, stream_generator
from .tstat import row_means, row_statistics, whiten

__all__ = [
    "BLOCK_SIZE",
    "SimulationConfig",
    "EmpiricalSummary",
    "KsReport",
    "pool_layout",
    "simulate_functional",
    "sample_paths",
    "summarize",
    "ks_test",
    "empirical_density",
    "silverman_bandwidth",
]

BLOCK_SIZE = 4096  # replications per stream; fixed so results never depend on workers
# normals per tile (4 MB): rows per tile are about TILE_NORMALS / n. At
# n = 1000, 2**20 runs about 7% faster per normal at twice the memory
# (BENCH_scale_free.json), and 2**18 lowers the mc-long-paths peak RSS by
# 2 MB for about 10% more wall and CPU time (BENCH_lean_workers.json)
TILE_NORMALS = 2**19


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs that fully determine a simulation run."""

    params: Ar1Params
    replications: int
    seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("replications", "workers"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        object.__setattr__(self, "seed", philox_seed(self.seed))
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
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


def pool_layout(config: SimulationConfig) -> tuple[list[tuple[int, int]], int]:
    """The (block index, rows) pairs covering the replications and the number
    of processes that run them: config.workers, but never more than the blocks."""
    starts = range(0, config.replications, BLOCK_SIZE)
    blocks = [(b, min(BLOCK_SIZE, config.replications - s)) for b, s in enumerate(starts)]
    return blocks, min(config.workers, len(blocks))


def _path_tiles(params: Ar1Params, seed: int, blocks: list[tuple[int, int]]):
    """Paths of the given (block, rows) pairs, one tile at a time.

    Yields (offset, paths): offset is the tile's first row counted from the
    start of the first block, and paths an (m, n) view of the tile's
    time-major (n, m) lanes. A tile is drawn through a stage of at most
    TILE_NORMALS // 64 normals (one row if n is larger, never more than the
    tile), each slice copied transposed into its columns of the lanes; the
    unit recursion then runs in the lanes in place. Every tile reuses the
    same lanes, so paths are valid only until the next tile.
    """
    n = params.n
    tile_rows = min(BLOCK_SIZE, max(1, TILE_NORMALS // n))
    # a stage of TILE_NORMALS // 64 normals (64 KB) draws as fast as one of
    # TILE_NORMALS // 8 (512 KB), which every pool worker would hold
    stage_rows = min(tile_rows, max(1, TILE_NORMALS // 64 // n))
    stage = np.empty(stage_rows * n)
    lanes = np.empty(tile_rows * n)
    offset = 0
    for block, rows in blocks:
        rng = stream_generator(seed, block)
        for start in range(0, rows, tile_rows):
            m = min(tile_rows, rows - start)
            paths = lanes[: m * n].reshape(n, m).T
            for lo in range(0, m, stage_rows):
                k = min(stage_rows, m - lo)
                paths[lo : lo + k] = rng.standard_normal(out=stage[: k * n].reshape(k, n))
            yield offset, paths_from_normals(params, paths, out=paths)
            offset += m


def _functional_blocks(
    params: Ar1Params, seed: int, blocks: list[tuple[int, int]], functional: Functional
) -> np.ndarray:
    mu, sigma, rho = params.mu, params.sigma, params.rho
    whitened = functional is Functional.MODIFIED_T_STAT
    # on unit paths the t-value is centred at 0, the whitened one at mu / sigma
    centre = mu / sigma if whitened else 0.0
    values = np.empty(sum(rows for _, rows in blocks))
    for offset, paths in _path_tiles(params, seed, blocks):
        if whitened:
            # the whitened path of mu / sigma + y: whitened y plus the
            # whitened location (mu / sigma) (sqrt(1 - rho^2), 1 - rho, ...)
            whiten(paths, rho, out=paths)
            paths[:, 0] += centre * math.sqrt(1.0 - rho * rho)
            paths[:, 1:] += centre * (1.0 - rho)
        if functional is Functional.SAMPLE_MEAN:
            column = row_means(paths)
        else:
            # row_statistics returns (means, bessel variances, t-values)
            stats = row_statistics(paths, centre)
            column = stats[1 if functional is Functional.SAMPLE_VARIANCE else 2]
        values[offset : offset + len(column)] = column
    if functional is Functional.SAMPLE_MEAN:
        values *= sigma  # mu + sigma ybar
        values += mu
    elif functional is Functional.SAMPLE_VARIANCE:
        values *= sigma * sigma  # inf where sigma^2 overflows
    return values


def simulate_functional(config: SimulationConfig, functional: Functional) -> np.ndarray:
    """Functional value of every replication, in replication order.

    Degenerate replications (zero sample variance under a t functional)
    appear as NaN so positions stay stable across functionals. With more
    than one worker, each pool process takes one contiguous share of the
    blocks.
    """
    params, seed = config.params, config.seed
    blocks, workers = pool_layout(config)
    if workers == 1:
        return _functional_blocks(params, seed, blocks, functional)
    cuts = [len(blocks) * i // workers for i in range(workers + 1)]
    shares = [blocks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    from concurrent.futures import ProcessPoolExecutor  # only a pool run pays its import

    with ProcessPoolExecutor(workers) as pool:
        tasks = [(params, seed, share, functional) for share in shares]
        parts = list(pool.map(_functional_blocks, *zip(*tasks)))
    return np.concatenate(parts)


def sample_paths(config: SimulationConfig) -> np.ndarray:
    """All replication paths as a (replications, n) array, block order:
    mu + sigma times the engine's unit paths."""
    paths = np.empty((config.replications, config.params.n))
    for offset, tile in _path_tiles(config.params, config.seed, pool_layout(config)[0]):
        paths[offset : offset + len(tile)] = tile
    return _scaled(config.params, paths)


def _finite(samples, out=None) -> tuple[np.ndarray, int]:
    """The finite samples, in order, and the count of those dropped: a view
    of the front of a flat float64 copy of samples (out=None) or of samples
    itself (out=samples, a one-dimensional float64 array), where they are
    moved."""
    values = _own_or_copy(samples, out, "samples")
    if out is not None and values.ndim != 1:
        raise ValueError(f"out=samples needs a one-dimensional array, got shape {values.shape}")
    values = values.reshape(-1)  # a view: of the C-ordered copy, or of 1-d samples
    finite = np.isfinite(values)
    kept = int(np.count_nonzero(finite))
    if kept < values.size:
        values[:kept] = values[finite]  # boolean indexing copies before the write
    return values[:kept], values.size - kept


def summarize(values) -> EmpiricalSummary:
    """Mean/variance of the finite values with large-sample standard errors.

    The standard error of the variance uses the fourth central moment:
    Var(sample variance) ~ (m4 - m2^2) / R for i.i.d. replications.
    """
    finite, degenerate = _finite(values)
    r = finite.size
    if r + degenerate == 0:
        raise ValueError("no replications to summarize")
    if r < 2:
        raise ValueError("need at least two usable replications")
    mean = float(np.mean(finite))
    # each power is taken in place in its own centred copy: no product temporary
    finite -= mean
    m4 = float(np.mean(np.power(finite, 4, out=finite)))
    del finite  # freed before the second copy is made
    finite, _ = _finite(values)
    finite -= mean
    finite *= finite
    m2 = float(np.mean(finite))
    variance = m2 * r / (r - 1)
    return EmpiricalSummary(
        mean=mean,
        variance=variance,
        std_error_mean=math.sqrt(variance / r),
        std_error_variance=math.sqrt(max(m4 - m2 * m2, 0.0) / r),
        replications=r,
        degenerate=degenerate,
    )


def _kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov sup-statistic law.

    Alternating series 2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 x^2); terms are
    dropped once below 1e-12, and the alternating structure bounds the
    truncation error by the first dropped term. Below x = 0.17 the series
    needs more than 1,000 terms, but there P(K <= x) < 4.3e-18, so the
    survival function rounds to 1.0.
    """
    if x < 0.17:
        return 1.0
    total = 0.0
    for j in range(1, 1001):
        term = 2.0 * math.exp(-2.0 * (j * x) ** 2)
        total += term if j % 2 else -term
        if term < 1e-12:
            break
    return min(max(total, 0.0), 1.0)


def ks_test(
    samples, reference_cdf, reference: str = "", *, out: np.ndarray | None = None
) -> KsReport:
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
    out : numpy.ndarray, optional
        None sorts a float64 copy of the finite samples; samples itself, a
        one-dimensional float64 array, has them sorted in place at its
        front (the rest is unspecified). Either gives the same report; any
        other out raises ValueError.

    Returns
    -------
    KsReport
    """
    sorted_values, _ = _finite(samples, out)
    sorted_values.sort()
    m = sorted_values.size
    if m == 0:
        raise ValueError("ks_test needs a non-empty sample")
    cdf_values = np.asarray(reference_cdf(sorted_values), dtype=float)
    if cdf_values.shape != sorted_values.shape:
        raise ValueError(f"reference_cdf returned shape {cdf_values.shape} for {m} samples")
    if not np.all(np.isfinite(cdf_values)) or cdf_values.min() < 0 or cdf_values.max() > 1:
        raise ValueError("reference_cdf must return probabilities in [0, 1]")

    def rank_gaps(start: int) -> np.ndarray:
        # (start + j) / m - F_j for j = 0..m-1, formed in one buffer
        gaps = np.arange(start, start + m, dtype=float)
        gaps /= m
        gaps -= cdf_values
        return gaps

    # over the ranks i = 1..m, D+ = max(i/m - F) and D- = max(F - (i-1)/m),
    # the latter as -min((i-1)/m - F); one buffer is alive at a time
    d_plus = float(rank_gaps(1).max())
    d_minus = -float(rank_gaps(0).min())
    statistic = max(d_plus, d_minus, 0.0)
    p_value = _kolmogorov_sf(math.sqrt(m) * statistic)
    label = reference or getattr(reference_cdf, "__qualname__", "")
    return KsReport(statistic, p_value, m, label)


def silverman_bandwidth(samples) -> float:
    """Silverman's reference bandwidth with an interquartile guard.

    0.9 min(std, IQR/1.34) m^(-1/5), floored at 1e-6 times the sample
    range. A constant sample has no usable scale and raises.
    """
    return _silverman(_finite(samples)[0])


def _silverman(samples: np.ndarray) -> float:
    # silverman_bandwidth of finite samples, read where they are
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


def empirical_density(
    samples, grid, bandwidth: float | None = None, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Gaussian-kernel density estimate of the samples on the grid.

    Kernels farther than eight bandwidths from a grid point are skipped;
    the neglected mass is below exp(-32), invisible at working precision.

    Parameters
    ----------
    samples : array_like
    grid : array_like
        Evaluation points.
    bandwidth : float, optional
        Positive kernel width, not so small that the peak density overflows
        nor so large that the normaliser 1 / (m h sqrt(2 pi)) rounds to 0;
        Silverman's rule, on the sorted finite samples, when omitted.
    out : numpy.ndarray, optional
        None or samples itself: where the finite samples are sorted, as in
        ks_test.
    """
    samples, _ = _finite(samples, out)
    samples.sort()
    if samples.size == 0:
        raise ValueError("empirical_density needs finite samples")
    if bandwidth is None:
        bandwidth = _silverman(samples)
    bandwidth = float(bandwidth)
    if not bandwidth > 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    norm = 1.0 / (samples.size * bandwidth * math.sqrt(2.0 * math.pi))
    # inf would make every density inf (NaN in an empty window), 0 every density 0
    if not 0.0 < norm < math.inf:
        size = "small" if norm else "large"
        raise ValueError(f"bandwidth {bandwidth} is too {size} for {samples.size} samples")
    grid = np.asarray(grid, dtype=float)
    density = np.empty(grid.shape)
    flat = grid.ravel()
    flat_density = density.reshape(-1)
    los = np.searchsorted(samples, flat - 8.0 * bandwidth)
    his = np.searchsorted(samples, flat + 8.0 * bandwidth)
    # z and the kernel values of every window are formed in these two buffers
    widest = int((his - los).max(initial=0))
    z_buffer, kernel_buffer = np.empty(widest), np.empty(widest)
    for i, (x, lo, hi) in enumerate(zip(flat, los, his)):
        z = np.subtract(samples[lo:hi], x, out=z_buffer[: hi - lo])
        z /= bandwidth
        kernel = np.multiply(z, -0.5, out=kernel_buffer[: hi - lo])
        kernel *= z
        np.exp(kernel, out=kernel)
        flat_density[i] = norm * float(kernel.sum())
    return density
