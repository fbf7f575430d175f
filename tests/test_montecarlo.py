import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ar1_tstat import (
    BLOCK_SIZE,
    Ar1Params,
    EmpiricalSummary,
    Functional,
    SimulationConfig,
    StudentLaw,
    empirical_density,
    ks_test,
    modified_t_statistic,
    paths_from_normals,
    sample_paths,
    silverman_bandwidth,
    simulate_functional,
    simulate_path,
    stream_generator,
    summarize,
    t_statistic,
    whiten,
)
from ar1_tstat import montecarlo, process, tstat
from ar1_tstat.montecarlo import TILE_NORMALS, _kolmogorov_sf
from ar1_tstat.tstat import row_statistics


def _config(reps, seed=77, workers=1, **kw):
    defaults = dict(mu=0.0, sigma=1.0, rho=0.5, n=10)
    defaults.update(kw)
    return SimulationConfig(
        params=Ar1Params(**defaults), replications=reps, seed=seed, workers=workers
    )


def test_config_validation():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=4)
    with pytest.raises(ValueError):
        SimulationConfig(params=p, replications=0, seed=1, workers=1)
    with pytest.raises(ValueError):
        SimulationConfig(params=p, replications=10, seed=-1, workers=1)
    with pytest.raises(ValueError):
        SimulationConfig(params=p, replications=10, seed=1, workers=0)


@pytest.mark.parametrize("seed", [2**64, -1, 2**70])
def test_config_rejects_a_seed_outside_philox_keys(seed):
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=4)
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        SimulationConfig(params=p, replications=10, seed=seed)


def test_config_accepts_the_largest_philox_key():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=4)
    assert SimulationConfig(params=p, replications=10, seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize(
    "field, bad", [("seed", 3.7), ("replications", True), ("workers", 2.0), ("seed", np.True_)]
)
def test_config_rejects_non_integers(field, bad):
    # a float seed is refused, never truncated to another seed's stream
    kw = {"replications": 10, "seed": 3, "workers": 1, field: bad}
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        SimulationConfig(params=Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=4), **kw)


def test_config_normalizes_numpy_integers():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=4)
    cfg = SimulationConfig(params=p, replications=np.int64(10), seed=np.uint64(3), workers=np.int8(1))
    assert [type(v) for v in (cfg.replications, cfg.seed, cfg.workers)] == [int, int, int]


def test_engine_matches_scalar_statistics_bitwise():
    """Row r of the engine equals the scalar pipeline on stream block."""
    cfg = _config(2 * BLOCK_SIZE + 100, mu=0.4, rho=0.6)
    t_vals = simulate_functional(cfg, Functional.T_STAT)
    mt_vals = simulate_functional(cfg, Functional.MODIFIED_T_STAT)
    means = simulate_functional(cfg, Functional.SAMPLE_MEAN)
    variances = simulate_functional(cfg, Functional.SAMPLE_VARIANCE)
    for block in (0, 1, 2):
        path = simulate_path(cfg.params, seed=cfg.seed, stream=block)
        classical = t_statistic(path, mu=0.4)
        assert t_vals[block * BLOCK_SIZE] == classical.value
        assert mt_vals[block * BLOCK_SIZE] == modified_t_statistic(path).value
        assert means[block * BLOCK_SIZE] == classical.sample_mean
        assert variances[block * BLOCK_SIZE] == classical.bessel_variance


def test_worker_count_never_changes_results():
    cfg1 = _config(3 * BLOCK_SIZE + 17, workers=1)
    cfg4 = _config(3 * BLOCK_SIZE + 17, workers=4)
    for f in Functional:
        assert np.array_equal(simulate_functional(cfg1, f), simulate_functional(cfg4, f))


def _one_shot_values(cfg, functional):
    # each block drawn in one call, recurred and reduced whole
    p, parts = cfg.params, []
    column = {Functional.SAMPLE_MEAN: 0, Functional.SAMPLE_VARIANCE: 1}.get(functional, 2)
    for start in range(0, cfg.replications, BLOCK_SIZE):
        rows = min(BLOCK_SIZE, cfg.replications - start)
        z = stream_generator(cfg.seed, start // BLOCK_SIZE).standard_normal((rows, p.n))
        paths = paths_from_normals(p, z)
        if functional is Functional.MODIFIED_T_STAT:
            paths = whiten(paths, p.rho)
        parts.append(row_statistics(paths, p.mu)[column])
    return np.concatenate(parts)


@pytest.mark.parametrize(
    "n, reps",
    [
        (1000, BLOCK_SIZE + 3),  # 1,048-row tiles do not divide a block
        (300, 2 * BLOCK_SIZE - 1),
        (300, 2 * BLOCK_SIZE + 1),
    ],
)
def test_tiles_equal_one_shot_blocks_bitwise(n, reps):
    assert BLOCK_SIZE % (TILE_NORMALS // n) != 0
    cfg = _config(reps, seed=314, mu=0.1, rho=0.95, n=n)
    for functional in Functional:
        want = _one_shot_values(cfg, functional)
        assert np.array_equal(simulate_functional(cfg, functional), want, equal_nan=True)


@pytest.mark.parametrize("n, reps", [(1000, BLOCK_SIZE + 3), (300, 2 * BLOCK_SIZE + 1)])
def test_tiled_worker_counts_agree(n, reps):
    configs = [_config(reps, seed=9, rho=0.95, n=n, workers=w) for w in (1, 2, 3)]
    runs = [simulate_functional(cfg, Functional.MODIFIED_T_STAT) for cfg in configs]
    assert all(np.array_equal(runs[0], other) for other in runs[1:])


def test_tiled_block_row_zero_matches_simulate_path():
    cfg = _config(BLOCK_SIZE + 3, seed=21, mu=0.2, rho=0.9, n=1000)
    t_vals = simulate_functional(cfg, Functional.T_STAT)
    mt_vals = simulate_functional(cfg, Functional.MODIFIED_T_STAT)
    for block in (0, 1):
        path = simulate_path(cfg.params, seed=cfg.seed, stream=block)
        assert t_vals[block * BLOCK_SIZE] == t_statistic(path, mu=0.2).value
        assert mt_vals[block * BLOCK_SIZE] == modified_t_statistic(path).value


def test_engine_memory_is_bounded_by_the_tile():
    # whole 4096 x 1000 blocks and their temporaries would need about 126 MB;
    # one 1,048-row tile (8 MiB) and a 1 MiB draw stage take about 9.3 MiB,
    # so a second tile-sized buffer would break the bound
    cfg = _config(2 * BLOCK_SIZE, seed=314, rho=0.95, n=1000)
    tracemalloc.start()
    try:
        simulate_functional(cfg, Functional.MODIFIED_T_STAT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_engine_calls_each_traced_layer_once_per_tile(monkeypatch):
    # bench/spans.py times the recursion and the whitening by wrapping these
    # functions in every module that holds them; one call per tile keeps
    # that per-layer split of the engine's time whole
    calls = []

    def count_calls(name, original):
        def count(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        for module in (process, tstat, montecarlo):
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, count)

    count_calls("paths_from_normals", process.paths_from_normals)
    count_calls("whiten", tstat.whiten)
    monkeypatch.setattr(montecarlo, "TILE_NORMALS", 3001)  # 300-row tiles at n=10
    params = Ar1Params(mu=0.2, sigma=1.0, rho=0.5, n=10)
    tiles = 4 + 1  # 1,000 rows in 300-row tiles, then 7
    for functional in Functional:
        calls.clear()
        montecarlo._functional_blocks(params, 5, [(0, 1000), (2, 7)], functional)
        whitened = tiles if functional is Functional.MODIFIED_T_STAT else 0
        assert calls.count("paths_from_normals") == tiles, functional
        assert calls.count("whiten") == whitened, functional


def test_replication_count_is_exact():
    vals = simulate_functional(_config(BLOCK_SIZE + 1), Functional.SAMPLE_MEAN)
    assert vals.shape == (BLOCK_SIZE + 1,)


def test_prefix_stability():
    # growing the run keeps the existing replications unchanged
    short = simulate_functional(_config(500), Functional.T_STAT)
    long = simulate_functional(_config(BLOCK_SIZE + 500), Functional.T_STAT)
    assert np.array_equal(long[:500], short)


def test_sample_paths_shape_and_determinism():
    cfg = _config(300, n=7)
    paths = sample_paths(cfg)
    assert paths.shape == (300, 7)
    assert np.array_equal(paths, sample_paths(cfg))
    assert np.array_equal(paths[0], simulate_path(cfg.params, cfg.seed, 0).values)


def test_functional_values():
    cfg = _config(50, mu=0.2)
    paths = sample_paths(cfg)
    means = simulate_functional(cfg, Functional.SAMPLE_MEAN)
    s2 = simulate_functional(cfg, Functional.SAMPLE_VARIANCE)
    assert np.array_equal(means, paths.mean(axis=1))
    centered = paths - paths.mean(axis=1, keepdims=True)
    assert np.array_equal(s2, np.sum(centered * centered, axis=1) / (cfg.params.n - 1))


def test_summarize_basic():
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    s = summarize(vals)
    assert isinstance(s, EmpiricalSummary)
    assert s.mean == 3.0
    assert s.variance == pytest.approx(2.5, rel=1e-15)
    assert s.replications == 5
    assert s.degenerate == 0
    assert s.std_error_mean == pytest.approx(math.sqrt(2.5 / 5), rel=1e-12)


def test_summarize_filters_degenerates():
    vals = np.array([1.0, np.nan, 2.0, np.inf, 3.0])
    s = summarize(vals)
    assert s.replications == 3
    assert s.degenerate == 2
    assert s.mean == 2.0


def test_summarize_needs_two_values():
    with pytest.raises(ValueError):
        summarize(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="no replications to summarize"):
        summarize(np.array([]))


@pytest.mark.parametrize("sample", [[], [np.nan, np.inf]])
def test_ks_test_needs_a_finite_sample(sample):
    with pytest.raises(ValueError, match="ks_test needs a non-empty sample"):
        ks_test(np.array(sample), StudentLaw(5.0).cdf)


def _traced_peak(func, *args):
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_summarize_memory_at_a_million_values():
    # the finite copy is centered in place, so it and one product of it are
    # alive at a time; centering into a new array made it three arrays
    values = np.random.default_rng(314).standard_t(9.0, 1_000_000)
    before = values.copy()
    assert _traced_peak(summarize, values) < 2.25 * values.nbytes
    assert np.array_equal(values, before)


def test_ks_test_memory_with_the_student_cdf():
    # the sorted copy, the cdf's two buffers (the first becomes its result)
    # and then one rank-gap array: 4.95 arrays when the cdf held four
    sample = np.round(np.random.default_rng(314).standard_t(2.0, 1_000_000), 6)
    assert _traced_peak(ks_test, sample, StudentLaw(9.0).cdf) < 3.75 * sample.nbytes


def test_kolmogorov_sf_against_scipy():
    for x in (0.3, 0.5, 0.8, 1.0, 1.36, 2.0):
        assert _kolmogorov_sf(x) == pytest.approx(stats.kstwobign.sf(x), rel=1e-9)
    assert _kolmogorov_sf(0.0) == 1.0
    # below 0.17 the sf is 1.0 to double precision; 1,000 terms of the series
    # gave 0.394 at 5e-4
    for x in (5e-4, 1e-3, 0.05, 0.16):
        assert _kolmogorov_sf(x) == 1.0 == stats.kstwobign.sf(x)
    assert _kolmogorov_sf(20.0) == 0.0


def test_ks_test_matches_scipy_asymptotic():
    rng = np.random.default_rng(5)
    sample = rng.standard_t(df=9, size=4000)
    law = StudentLaw(9.0)
    ours = ks_test(sample, law.cdf, reference="t(9)")
    ref = stats.kstest(sample, lambda x: stats.t.cdf(x, 9.0), mode="asymp")
    assert ours.statistic == pytest.approx(ref.statistic, rel=1e-12)
    assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-12)
    assert ours.sample_size == 4000
    assert ours.reference == "t(9)"


def test_ks_test_detects_wrong_law():
    rng = np.random.default_rng(6)
    sample = rng.normal(loc=0.5, size=2000)
    law = StudentLaw(3.0)
    report = ks_test(sample, law.cdf)
    assert report.p_value < 1e-6


def test_ks_test_drops_non_finite():
    rng = np.random.default_rng(7)
    sample = np.concatenate([rng.standard_t(df=5, size=1000), [np.nan, np.inf]])
    report = ks_test(sample, StudentLaw(5.0).cdf)
    assert report.sample_size == 1000


def test_ks_test_leaves_its_sample_unchanged():
    # the finite values are sorted in place in a copy, never in the caller's array
    sample = np.array([3.0, np.nan, -1.0, 2.0, np.inf, 0.5])
    before = sample.copy()
    ks_test(sample, StudentLaw(5.0).cdf)
    assert np.array_equal(sample, before, equal_nan=True)


def test_ks_test_rejects_broken_cdf():
    broken = (
        lambda x: np.asarray(x) * 10.0,  # not a probability
        lambda x: 0.5,  # scalar-only: wrong shape
    )
    for cdf in broken:
        with pytest.raises(ValueError):
            ks_test(np.array([0.0, 1.0, 2.0]), cdf)


def test_silverman_bandwidth():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(1000)
    h = silverman_bandwidth(x)
    iqr = np.subtract(*np.percentile(x, [75, 25]))
    want = 0.9 * min(x.std(ddof=1), iqr / 1.34) * 1000 ** (-0.2)
    assert h == pytest.approx(want, rel=1e-12)
    # constant data has no usable scale
    with pytest.raises(ValueError):
        silverman_bandwidth(np.full(50, 3.0))
    for short in ([1.0], [1.0, np.nan, np.inf], []):
        with pytest.raises(ValueError, match="at least two finite samples"):
            silverman_bandwidth(short)


def test_empirical_density_matches_naive_sum():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(500)
    grid = np.linspace(-3, 3, 21)
    h = 0.35
    ours = empirical_density(x, grid, bandwidth=h)
    naive = np.array(
        [np.exp(-0.5 * ((g - x) / h) ** 2).sum() / (500 * h * math.sqrt(2 * math.pi)) for g in grid]
    )
    assert np.allclose(ours, naive, rtol=1e-9, atol=1e-12)


def test_empirical_density_of_an_empty_window_is_positive_zero():
    dens = empirical_density([0.0, 1.0, 2.0], [-9.0, 1.0, 9.0], bandwidth=0.5)
    assert dens[1] > 0.0
    assert [(d, math.copysign(1.0, d)) for d in dens[[0, 2]]] == [(0.0, 1.0)] * 2


@pytest.mark.parametrize("bandwidth", [1e-320, 5e-324])
def test_empirical_density_rejects_a_bandwidth_whose_peak_overflows(bandwidth):
    # the kernel's peak 1 / (3 h sqrt(2 pi)) is inf, and an empty window would read NaN
    with pytest.raises(ValueError, match="too small for 3 samples"):
        empirical_density([0.0, 1.0, 2.0], [0.0, 0.5, 5.0], bandwidth=bandwidth)
    assert np.isfinite(empirical_density([0.0, 1.0, 2.0], [0.5], bandwidth=1e-300)).all()


def test_empirical_density_mass():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(2000)
    grid = np.linspace(-6, 6, 601)
    dens = empirical_density(x, grid)
    mass = np.trapezoid(dens, grid)
    assert abs(mass - 1.0) < 1e-3


def test_empirical_density_tracks_student_shape():
    cfg = _config(40_000, rho=0.0, n=6, seed=2029)
    vals = simulate_functional(cfg, Functional.T_STAT)
    grid = np.linspace(-3, 3, 41)
    dens = empirical_density(vals, grid)
    want = StudentLaw(5.0).density_closed(grid)
    assert np.max(np.abs(dens - want)) < 0.02


def test_simulated_tstat_iid_matches_student_ks():
    cfg = _config(50_000, rho=0.0, n=5, seed=424)
    vals = simulate_functional(cfg, Functional.T_STAT)
    report = ks_test(vals, StudentLaw(4.0).cdf)
    assert report.p_value > 0.01


def test_simulated_modified_tstat_matches_student_ks():
    cfg = _config(50_000, rho=0.7, n=8, seed=424)
    vals = simulate_functional(cfg, Functional.MODIFIED_T_STAT)
    report = ks_test(vals, StudentLaw(7.0).cdf)
    assert report.p_value > 0.01


def test_classical_tstat_under_correlation_is_not_student():
    cfg = _config(50_000, rho=0.8, n=10, seed=424)
    vals = simulate_functional(cfg, Functional.T_STAT)
    report = ks_test(vals, StudentLaw(9.0).cdf)
    assert report.p_value < 1e-3


@pytest.mark.parametrize("n", [5, 10, 50])
@pytest.mark.parametrize("rho", [-0.8, -0.3, 0.0, 0.3, 0.8])
def test_sample_variance_moments_within_four_se(n, rho):
    """Engine agreement with the trace oracle across the working grid."""
    from ar1_tstat.oracle import centering_form, form_mean, form_variance

    cfg = _config(200_000, rho=rho, n=n, seed=515)
    s = summarize(simulate_functional(cfg, Functional.SAMPLE_VARIANCE))
    p = cfg.params
    q = centering_form(n)
    assert abs(s.mean - form_mean(q, p)) < 4 * s.std_error_mean
    assert abs(s.variance - form_variance(q, p)) < 4 * s.std_error_variance


@pytest.mark.parametrize("bandwidth", [math.inf, 1e308])
def test_empirical_density_rejects_a_bandwidth_whose_normaliser_is_zero(bandwidth):
    # 1 / (3 h sqrt(2 pi)) rounds to 0 (3 h overflows at 1e308), which made every density 0
    with pytest.raises(ValueError, match="too large for 3 samples"):
        empirical_density([0.0, 1.0, 2.0], [0.0, 0.5, 5.0], bandwidth=bandwidth)
    assert (empirical_density([0.0, 1.0, 2.0], [0.5], bandwidth=1e300) > 0.0).all()


@pytest.mark.parametrize("bandwidth", [0.0, -1.0, math.nan, -math.inf])
def test_empirical_density_rejects_a_non_positive_bandwidth(bandwidth):
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        empirical_density([0.0, 1.0, 2.0], [0.5], bandwidth=bandwidth)


@pytest.mark.parametrize("sample", [[], [np.nan, -np.inf]])
def test_empirical_density_needs_finite_samples(sample):
    with pytest.raises(ValueError, match="empirical_density needs finite samples"):
        empirical_density(sample, [0.0], bandwidth=1.0)
