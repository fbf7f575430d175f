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
    KsReport,
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
    """At mu = 0 and sigma = 1, row 0 of block b equals the scalar pipeline
    on the path of stream b."""
    cfg = _config(2 * BLOCK_SIZE + 100, rho=0.6)
    t_vals = simulate_functional(cfg, Functional.T_STAT)
    mt_vals = simulate_functional(cfg, Functional.MODIFIED_T_STAT)
    means = simulate_functional(cfg, Functional.SAMPLE_MEAN)
    variances = simulate_functional(cfg, Functional.SAMPLE_VARIANCE)
    for block in (0, 1, 2):
        path = simulate_path(cfg.params, seed=cfg.seed, stream=block)
        classical = t_statistic(path)
        assert t_vals[block * BLOCK_SIZE] == classical.value
        assert mt_vals[block * BLOCK_SIZE] == modified_t_statistic(path).value
        assert means[block * BLOCK_SIZE] == classical.sample_mean
        assert variances[block * BLOCK_SIZE] == classical.bessel_variance


def test_worker_count_never_changes_results():
    cfg1 = _config(3 * BLOCK_SIZE + 17, workers=1)
    cfg4 = _config(3 * BLOCK_SIZE + 17, workers=4)
    for f in Functional:
        assert np.array_equal(simulate_functional(cfg1, f), simulate_functional(cfg4, f))


def _whitened_unit_values(unit_paths, rho, centre):
    # the whitened paths of centre + y: whitened y plus the whitened
    # location centre (sqrt(1 - rho^2), 1 - rho, ...), in the engine's order
    w = whiten(unit_paths, rho)
    w[..., 0] += centre * math.sqrt(1.0 - rho * rho)
    w[..., 1:] += centre * (1.0 - rho)
    return w


def _one_shot_values(cfg, functional):
    # each block drawn in one call, recurred and reduced whole, then mapped
    # to mu and sigma
    p, parts = cfg.params, []
    centre = p.mu / p.sigma if functional is Functional.MODIFIED_T_STAT else 0.0
    column = {Functional.SAMPLE_MEAN: 0, Functional.SAMPLE_VARIANCE: 1}.get(functional, 2)
    for start in range(0, cfg.replications, BLOCK_SIZE):
        rows = min(BLOCK_SIZE, cfg.replications - start)
        z = stream_generator(cfg.seed, start // BLOCK_SIZE).standard_normal((rows, p.n))
        paths = paths_from_normals(p, z)
        if functional is Functional.MODIFIED_T_STAT:
            paths = _whitened_unit_values(paths, p.rho, centre)
        parts.append(row_statistics(paths, centre)[column])
    values = np.concatenate(parts)
    if functional is Functional.SAMPLE_MEAN:
        return p.mu + p.sigma * values
    if functional is Functional.SAMPLE_VARIANCE:
        return (p.sigma * p.sigma) * values
    return values


@pytest.mark.parametrize(
    "n, reps",
    [
        (1000, BLOCK_SIZE + 3),  # 524-row tiles do not divide a block
        (300, 2 * BLOCK_SIZE - 1),
        (300, 2 * BLOCK_SIZE + 1),
    ],
)
def test_tiles_equal_one_shot_blocks_bitwise(n, reps):
    assert BLOCK_SIZE % (TILE_NORMALS // n) != 0
    cfg = _config(reps, seed=314, mu=0.1, sigma=1.7, rho=0.95, n=n)
    for functional in Functional:
        want = _one_shot_values(cfg, functional)
        assert np.array_equal(simulate_functional(cfg, functional), want, equal_nan=True)


@pytest.mark.parametrize("n, reps", [(1000, BLOCK_SIZE + 3), (300, 2 * BLOCK_SIZE + 1)])
def test_tiled_worker_counts_agree(n, reps):
    configs = [_config(reps, seed=9, rho=0.95, n=n, workers=w) for w in (1, 2, 3)]
    runs = [simulate_functional(cfg, Functional.MODIFIED_T_STAT) for cfg in configs]
    assert all(np.array_equal(runs[0], other) for other in runs[1:])


def test_tiled_block_row_zero_matches_simulate_path():
    # the replication audit at mu != 0 and sigma != 1 (README): the engine
    # works on the unit path u of stream b, so r = t_statistic(u) gives the
    # tstat, mean and s2 values of row 0 of block b bit for bit, and the
    # mtstat value is t_statistic of the whitened u plus the whitened
    # location, centred at mu / sigma
    mu, sigma, rho = 0.2, 0.7, 0.9
    cfg = _config(BLOCK_SIZE + 3, seed=21, mu=mu, sigma=sigma, rho=rho, n=1000)
    unit = Ar1Params(mu=0.0, sigma=1.0, rho=rho, n=1000)
    values = {f: simulate_functional(cfg, f) for f in Functional}
    for block in (0, 1):
        row = block * BLOCK_SIZE
        u = simulate_path(unit, seed=cfg.seed, stream=block).values
        r = t_statistic(u)
        assert values[Functional.T_STAT][row] == r.value
        assert values[Functional.SAMPLE_MEAN][row] == mu + sigma * r.sample_mean
        assert values[Functional.SAMPLE_VARIANCE][row] == sigma * sigma * r.bessel_variance
        w = _whitened_unit_values(u, rho, mu / sigma)
        assert values[Functional.MODIFIED_T_STAT][row] == t_statistic(w, mu / sigma).value


@pytest.mark.parametrize("n", [2, 7, 100])
@pytest.mark.parametrize("rho", [-(1.0 - 1e-9), 0.0, 0.5, 0.999])
@pytest.mark.parametrize("mu, sigma", [(0.2, 1.0), (-3.0, 1e-3), (1e4, 7.0), (5e-90, 1e-100)])
def test_modified_t_of_the_scaled_path_agrees_within_its_rounding(n, rho, mu, sigma):
    # modified_t_statistic whitens the path mu + sigma y itself; the engine
    # whitens y and adds the location, so the two differ by rounding, at most
    # 8 eps sqrt(n) (1 + |t|) (1 + |mu| / sigma + max |y|) / s (s the
    # whitened sample's standard deviation in units of sigma)
    params = Ar1Params(mu=mu, sigma=sigma, rho=rho, n=n)
    unit = Ar1Params(mu=0.0, sigma=1.0, rho=rho, n=n)
    centre = mu / sigma
    for stream in range(40):
        u = simulate_path(unit, seed=3, stream=stream).values
        engine = t_statistic(_whitened_unit_values(u, rho, centre), centre)
        scaled = modified_t_statistic(simulate_path(params, seed=3, stream=stream))
        bound = (
            8 * np.finfo(float).eps * math.sqrt(n) * (1.0 + abs(engine.value))
            * (1.0 + abs(centre) + float(np.abs(u).max())) / math.sqrt(engine.bessel_variance)
        )
        assert abs(scaled.value - engine.value) <= bound


def test_engine_memory_is_bounded_by_the_tile():
    # whole 4096 x 1000 blocks and their temporaries would need about 126 MB;
    # one 524-row tile (4 MiB) and a 0.5 MiB draw stage take about 4.7 MiB,
    # so a second tile-sized buffer, or a tile of 2^20 normals (9.3 MiB),
    # would break the bound
    cfg = _config(2 * BLOCK_SIZE, seed=314, rho=0.95, n=1000)
    tracemalloc.start()
    try:
        simulate_functional(cfg, Functional.MODIFIED_T_STAT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


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
    # paths are bit-exact at every mu and sigma
    cfg = _config(300, n=7, mu=0.4, sigma=2.5)
    paths = sample_paths(cfg)
    assert paths.shape == (300, 7)
    assert np.array_equal(paths, sample_paths(cfg))
    assert np.array_equal(paths[0], simulate_path(cfg.params, cfg.seed, 0).values)


def test_functional_values():
    # paths are mu + sigma y; mean is mu + sigma ybar and s2 sigma^2 s_y^2
    mu, sigma = 0.2, 1.5
    cfg = _config(50, mu=mu, sigma=sigma)
    unit = sample_paths(_config(50))
    assert sample_paths(cfg).tobytes() == (unit * sigma + mu).tobytes()
    means = simulate_functional(cfg, Functional.SAMPLE_MEAN)
    s2 = simulate_functional(cfg, Functional.SAMPLE_VARIANCE)
    assert np.array_equal(means, mu + sigma * unit.mean(axis=1))
    centered = unit - unit.mean(axis=1, keepdims=True)
    s2_unit = np.sum(centered * centered, axis=1) / (cfg.params.n - 1)
    assert np.array_equal(s2, sigma * sigma * s2_unit)


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
    # each power is taken in place in its own centred finite copy, and the
    # first copy is freed before the second is made: one copy and its finite
    # mask are alive at a time; a product temporary beside the copy made 2.0
    values = np.random.default_rng(314).standard_t(9.0, 1_000_000)
    before = values.copy()
    assert _traced_peak(summarize, values) < 1.25 * values.nbytes
    assert np.array_equal(values, before)


def test_ks_test_memory_with_the_student_cdf():
    # the sorted copy, the cdf's two buffers (the first becomes its result)
    # and then one rank-gap array: 3.13 arrays, 3.21 when the cdf's density
    # had its own chunk array, 3.53 when the cdf's quadrature kept a
    # transposed density copy and a sign mask, 4.95 when it held four
    sample = np.round(np.random.default_rng(314).standard_t(2.0, 1_000_000), 6)
    assert _traced_peak(ks_test, sample, StudentLaw(9.0).cdf) < 3.2 * sample.nbytes


def test_ks_test_memory_in_place():
    # out=sample sorts the caller's array: the cdf's two buffers and one
    # rank-gap array remain, one array less than with the sorted copy (2.13
    # arrays; 2.21 with the cdf's density in its own chunk array, 2.53 with
    # a transposed density copy and a sign mask)
    sample = np.round(np.random.default_rng(314).standard_t(2.0, 1_000_000), 6)
    peak = _traced_peak(lambda: ks_test(sample, StudentLaw(9.0).cdf, out=sample))
    assert peak < 2.2 * sample.nbytes


def test_empirical_density_memory_in_place():
    # out=sample sorts the caller's array and Silverman's rule reads it as it
    # is, so one temporary of np.std or np.percentile is the largest array;
    # a sorted copy and a second finite copy for the bandwidth made 3.0
    sample = np.random.default_rng(314).standard_t(9.0, 1_000_000)
    grid = np.arange(-60, 61) / 10.0
    peak = _traced_peak(lambda: empirical_density(sample, grid, out=sample))
    assert peak < 1.25 * sample.nbytes


def _awkward_sample() -> np.ndarray:
    # ties, both zeros and every non-finite value, scattered through the sample
    rng = np.random.default_rng(11)
    sample = np.round(rng.standard_t(4.0, 3000), 1)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, -0.0, np.nan, 0.0, -np.inf]
    sample[rng.choice(sample.size, len(specials), replace=False)] = specials
    return sample


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize(
    "readout",
    [
        lambda sample, **out: ks_test(sample, StudentLaw(5.0).cdf, **out),
        lambda sample, **out: empirical_density(sample, [-1.0, -0.0, 0.0, 0.05, 2.5], **out),
        lambda sample, **out: empirical_density(sample, [-1.0, 0.0, 3.0], bandwidth=0.3, **out),
    ],
    ids=["ks_test", "empirical_density", "empirical_density-bandwidth"],
)
def test_readouts_in_place_match_a_copy(readout):
    sample = _awkward_sample()
    finite = sample[np.isfinite(sample)]
    by_copy = readout(sample.copy())
    in_place = readout(sample, out=sample)
    if isinstance(by_copy, KsReport):
        assert by_copy.sample_size == in_place.sample_size == finite.size
        by_copy, in_place = ((r.statistic, r.p_value) for r in (by_copy, in_place))
    assert _bits(in_place) == _bits(by_copy)
    # the caller's array now starts with its finite values, sorted
    assert np.array_equal(sample[: finite.size], np.sort(finite))


@pytest.mark.parametrize(
    "readout",
    [
        lambda sample, out: ks_test(sample, StudentLaw(5.0).cdf, out=out),
        lambda sample, out: empirical_density(sample, [0.0], out=out),
    ],
    ids=["ks_test", "empirical_density"],
)
def test_readouts_accept_only_their_samples_as_out(readout):
    sample = np.random.default_rng(12).standard_normal(50)
    before = sample.copy()
    for out in (sample.copy(), sample[:], sample.astype(np.float32), list(sample), 0.0):
        with pytest.raises(ValueError, match="samples"):
            readout(sample, out)
    as_list = list(sample)
    with pytest.raises(ValueError, match="samples"):
        readout(as_list, as_list)
    grid_of_samples = sample.reshape(5, 10)
    with pytest.raises(ValueError, match="samples"):
        readout(grid_of_samples, grid_of_samples)
    assert np.array_equal(sample, before)


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
