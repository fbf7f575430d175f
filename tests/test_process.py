import math

import mpmath
import numpy as np
import pytest

from ar1_tstat import (
    Ar1Params,
    NormalLaw,
    SamplePath,
    covariance_matrix,
    linear_combination_law,
    paths_from_normals,
    simulate_path,
    stream_generator,
)


def test_stream_generator_deterministic():
    a = stream_generator(123, 4).standard_normal(8)
    b = stream_generator(123, 4).standard_normal(8)
    assert np.array_equal(a, b)


def test_streams_differ():
    a = stream_generator(123, 0).standard_normal(8)
    b = stream_generator(123, 1).standard_normal(8)
    assert not np.array_equal(a, b)


def test_stream_bounds_checked():
    with pytest.raises(ValueError):
        stream_generator(-1, 0)
    with pytest.raises(ValueError):
        stream_generator(2**64, 0)
    with pytest.raises(ValueError):
        stream_generator(0, -1)


def _state_items(bit_generator):
    # a Philox state as comparable items: its counter and key are arrays
    state = bit_generator.state
    inner = {name: value.tolist() for name, value in state.pop("state").items()}
    return {**state, "buffer": state["buffer"].tolist(), "state": inner}


@pytest.mark.parametrize(
    "stream",
    [0, 1, 4095, 2**64 - 1, 2**64, 2**70 + 3, 2**128 - 1],
    ids=["0", "1", "4095", "2**64-1", "2**64", "2**70+3", "2**128-1"],
)
def test_stream_starts_where_philox_jumps_to(stream):
    # stream s is Philox at counter s * 2**128: the state and draws of
    # Philox(key=seed).jumped(s), without the throwaway generator it seeds
    jumped = np.random.Philox(key=314).jumped(stream)
    rng = stream_generator(314, stream)
    assert _state_items(rng.bit_generator) == _state_items(jumped)
    want = np.random.Generator(jumped).standard_normal(10_007)
    assert rng.standard_normal(10_007).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "stream", [2**128, 2**128 + 7, 2**200], ids=["2**128", "2**128+7", "2**200"]
)
def test_streams_past_the_counter_range_are_rejected(stream):
    # the 256-bit counter wraps there: stream 2**128 would repeat stream 0
    params = Ar1Params(mu=0.0, sigma=1.0, rho=0.5, n=4)
    with pytest.raises(ValueError, match="stream"):
        stream_generator(314, stream)
    with pytest.raises(ValueError, match="stream"):
        simulate_path(params, 314, stream)


@pytest.mark.parametrize("seed, stream", [(3.7, 0), (3, 1.9), (True, 0), (3, np.True_), ("3", 0)])
def test_non_integer_seed_or_stream_rejected(seed, stream):
    # a float is refused, never truncated to another seed's stream
    with pytest.raises(TypeError, match="must be an integer"):
        stream_generator(seed, stream)
    with pytest.raises(TypeError, match="must be an integer"):
        simulate_path(Ar1Params(mu=0.0, sigma=1.0, rho=0.5, n=4), seed, stream)


def test_numpy_integer_seed_and_stream_accepted():
    params = Ar1Params(mu=0.0, sigma=1.0, rho=0.5, n=4)
    path = simulate_path(params, np.uint64(3), np.int32(1))
    assert (type(path.seed), type(path.stream)) == (int, int)
    assert np.array_equal(path.values, simulate_path(params, 3, 1).values)


def test_paths_from_normals_recursion():
    """Hand-unroll the unit recursion for one short draw; mu and sigma are not read."""
    p = Ar1Params(mu=0.5, sigma=2.0, rho=0.6, n=4)
    z = np.array([0.3, -1.2, 0.8, 0.1])
    path = paths_from_normals(p, z)
    y0 = 1.0 / math.sqrt(1.0 - 0.36) * 0.3
    assert path[0] == y0
    y1 = -1.2 + 0.6 * y0
    assert path[1] == y1
    y2 = 0.8 + 0.6 * y1
    assert path[2] == y2
    unit = Ar1Params(mu=0.0, sigma=1.0, rho=0.6, n=4)
    assert paths_from_normals(unit, z).tobytes() == path.tobytes()


def test_paths_from_normals_batched_rows_match_single():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=-0.4, n=6)
    z = stream_generator(9, 0).standard_normal((5, 6))
    block = paths_from_normals(p, z)
    assert block.shape == (5, 6)
    for i in range(5):
        assert np.array_equal(block[i], paths_from_normals(p, z[i]))


def _row_by_row_paths(p, z):
    # the unit recursion column by column over all rows, in the operation
    # order z[t] + rho y[t-1]
    rho = p.rho
    paths = np.empty_like(z)
    paths[..., 0] = (1.0 / math.sqrt(1.0 - rho * rho)) * z[..., 0]
    for t in range(1, p.n):
        paths[..., t] = z[..., t] + rho * paths[..., t - 1]
    return paths


def _scaled_row_by_row_paths(p, z):
    # the scaled recursion written out, (mu + rho (x[t-1] - mu)) + sigma z[t]:
    # the benchmark's digests, all at mu = 0 and sigma = 1, were pinned with
    # this operation order
    mu, sigma, rho = p.mu, p.sigma, p.rho
    paths = np.empty_like(z)
    paths[..., 0] = mu + (sigma / math.sqrt(1.0 - rho * rho)) * z[..., 0]
    for t in range(1, p.n):
        paths[..., t] = mu + rho * (paths[..., t - 1] - mu) + sigma * z[..., t]
    return paths


@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.95])
def test_time_major_recursion_equals_row_by_row_bitwise(rho):
    p = Ar1Params(mu=0.3, sigma=1.7, rho=rho, n=57)
    z = stream_generator(5, 2).standard_normal((33, 57))
    assert np.array_equal(paths_from_normals(p, z), _row_by_row_paths(p, z))
    assert np.array_equal(paths_from_normals(p, z[7]), _row_by_row_paths(p, z[7]))


@pytest.mark.parametrize("n", [2, 3, 10, 129, 1000])
@pytest.mark.parametrize("rho", [-(1.0 - 1e-9), -0.9, 0.0, 0.3, 0.8, 0.95, 1.0 - 1e-9])
def test_unit_recursion_has_the_bits_of_the_scaled_one_at_mu_0_sigma_1(n, rho):
    # at mu = 0 and sigma = 1 the two-operation step z + rho y equals
    # (0 + rho (y - 0)) + 1 z bit for bit, so every value the benchmark pins
    # (all at mu = 0, sigma = 1) keeps its bits
    p = Ar1Params(mu=0.0, sigma=1.0, rho=rho, n=n)
    z = stream_generator(314, n).standard_normal((17, n))
    assert paths_from_normals(p, z).tobytes() == _scaled_row_by_row_paths(p, z).tobytes()


def test_simulate_path_is_mu_plus_sigma_times_the_unit_path():
    p = Ar1Params(mu=-0.7, sigma=2.5, rho=0.9, n=40)
    unit = paths_from_normals(p, stream_generator(8, 3).standard_normal(40))
    want = unit * 2.5 + -0.7
    assert simulate_path(p, seed=8, stream=3).values.tobytes() == want.tobytes()


def test_paths_from_normals_returns_out_or_a_fresh_copy():
    # without out the recursion runs in a copy, in the innovations' layout,
    # and leaves them alone
    p = Ar1Params(mu=-0.2, sigma=0.8, rho=0.7, n=11)
    z = stream_generator(3, 1).standard_normal((6, 11))
    want = _row_by_row_paths(p, z)
    for normals in (z, np.asfortranarray(z), z.tolist()):
        kept = np.array(normals)
        got = paths_from_normals(p, normals)
        assert got.shape == (6, 11) and not np.shares_memory(got, kept)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.array(normals), kept)
    assert paths_from_normals(p, z[2]).tobytes() == want[2].tobytes()


@pytest.mark.parametrize("layout", ["1-D", "C-ordered", "F-ordered"])
def test_paths_from_normals_runs_in_place_in_out(layout):
    # out=normals overwrites the innovations with the unit paths, in any
    # layout, to the bits of the row-by-row recursion
    p = Ar1Params(mu=-0.2, sigma=0.8, rho=0.7, n=11)
    z = stream_generator(3, 1).standard_normal((6, 11))
    z = z[0] if layout == "1-D" else z
    want = _row_by_row_paths(p, z)
    x = np.asfortranarray(z) if layout == "F-ordered" else z.copy()
    assert paths_from_normals(p, x, out=x) is x
    assert x.tobytes() == want.tobytes()


def test_paths_from_normals_rejects_an_out_it_cannot_use():
    # out is None or the innovations themselves, a float64 array
    p = Ar1Params(mu=0.3, sigma=1.0, rho=0.5, n=5)
    z = stream_generator(4, 0).standard_normal((3, 5))
    single = np.float32(z)
    for normals, out in (
        (z, z.copy()),  # a distinct array
        (z, z[...]),  # a view of the innovations, not them
        (z, np.empty((5, 3)).T),  # a time-major buffer of the paths' shape
        (single, single),  # would round the paths to float32
        (z.tolist(), z.tolist()),
    ):
        kept = np.array(normals)
        with pytest.raises(ValueError, match="out must be None or normals itself"):
            paths_from_normals(p, normals, out=out)
        assert np.array_equal(np.array(normals), kept)
    with pytest.raises(ValueError, match="last axis"):
        paths_from_normals(p, np.float64(0.5))


def test_tiled_draw_equals_one_shot_draw():
    # Philox is counter-based: drawing a block tile by tile into one reused
    # buffer gives the normals of one (rows, n) draw
    rows, n, tile_rows = 4096, 1000, 1048
    want = stream_generator(314, 3).standard_normal((rows, n))
    rng = stream_generator(314, 3)
    buffer = np.empty((tile_rows, n))
    for start in range(0, rows, tile_rows):
        m = min(tile_rows, rows - start)
        assert np.array_equal(rng.standard_normal(out=buffer[:m]), want[start : start + m])


def test_paths_from_normals_shape_mismatch():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=4)
    with pytest.raises(ValueError):
        paths_from_normals(p, np.zeros(5))


def test_simulate_path_reproducible_and_tagged():
    p = Ar1Params(mu=1.0, sigma=0.5, rho=0.2, n=12)
    path = simulate_path(p, seed=7, stream=3)
    again = simulate_path(p, seed=7, stream=3)
    assert isinstance(path, SamplePath)
    assert np.array_equal(path.values, again.values)
    assert path.params == p
    assert path.values.shape == (12,)


def test_sample_path_read_only():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=3)
    path = simulate_path(p, seed=0, stream=0)
    with pytest.raises(ValueError):
        path.values[0] = 99.0


def test_normal_law_validation():
    law = NormalLaw(mean=1.0, variance=4.0)
    assert law.std == 2.0
    with pytest.raises(ValueError):
        NormalLaw(mean=0.0, variance=-1.0)
    with pytest.raises(ValueError):
        NormalLaw(mean=float("nan"), variance=1.0)


def test_linear_combination_law_against_quadratic_form():
    p = Ar1Params(mu=0.25, sigma=1.5, rho=0.5, n=5)
    w = np.array([0.2, -0.1, 0.4, 0.0, 0.3])
    law = linear_combination_law(p, w)
    cov = 1.5**2 * covariance_matrix(p)
    assert law.mean == pytest.approx(0.25 * w.sum(), rel=1e-15)
    assert law.variance == pytest.approx(float(w @ cov @ w), rel=1e-13)


def test_linear_combination_law_sample_mean_agrees_with_simulation():
    # weak law check: empirical variance of the sample mean within 5 sigma
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.6, n=8)
    w = np.full(8, 1.0 / 8.0)
    law = linear_combination_law(p, w)
    z = stream_generator(2024, 0).standard_normal((200_000, 8))
    means = paths_from_normals(p, z).mean(axis=1)
    est = means.var(ddof=1)
    se = est * math.sqrt(2.0 / (len(means) - 1))
    assert abs(est - law.variance) < 5 * se


def _quadratic_form(weights, rho):
    # w' Omega w at 60 digits as the lag sum (sum_j w_j^2 + 2 sum_j w_j u_j)
    # / (1 - rho^2), with u_j = sum_{k>j} rho^(k-j) w_k = rho (w_{j+1} + u_{j+1})
    with mpmath.workdps(60):
        r = mpmath.mpf(rho)
        w = [mpmath.mpf(x) for x in weights]
        u, terms = mpmath.mpf(0), []
        for j in range(len(w) - 1, -1, -1):
            terms.append(w[j] * (w[j] + 2 * u))
            u = r * (w[j] + u)
        return mpmath.fsum(terms) / (1 - r * r)


@pytest.mark.parametrize("n", [2, 3, 10, 200, 1000])
@pytest.mark.parametrize("rho", [0.0, 0.5, -0.5, 0.99, -0.99, 0.999999, 1 - 1e-9, -(1 - 1e-9)])
def test_linear_combination_law_against_mpmath(n, rho):
    p = Ar1Params(mu=0.0, sigma=1.0, rho=rho, n=n)
    for w in (np.full(n, 1.0 / n), stream_generator(31, n).standard_normal(n)):
        want = _quadratic_form(w, rho)
        got = linear_combination_law(p, w).variance
        assert abs(mpmath.mpf(got) - want) <= 1e-14 * want, (n, rho)


def test_normal_law_cdf():
    law = NormalLaw(mean=1.0, variance=4.0)
    assert law.cdf(1.0) == 0.5 and isinstance(law.cdf(1.0), float)
    x = np.array([[-3.0, 1.0], [3.0, 5.0]])
    want = [[0.5 * (1.0 + math.erf((v - 1.0) / (2.0 * math.sqrt(2.0)))) for v in row] for row in x]
    assert law.cdf(x).tolist() == want


def test_normal_law_cdf_of_zero_weights_is_the_step():
    # all weights zero: a point mass at 0, whose cdf is right-continuous
    p = Ar1Params(mu=3.0, sigma=2.0, rho=0.7, n=4)
    law = linear_combination_law(p, np.zeros(4))
    assert (law.mean, law.variance) == (0.0, 0.0)
    assert law.cdf(np.array([-1e-300, 0.0, 1e-300, np.nan])).tolist()[:3] == [0.0, 1.0, 1.0]
    assert math.isnan(law.cdf(np.nan)) and law.cdf(-0.5) == 0.0 and law.cdf(0.0) == 1.0


@pytest.mark.parametrize(
    "weights, message",
    [
        (np.ones(4), r"weights must have shape \(5,\), got \(4,\)"),
        (np.ones((5, 1)), r"weights must have shape \(5,\), got \(5, 1\)"),
        ([0.2, 0.2, np.nan, 0.2, 0.2], "weights must be finite"),
        ([0.2, 0.2, np.inf, 0.2, 0.2], "weights must be finite"),
    ],
)
def test_linear_combination_law_rejects_bad_weights(weights, message):
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.5, n=5)
    with pytest.raises(ValueError, match=message):
        linear_combination_law(p, weights)


def test_linear_combination_law_says_when_the_variance_overflows():
    # sigma**2 leaves the float range; the error says so instead of errno 34
    p = Ar1Params(mu=0.0, sigma=1e200, rho=0.0, n=4)
    with pytest.raises(ValueError, match=r"variance overflows at sigma = 1e\+200"):
        linear_combination_law(p, np.full(4, 0.25))
    # sigma = 1e150 still squares to a finite value, with the same arithmetic
    p = Ar1Params(mu=0.0, sigma=1e150, rho=0.0, n=4)
    assert linear_combination_law(p, np.full(4, 0.25)).variance == 1e150**2 * 0.25


def test_sample_path_rejects_a_wrong_shape():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=4)
    with pytest.raises(ValueError, match=r"path has shape \(3,\), expected \(4,\)"):
        SamplePath(np.zeros(3), p, seed=0, stream=0)
