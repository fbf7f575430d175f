import math

import numpy as np
import pytest

from ar1_tstat import (
    Ar1Params,
    DegenerateSampleError,
    Functional,
    covariance_matrix,
    modified_t_statistic,
    noncentrality,
    paths_from_normals,
    simulate_path,
    stream_generator,
    t_statistic,
    whiten,
    whitened_mean,
    whitening_matrix,
)
from ar1_tstat import tstat
from ar1_tstat.tstat import _row_sums, row_statistics


def test_t_statistic_hand_computation():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    res = t_statistic(values)
    s = math.sqrt(np.var(values, ddof=1))
    assert res.value == pytest.approx(2.0 * 2.5 / s, rel=1e-15)
    assert res.sample_mean == 2.5
    assert res.bessel_variance == pytest.approx(np.var(values, ddof=1), rel=1e-15)
    assert res.kind is Functional.T_STAT
    assert res.whitened_mean is None


def test_t_statistic_centered_under_mu():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    assert t_statistic(values, mu=2.5).value == 0.0
    shifted = t_statistic(values, mu=1.0)
    assert shifted.value > 0.0


def test_t_statistic_accepts_sample_path():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.3, n=20)
    path = simulate_path(p, seed=3, stream=0)
    assert t_statistic(path).value == t_statistic(path.values).value


def test_t_statistic_location_scale_invariance():
    rng = stream_generator(77, 0)
    x = rng.standard_normal(15)
    base = t_statistic(x).value
    assert t_statistic(3.0 * x).value == pytest.approx(base, rel=1e-12)


def test_degenerate_sample_raises():
    with pytest.raises(DegenerateSampleError):
        t_statistic(np.full(6, 2.0))


def test_too_short_sample_raises():
    with pytest.raises(ValueError):
        t_statistic(np.array([1.0]))


def test_noncentrality():
    p = Ar1Params(mu=0.5, sigma=2.0, rho=0.0, n=16)
    assert noncentrality(p) == pytest.approx(4.0 * 0.5 / 2.0, rel=1e-15)


def test_whiten_matches_matrix_multiply():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.6, n=9)
    x = stream_generator(11, 0).standard_normal(9)
    direct = whiten(x, 0.6)
    assert np.allclose(direct, whitening_matrix(p) @ x, rtol=0.0, atol=1e-13)


def test_whiten_batched():
    x = stream_generator(12, 0).standard_normal((4, 7))
    block = whiten(x, -0.4)
    for i in range(4):
        assert np.array_equal(block[i], whiten(x[i], -0.4))


def _two_term_whiten(x, rho):
    # the map by slicing: sqrt(1 - rho^2) x[0], then x[i] - rho x[i-1]
    want = np.empty(x.shape)
    want[..., 0] = math.sqrt(1.0 - rho * rho) * x[..., 0]
    want[..., 1:] = x[..., 1:] - rho * x[..., :-1]
    return want


def test_whiten_into_out_equals_the_two_term_formula():
    x = stream_generator(13, 0).standard_normal((5, 8))
    kept = x.copy()
    want = _two_term_whiten(x, 0.9)
    assert np.array_equal(whiten(x, 0.9), want)
    assert x.tobytes() == kept.tobytes()  # without out, a copy is whitened
    # out may be the input itself: whitened in place, to the same bits
    assert whiten(x, 0.9, out=x) is x
    assert x.tobytes() == want.tobytes()


@pytest.mark.parametrize("layout", ["1-D", "C-ordered", "time-major"])
@pytest.mark.parametrize(
    "blocks, extra", [(0, 2), (0, 3), (1, -1), (1, 0), (1, 1), (1, 2), (0, 1000)]
)
def test_whiten_in_place_equals_out_of_place_bitwise(layout, blocks, extra):
    # n = blocks * block + extra, where whiten works in blocks of
    # 2**17 / (8 R) time steps for R rows: 16,384 for a 1-D path, 16 for
    # the 1,000 rows here, so n = 1000 spans 63 blocks
    rows = 1 if layout == "1-D" else 1000
    n = blocks * (tstat._WHITEN_BLOCK_BYTES // (8 * rows)) + extra
    x = stream_generator(15, 0).standard_normal((rows, n))
    x = x[0] if layout == "1-D" else x
    x = np.asfortranarray(x) if layout == "time-major" else x
    want = _two_term_whiten(x, 0.95)
    assert _bits(whiten(x, 0.95)) == _bits(want)
    got = whiten(x, 0.95, out=x)
    assert got is x and got.flags.f_contiguous == (layout != "C-ordered")
    assert _bits(got) == _bits(want)


def test_whiten_rejects_an_out_that_overlaps_in_part():
    x = stream_generator(16, 0).standard_normal((5, 9))
    for values, out in ((x[:, 1:], x[:, :-1]), (x[:, :5], x[:, 4:]), (x, x[...])):
        with pytest.raises(ValueError, match="out must be None or values itself"):
            whiten(values, 0.5, out=out)


def test_whiten_rejects_an_out_of_another_dtype_or_shape():
    x = stream_generator(17, 0).standard_normal((3, 5))
    for out in (np.empty((3, 5), dtype=np.float32), np.empty((2, 3, 5)), np.empty(15), x.copy()):
        with pytest.raises(ValueError, match="out must be None or values itself"):
            whiten(x, 0.5, out=out)
    single = np.float32(x)  # its own out, but whitening would round to float32
    with pytest.raises(ValueError, match="out must be None or values itself"):
        whiten(single, 0.5, out=single)


@pytest.mark.parametrize(
    "values", [np.float64(1.5), np.zeros(0), np.zeros((3, 0))], ids=["0-d", "1-D", "2-D"]
)
def test_whiten_rejects_an_empty_last_axis(values):
    with pytest.raises(ValueError, match="last axis"):
        whiten(values, 0.5)


@pytest.mark.parametrize(
    "rho, error, message",
    [
        (1.5, ValueError, "stationarity requires"),
        (-1.0, ValueError, "stationarity requires"),
        (math.nan, ValueError, "rho must be finite"),
        (math.inf, ValueError, "rho must be finite"),
        ("0.5", TypeError, "rho must be a real number"),
    ],
)
def test_whiten_checks_rho_before_it_writes(rho, error, message):
    # the rule of Ar1Params, checked before the caller's array is touched
    x = np.arange(1.0, 6.0)
    with pytest.raises(error, match=message):
        whiten(x, rho, out=x)
    assert np.array_equal(x, np.arange(1.0, 6.0))


def test_row_statistics_overwrites_its_rows_keeping_bits():
    # the kernel forms the squared deviations in the rows it is given
    x = stream_generator(14, 0).standard_normal((6, 9)) + 3.0
    means = np.add.reduce(x, axis=-1) / 9
    squares = x - means[:, None]
    squares *= squares
    bessel = np.add.reduce(squares, axis=-1) / 8
    rows = x.copy()
    got = row_statistics(rows, 0.5)
    assert rows.tobytes() == squares.tobytes()
    want = (means, bessel, 3.0 * (means - 0.5) / np.sqrt(bessel))
    assert all(_bits(a) == _bits(b) for a, b in zip(got, want))


@pytest.mark.parametrize("kind", ["array", "SamplePath"])
def test_single_path_statistics_leave_the_sample_alone(kind):
    # the kernel overwrites its rows, so each call works on its own copy
    p = Ar1Params(mu=0.2, sigma=1.0, rho=0.6, n=40)
    path = simulate_path(p, seed=8, stream=1)
    sample = path if kind == "SamplePath" else path.values.copy()
    values = getattr(sample, "values", sample)
    kept = values.tobytes()
    t_statistic(sample, mu=0.2)
    assert values.tobytes() == kept
    modified_t_statistic(sample, params=p)
    assert values.tobytes() == kept


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


_SUM_LENGTHS = [*range(1, 301), 511, 512, 513, 1000, 8191, 8192, 8193, 100_000]


@pytest.mark.parametrize("rows", [1, 7])
def test_row_sums_follow_numpy_pairwise_order(rows):
    # magnitudes spread over ten decades, so any other summation order
    # shows in the last bits; an F-ordered input is a time-major tile
    rng = np.random.default_rng(rows)
    for n in _SUM_LENGTHS:
        x = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-5.0, 5.0, (rows, n))
        want = np.add.reduce(x, axis=-1)
        squares = x - (want / n)[:, None]
        squares *= squares
        with np.errstate(divide="ignore", invalid="ignore"):  # n = 1 has no variance
            bessel = np.add.reduce(squares, axis=-1) / (n - 1)
            stats = (want / n, bessel, math.sqrt(n) * (want / n - 0.25) / np.sqrt(bessel))
        for layout in (x, np.asfortranarray(x)):
            assert _bits(_row_sums(layout)) == _bits(want), n
            with np.errstate(divide="ignore", invalid="ignore"):
                got = row_statistics(layout.copy(order="K"), 0.25)
            assert all(_bits(a) == _bits(b) for a, b in zip(got, stats)), n


def test_row_sums_of_stacked_time_major_rows():
    x = np.random.default_rng(5).standard_normal((3, 4, 300))
    assert _bits(_row_sums(np.asfortranarray(x))) == _bits(np.add.reduce(x, axis=-1))


@pytest.mark.parametrize("n", [3, 8, 300])
def test_row_means_of_a_1d_row(n):
    # a 1-D array is one row: its mean is a scalar with numpy's bits
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
    assert _bits(tstat.row_means(x)) == _bits(np.add.reduce(x) / n)


@pytest.mark.parametrize("n", [2, 7, 8, 13, 128, 129, 300])
def test_row_sums_keep_signed_zero_and_non_finite_bits(n):
    x = np.random.default_rng(n).standard_normal((7, n))
    x[0] = -0.0
    x[1] = 0.0
    x[2, n // 2] = np.inf
    x[3, 0] = np.nan
    x[4, [0, -1]] = np.inf, -np.inf
    x[5, :-1] = -0.0
    x[6, -1] = -np.inf
    with np.errstate(invalid="ignore"):
        want = np.add.reduce(x, axis=-1)
        stats = row_statistics(x.copy(), 0.0)
        # C order, F order, and a last axis with a stride of two elements,
        # each a copy of x for the kernel to overwrite
        for layout in (x.copy(), np.asfortranarray(x), np.repeat(x, 2, axis=-1)[:, ::2]):
            assert _bits(_row_sums(layout)) == _bits(want)
            got = row_statistics(layout, 0.0)
            assert all(_bits(a) == _bits(b) for a, b in zip(got, stats))


def test_whitening_gives_identity_covariance():
    """Monte Carlo check of the design identity L Omega L' = I."""
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.7, n=6)
    reps = 200_000
    z = stream_generator(404, 0).standard_normal((reps, 6))
    w = whiten(paths_from_normals(p, z), 0.7)
    emp = np.cov(w.T)
    # entries are means of products of N(0,1)-scale variables: SE ~ 1/sqrt(reps)
    assert np.max(np.abs(emp - np.eye(6))) < 4.5 / math.sqrt(reps)


def test_whitened_mean_formula():
    p = Ar1Params(mu=2.0, sigma=1.0, rho=0.5, n=10)
    want = 2.0 * (math.sqrt(1.0 - 0.25) + 9 * 0.5) / 10
    assert whitened_mean(p) == pytest.approx(want, rel=1e-14)
    # zero-mean process keeps a zero whitened mean
    p0 = Ar1Params(mu=0.0, sigma=1.0, rho=0.5, n=10)
    assert whitened_mean(p0) == 0.0


def test_whitened_mean_matches_empirical():
    p = Ar1Params(mu=1.5, sigma=1.2, rho=0.65, n=8)
    reps = 100_000
    z = stream_generator(606, 0).standard_normal((reps, 8))
    w = whiten(1.5 + 1.2 * paths_from_normals(p, z), 0.65) / 1.2  # mu + sigma y
    est = w.mean(axis=1).mean()
    se = w.mean(axis=1).std(ddof=1) / math.sqrt(reps)
    assert abs(est - whitened_mean(p) / 1.2) < 4 * se


def test_modified_equals_classical_on_prewhitened_data():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.45, n=12)
    path = simulate_path(p, seed=21, stream=5)
    manual = t_statistic(whiten(path.values, 0.45))
    auto = modified_t_statistic(path)
    assert auto.value == manual.value
    assert auto.kind is Functional.MODIFIED_T_STAT


def test_modified_t_statistic_needs_params():
    x = stream_generator(1, 0).standard_normal(10)
    with pytest.raises(ValueError):
        modified_t_statistic(x)  # bare array, no params anywhere
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.2, n=10)
    res = modified_t_statistic(x, params=p)
    assert res.kind is Functional.MODIFIED_T_STAT
    assert res.whitened_mean == whitened_mean(p)


def test_modified_t_statistic_rejects_mismatched_params():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.2, n=10)
    path = simulate_path(p, seed=2, stream=0)
    other = Ar1Params(mu=0.0, sigma=1.0, rho=0.2, n=11)
    with pytest.raises(ValueError):
        modified_t_statistic(path, params=other)


def test_modified_reduces_to_classical_when_iid():
    # rho = 0: whitening is the identity, both statistics coincide
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.0, n=15)
    path = simulate_path(p, seed=8, stream=1)
    assert modified_t_statistic(path).value == t_statistic(path).value


def test_whitened_path_has_unit_innovations():
    # whitening the exact covariance gives white noise; check via sample
    p = Ar1Params(mu=0.0, sigma=3.0, rho=0.8, n=5)
    cov = 9.0 * covariance_matrix(p)
    ell = whitening_matrix(p)
    transformed = ell @ cov @ ell.T
    assert np.allclose(transformed, 9.0 * np.eye(5), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_t_statistic_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="sample values must be finite"):
        t_statistic(np.array([1.0, bad, 2.0]))


def test_modified_t_statistic_rejects_a_length_other_than_n():
    p = Ar1Params(mu=0.0, sigma=1.0, rho=0.2, n=10)
    with pytest.raises(ValueError, match="sample length 9 does not match n = 10"):
        modified_t_statistic(np.ones(9), params=p)
