"""Student t law: closed-form density, independent quadrature route, CDF."""

import hashlib
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from ar1_tstat import QuadratureError, StudentLaw, student
from ar1_tstat.student import (
    _GL_NODES,
    _GL_WEIGHTS,
    _PANEL_CHUNK,
    _gamma_kernel_total,
    _panel_integrals,
)


@pytest.mark.parametrize("dof", [0.0, -1.0, float("nan"), float("inf")])
def test_dof_validated(dof):
    with pytest.raises(ValueError):
        StudentLaw(dof)


def test_cauchy_spot_values():
    law = StudentLaw(1.0)
    assert abs(law.density_closed(0.0) - 1.0 / math.pi) < 1e-12
    assert abs(law.density_closed(1.0) - 1.0 / (2.0 * math.pi)) < 1e-12


def test_closed_density_against_scipy():
    law = StudentLaw(7.0)
    t = np.linspace(-10, 10, 101)
    assert np.allclose(law.density_closed(t), stats.t.pdf(t, 7.0), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("dof", [1.0, 2.0, 5.0, 30.0, 0.5, 999.0])
def test_dual_route_agreement(dof):
    """Quadrature route must reproduce the closed form to 1e-8 relative."""
    law = StudentLaw(dof)
    grid = np.linspace(-8.0, 8.0, 161)
    closed = law.density_closed(grid)
    integral = law.density_integral(grid)
    rel = np.abs(integral - closed) / closed
    assert np.max(rel) < 1e-8


def test_dual_route_large_dof_stays_finite():
    # the integrand peak grows like exp(dof); the route has to rescale
    law = StudentLaw(200.0)
    val = law.density_integral(0.0)
    assert val == pytest.approx(law.density_closed(0.0), rel=1e-10)


# relative error bound of the gamma-kernel total per dof: rounding of the
# kernel's exponent grows like eps * (alpha - 1) log(alpha)
_KERNEL_TOTAL_RTOL = {1e-6: 1e-15, 0.5: 1e-15, 1.0: 1e-15, 2.0: 1e-15, 3.0: 1e-15, 9.0: 1e-15,
                      30.0: 1e-15, 200.0: 1e-14, 999.0: 5e-14, 1e4: 5e-12, 1e6: 1e-10}


@pytest.mark.parametrize("dof", sorted(_KERNEL_TOTAL_RTOL))
def test_gamma_kernel_total_against_mpmath(dof):
    # the total is Gamma(alpha) exp(-peak_log) for the float peak_log the route stores
    alpha = (dof + 1.0) / 2.0
    peak_log = (alpha - 1.0) * (math.log(alpha - 1.0) - 1.0) if alpha > 1.0 else 0.0
    total = _gamma_kernel_total(alpha, peak_log, refine=1)
    with mpmath.workdps(40):
        want = mpmath.gamma(mpmath.mpf(alpha)) * mpmath.exp(-mpmath.mpf(peak_log))
        assert abs((total - want) / want) < _KERNEL_TOTAL_RTOL[dof]
    if dof == 9.0:
        # every bit of the law-mode density output hangs on this double: it
        # must stay the correctly rounded 5.118576565607273
        assert total == float(want)


@pytest.mark.parametrize("dof", [1e6, 5e6])
def test_large_dof_density_against_mpmath(dof):
    # below about dof 5.8e6 the route returns, and within the 1e-8 contract
    t = np.array([0.0, 1.0, 5.0])
    value = StudentLaw(dof).density_integral(t)
    k = mpmath.mpf(dof)
    with mpmath.workdps(40):
        for tt, got in zip(t, value):
            want = mpmath.exp(
                mpmath.loggamma((k + 1) / 2) - mpmath.loggamma(k / 2)
                - mpmath.log(mpmath.pi * k) / 2 - (k + 1) / 2 * mpmath.log1p(mpmath.mpf(tt) ** 2 / k)
            )
            assert abs((got - want) / want) < 1e-8


def _density_reference(dof, t):
    with mpmath.workdps(50):
        k, t = mpmath.mpf(dof), mpmath.mpf(t)
        return mpmath.exp(
            mpmath.loggamma((k + 1) / 2) - mpmath.loggamma(k / 2)
            - mpmath.log(mpmath.pi * k) / 2 - (k + 1) / 2 * mpmath.log1p(t * t / k)
        )


@pytest.mark.parametrize(
    "dof, t",
    [(0.5, 1e154), (0.5, -1e154), (0.5, 2e154), (0.5, -2e154), (0.5, 1e200), (1.0, 2e154)],
)
def test_density_where_t_squared_over_dof_overflows(dof, t):
    # t^2/k is past float64 here; both routes read log1p(t^2/k) as
    # 2 log|t| - log k instead of returning 0.0 (or warning)
    law = StudentLaw(dof)
    want = _density_reference(dof, t)
    assert want > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = law.density_closed(t)
        array = law.density_closed(np.array([t, 0.0, np.inf]))
        integral = law.density_integral(t)
    for got in (closed, array[0], integral):
        assert abs((got - want) / want) < 1e-12
    assert array[0] == closed and array[2] == 0.0


def test_density_past_the_float_range_still_underflows_to_zero():
    law = StudentLaw(9.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = [law.density_closed(1e300), law.density_closed(-1e300)]
        integral = law.density_integral(1e300)
    assert closed == [0.0, 0.0] and integral == 0.0


@pytest.mark.parametrize("dof", [7e6, 1e8, 1e12, 1e300])
def test_huge_dof_raises(dof):
    # from about dof 6.04e6 the exponent's rounding alone exceeds 1e-8: the
    # route raises before it evaluates a panel
    with pytest.raises(QuadratureError, match="rounding-bound"):
        StudentLaw(dof).density_integral(0.0)


def test_density_scalar_vs_array():
    law = StudentLaw(4.0)
    arr = law.density_closed(np.array([0.5]))
    assert isinstance(law.density_closed(0.5), float)
    assert arr[0] == law.density_closed(0.5)


# (dof, t): t^2/k finite everywhere, past float64 at dof 1e-300 and at
# |t| = 1e200, with a NaN, and no argument at all
_DENSITY_IN_PLACE = {
    "finite": (9.0, np.linspace(-8.0, 8.0, 161)),
    "dof 1e-300": (1e-300, np.array([0.0, 1e-5, -3.0, 1e10])),
    "|t| 1e200": (0.5, np.array([1e200, -1e200, 0.5, np.inf, -0.0])),
    "NaN": (3.0, np.array([1.0, np.nan, -2.0])),
    "empty": (3.0, np.array([])),
}


@pytest.mark.numpy_floor
@pytest.mark.parametrize("case", sorted(_DENSITY_IN_PLACE))
def test_density_in_place_is_bit_equal(case):
    # in place where every t^2/k is finite; otherwise the overflow branch
    # reads t, so the density is formed in a copy and written back
    dof, t = _DENSITY_IN_PLACE[case]
    law = StudentLaw(dof)
    want = law.density_closed(t)
    buffer = t.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = law.density_closed(buffer, out=buffer)
    assert got is buffer
    assert got.tobytes() == want.tobytes()


@pytest.mark.numpy_floor
def test_density_out_must_be_t_itself():
    law = StudentLaw(9.0)
    t = np.linspace(-1.0, 1.0, 5)
    single = t.astype(np.float32)
    listed = t.tolist()
    for argument, out in ((t, np.empty_like(t)), (t, t[:]), (single, single), (listed, listed)):
        with pytest.raises(ValueError, match="out must be None or t itself"):
            law.density_closed(argument, out=out)
    assert np.array_equal(t, np.linspace(-1.0, 1.0, 5)) and listed == t.tolist()


# SHA-256 of the Gauss-Legendre table, its nodes then its weights as
# little-endian float64
_GL_TABLE_DIGEST = "7791a0591d54d300e533aaf08c7daeeabad514257e15ee558b0391c97bb76c8a"


@pytest.mark.numpy_floor
def test_gl_table_matches_leggauss():
    # the literal table is leggauss(24) bit for bit where it was written;
    # another host's eigen-solve may move a last bit, never more than two
    nodes, weights = np.polynomial.legendre.leggauss(24)
    for table, want in ((_GL_NODES, nodes), (_GL_WEIGHTS, weights)):
        assert table.dtype == np.float64 and table.shape == (24,)
        assert np.all(np.abs(table - want) <= 2 * np.spacing(np.abs(want)))
    table = np.concatenate((_GL_NODES, _GL_WEIGHTS)).astype("<f8")
    assert hashlib.sha256(table.tobytes()).hexdigest() == _GL_TABLE_DIGEST


def test_density_symmetry():
    law = StudentLaw(3.0)
    t = np.linspace(0.0, 12.0, 25)
    assert np.array_equal(law.density_closed(t), law.density_closed(-t))


def test_mass_integrates_to_one():
    for dof in (1.0, 6.0, 50.0):
        law = StudentLaw(dof)
        mass, err = integrate.quad(law.density_closed, -np.inf, np.inf, limit=200)
        assert abs(mass - 1.0) < 1e-8


def test_normal_limit():
    # for large dof the law approaches the standard normal
    law = StudentLaw(5000.0)
    t = np.linspace(-4, 4, 33)
    normal = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(law.density_closed(t) - normal)) < 2e-4


def test_cdf_scalar_values():
    law = StudentLaw(9.0)
    assert law.cdf(0.0) == pytest.approx(0.5, abs=1e-14)
    assert law.cdf(float("inf")) == 1.0
    assert law.cdf(float("-inf")) == 0.0
    assert law.cdf(1.5) == pytest.approx(stats.t.cdf(1.5, 9.0), rel=1e-10)
    # the tail value is 9.3e-11: a relative check needs abs=0
    assert law.cdf(-31.0) == pytest.approx(stats.t.cdf(-31.0, 9.0), rel=1e-12, abs=0.0)


def test_cdf_reflection():
    law = StudentLaw(6.0)
    for t in (0.3, 1.0, 2.7, 8.0):
        assert law.cdf(-t) == pytest.approx(1.0 - law.cdf(t), abs=1e-13)


def test_cdf_rejects_nan():
    law = StudentLaw(2.0)
    with pytest.raises(ValueError):
        law.cdf(float("nan"))
    with pytest.raises(ValueError):
        law.cdf(np.array([0.0, float("nan")]))


def test_cdf_scalar_is_one_element_array():
    law = StudentLaw(9.0)
    for t in (-35.0, -4.2, -1.0, -0.25, 0.0, 0.6, 2.0, 30.0, 31.5, 1e9):
        value = law.cdf(t)
        assert type(value) is float
        assert value == law.cdf(np.array([t]))[0]


# SHA-256 of StudentLaw(k).cdf(linspace(-30, 30, 2001)).tobytes(), taken from
# the earlier route with separate scalar and array paths: the head of the one
# route (|t| <= 30) keeps its arithmetic bit for bit.
PINNED_HEAD_DIGESTS = {
    1: "960ba11f9b3639a9e5c5cc90f01486a08c13f570ff4816ad12710142a59a5a85",
    9: "a5406474ba5118a4f8e75e7ed4b503b4360d5acaf61e82eb0de511aad1ee7153",
    999: "4354e7d720eb6bd384ee6cde6b827be863d178f7da5fef67c78e141a46f3f38b",
}


@pytest.mark.parametrize("dof", sorted(PINNED_HEAD_DIGESTS))
def test_cdf_head_is_pinned(dof):
    grid = np.linspace(-30.0, 30.0, 2001)
    assert grid[0] == -30.0 and grid[-1] == 30.0
    digest = hashlib.sha256(StudentLaw(dof).cdf(grid).tobytes()).hexdigest()
    assert digest == PINNED_HEAD_DIGESTS[dof]


# SHA-256 of [cdf(35.0), *cdf([-1e9, 31.0, 30.0]), *cdf([-inf, inf])], taken
# from the route that split its arguments into head and tail copies: the
# tail values written over the clipped head keep those bits
PINNED_TAIL_DIGESTS = {
    1: "e76276ad27fd2cd7bdaefe72c7fb136154adf67a8d504d87e5cd938e5f3239af",
    9: "24af84c5e3866b30f86fe408417e300e58c71c04b3f4c37502ac4b7c3cbb1d3c",
    999: "9d57191823147e7ea2434dc8ec1cb44e54790a245c991a04d09012f558205fa2",
}


@pytest.mark.parametrize("dof", sorted(PINNED_TAIL_DIGESTS))
def test_cdf_tail_is_pinned(dof):
    law = StudentLaw(dof)
    inf = float("inf")
    values = np.array(
        [law.cdf(35.0), *law.cdf(np.array([-1e9, 31.0, 30.0])), *law.cdf(np.array([-inf, inf]))]
    )
    assert hashlib.sha256(values.tobytes()).hexdigest() == PINNED_TAIL_DIGESTS[dof]


TAIL_DOFS = [0.3, 1.0, 2.0, 4.5, 9.0, 30.0, 99.0, 500.0, 999.0]
TAIL_POINTS = np.array([-30.5, -31.0, -45.0, -100.0, -1e3, -1e4, -1e6, -1e8])


def _reference_tail(dof, t):
    # P(T < -|t|) = I_{k/(k+t^2)}(k/2, 1/2) / 2 at 50 digits
    with mpmath.workdps(50):
        k, t = mpmath.mpf(dof), mpmath.mpf(t)
        return 0.5 * mpmath.betainc(k / 2, 0.5, 0, k / (k + t * t), regularized=True)


@pytest.mark.parametrize("dof", TAIL_DOFS)
def test_cdf_tail_relative_accuracy(dof):
    law = StudentLaw(dof)
    got = law.cdf(TAIL_POINTS)
    checked = 0
    for t, value in zip(TAIL_POINTS, got):
        ref = _reference_tail(dof, t)
        if ref >= mpmath.mpf("1e-300"):
            assert abs(value - ref) <= 1e-12 * ref, (t, value, ref)
            checked += 1
    assert checked >= 3
    assert np.all(np.abs(got + law.cdf(-TAIL_POINTS) - 1.0) <= 1e-15)


def test_cdf_tail_memory_does_not_grow_with_t():
    law = StudentLaw(1.0)
    tracemalloc.start()
    try:
        values = law.cdf(np.array([-1e8, 1e8]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert values[0] == pytest.approx(1.0 / (math.pi * 1e8), rel=1e-12)


def test_cdf_memory_does_not_grow_with_argument_count():
    # the panels are evaluated in chunks: at one pass over all of them this
    # peak was 771.5 MB (a 192 MB node array and the density's temporaries)
    t = np.sort(np.random.default_rng(20240).uniform(-8.0, 8.0, 1_000_000))
    law = StudentLaw(9.0)
    tracemalloc.start()
    try:
        values = law.cdf(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    assert np.all(np.diff(values) >= 0.0)


def _traced_peak(func, *args):
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _ks_sample():
    # ks_test's call: sorted, a few ties, 1,087 beyond |t| = 30
    rng = np.random.default_rng(314)
    t = np.sort(np.round(rng.standard_t(2.0, 1_000_000), 6))
    assert np.any(np.abs(t) > student._TAIL_SPLIT) and np.any(t[1:] == t[:-1])
    return t


@pytest.mark.numpy_floor
def test_cdf_peak_at_a_million_sorted_arguments():
    # the head holds the clipped magnitudes and one edges buffer, 2.13
    # arguments' worth at its peak. With np.unique, full-size mid/half_width
    # arrays and out-of-place signs, sums and clipping the peak here was
    # 71.6 MB; with the deduplicated copy, the index array and the gathered
    # result beside the edges, 30.2 MB (3.95 arrays); with node-major nodes,
    # their transposed density copy and a sign mask, 2.53 arrays; with the
    # density in a chunk array beside the node buffer, 2.21
    t = _ks_sample()
    assert _traced_peak(StudentLaw(9.0).cdf, t) < 2.2 * t.nbytes


@pytest.mark.numpy_floor
def test_cdf_peak_at_a_million_permuted_arguments():
    # 2.13 arrays; 2.21 with the density beside the node buffer, 2.53 with
    # the transposed copy and the sign mask
    t = np.random.default_rng(2718).permutation(_ks_sample())
    assert _traced_peak(StudentLaw(9.0).cdf, t) < 2.2 * t.nbytes


@pytest.mark.numpy_floor
def test_cdf_peak_at_the_long_paths_ks_size():
    # 16,384 values, as the mc-long-paths KS: the chunk temporaries dominate.
    # The density written over the one node buffer makes 1.55 chunk arrays;
    # the density in its own array beside it made 2.42 (1.90 MB), per-chunk
    # node arrays and a transposed copy of the density 4.40 (3.46 MB, 26
    # times the input)
    t = np.sort(np.random.default_rng(999).standard_t(999.0, 16_384))
    assert _traced_peak(StudentLaw(999.0).cdf, t) < 1.75 * 24 * _PANEL_CHUNK * 8


def _sorted_edges(t):
    # the head's ladder and every magnitude, sorted, before the dedupe
    mag = np.abs(t)
    top = float(mag.max(initial=0.0)) + student._PANEL_WIDTH
    return np.sort(np.concatenate((np.arange(0.0, top, student._PANEL_WIDTH), mag)))


def _unique_edges(t):
    return np.unique(_sorted_edges(t))


def _unique_route(law, t):
    # the head as np.unique, a prefixed cumsum and np.where gave it
    mag = np.abs(t)
    edges = _unique_edges(t)
    panels = _panel_integrals(law.density_closed, edges)
    half = np.concatenate(([0.0], np.cumsum(panels)))[np.searchsorted(edges, mag)]
    return np.clip(np.where(t >= 0.0, 0.5 + half, 0.5 - half), 0.0, 1.0)


def _tie_at_a_block_start(t):
    # the in-place dedupe reads the sorted edges _PANEL_CHUNK at a time from
    # index 1; true when a block's first edge equals the one before it
    edges = _sorted_edges(t)
    starts = np.arange(1 + _PANEL_CHUNK, edges.size, _PANEL_CHUNK)
    return bool(np.any(edges[starts] == edges[starts - 1]))


@pytest.mark.numpy_floor
@pytest.mark.parametrize("dof", [1.0, 9.0, 999.0])
def test_cdf_head_matches_unique_route(dof, monkeypatch):
    rng = np.random.default_rng(int(dof))
    t = np.concatenate((np.round(rng.uniform(-30.0, 30.0, 5000), 3), [0.0, -0.0, 30.0, -30.0]))
    # more than two chunks of distinct magnitudes, each three times with
    # random signs, so that ties straddle the dedupe's block starts
    base = np.round(rng.uniform(0.0, 30.0, 9000), 4)
    many = rng.permutation(np.repeat(base, 3) * rng.choice([-1.0, 1.0], 3 * base.size))
    assert np.unique(np.abs(many)).size > 2 * _PANEL_CHUNK and _tie_at_a_block_start(many)
    argument_sets = {
        "values": t,
        "permuted": rng.permutation(t),
        "every value twice": np.repeat(t, 2),
        "empty": np.array([]),
        "one": np.array([-1.25]),
        "ladder points, signed zeros and 30": np.array(
            [0.0, -0.0, 0.5, -0.5, 1.0, 29.5, -29.5, 30.0, -30.0]
        ),
        "many": many,
    }
    law = StudentLaw(dof)
    integrated = []

    def recorded(func, edges, out=None):
        integrated.append(edges.copy())
        return _panel_integrals(func, edges, out)

    for name, values in argument_sets.items():
        expected = _unique_route(law, values)
        integrated.clear()
        with monkeypatch.context() as patch:
            patch.setattr(student, "_panel_integrals", recorded)
            assert np.array_equal(law.cdf(values), expected), name
        # the in-place dedupe hands the head np.unique's edges
        assert np.array_equal(integrated[0], _unique_edges(values)), name
    # the same bits when tail arguments share the call
    mixed = law.cdf(np.concatenate((t, [-31.0, 1e9])))[: t.size]
    assert np.array_equal(mixed, _unique_route(law, t))


@pytest.mark.numpy_floor
@pytest.mark.parametrize("dof", [0.7, 9.0, 300.0])
def test_cdf_is_a_function_of_the_set_of_magnitudes(dof):
    # the panel edges are the union of every |t| in the call, so neither the
    # order of the arguments nor their repeats can move a bit
    law = StudentLaw(dof)
    grid = np.linspace(-5.0, 5.0, 10001)
    batch = law.cdf(grid)
    order = np.random.default_rng(5).permutation(grid.size)
    assert np.array_equal(law.cdf(grid[order]), batch[order])
    assert np.array_equal(law.cdf(np.repeat(grid, 3)), np.repeat(batch, 3))


def test_cdf_of_another_set_moves_only_the_last_bits():
    law = StudentLaw(9.0)
    grid = np.linspace(-5.0, 5.0, 10001)
    batch = law.cdf(grid)
    # cdf(1.0) is 0.8282818019310427 and batch[6000] 0.8282818019310431
    # under numpy 2.4's AVX512 dispatch: the sets differ, so the last bits may
    scalars = np.array([law.cdf(float(x)) for x in grid[::10]])
    assert np.max(np.abs(scalars - batch[::10])) <= 1e-14


def _one_shot_panels(func, edges):
    # all panels in one node array: the arithmetic every chunk must repeat
    lo, hi = edges[:-1], edges[1:]
    half_width = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half_width[:, None] * _GL_NODES[None, :]
    return (func(nodes) @ _GL_WEIGHTS) * half_width


@pytest.mark.numpy_floor
@pytest.mark.parametrize(
    "panels", [_PANEL_CHUNK - 1, _PANEL_CHUNK, _PANEL_CHUNK + 1, 3 * _PANEL_CHUNK + 5]
)
def test_chunked_panels_match_one_shot(panels):
    law = StudentLaw(9.0)
    ladder = np.arange(panels + 1) * student._PANEL_WIDTH
    jitter = np.random.default_rng(panels).uniform(0.0, 0.25, panels + 1)
    edges = np.sort(ladder + jitter) * (30.0 / ladder[-1])
    calls = []

    def density(nodes):
        calls.append(nodes)  # nodes are (panels, 24), panel-major
        return law.density_closed(nodes)

    chunked = _panel_integrals(density, edges)
    # the last chunk first, so out may be edges[1:]
    starts = reversed(range(0, panels, _PANEL_CHUNK))
    assert [nodes.shape[0] for nodes in calls] == [
        min(_PANEL_CHUNK, panels - start) for start in starts
    ]
    # every chunk's nodes sit in the node buffer the first chunk used
    assert all(np.shares_memory(nodes, calls[0]) for nodes in calls)
    assert np.array_equal(chunked, _one_shot_panels(law.density_closed, edges))
    shared = edges.copy()
    _panel_integrals(law.density_closed, shared, out=shared[1:])
    assert shared[0] == edges[0] and np.array_equal(shared[1:], chunked)


def test_cdf_tail_chunks_match_one_shot(monkeypatch):
    # more distinct magnitudes beyond 30 than one chunk holds, so the tail
    # integrand runs over several chunks; the head's call covers only the
    # 60 ladder panels up to the clipped magnitude 30
    law = StudentLaw(9.0)
    mags = 30.0 * np.geomspace(1.001, 1e6, 3 * _PANEL_CHUNK + 5)
    t = np.concatenate((-mags, mags))
    chunked = law.cdf(t)
    panels = []

    def one_shot(func, edges, out=None):
        panels.append(edges.size - 1)
        if out is None:
            return _one_shot_panels(func, edges)
        out[...] = _one_shot_panels(func, edges)
        return out

    monkeypatch.setattr(student, "_panel_integrals", one_shot)
    assert np.array_equal(law.cdf(t), chunked)
    assert [count > 3 * _PANEL_CHUNK for count in panels] == [False, True]


def test_cdf_infinite_and_huge_arguments():
    law = StudentLaw(1.0)
    assert law.cdf(float("-inf")) == 0.0 and law.cdf(float("inf")) == 1.0
    # Cauchy: P(T < -t) = atan(1/t)/pi, beyond the reach of t*t in float64
    for t in (1e10, 1e200, 1.7e308):
        assert law.cdf(-t) == pytest.approx(math.atan(1.0 / t) / math.pi, rel=1e-12, abs=0.0)


def test_cdf_batch_against_scipy_dense():
    law = StudentLaw(4.0)
    pts = np.linspace(-20, 20, 401)
    assert np.allclose(law.cdf(pts), stats.t.cdf(pts, 4.0), rtol=0.0, atol=1e-10)


def test_cdf_monotone():
    law = StudentLaw(3.0)
    pts = np.linspace(-15, 15, 301)
    vals = law.cdf(pts)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_quadrature_error_is_raised_not_warned(monkeypatch):
    # a rule too coarse for the panels leaves a half-width gap above 1e-8,
    # which must surface as QuadratureError
    nodes, weights = np.polynomial.legendre.leggauss(2)  # gap 5e-7 at dof 9
    monkeypatch.setattr(student, "_GL_NODES", nodes)
    monkeypatch.setattr(student, "_GL_WEIGHTS", weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="failed to converge"):
            StudentLaw(9.0).density_integral(0.0)
