"""Student t law: closed-form density, independent quadrature route, CDF."""

import hashlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from ar1_tstat import QuadratureError, StudentLaw, student
from ar1_tstat.student import _GL_NODES, _GL_WEIGHTS, _PANEL_CHUNK, _panel_integrals


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


@pytest.mark.parametrize("dof", [1.0, 2.0, 5.0, 30.0])
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


def test_density_scalar_vs_array():
    law = StudentLaw(4.0)
    arr = law.density_closed(np.array([0.5]))
    assert isinstance(law.density_closed(0.5), float)
    assert arr[0] == law.density_closed(0.5)


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


def test_cdf_peak_at_a_million_sorted_arguments():
    # ks_test's call: sorted, a few ties, a few beyond |t| = 30. With
    # np.unique, full-size mid/half_width arrays and out-of-place signs,
    # sums and clipping the peak here is 71.6 MB
    rng = np.random.default_rng(314)
    t = np.sort(np.round(rng.standard_t(2.0, 1_000_000), 6))
    assert np.any(np.abs(t) > student._TAIL_SPLIT) and np.any(t[1:] == t[:-1])
    law = StudentLaw(9.0)
    tracemalloc.start()
    try:
        law.cdf(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56 * 2**20


@pytest.mark.parametrize("dof", [1.0, 9.0, 999.0])
def test_cdf_head_matches_unique_route(dof):
    # the head as np.unique, a prefixed cumsum and np.where gave it
    rng = np.random.default_rng(int(dof))
    t = np.concatenate((np.round(rng.uniform(-30.0, 30.0, 5000), 3), [0.0, -0.0, 30.0, -30.0]))
    law = StudentLaw(dof)
    mag = np.abs(t)
    ladder = np.arange(0.0, float(mag.max()) + student._PANEL_WIDTH, student._PANEL_WIDTH)
    edges = np.unique(np.concatenate((ladder, mag)))
    panels = _panel_integrals(law.density_closed, edges)
    half = np.concatenate(([0.0], np.cumsum(panels)))[np.searchsorted(edges, mag)]
    expected = np.clip(np.where(t >= 0.0, 0.5 + half, 0.5 - half), 0.0, 1.0)
    assert np.array_equal(law.cdf(t), expected)
    # the same bits when tail arguments share the call
    mixed = law.cdf(np.concatenate((t, [-31.0, 1e9])))[: t.size]
    assert np.array_equal(mixed, expected)


def _one_shot_panels(func, edges):
    # all panels in one node array: the arithmetic every chunk must repeat
    lo, hi = edges[:-1], edges[1:]
    half_width = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half_width[:, None] * _GL_NODES[None, :]
    return (func(nodes) @ _GL_WEIGHTS) * half_width


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
        calls.append(nodes.shape[0])
        return law.density_closed(nodes)

    chunked = _panel_integrals(density, edges)
    assert calls == [min(_PANEL_CHUNK, panels - start) for start in range(0, panels, _PANEL_CHUNK)]
    assert np.array_equal(chunked, _one_shot_panels(law.density_closed, edges))


def test_cdf_tail_chunks_match_one_shot(monkeypatch):
    # more distinct magnitudes beyond 30 than one chunk holds, so the tail
    # integrand runs over several chunks
    law = StudentLaw(9.0)
    mags = 30.0 * np.geomspace(1.001, 1e6, 3 * _PANEL_CHUNK + 5)
    t = np.concatenate((-mags, mags))
    chunked = law.cdf(t)
    panels = []

    def one_shot(func, edges):
        panels.append(edges.size - 1)
        return _one_shot_panels(func, edges)

    monkeypatch.setattr(student, "_panel_integrals", one_shot)
    assert np.array_equal(law.cdf(t), chunked)
    assert len(panels) == 1 and panels[0] > 3 * _PANEL_CHUNK


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


def test_quadrature_error_is_raised_not_warned():
    # an integrand scipy cannot settle must surface as QuadratureError
    law = StudentLaw(2.0)
    spiky = lambda u: math.sin(1.0 / (abs(u) + 1e-12)) * law.density_closed(u)
    from ar1_tstat.student import _quad

    with pytest.raises(QuadratureError):
        _quad(spiky, 0.0, np.inf, epsabs=1e-300, epsrel=1e-300)
