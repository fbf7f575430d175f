"""Student t density and distribution via two independent evaluation routes.

``density_closed`` is the gamma-ratio formula evaluated through log-gamma.
``density_integral`` evaluates the scale-mixture integral with Gauss-Legendre
panels and never obtains Gamma((k+1)/2) from the gamma function, so the two
routes share no special-function machinery for the quantity under test;
their agreement is a genuine cross-check, exercised at 1e-8 relative in
tests. The module needs numpy only.

Both the cdf and the gamma-kernel integral sum Gauss-Legendre panels 4,096
at a time in one reused panel-major node buffer (_panel_integrals), and
the cdf writes its density over that buffer. The 24-point rule is a
literal table, so importing the module runs no eigen-solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import _own_or_copy, real

__all__ = ["StudentLaw", "QuadratureError"]

# Gauss-Legendre rule of the cdf panels (at most 0.5 wide in t, 1 wide in y):
# the 24 nodes and weights of numpy.polynomial.legendre.leggauss(24) bit for
# bit, written out so that no import runs its eigen-solve and no bit depends
# on the host's LAPACK. The rule is symmetric, so its 12 positive nodes and
# their weights give all 24.
_GL_HALF = np.array(
    [
        [float.fromhex(node), float.fromhex(weight)]
        for node, weight in (
            ("0x1.0660853eda2e8p-4", "0x1.060475e763731p-3"),
            ("0x1.8769542b94f8dp-3", "0x1.01b7117cf8bd6p-3"),
            ("0x1.429a8c588e910p-2", "0x1.f25cbce1d1fefp-4"),
            ("0x1.bc345d81e24b5p-2", "0x1.d91c78acb1b27p-4"),
            ("0x1.17417bac4d72bp-1", "0x1.b8177ba4a68d7p-4"),
            ("0x1.4bd2ee5fa1086p-1", "0x1.8fd8936444b19p-4"),
            ("0x1.7af18edb9ddd6p-1", "0x1.6108ef5044635p-4"),
            ("0x1.a3d74ce0d3700p-1", "0x1.2c6d5c2eff05ap-4"),
            ("0x1.c5d841864d0f5p-1", "0x1.e5c6255d25e9dp-5"),
            ("0x1.e06585a70aa4dp-1", "0x1.6ab884f57c940p-5"),
            ("0x1.f30f9f0cbf876p-1", "0x1.d375514486effp-6"),
            ("0x1.fd892de691982p-1", "0x1.9465bd311255dp-7"),
        )
    ]
)
_GL_NODES = np.concatenate((-_GL_HALF[::-1, 0], _GL_HALF[:, 0]))
_GL_WEIGHTS = np.concatenate((_GL_HALF[::-1, 1], _GL_HALF[:, 1]))
_PANEL_WIDTH = 0.5
# panels evaluated per chunk: 4,096 x 24 nodes are 0.8 MB, so the density's
# temporaries stay small however many panels a cdf call needs
_PANEL_CHUNK = 4096
# the cdf integrates from 0 up to |t| = 30 (absolute error <= 1e-14) and the
# tail side beyond it (relative error <= 1e-12); past |t| = 1e8 the tail
# scales as sf(M) (M/|t|)^dof, exact to dof^2/M^2 where sf(M) > 0
_TAIL_SPLIT = 30.0
_TAIL_FAR = 1e8
# the gamma-kernel integral is accepted within this relative error estimate
_KERNEL_RTOL = 1e-8


class QuadratureError(RuntimeError):
    """Numerical integration failed to reach the requested accuracy."""


def _gamma_kernel_total(alpha: float, peak_log: float, refine: int) -> float:
    """int_0^inf exp(-u + (alpha-1) log u - peak_log) du on Gauss-Legendre panels.

    (0, 1] is integrated in s = log u, where the kernel becomes
    exp(alpha s - e^s - peak_log) and the u^(alpha-1) endpoint singularity
    below alpha = 1 disappears; 48 panels cover s >= -42/alpha, below which
    the mass is under e^-42 / alpha. [1, hi] is integrated in u on panels a
    quarter of max(1, sqrt(alpha)) wide, from 12 such widths left of the
    peak u = alpha - 1 (or from 1) to 12 widths plus 48 right of it, where
    the kernel is below e^-42 of its peak. So at most 48 + 288 panels serve
    any alpha; refine divides every panel into that many. The panel values
    are summed with math.fsum.
    """
    s_edges = np.linspace(-42.0 / alpha, 0.0, 48 * refine + 1)
    left = _panel_integrals(lambda s: np.exp(alpha * s - np.exp(s) - peak_log), s_edges)
    scale = max(1.0, math.sqrt(alpha))
    lo = max(1.0, alpha - 1.0 - 12.0 * scale)
    hi = alpha - 1.0 + 12.0 * scale + 48.0
    u_edges = np.linspace(lo, hi, math.ceil(4.0 * (hi - lo) / scale) * refine + 1)
    right = _panel_integrals(
        lambda u: np.exp(-u + (alpha - 1.0) * np.log(u) - peak_log), u_edges
    )
    return math.fsum([*left, *right])


def _panel_integrals(func, edges: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gauss-Legendre integral of func over each panel between sorted edges.

    The panels are evaluated _PANEL_CHUNK (4,096) at a time into one result
    array (out, when given), so memory is bounded in the number of panels.
    Each chunk's nodes are built panel-major, (panels, 24), in one node
    buffer allocated once per call, which func may overwrite with its
    values (the cdf's density does), and func's values go straight to the
    weight product, with the bits of a single pass over all panels.

    The chunks run last first, so out may be edges[1:]: a chunk writes only
    edges above its own lower edge, which no lower chunk reads. The chunk
    boundaries stay at multiples of 4,096 from the first panel, because the
    BLAS weight product's bits depend on a row's position in its chunk.
    """
    count = edges.size - 1
    if out is None:
        out = np.empty(count)
    nodes = np.empty((min(count, _PANEL_CHUNK), _GL_NODES.size))
    for start in reversed(range(0, count, _PANEL_CHUNK)):
        stop = min(start + _PANEL_CHUNK, count)
        lo, hi = edges[start:stop], edges[start + 1 : stop + 1]
        half_width = 0.5 * (hi - lo)
        chunk = np.multiply(half_width[:, None], _GL_NODES, out=nodes[: stop - start])
        chunk += (0.5 * (lo + hi))[:, None]
        np.multiply(func(chunk) @ _GL_WEIGHTS, half_width, out=out[start:stop])
    return out


@dataclass(frozen=True)
class StudentLaw:
    """Student t distribution with dof degrees of freedom.

    dof is any positive real. The integral density route is exercised from
    dof 0.5 to 999 in tests, and it raises QuadratureError where rounding
    alone would exceed its 1e-8 contract (from about dof 6e6 on).
    """

    dof: float

    def __post_init__(self) -> None:
        value = real("dof", self.dof)
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"dof must be positive and finite, got {value}")
        object.__setattr__(self, "dof", value)

    # -- density -----------------------------------------------------------

    def density_closed(self, t, *, out: np.ndarray | None = None):
        """Gamma-ratio closed form of the density, vectorized in t.

        log f(t) = lgamma((k+1)/2) - lgamma(k/2) - log(pi k)/2
                   - (k+1)/2 * log1p(t^2/k)

        The log-gamma difference keeps the normalizing ratio finite for
        large k (the direct gamma ratio overflows near k ~ 350).

        out takes the Monte Carlo tile's buffer contract: None forms the
        density in a float64 copy of t; t itself, a float64 array, has it
        written over t. Where some t^2/k overflows, or t holds a NaN, the
        density is formed in a copy first, since that branch reads t.
        Either gives the same bits; any other out raises ValueError.
        """
        k = self.dof
        dens = _own_or_copy(t, out, "t")  # a float64 copy of t, or t itself
        values = np.asarray(t, dtype=float)
        if dens is values:
            # in place only where the largest t^2/k, read from the extremes
            # with no temporary, is finite (a NaN is not): the overflow
            # branch below reads t
            hi, lo = float(values.max(initial=0.0)), float(values.min(initial=0.0))
            if not max(hi * hi, lo * lo) / k < math.inf:
                dens = values.copy()
        log_norm = (
            math.lgamma((k + 1.0) / 2.0)
            - math.lgamma(k / 2.0)
            - 0.5 * math.log(math.pi * k)
        )
        # exp(log_norm - (k+1)/2 log1p(t^2/k)), formed in one buffer
        with np.errstate(over="ignore"):
            dens *= dens
            dens /= k
        np.log1p(dens, out=dens)
        if not dens.max(initial=0.0) < math.inf:  # t^2/k overflowed, or t holds a NaN
            # there log1p(t^2/k) is 2 log|t| - log k to double precision
            past = np.isinf(dens)
            dens[past] = 2.0 * np.log(np.abs(values[past])) - math.log(k)
        dens *= -((k + 1.0) / 2.0)
        dens += log_norm
        np.exp(dens, out=dens)
        if out is not None and dens is not out:
            out[...] = dens
            dens = out
        return dens if dens.ndim else float(dens)

    def density_integral(self, t):
        """The density via Gauss-Legendre panels over the scale-mixture integral.

        Starting from
            f(t) = c(k) * int_0^inf exp(-w (t^2 + k)/(2k)) w^{(k-1)/2} dw,
            c(k) = 1 / (Gamma(k/2) 2^{(k+1)/2} sqrt(pi k)),
        the substitution w = 2ku/(t^2+k) gives
            f(t) = exp(P) * int_0^inf exp(-u) u^{alpha-1} du,
            alpha = (k+1)/2,
            P = -lgamma(k/2) - log(pi k)/2 - alpha log1p(t^2/k).
        The remaining integral is Gamma(alpha), but it is evaluated
        numerically here, never via lgamma(alpha): that independence is
        the point of this route. The integrand is rescaled by its peak
        value (at u = alpha - 1) so that large dof cannot overflow; the
        peak factor is restored in log space.

        The gamma-kernel integral does not depend on t, so one call
        computes it once for all its arguments (_gamma_kernel_total). Its
        error estimate is the gap to the same sum on panels of half the
        width, plus the rounding error of the kernel's exponent.

        Raises
        ------
        QuadratureError
            If that estimate exceeds 1e-8 of the integral.
        """
        k = self.dof
        alpha = (k + 1.0) / 2.0
        peak_log = (alpha - 1.0) * (math.log(alpha - 1.0) - 1.0) if alpha > 1.0 else 0.0
        # the kernel's exponent adds terms as large as |peak_log| + alpha, so
        # every node carries a rounding error near eps (|peak_log| + alpha)
        # that finer panels cannot reveal; it counts toward the estimate
        rounding = np.finfo(float).eps * (abs(peak_log) + alpha)
        if rounding > _KERNEL_RTOL:
            raise QuadratureError(f"gamma-kernel integral is rounding-bound for dof={k}")
        total = _gamma_kernel_total(alpha, peak_log, refine=1)
        gap = abs(total - _gamma_kernel_total(alpha, peak_log, refine=2))
        if not total > 0.0 or gap > (_KERNEL_RTOL - rounding) * total:
            raise QuadratureError(f"gamma-kernel integral failed to converge for dof={k}")
        log_norm = -math.lgamma(k / 2.0) - 0.5 * math.log(math.pi * k)

        def at(tt: float) -> float:
            x = tt * tt / k  # past float64, log1p(x) is 2 log|t| - log k, as in density_closed
            log1p = math.log1p(x) if x < math.inf else 2.0 * math.log(abs(tt)) - math.log(k)
            return math.exp(log_norm - alpha * log1p + peak_log) * total

        t_arr = np.asarray(t, dtype=float)
        if not t_arr.ndim:
            return at(float(t_arr))
        return np.array([at(float(v)) for v in t_arr.ravel()]).reshape(t_arr.shape)

    # -- distribution function ---------------------------------------------

    def cdf(self, t):
        """Distribution function by Gauss-Legendre quadrature of density_closed.

        One route for scalars (returned as float) and arrays: 0.5 +- one
        cumulative panel sum from 0 up to min(|t|, 30), run once over every
        argument, and beyond |t| = 30 the tail summed from the top down in
        y = (k+1)/2 log1p(t^2/k), written over the clipped values. A clipped
        argument adds panel edges only at or above every other one, so it
        cannot change any other argument's prefix sum. The panels are
        evaluated in chunks of 4,096 (_panel_integrals), so memory grows
        neither with |t| nor beyond about 2.1 arrays of the argument's size
        with the number of arguments. The bounds at
        _TAIL_SPLIT assume density_closed exact; its log-gamma normalisation
        is 2e-13 off at dof 999.

        The panel edges are the union of every |t| in the call, so a value
        is a function of the set of magnitudes in the call: the order of the
        arguments and their repeats move no bit, but another set may move
        the last bits. StudentLaw(9).cdf(1.0) is 0.8282818019310427, and
        entry 6000 of cdf(np.linspace(-5, 5, 10001)) is 0.8282818019310431.
        """
        ts = np.asarray(t, dtype=float)
        flat = ts.ravel()
        if np.isnan(flat).any():
            raise ValueError("cdf arguments must not be NaN")
        mag = np.abs(flat)
        tail = np.flatnonzero(mag > _TAIL_SPLIT)
        tail_mag = mag[tail]
        np.minimum(mag, _TAIL_SPLIT, out=mag)
        out = self._head_cdf(mag)
        np.copysign(out, flat, out=out)  # -half + 0.5 is 0.5 - half, bit for bit
        out += 0.5
        if tail.size:  # _tail_mass needs at least one argument
            sf = self._tail_mass(tail_mag)
            out[tail] = np.where(flat[tail] >= 0.0, 1.0 - sf, sf)
        np.clip(out, 0.0, 1.0, out=out)
        out = out.reshape(ts.shape)
        return out if out.ndim else float(out)

    def _head_cdf(self, mag: np.ndarray) -> np.ndarray:
        """The mass between 0 and each magnitude mag <= _TAIL_SPLIT.

        Works in two argument-sized buffers, mag and the panel edges, and
        returns mag overwritten with the result. The edges (the ladder and
        every magnitude) are sorted and deduplicated in place, as np.unique
        would; each argument's edge position is stored in mag as a float64,
        exact below 2**53; then the edges are overwritten by the panel
        integrals and their prefix sums, from which each position reads
        its value. Other temporaries are one _PANEL_CHUNK in size.
        """
        ladder = np.arange(0.0, float(mag.max(initial=0.0)) + _PANEL_WIDTH, _PANEL_WIDTH)
        edges = np.concatenate((ladder, mag))
        edges.sort()
        # keep the first of each run; the writes never pass the read position,
        # so each block is compared with values not yet overwritten
        size = 1
        for start in range(1, edges.size, _PANEL_CHUNK):
            block = edges[start : start + _PANEL_CHUNK]
            kept = block[block != edges[start - 1 : start - 1 + block.size]]
            edges[size : size + kept.size] = kept
            size += kept.size
        edges = edges[:size]
        chunks = [mag[i : i + _PANEL_CHUNK] for i in range(0, mag.size, _PANEL_CHUNK)]
        for chunk in chunks:
            chunk[...] = np.searchsorted(edges, chunk)
        _panel_integrals(lambda t: self.density_closed(t, out=t), edges, out=edges[1:])
        edges[0] = 0.0
        np.cumsum(edges[1:], out=edges[1:])
        for chunk in chunks:
            np.take(edges, chunk.astype(np.intp), out=chunk)
        return mag

    def _tail_mass(self, mag: np.ndarray) -> np.ndarray:
        """P(T > m) for magnitudes m > _TAIL_SPLIT (inf allowed)."""
        k = self.dof
        near = np.minimum(mag, _TAIL_FAR)
        # past y = 760 (k+1)/k the tail underflows; below 350 (k+1), x(y) is finite
        top = (k + 1.0) * min(350.0, 760.0 / k)
        y = np.minimum(0.5 * (k + 1.0) * np.log1p(near * near / k), top)
        edges = np.unique(np.concatenate((np.arange(float(y.min()), top, 1.0), y)))

        def integrand(yy):
            # density at x(y) = sqrt(k expm1(2y/(k+1))) times dx/dy
            x = np.sqrt(k * np.expm1(2.0 * yy / (k + 1.0)))
            return self.density_closed(x) * (k / x + x) / (k + 1.0)

        # mass past the last edge: g(y) (k+1)/k to O(k/x^2); it counts below dof ~0.1
        beyond = integrand(edges[-1:]) * (k + 1.0) / k
        panels = np.append(_panel_integrals(integrand, edges), beyond)
        sf = np.cumsum(panels[::-1])[::-1][np.searchsorted(edges, y)]
        return sf * (near / mag) ** k
