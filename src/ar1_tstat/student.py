"""Student t density and distribution via two independent evaluation routes.

``density_closed`` is the gamma-ratio formula evaluated through log-gamma.
``density_integral`` evaluates the scale-mixture integral with Gauss-Legendre
panels and never obtains Gamma((k+1)/2) from the gamma function, so the two
routes share no special-function machinery for the quantity under test;
their agreement is a genuine cross-check, exercised at 1e-8 relative in
tests. The module needs numpy only.

Both the cdf and the gamma-kernel integral sum Gauss-Legendre panels
(_panel_integrals). Their nodes are laid out node-major, 24 rows of all
panels, so every vector operation runs along the long panel axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import real

__all__ = ["StudentLaw", "QuadratureError"]

# Gauss-Legendre rule of the cdf panels (at most 0.5 wide in t, 1 wide in y)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
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
    The nodes are built node-major, (24, panels), so each vector step runs
    along the panels; one transposed copy puts func's values back in
    (panels, 24) rows for the weight product. Each panel's arithmetic is
    that of a single row-major pass over all of them, bit for bit.
    """
    count = edges.size - 1
    if out is None:
        out = np.empty(count)
    for start in range(0, count, _PANEL_CHUNK):
        stop = min(start + _PANEL_CHUNK, count)
        lo, hi = edges[start:stop], edges[start + 1 : stop + 1]
        half_width = 0.5 * (hi - lo)
        nodes = _GL_NODES[:, None] * half_width
        nodes += 0.5 * (lo + hi)
        values = func(nodes).T.copy()
        np.multiply(values @ _GL_WEIGHTS, half_width, out=out[start:stop])
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

    def density_closed(self, t):
        """Gamma-ratio closed form of the density, vectorized in t.

        log f(t) = lgamma((k+1)/2) - lgamma(k/2) - log(pi k)/2
                   - (k+1)/2 * log1p(t^2/k)

        The log-gamma difference keeps the normalizing ratio finite for
        large k (the direct gamma ratio overflows near k ~ 350).
        """
        k = self.dof
        t = np.asarray(t, dtype=float)
        log_norm = (
            math.lgamma((k + 1.0) / 2.0)
            - math.lgamma(k / 2.0)
            - 0.5 * math.log(math.pi * k)
        )
        # exp(log_norm - (k+1)/2 log1p(t^2/k)), formed in one buffer
        with np.errstate(over="ignore"):
            out = np.multiply(t, t, out=np.empty(t.shape))
            out /= k
        np.log1p(out, out=out)
        if not out.max(initial=0.0) < math.inf:  # t^2/k overflowed, or t holds a NaN
            # there log1p(t^2/k) is 2 log|t| - log k to double precision
            past = np.isinf(out)
            out[past] = 2.0 * np.log(np.abs(t[past])) - math.log(k)
        out *= -((k + 1.0) / 2.0)
        out += log_norm
        np.exp(out, out=out)
        return out if out.ndim else float(out)

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
        neither with |t| nor beyond a few arrays of the argument's size with
        the number of arguments. The bounds at _TAIL_SPLIT assume
        density_closed exact; its log-gamma normalisation is 2e-13 off at
        dof 999.
        """
        ts = np.asarray(t, dtype=float)
        flat = ts.ravel()
        if np.isnan(flat).any():
            raise ValueError("cdf arguments must not be NaN")
        mag = np.abs(flat)
        tail = np.flatnonzero(mag > _TAIL_SPLIT)
        tail_mag = mag[tail]
        np.minimum(mag, _TAIL_SPLIT, out=mag)
        out = self._head_cdf(mag, flat < 0.0)
        if tail.size:  # _tail_mass needs at least one argument
            sf = self._tail_mass(tail_mag)
            out[tail] = np.where(flat[tail] >= 0.0, 1.0 - sf, sf)
        np.clip(out, 0.0, 1.0, out=out)
        out = out.reshape(ts.shape)
        return out if out.ndim else float(out)

    def _head_cdf(self, mag: np.ndarray, negative: np.ndarray) -> np.ndarray:
        """The cdf at arguments of magnitude mag <= _TAIL_SPLIT; negative marks those below 0.

        Each full-size temporary is freed before the next one is made, so
        the peak stays near four arrays of the arguments' size.
        """
        ladder = np.arange(0.0, float(mag.max(initial=0.0)) + _PANEL_WIDTH, _PANEL_WIDTH)
        # np.unique(edges), sorted and deduplicated without its copies
        edges = np.concatenate((ladder, mag))
        edges.sort()
        edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
        cumulative = np.empty(edges.size)
        cumulative[0] = 0.0
        panels = _panel_integrals(self.density_closed, edges, out=cumulative[1:])
        np.cumsum(panels, out=panels)
        index = np.searchsorted(edges, mag)
        del edges
        half = cumulative[index]
        del cumulative, index
        # 0.5 - half is 0.5 + (-half), bit for bit
        np.negative(half, out=half, where=negative)
        half += 0.5
        return half

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
