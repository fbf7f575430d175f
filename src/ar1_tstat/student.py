"""Student t density and distribution via two independent evaluation routes.

``density_closed`` is the gamma-ratio formula evaluated through log-gamma.
``density_integral`` evaluates the scale-mixture integral by quadrature and
never obtains Gamma((k+1)/2) from the gamma function, so the two routes
share no special-function machinery for the quantity under test; their
agreement is a genuine cross-check, exercised at 1e-8 relative in tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

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


class QuadratureError(RuntimeError):
    """Numerical integration failed to reach the requested accuracy."""


def _quad(func, lo, hi, epsabs, epsrel):
    from scipy import integrate  # deferred: only the quadrature routes load scipy

    # scipy signals non-convergence through IntegrationWarning; surface it
    # as the explicit error the contract asks for
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, abserr = integrate.quad(
                func, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=300
            )
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(f"quadrature on [{lo}, {hi}] failed: {exc}") from exc
    return value, abserr


def _panel_integrals(func, edges: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integral of func over each panel between sorted edges.

    The panels are evaluated _PANEL_CHUNK (4,096) at a time into one result
    array, so memory is bounded in the number of panels; each panel's
    arithmetic is that of a single pass over all of them, bit for bit.
    """
    count = edges.size - 1
    out = np.empty(count)
    for start in range(0, count, _PANEL_CHUNK):
        stop = min(start + _PANEL_CHUNK, count)
        lo, hi = edges[start:stop], edges[start + 1 : stop + 1]
        half_width = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        nodes = mid[:, None] + half_width[:, None] * _GL_NODES[None, :]
        out[start:stop] = (func(nodes) @ _GL_WEIGHTS) * half_width
    return out


@dataclass(frozen=True)
class StudentLaw:
    """Student t distribution with dof degrees of freedom.

    dof is any positive real; the integral density route is exercised for
    dof >= 1 in tests (below 1 the integrand has an integrable endpoint
    singularity that adaptive quadrature still handles, just less fast).
    """

    dof: float

    def __post_init__(self) -> None:
        raw = self.dof
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ValueError(f"dof must be a positive real number, got {raw!r}")
        value = float(raw)
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
        log_kernel = -((k + 1.0) / 2.0) * np.log1p(t * t / k)
        out = np.exp(log_norm + log_kernel)
        return out if out.ndim else float(out)

    def density_integral(self, t):
        """The density via quadrature of the scale-mixture integral.

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
        computes it once for all its arguments.

        Raises
        ------
        QuadratureError
            If the integral does not converge to ~1e-8 relative.
        """
        k = self.dof
        alpha = (k + 1.0) / 2.0
        peak_log = (alpha - 1.0) * (math.log(alpha - 1.0) - 1.0) if alpha > 1.0 else 0.0

        def scaled_kernel(u: float) -> float:
            if u <= 0.0:
                return 0.0
            return math.exp(-u + (alpha - 1.0) * math.log(u) - peak_log)

        split = max(alpha - 1.0, 1.0)
        left, err_left = _quad(scaled_kernel, 0.0, split, epsabs=0.0, epsrel=1e-10)
        right, err_right = _quad(scaled_kernel, split, np.inf, epsabs=0.0, epsrel=1e-10)
        total = left + right
        if not total > 0.0 or (err_left + err_right) > 1e-8 * total:
            raise QuadratureError(f"gamma-kernel integral failed to converge for dof={k}")
        log_norm = -math.lgamma(k / 2.0) - 0.5 * math.log(math.pi * k)

        def at(tt: float) -> float:
            return math.exp(log_norm - alpha * math.log1p(tt * tt / k) + peak_log) * total

        t_arr = np.asarray(t, dtype=float)
        if not t_arr.ndim:
            return at(float(t_arr))
        return np.array([at(float(v)) for v in t_arr.ravel()]).reshape(t_arr.shape)

    # -- distribution function ---------------------------------------------

    def cdf(self, t):
        """Distribution function by Gauss-Legendre quadrature of density_closed.

        One route for scalars (returned as float) and arrays: 0.5 +- one
        cumulative panel sum from 0 up to |t| = 30, and beyond it the tail
        summed from the top down in y = (k+1)/2 log1p(t^2/k). The panels are
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
        head = mag <= _TAIL_SPLIT
        if head.all():  # no copy of the arguments when every one is in the head
            out = self._head_cdf(mag, flat < 0.0)
        else:
            # the head's temporaries are freed before the result is allocated
            head_cdf = self._head_cdf(mag[head], flat[head] < 0.0) if head.any() else []
            out = np.empty(flat.shape)
            out[head] = head_cdf
            del head_cdf
            tail = ~head
            sf = self._tail_mass(mag[tail])
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
        np.cumsum(_panel_integrals(self.density_closed, edges), out=cumulative[1:])
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
