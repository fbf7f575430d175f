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

# Gauss-Legendre rule shared by the batch cdf; degree 24 on panels at most
# 0.5 wide integrates the analytic density far below the 1e-10 cross-check.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)

# widest panel in the batch cdf and the switch point between direct and
# tail-side scalar quadrature
_PANEL_WIDTH = 0.5
_TAIL_SPLIT = 30.0


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

        Raises
        ------
        QuadratureError
            If the integral does not converge to ~1e-8 relative.
        """
        t_arr = np.asarray(t, dtype=float)
        if t_arr.ndim:
            return np.array([self.density_integral(float(v)) for v in t_arr.ravel()]).reshape(
                t_arr.shape
            )
        tt = float(t_arr)
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
            raise QuadratureError(
                f"gamma-kernel integral failed to converge for dof={k}, t={tt}"
            )
        log_pref = (
            -math.lgamma(k / 2.0)
            - 0.5 * math.log(math.pi * k)
            - alpha * math.log1p(tt * tt / k)
        )
        return math.exp(log_pref + peak_log) * total

    # -- distribution function ---------------------------------------------

    def cdf(self, t):
        """Distribution function by quadrature of density_closed.

        Scalars use adaptive quadrature from 0 with a symmetric fold (the
        tail side is integrated directly for |t| beyond 30). Arrays share
        cumulative panel quadrature across sorted magnitudes; the two
        paths agree to well below 1e-10 (checked in tests).
        """
        if np.ndim(t) > 0:
            return self._cdf_batch(np.asarray(t, dtype=float))
        tt = float(t)
        if math.isnan(tt):
            raise ValueError("cdf argument must not be NaN")
        if math.isinf(tt):
            return 0.0 if tt < 0 else 1.0
        mag = abs(tt)
        if mag <= _TAIL_SPLIT:
            half, _ = _quad(self.density_closed, 0.0, mag, epsabs=1e-14, epsrel=1e-12)
        else:
            tail, _ = _quad(self.density_closed, mag, np.inf, epsabs=1e-14, epsrel=1e-12)
            half = 0.5 - tail
        value = 0.5 + half if tt >= 0.0 else 0.5 - half
        return min(max(value, 0.0), 1.0)

    def _cdf_batch(self, ts: np.ndarray) -> np.ndarray:
        flat = ts.ravel()
        if np.isnan(flat).any():
            raise ValueError("cdf arguments must not be NaN")
        out = np.empty(flat.shape)
        out[np.isneginf(flat)] = 0.0
        out[np.isposinf(flat)] = 1.0
        finite = np.isfinite(flat)
        vals = flat[finite]
        if vals.size:
            mag = np.abs(vals)
            # one panel edge at every requested magnitude plus a regular
            # ladder that caps panel width
            ladder = np.arange(0.0, float(mag.max()) + _PANEL_WIDTH, _PANEL_WIDTH)
            edges = np.unique(np.concatenate((ladder, mag)))
            lo, hi = edges[:-1], edges[1:]
            mid = 0.5 * (lo + hi)
            half_width = 0.5 * (hi - lo)
            nodes = mid[:, None] + half_width[:, None] * _GL_NODES[None, :]
            panel = (self.density_closed(nodes) @ _GL_WEIGHTS) * half_width
            cumulative = np.concatenate(([0.0], np.cumsum(panel)))
            half_integral = cumulative[np.searchsorted(edges, mag)]
            out[finite] = np.where(vals >= 0.0, 0.5 + half_integral, 0.5 - half_integral)
        return np.clip(out.reshape(ts.shape), 0.0, 1.0)
