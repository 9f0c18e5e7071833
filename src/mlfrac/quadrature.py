"""Integration and differentiation primitives behind the fractional operators.

``adaptive_gl`` is a globally adaptive Gauss-Legendre scheme: panels carry an
embedded error estimate (order n against order n-2 on the same nodes span)
and the worst panel is bisected until the summed estimate meets tolerance.
The global strategy matters here because several operator integrands have
weak endpoint kinks that a tolerance-halving recursion would over-refine.

``rl_weighted_quad`` removes the (t-s)^(alpha-1) Riemann-Liouville kernel
singularity exactly with the substitution u = (t-s)^alpha, after which the
integrand is bounded and plain adaptive quadrature applies.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DepthExceeded, DomainError, NonFiniteIntegrand

_EPS_THIRD = (2.0 ** -52) ** (1.0 / 3.0)
_PANEL_BUDGET = 4000
_PANEL_ORDER = 15


@dataclass(frozen=True)
class RealFunction:
    """A real-valued function on [a, b], optionally with an analytic derivative."""

    fn: Callable[[float], float]
    a: float
    b: float
    deriv: Callable[[float], float] | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not (self.a < self.b):
            raise DomainError(f"RealFunction needs a < b, got [{self.a!r}, {self.b!r}]")

    def __call__(self, t: float) -> float:
        return self.fn(t)

    def prime(self, t: float) -> float:
        """Analytic derivative when available, second-order differences otherwise."""
        if self.deriv is not None:
            return self.deriv(t)
        return central_diff(self, t)

    def contains(self, t: float) -> bool:
        return self.a <= t <= self.b


@dataclass(frozen=True)
class QuadConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 40

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("quadrature tolerances must be positive")
        if self.max_depth < 1:
            raise DomainError("max_depth must be at least 1")


DEFAULT_QUAD = QuadConfig()


@lru_cache(maxsize=None)
def _gl_rule(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    x, w = np.polynomial.legendre.leggauss(order)
    return tuple(float(v) for v in x), tuple(float(v) for v in w)


def _gl_sum(f: Callable[[float], float], mid: float, half: float, order: int) -> float:
    """Order-``order`` Gauss-Legendre sum on [mid - half, mid + half]."""
    xs, ws = _gl_rule(order)
    acc = 0.0
    for xi, wi in zip(xs, ws):
        t = mid + half * xi
        v = f(t)
        if not math.isfinite(v):
            raise NonFiniteIntegrand(f"integrand returned {v!r} at t={t!r}")
        acc += wi * v
    return half * acc


def _eval_panel(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Integral estimate of order _PANEL_ORDER plus the embedded order-2-lower estimate."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    value = _gl_sum(f, mid, half, _PANEL_ORDER)
    return value, abs(value - _gl_sum(f, mid, half, _PANEL_ORDER - 2))


def adaptive_gl(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: QuadConfig | None = None,
) -> float:
    """Integrate f over [lo, hi] to max(abs_tol, rel_tol * |result|)."""
    cfg = cfg or DEFAULT_QUAD
    if lo == hi:
        return 0.0
    if lo > hi:
        raise DomainError(f"adaptive_gl needs lo <= hi, got [{lo!r}, {hi!r}]")

    value, err = _eval_panel(f, lo, hi)
    # heap entries: (-err, seq, lo, hi, depth, value, err)
    heap = [(-err, 0, lo, hi, 0, value, err)]
    total = value
    total_err = err
    seq = 1
    while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        neg_err, _, plo, phi, depth, pval, perr = heapq.heappop(heap)
        if depth >= cfg.max_depth:
            raise DepthExceeded(
                f"tolerance not met at bisection depth {cfg.max_depth} "
                f"on panel [{plo:g}, {phi:g}]"
            )
        if len(heap) >= _PANEL_BUDGET:
            raise DepthExceeded(
                f"tolerance not met within {_PANEL_BUDGET} panels on [{lo:g}, {hi:g}]"
            )
        mid = 0.5 * (plo + phi)
        total -= pval
        total_err -= perr
        for qlo, qhi in ((plo, mid), (mid, phi)):
            qval, qerr = _eval_panel(f, qlo, qhi)
            heapq.heappush(heap, (-qerr, seq, qlo, qhi, depth + 1, qval, qerr))
            seq += 1
            total += qval
            total_err += qerr
    return total


def rl_weighted_quad(
    f: RealFunction, alpha: float, a: float, t: float, cfg: QuadConfig | None = None
) -> float:
    """(1/Gamma(alpha)) * integral_a^t (t-s)^(alpha-1) f(s) ds.

    The substitution u = (t-s)^alpha turns this exactly into
    (1/(alpha Gamma(alpha))) * integral_0^{(t-a)^alpha} f(t - u^(1/alpha)) du,
    whose integrand is bounded.
    """
    if not (alpha > 0.0):
        raise DomainError(f"rl_weighted_quad needs alpha > 0, got {alpha!r}")
    if not f.contains(t) or a < f.a - 1e-12 * max(1.0, abs(f.a)):
        raise DomainError(f"t={t!r} or a={a!r} outside the function domain")
    if t <= a:
        if t == a:
            return 0.0
        raise DomainError(f"rl_weighted_quad needs t >= a, got t={t!r} < a={a!r}")
    inv_alpha = 1.0 / alpha
    lo_clamp, hi_clamp = a, t

    def g(u: float) -> float:
        s = t - u**inv_alpha
        if s < lo_clamp:
            s = lo_clamp
        elif s > hi_clamp:
            s = hi_clamp
        return f.fn(s)

    u_max = (t - a) ** alpha
    return adaptive_gl(g, 0.0, u_max, cfg) / (alpha * math.gamma(alpha))


def rl_weighted_quad_right(
    f: RealFunction, alpha: float, t: float, b: float, cfg: QuadConfig | None = None
) -> float:
    """Mirror of :func:`rl_weighted_quad` for the right-sided kernel (s-t)^(alpha-1)."""
    if not (alpha > 0.0):
        raise DomainError(f"rl_weighted_quad_right needs alpha > 0, got {alpha!r}")
    if not f.contains(t) or b > f.b + 1e-12 * max(1.0, abs(f.b)):
        raise DomainError(f"t={t!r} or b={b!r} outside the function domain")
    if t >= b:
        if t == b:
            return 0.0
        raise DomainError(f"rl_weighted_quad_right needs t <= b, got t={t!r} > b={b!r}")
    inv_alpha = 1.0 / alpha
    lo_clamp, hi_clamp = t, b

    def g(u: float) -> float:
        s = t + u**inv_alpha
        if s < lo_clamp:
            s = lo_clamp
        elif s > hi_clamp:
            s = hi_clamp
        return f.fn(s)

    u_max = (b - t) ** alpha
    return adaptive_gl(g, 0.0, u_max, cfg) / (alpha * math.gamma(alpha))


def central_diff(f: RealFunction, t: float, h: float | None = None) -> float:
    """Second-order finite-difference first derivative of f at t.

    Within h of an endpoint the matching one-sided three-point formula is used.
    """
    if not f.contains(t):
        raise DomainError(f"central_diff point t={t!r} outside [{f.a!r}, {f.b!r}]")
    if h is None:
        h = _EPS_THIRD * max(1.0, abs(t))
    if t - h >= f.a and t + h <= f.b:
        return (f.fn(t + h) - f.fn(t - h)) / (2.0 * h)
    if t - h < f.a:
        return (-3.0 * f.fn(t) + 4.0 * f.fn(t + h) - f.fn(t + 2.0 * h)) / (2.0 * h)
    return (3.0 * f.fn(t) - 4.0 * f.fn(t - h) + f.fn(t - 2.0 * h)) / (2.0 * h)
