"""Integration and differentiation primitives behind the fractional operators.

``adaptive_gl`` is a globally adaptive Gauss-Kronrod scheme: each panel is one
set of 15 samples giving the Kronrod K15 value and, from the 7 Gauss nodes
among them, the G7 value; |K15 - G7| is the panel's error estimate, and the
worst panel is bisected until the summed estimate meets tolerance.
The global strategy matters here because several operator integrands have
weak endpoint kinks that a tolerance-halving recursion would over-refine.

``rl_weighted_quad`` removes the |t-s|^(alpha-1) Riemann-Liouville kernel
singularity exactly with the one power substitution u = |t-s|^alpha, after
which the integrand is bounded and plain adaptive quadrature applies.  The
same routine serves either side: the anchor below t gives the left integral,
the anchor above t the right one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DepthExceeded, DomainError, NonFiniteIntegrand

_EPS_THIRD = (2.0 ** -52) ** (1.0 / 3.0)
_PANEL_BUDGET = 4000
_MAX_DEPTH = 40

# G7/K15 on [-1, 1] (QUADPACK qk15): (node, Kronrod weight, Gauss weight) for
# the nodes x >= 0; the rule is symmetric, and Kronrod-only nodes carry Gauss
# weight 0.  K15 is exact to degree 22, G7 to degree 13.
_GK15_HALF = (
    (0.9914553711208126, 0.022935322010529224, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.20778495500789848, 0.20443294007529889, 0.0),
    (0.0, 0.20948214108472782, 0.4179591836734694),
)
_GK15 = tuple(
    (sign * x, wk, wg) for x, wk, wg in _GK15_HALF for sign in ((1.0, -1.0) if x else (1.0,))
)


@dataclass(frozen=True)
class RealFunction:
    """A real-valued function on [a, b], optionally with an analytic derivative."""

    fn: Callable[[float], float]
    a: float
    b: float
    deriv: Callable[[float], float] | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not (-math.inf < self.a < self.b < math.inf):
            raise DomainError(f"RealFunction needs finite a < b, got [{self.a!r}, {self.b!r}]")

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

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("quadrature tolerances must be positive")


DEFAULT_QUAD = QuadConfig()


def _eval_panel(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """K15 integral of f over [lo, hi] and its error estimate |K15 - G7|."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    k15 = g7 = 0.0
    for x, wk, wg in _GK15:
        t = mid + half * x
        v = f(t)
        if not math.isfinite(v):
            raise NonFiniteIntegrand(f"integrand returned {v!r} at t={t!r}")
        k15 += wk * v
        g7 += wg * v
    return half * k15, abs(half * (k15 - g7))


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
        if depth >= _MAX_DEPTH or len(heap) >= _PANEL_BUDGET:
            limit = (
                f"bisection depth {_MAX_DEPTH}"
                if depth >= _MAX_DEPTH
                else f"{_PANEL_BUDGET} panels on [{lo:g}, {hi:g}]"
            )
            raise DepthExceeded(
                f"tolerance not met within {limit}: worst panel [{plo:g}, {phi:g}] "
                f"error estimate {perr:.3g}, summed estimate {total_err:.3g}, "
                f"target {max(cfg.abs_tol, cfg.rel_tol * abs(total)):.3g}"
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
    f: RealFunction, alpha: float, anchor: float, t: float, cfg: QuadConfig | None = None
) -> float:
    """(1/Gamma(alpha)) * integral between anchor and t of |t-s|^(alpha-1) f(s) ds.

    An anchor below t gives the left integral, one above t the right one.
    With sign = +1 (left) or -1 (right) the substitution s = t - sign u^(1/alpha)
    turns this exactly into
    (1/(alpha Gamma(alpha))) * integral_0^{|t-anchor|^alpha} f(t - sign u^(1/alpha)) du,
    whose integrand is bounded.
    """
    if not (alpha > 0.0):
        raise DomainError(f"rl_weighted_quad needs alpha > 0, got {alpha!r}")
    if (
        not f.contains(t)
        or anchor < f.a - 1e-12 * max(1.0, abs(f.a))
        or anchor > f.b + 1e-12 * max(1.0, abs(f.b))
    ):
        raise DomainError(f"t={t!r} or anchor={anchor!r} outside the function domain")
    if t == anchor:
        return 0.0
    inv_alpha = 1.0 / alpha
    sign = 1.0 if anchor < t else -1.0
    lo_clamp, hi_clamp = min(anchor, t), max(anchor, t)
    fn = f.fn

    def g(u: float) -> float:
        s = t - sign * u**inv_alpha
        if s < lo_clamp:
            s = lo_clamp
        elif s > hi_clamp:
            s = hi_clamp
        return fn(s)

    u_max = abs(t - anchor) ** alpha
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
