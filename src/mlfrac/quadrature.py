"""Integration and differentiation primitives behind the fractional operators.

``adaptive_gl`` is a globally adaptive Gauss-Kronrod scheme: each panel is one
set of 15 samples giving the Kronrod K15 value and, from the 7 Gauss nodes
among them, the G7 value; |K15 - G7| is the panel's error estimate, and the
worst panel is bisected until the summed estimate meets tolerance.
The global strategy matters here because several operator integrands have
weak endpoint kinks that a tolerance-halving recursion would over-refine.

``power_quad`` integrates d^(mu-1) K(d^rho) f(t - sign d), d the distance
from t, through the graded substitution d = w^p: the Jacobian cancels the
weak singularity exactly, a power series in d^rho stays one in w, and what
is left of the singularity sits at w^GRADING_POWER or beyond.  The
Riemann-Liouville integral and derivative and the generalized Mittag-Leffler
integral behind both ML-kernel derivatives use it.  An anchor below t gives
the left integral, one above t the right one.  Breakpoints the operand
declares (``RealFunction.breaks``, the nodes of a grid interpolant) split the
range at the points QUADPACK's QAGP would take, but where QAGP seeds one
globally adaptive process with the break intervals, each piece here is its
own adaptive call at abs_tol/k, so no panel straddles a known kink.  A cusp the operand declares at the
anchor (``RealFunction.cusp``) is graded there as well; none is assumed,
since grading both ends would double the work on smooth operands.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DepthExceeded, DomainError, NonFiniteIntegrand

_EPS_FIFTH = (2.0 ** -52) ** (1.0 / 5.0)
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
    """A real-valued function on [a, b], optionally with an analytic derivative.

    ``breaks`` lists points where fn or deriv is not smooth (a kink or jump),
    such as the interior nodes of a piecewise-linear interpolant; the
    operators integrate each piece between them on its own.  ``cusp`` = (c,
    rho), c = a or b, says fn is a power series in |s - c|^rho near c, as an
    operator image is at its anchor; an integral anchored at c is graded there.
    """

    fn: Callable[[float], float]
    a: float
    b: float
    deriv: Callable[[float], float] | None = None
    label: str = ""
    breaks: tuple[float, ...] = ()
    cusp: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.b - self.a < math.inf:  # false for a nan or infinite end, too
            raise DomainError(f"RealFunction needs finite a < b and b - a, got [{self.a!r}, {self.b!r}]")
        if self.cusp is not None and not (self.cusp[0] in (self.a, self.b) and 0.0 < self.cusp[1] < math.inf):
            raise DomainError(f"RealFunction cusp (c, rho) needs c = a or b, finite rho > 0, got {self.cusp!r}")

    def __call__(self, t: float) -> float:
        return self.fn(t)

    def contains(self, t: float) -> bool:
        return self.a <= t <= self.b


@dataclass(frozen=True)
class QuadConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise DomainError(
                f"quadrature tolerances must be finite and positive, got {self.abs_tol!r}, {self.rel_tol!r}"
            )


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
    if not 0.0 <= hi - lo < math.inf:  # false for a nan or infinite end, too
        raise DomainError(f"adaptive_gl needs finite lo <= hi and hi - lo, got [{lo!r}, {hi!r}]")
    if lo == hi:
        return 0.0

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


#: Smallest non-integer power of w that :func:`power_quad` accepts.  Integrand
#: evaluations of one traced kernel-grid pass (bench/run.py, seed 401) at 2, 3,
#: 4 and 5: 15,660, 13,560, 14,160 and 14,700; identity-sweep: 333,645 at 2,
#: 324,285 at 3 to 5.
GRADING_POWER = 3

#: Largest power p that :func:`power_quad` accepts.  The operand varies only
#: near w_max, past the first panel's last G7/K15 node once p nears 2,000, and
#: that panel is then accepted wrong: against mpmath at the default 1e-10, the
#: RL and ML-kernel operators of x, x^2+sin x and exp(-x) first failed at p =
#: 1,998.1.  1000 is about half that and admits rho = 1 - 0.999 (p = 999.99...).
GRADING_POWER_MAX = 1000


@functools.lru_cache(maxsize=256)
def _grading(mu: float, rho: float) -> tuple[float, int, float]:
    """(p, m, p mu - 1) of :func:`power_quad`'s substitution; a power within
    1e-9 relative of an integer counts as one; DomainError past GRADING_POWER_MAX."""
    for m in itertools.count(1):
        p, jac = m / rho, m * mu / rho
        if p > GRADING_POWER_MAX:
            raise DomainError(f"order rho={rho:g}, mu={mu:g} needs a grading power p = {p:g} "
                              f"above {GRADING_POWER_MAX}: too close to 0 to resolve")
        if all(abs(x - round(x)) <= 1e-9 * x or x >= GRADING_POWER for x in (p, jac)):
            return p, m, jac - 1.0


def power_quad(
    fn: Callable[[float], float], anchor: float, t: float, mu: float, rho: float,
    cfg: QuadConfig | None = None, kernel: Callable[[float], float] | None = None,
    breaks: tuple[float, ...] = (), cusp: tuple[float, float] | None = None,
) -> float:
    """Integral between anchor and t of d^(mu-1) K(d^rho) fn(s) ds, d = |t-s|,
    with K = kernel, or 1 when kernel is None.

    The substitution d = w^p with p rho = m turns it exactly into
    p * integral_0^{|t-anchor|^(1/p)} w^(p mu - 1) K(w^m) fn(t -+ w^p) dw.
    m is the smallest positive integer for which each of p and p mu is
    either an integer, which keeps w^p and the Jacobian analytic, or at least
    GRADING_POWER, which leaves them GRADING_POWER - 1 continuous derivatives
    at w = 0 or more.  K receives w^m, as a power series in d^rho needs, and
    fn's argument is clamped to the range between anchor and t.

    The breaks strictly between anchor and t, mapped to w = |t - x|^(1/p),
    split the w range; each of the k pieces is one adaptive_gl call at
    abs_tol/k and the unchanged rel_tol, and the pieces are summed with
    math.fsum, so the summed error is at most abs_tol + rel_tol times the sum
    of the pieces' magnitudes.  With no break inside, it is one call.

    A cusp (c, rho_c) with c = anchor splits the range at its midpoint, each
    half at the whole cfg: the half at t as above, the half at the anchor as
    the integral of d^(mu-1) K(d^rho) fn(s), smooth in d there, graded at the
    anchor by power_quad(..., 1.0, rho_c).  A cusp at the other end takes the
    path above unchanged.
    """
    p, m, k = _grading(mu, rho)  # first, so that an unresolvable order fails at t = anchor too
    if t == anchor:
        return 0.0
    if cusp is not None and cusp[0] == anchor:
        mid = 0.5 * (anchor + t)

        def near_anchor(s: float) -> float:
            d = abs(t - s)
            return d ** (mu - 1.0) * (kernel(d**rho) if kernel else 1.0) * fn(s)

        return (power_quad(fn, mid, t, mu, rho, cfg, kernel, breaks)
                + power_quad(near_anchor, mid, anchor, 1.0, cusp[1], cfg, breaks=breaks))
    sign = 1.0 if anchor < t else -1.0
    lo, hi = min(anchor, t), max(anchor, t)

    def g(w: float) -> float:
        s = t - sign * w**p
        if s < lo:
            s = lo
        elif s > hi:
            s = hi
        # k = 0 for an RL order with 1/alpha an integer: no pow per sample
        return fn(s) * w**k if k else fn(s)

    w_max = (hi - lo) ** (1.0 / p)
    integrand = g if kernel is None else (lambda w: g(w) * kernel(w**m))
    cuts = sorted(abs(t - x) ** (1.0 / p) for x in breaks if lo < x < hi) if breaks else None
    if not cuts:
        return p * adaptive_gl(integrand, 0.0, w_max, cfg)
    cuts = [0.0, *cuts, w_max]
    cfg = cfg or DEFAULT_QUAD
    piece_cfg = QuadConfig(cfg.abs_tol / (len(cuts) - 1), cfg.rel_tol)
    return p * math.fsum(adaptive_gl(integrand, u, v, piece_cfg) for u, v in zip(cuts, cuts[1:]))


def central_diff(f: RealFunction, t: float) -> float:
    """Fourth-order finite-difference first derivative of f at t.

    The step is eps^(1/5) max(1, |t|), capped at (b - a)/6, so that within
    2h of an endpoint the one-sided five-point formula, which reaches 4h
    into [a, b], is used and stays inside it.
    """
    if not f.contains(t):
        raise DomainError(f"central_diff point t={t!r} outside [{f.a!r}, {f.b!r}]")
    h = min(_EPS_FIFTH * max(1.0, abs(t)), (f.b - f.a) / 6.0)
    if t - 2.0 * h >= f.a and t + 2.0 * h <= f.b:
        return (f.fn(t - 2.0 * h) - 8.0 * f.fn(t - h) + 8.0 * f.fn(t + h) - f.fn(t + 2.0 * h)) / (12.0 * h)
    step = h if t - 2.0 * h < f.a else -h
    taps = (-25.0, 48.0, -36.0, 16.0, -3.0)
    return math.fsum(c * f.fn(t + k * step) for k, c in enumerate(taps)) / (12.0 * step)
