"""Classical and Mittag-Leffler-kernel fractional operators, left and right.

All operators are pure functions of (side, function, order, point).  Each
body is written once: the side supplies the anchor (``f.a`` on the left,
``f.b`` on the right) and a sign, so the distance from a point x to the
evaluation point t is ``side.sign * (t - x)``.  The right operators are the
reflections of the left ones, (Qf)(t) = f(a+b-t), but are computed on their
own interval and operand, never through ``q_reflect``.  Both ML-kernel
derivatives come from f alone, by parts: the RL-type one is f(t) plus lam
times a Prabhakar integral of f, and the Caputo-type one subtracts the
anchor term f(anchor) E_a(lam dist^a).  Neither reads f'; an independent
d/dt evaluation is provided separately for cross-checks.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOrder, DomainError, SingularityError
from .quadrature import DEFAULT_QUAD, QuadConfig, RealFunction, central_diff, power_quad
# unused here, but bench/tracing.py patches operators.adaptive_gl
from .quadrature import adaptive_gl  # noqa: F401
from .special import MLParams, ml_value

#: FracOrder.lam and .scale, so every ML-kernel operator, reject orders at or
#: above this value: the kernel rate would push series arguments out of their domain.
ALPHA_KERNEL_CAP = 0.99


class Side(enum.Enum):
    """Anchor side of a fractional operator."""

    Left = enum.auto()
    Right = enum.auto()

    @property
    def sign(self) -> float:
        """+1 on the left, -1 on the right: the distance to t is sign * (t - x)."""
        return 1.0 if self is Side.Left else -1.0

    def anchor(self, f: RealFunction) -> float:
        """The fixed integration limit: f.a on the left, f.b on the right."""
        return f.a if self is Side.Left else f.b


def opposite(side: Side) -> Side:
    return Side.Right if side is Side.Left else Side.Left


@dataclass(frozen=True)
class FracOrder:
    """Fractional order alpha in (0, 1] plus the positive normalization B(alpha)."""

    alpha: float
    b_norm: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"order must lie in (0, 1], got {self.alpha!r}")
        if not (0.0 < self.b_norm < math.inf):
            raise DomainError(f"normalization must be positive and finite, got {self.b_norm!r}")
        # 1/B weighs the ML-kernel integral, B/(1-alpha) the ML-kernel derivatives
        scale = self.b_norm / (1.0 - self.alpha) if self.alpha < 1.0 else 1.0
        if not (math.isfinite(1.0 / self.b_norm) and math.isfinite(scale)):
            raise DomainError(
                f"normalization B = {self.b_norm!r} overflows 1/B or B/(1-alpha) at alpha = {self.alpha!r}"
            )

    def _kernel_alpha(self) -> float:
        """alpha, or DegenerateOrder at or above ALPHA_KERNEL_CAP."""
        if self.alpha >= ALPHA_KERNEL_CAP:
            raise DegenerateOrder(
                f"ML-kernel operators require alpha < {ALPHA_KERNEL_CAP}, got {self.alpha:g}"
            )
        return self.alpha

    @property
    def lam(self) -> float:
        """Kernel rate -alpha/(1-alpha); every ML-kernel operator's order gate."""
        alpha = self._kernel_alpha()
        return -alpha / (1.0 - alpha)

    @property
    def scale(self) -> float:
        """Kernel scale B/(1-alpha) of the ML-kernel derivatives, gated as lam is."""
        return self.b_norm / (1.0 - self._kernel_alpha())

    @property
    def ab_weights(self) -> tuple[float, float]:
        """The ML-kernel integral's weights ((1-a)/B, a/B) on f and on I^a f."""
        if self.alpha >= 1.0:
            raise DegenerateOrder("the ML-kernel integral requires alpha < 1")
        return (1.0 - self.alpha) / self.b_norm, self.alpha / self.b_norm


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function at the n+1 uniform nodes of [a, b].

    ``singular`` lists indices in 0..n whose true value is unbounded; the stored
    entry there is a reported stand-in (e.g. the assigned boundary value).
    """

    a: float
    b: float
    n: int
    values: np.ndarray
    singular: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.b - self.a < math.inf:  # false for a nan or infinite end, too
            raise DomainError(f"GridFunction needs finite a < b and b - a, got [{self.a!r}, {self.b!r}]")
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise DomainError(f"GridFunction n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise DomainError(f"GridFunction needs n >= 2, got {self.n}")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n + 1,):
            raise DomainError(f"expected {self.n + 1} samples, got shape {vals.shape}")
        if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i <= self.n
                   for i in self.singular):
            raise DomainError(
                f"singular indices must lie in 0..{self.n} as integers, got {self.singular}")
        regular = np.ones(self.n + 1, dtype=bool)
        regular[list(self.singular)] = False
        if not np.all(np.isfinite(vals[regular])):
            raise DomainError("non-finite sample at an index not flagged singular")
        object.__setattr__(self, "values", vals)

    @property
    def ts(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n + 1)

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    def to_real_function(self) -> RealFunction:
        """Linear interpolant, valued as ``np.interp``, with its piecewise-constant slope
        and the interior nodes as breaks."""
        nodes, vals = self.ts.tolist(), self.values.tolist()
        rises = (np.diff(self.values) / np.diff(nodes)).tolist()
        n = self.n

        def fn(t: float) -> float:
            i = bisect_right(nodes, t) - 1  # np.interp's cell; the end samples outside [a, b]
            return rises[i] * (t - nodes[i]) + vals[i] if 0 <= i < n else vals[max(i, 0)]

        def deriv(t: float) -> float:  # fn's cell, so a node reads the slope on its right
            return rises[min(max(bisect_right(nodes, t) - 1, 0), n - 1)]

        return RealFunction(fn=fn, a=self.a, b=self.b, deriv=deriv, breaks=tuple(nodes[1:-1]))


def rl_integral(
    side: Side, f: RealFunction, ord_: FracOrder, t: float, cfg: QuadConfig | None = None
) -> float:
    """Classical Riemann-Liouville integral of order a = ord_.alpha, (1/Gamma(a)) times the
    integral of dist^(a-1) f from the anchor; power_quad removes the kernel singularity."""
    if not f.contains(t):
        raise DomainError(f"t={t!r} outside [{f.a!r}, {f.b!r}]")
    a = ord_.alpha
    return power_quad(f.fn, side.anchor(f), t, a, a, cfg, breaks=f.breaks, cusp=f.cusp) / math.gamma(a)


def ab_integral(
    side: Side, f: RealFunction, ord_: FracOrder, t: float, cfg: QuadConfig | None = None
) -> float:
    """Weighted identity plus RL integral: ((1-a)/B) f + (a/B) I^a f."""
    w0, w1 = ord_.ab_weights
    rl = rl_integral(side, f, ord_, t, cfg)  # first, so that a t outside [a, b] meets its check
    return w0 * f.fn(t) + w1 * rl


def abr_derivative(
    side: Side, f: RealFunction, ord_: FracOrder, t: float, cfg: QuadConfig | None = None
) -> float:
    """RL-type ML-kernel derivative from f alone: (B/(1-a)) [f(t) + lam P(t)],
    P the Prabhakar integral of f with kernel dist^(a-1) E_{a,a}(lam dist^a).
    P runs at the caller's tolerances over max(1, |lam|), the factor on its error."""
    alpha, lam = ord_.alpha, ord_.lam
    cfg, shrink = cfg or DEFAULT_QUAD, max(1.0, abs(lam))
    inner = QuadConfig(cfg.abs_tol / shrink, cfg.rel_tol / shrink)
    p = gen_ml_integral(side, MLParams(alpha, alpha, 1.0), lam, f, t, inner)
    return ord_.scale * (f.fn(t) + lam * p)


def abc_derivative(
    side: Side, f: RealFunction, ord_: FracOrder, t: float, cfg: QuadConfig | None = None
) -> float:
    """Caputo-type ML-kernel derivative: the RL-type one minus the anchor term
    (B/(1-a)) f(anchor) E_a(lam dist^a).  Zero at the anchor."""
    lam, anchor = ord_.lam, side.anchor(f)
    if t == anchor:
        return 0.0
    rl_type = abr_derivative(side, f, ord_, t, cfg)
    kernel = ml_value(ord_.alpha, 1.0, 1.0, lam * abs(t - anchor) ** ord_.alpha)
    return rl_type - ord_.scale * f.fn(anchor) * kernel


def abr_derivative_kernel_diff(
    side: Side,
    f: RealFunction,
    ord_: FracOrder,
    t: float,
    cfg: QuadConfig | None = None,
    h: float = 5e-4,
) -> float:
    """Independent ABR evaluation: central difference of the kernel integral.

    Differentiates K(tau) = integral of f(x) E_a(lam |tau - x|^a) over the
    anchored range directly in tau.  Slower and step-limited, but shares no
    operator code with :func:`abr_derivative` (f + lam P with the E_{a,a}
    kernel); used by the identity checks.  Both integrate through
    :func:`power_quad`, which grades the kernel's |tau - x|^a cusp at tau;
    K also declares the dist^a cusp that an operand which is itself an
    operator output has at the anchor, so the half of its range there is
    graded for it.  Needs f bounded (not differentiable), so it also covers
    integrable anchor singularities.
    """
    lam, alpha, scale = ord_.lam, ord_.alpha, ord_.scale
    if not (0.0 < h < math.inf):
        raise DomainError(f"the d/dt step needs a finite h > 0, got h={h!r}")
    if not (f.a + h <= t <= f.b - h):
        raise DomainError(f"need a+h <= t <= b-h for the d/dt step, got t={t!r}")

    anchor, sign = side.anchor(f), side.sign

    def kernel_integral(tau: float) -> float:
        return power_quad(f.fn, anchor, tau, 1.0, alpha, cfg, lambda z: ml_value(alpha, 1.0, 1.0, lam * z),
                          breaks=f.breaks, cusp=(anchor, alpha))

    return sign * scale * (kernel_integral(t + h) - kernel_integral(t - h)) / (2.0 * h)


def rl_derivative(
    side: Side, f: RealFunction, ord_: FracOrder, t: float, cfg: QuadConfig | None = None
) -> float:
    """Classical RL derivative of order alpha = ord_.alpha in (0, 1), differentiated form.

    f(c)|t-c|^(-alpha)/Gamma(1-alpha) + sign * I^(1-alpha)[f'](t) with the
    anchor c; the side sign carries the -d/dt convention of the right side.
    """
    alpha = ord_.alpha
    if alpha >= 1.0:
        raise DomainError(f"rl_derivative requires alpha in (0, 1), got {alpha!r}")
    if not f.contains(t):
        raise DomainError(f"t={t!r} outside [{f.a!r}, {f.b!r}]")
    fp = f.deriv or (lambda s: central_diff(f, s))
    gamma_c = math.gamma(1.0 - alpha)
    anchor = side.anchor(f)
    f_anchor = f.fn(anchor)
    if t == anchor:
        if f_anchor != 0.0:
            raise SingularityError(
                f"{side.name.lower()} RL derivative is unbounded at the anchor "
                f"t = {anchor!r} when f there is nonzero"
            )
        return 0.0
    integral = power_quad(fp, anchor, t, 1.0 - alpha, 1.0 - alpha, cfg, breaks=f.breaks) / gamma_c
    return f_anchor * abs(t - anchor) ** (-alpha) / gamma_c + side.sign * integral


def q_reflect(f: RealFunction) -> RealFunction:
    """Reflection (Qf)(t) = f(a+b-t) on the same interval; breaks map to a+b-x
    and a cusp to the other end."""
    s = f.a + f.b
    deriv = None
    if f.deriv is not None:
        fd = f.deriv
        deriv = lambda t: -fd(s - t)
    label = f"Q[{f.label}]" if f.label else "Q[f]"
    breaks = tuple(s - x for x in reversed(f.breaks))
    cusp = f.cusp and (f.b if f.cusp[0] == f.a else f.a, f.cusp[1])
    return RealFunction(fn=lambda t: f.fn(s - t), a=f.a, b=f.b, deriv=deriv, label=label,
                        breaks=breaks, cusp=cusp)


def gen_ml_integral(
    side: Side,
    p: MLParams,
    omega: float,
    f: RealFunction,
    x: float,
    cfg: QuadConfig | None = None,
) -> float:
    """Generalized ML integral operator with kernel dist^(mu-1) E(omega dist^rho).

    :func:`power_quad` grades the substitution so that E's argument is
    omega w^m, a power series in w, for every mu > 0.
    """
    if not f.contains(x):
        raise DomainError(f"x={x!r} outside [{f.a!r}, {f.b!r}]")
    rho, mu, gp = p.rho, p.mu, p.gamma_p
    return power_quad(
        f.fn, side.anchor(f), x, mu, rho, cfg, lambda z: ml_value(rho, mu, gp, omega * z),
        breaks=f.breaks, cusp=f.cusp,
    )
