"""Euler-Lagrange residuals and the two worked variational problems.

A Lagrangian containing the left Caputo-type ML-kernel derivative yields the
residual L1(s) + (right RL-type derivative of L2)(s); a right derivative in
the Lagrangian mirrors to the left.  The quadratic-potential problem is
solved as a fixed point of y -> y0 + c (AB-I-left . AB-I-right) y on a uniform
grid; the RL part of each integral of the piecewise-linear interpolant is
exact, one lag convolution of product-integration weights per application.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateOrder, DivergenceError, DomainError, MlfracError
from .identities import zero_mode
from .operators import (
    FracOrder,
    GridFunction,
    Side,
    _require_kernel_order,
    abr_derivative,
    gen_ml_integral,
    opposite,
)
from .quadrature import QuadConfig, RealFunction
from .special import Z_MAX, MLParams, exp_sum_kernel
# unused here, but bench/tracing.py patches variational.ml_value
from .special import ml_value  # noqa: F401


@dataclass(frozen=True)
class LagrangianEval:
    """Partial derivatives of a Lagrangian along a candidate trajectory.

    ``l1`` maps a trajectory to dL/df as a function of the time variable;
    ``l2`` maps it to dL/d(fractional derivative of f).  ``deriv_side`` says
    which side's Caputo-type derivative the Lagrangian contains.
    """

    l1: Callable[[RealFunction], RealFunction]
    l2: Callable[[RealFunction], RealFunction]
    deriv_side: Side = Side.Left


@dataclass(frozen=True)
class SolverConfig:
    grid_n: int = 200
    fp_tol: float = 1e-8
    fp_max_iter: int = 200

    def __post_init__(self) -> None:
        if self.grid_n < 8:
            raise DomainError(f"grid_n must be at least 8, got {self.grid_n}")
        if not (self.fp_tol > 0.0):
            raise DomainError(f"fp_tol must be positive, got {self.fp_tol!r}")
        if self.fp_max_iter < 1:
            raise DomainError("fp_max_iter must be at least 1")


DEFAULT_SOLVER = SolverConfig()


@dataclass(frozen=True)
class PicardResult:
    """Converged grid plus the convergence record of the fixed-point iteration."""

    grid: GridFunction
    iterations: int
    sup_changes: tuple[float, ...]
    contraction_q: float | None
    contraction_bound: float
    residual_sup: float
    converged: bool


def residual_grid(b: float, n: int = 20, start_frac: float = 0.1) -> GridFunction:
    """Skeleton grid on [start_frac*b, b]: the default residual window keeps
    clear of the anchor, where the derivative of L2 may be singular."""
    a = start_frac * b
    return GridFunction(a=a, b=b, n=n, values=np.zeros(n + 1))


def el_residual(
    lag: LagrangianEval,
    y: RealFunction,
    ord_: FracOrder,
    grid: GridFunction,
    cfg: QuadConfig | None = None,
) -> GridFunction:
    """Euler-Lagrange residual L1 + (opposite-side ABR of L2) on the grid nodes.

    Per-node operator failures are recorded as NaN entries flagged singular
    rather than raised.
    """
    l1_traj = lag.l1(y)
    l2_traj = lag.l2(y)
    side = opposite(lag.deriv_side)
    values = np.empty(grid.n + 1)
    bad: list[int] = []
    for i, t in enumerate(grid.ts):
        try:
            values[i] = l1_traj.fn(t) + abr_derivative(side, l2_traj, ord_, t, cfg)
        except MlfracError:
            values[i] = math.nan
            bad.append(i)
    return GridFunction(a=grid.a, b=grid.b, n=grid.n, values=values, singular=tuple(bad))


def natural_bc(
    l2_traj: RealFunction, ord_: FracOrder, side: Side, cfg: QuadConfig | None = None
) -> tuple[float, float]:
    """Boundary pair of the generalized ML integral of L2 at the interval ends.

    ``side`` selects the operator anchor (Right = b-anchored, Left =
    0-anchored); the value at the anchor itself is exactly 0 (empty range).
    """
    kernel = MLParams(ord_.alpha, 1.0, 1.0)
    lam = ord_.lam
    at_a = gen_ml_integral(side, kernel, lam, l2_traj, l2_traj.a, cfg)
    at_b = gen_ml_integral(side, kernel, lam, l2_traj, l2_traj.b, cfg)
    return at_a, at_b


def solve_free_particle(
    ord_: FracOrder,
    y0: float,
    b: float,
    cfg: SolverConfig | None = None,
    amplitude: float = 1.0,
) -> GridFunction:
    """Closed-form free-particle extremal y(t) = y0 + A alpha t^(alpha-1)/(B Gamma(alpha)).

    The mode is unbounded at t = 0 for alpha < 1 while the boundary condition
    still assigns y(0) = y0; the first sample reports y0 and is flagged
    singular so the tension stays visible.  ``amplitude`` scales the singular
    mode; the worked solution uses 1.
    """
    if not (0.0 < b < math.inf and math.isfinite(y0) and math.isfinite(amplitude)):
        raise DomainError(
            f"solve_free_particle needs 0 < b < inf and finite y0, amplitude; "
            f"got b={b!r}, y0={y0!r}, amplitude={amplitude!r}"
        )
    cfg = cfg or DEFAULT_SOLVER
    n = cfg.grid_n
    ts = np.linspace(0.0, b, n + 1)
    values = np.empty(n + 1)
    values[0] = y0
    for i in range(1, n + 1):
        values[i] = y0 + amplitude * zero_mode(ord_, float(ts[i]))
    singular = (0,) if ord_.alpha < 1.0 else ()
    return GridFunction(a=0.0, b=b, n=n, values=values, singular=singular)


def fractional_velocity(grid: GridFunction, ord_: FracOrder) -> RealFunction:
    """Left Caputo-type ML-kernel derivative of the grid's linear interpolant.

    Exact: with cell slopes s_i, the value at t is (B/(1-alpha)) times the
    integral from a to t of s(x) E_alpha(lam (t-x)^alpha) dx.  The kernel is
    the exponential sum of :func:`special.exp_sum_kernel`, so each of its M
    terms carries a one-step recurrence over the cells (the fast
    sum-of-exponentials L1 scheme of Jiang, Zhang, Zhang & Zhang,
    Commun. Comput. Phys. 21(3), 2017):

        H[0] = 0,  H[i] = e^(-C h) H[i-1] + s_{i-1} (W/C)(1 - e^(-C h)),

    and with t in cell i (x_i < t <= x_{i+1}, so a node closes the cell to
    its left) and d = t - x_i,

        value = (B/(1-alpha)) sum [e^(-C d) H[i] + s_i (W/C)(1 - e^(-C d))],
        t-derivative = (B/(1-alpha)) sum [e^(-C d) (s_i W - C H[i])].

    Construction takes O(n M) time and (n+1) M memory; each evaluation is
    O(M) and makes no series call.  Raises :class:`DegenerateOrder` for
    alpha >= ALPHA_KERNEL_CAP, and :class:`DomainError` for a grid with
    singular entries, for |lam| (b-a)^alpha > Z_MAX (the rule's domain), for
    orders below about 0.047 (see ``exp_sum_kernel``) and, at evaluation, for
    t outside [a, b].
    """
    _require_kernel_order(ord_)
    if grid.singular:
        raise DomainError(
            f"fractional velocity needs finite samples; entries {grid.singular} are singular"
        )
    alpha, lam = ord_.alpha, ord_.lam
    a, b, n, h = grid.a, grid.b, grid.n, grid.h
    if -lam * (b - a) ** alpha > Z_MAX:
        raise DomainError(
            f"fractional velocity needs |lam| (b-a)^alpha <= {Z_MAX:g}, "
            f"got {-lam * (b - a) ** alpha:.4g}"
        )
    w, c = exp_sum_kernel(alpha, lam)
    w_c = w / c
    scale = ord_.b_norm / (1.0 - alpha)
    slopes = (np.diff(grid.values) / h).tolist()
    decay, ramp = np.exp(-c * h), w_c * -np.expm1(-c * h)
    hist = np.zeros((n + 1, len(w)))
    for i in range(1, n + 1):
        hist[i] = decay * hist[i - 1] + slopes[i - 1] * ramp
    nodes = grid.ts.tolist()

    def cell(t: float) -> tuple[int, np.ndarray]:
        # cell index and -C d
        if not a <= t <= b:
            raise DomainError(f"fractional velocity evaluated at t={t!r} outside [{a!r}, {b!r}]")
        i = max(bisect_left(nodes, t) - 1, 0)
        return i, c * (nodes[i] - t)

    def fn(t: float) -> float:
        i, x = cell(t)
        return scale * float(np.exp(x) @ hist[i] - slopes[i] * (w_c @ np.expm1(x)))

    def deriv(t: float) -> float:
        i, x = cell(t)
        return scale * float(np.exp(x) @ (slopes[i] * w - c * hist[i]))

    return RealFunction(fn=fn, a=a, b=b, deriv=deriv, label="ABC-D of interpolant")


def rl_integral_on_grid(values: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """Exact left RL integral of the linear interpolant of ``values`` (step h) at every node.

    Product integration: q1[d], q2[d] are the moments of the cell d steps back
    against its two hat functions, so node i is a lag convolution with the
    kernel K[k] = q1[k] + q2[k+1], less the q2 term of node 0, which has no
    cell to its left.  The right integral is this one on reversed values, reversed.
    """
    if not (alpha > 0.0):
        raise DomainError(f"rl_integral_on_grid needs alpha > 0, got {alpha!r}")
    n = len(values) - 1
    x = np.arange(0, n + 2, dtype=float) * h
    dp = np.diff(x**alpha) / alpha
    dp1 = np.diff(x ** (alpha + 1.0)) / (alpha + 1.0)
    q1 = np.concatenate(([0.0], dp1 - x[:-1] * dp))
    q2 = np.concatenate(([0.0], x[1:] * dp - dp1))
    lagged = np.convolve(q1[:-1] + q2[1:], values)[: n + 1] - values[0] * q2[1:]
    return lagged / (math.gamma(alpha) * h)


def solve_quadratic_potential(
    ord_: FracOrder,
    c: float,
    y0: float,
    b: float,
    cfg: SolverConfig | None = None,
) -> PicardResult:
    """Picard iteration for y = y0 + c (AB-I-left . AB-I-right) y on [0, b].

    Iterates live on the uniform grid; each AB integral of the linear
    interpolant is applied exactly as w0 y + w1 RL(y), the RL part one lag
    convolution.  Divergence is detected at run time (five consecutive
    growing steps, or the iteration budget).  The reported contraction bound
    is |c| K, with K the infinity-norm of the composed operator: its entries
    are non-negative, so K is its largest row sum, the image of all-ones.
    """
    if ord_.alpha >= 1.0:
        raise DegenerateOrder("the ML-kernel integral requires alpha < 1")
    if not (0.0 < b < math.inf and math.isfinite(c) and math.isfinite(y0)):
        raise DomainError(
            f"solve_quadratic_potential needs 0 < b < inf and finite c, y0; "
            f"got b={b!r}, c={c!r}, y0={y0!r}"
        )
    cfg = cfg or DEFAULT_SOLVER
    n = cfg.grid_n
    alpha, h = ord_.alpha, b / n
    w0 = (1.0 - alpha) / ord_.b_norm
    w1 = alpha / ord_.b_norm

    def composed(y: np.ndarray) -> np.ndarray:
        right = w0 * y + w1 * rl_integral_on_grid(y[::-1], alpha, h)[::-1]
        return w0 * right + w1 * rl_integral_on_grid(right, alpha, h)

    bound = abs(c) * float(np.max(composed(np.ones(n + 1))))

    base = np.full(n + 1, float(y0))
    y = base.copy()
    changes: list[float] = []
    grow_run = 0
    converged = False
    iterations = 0
    for _ in range(cfg.fp_max_iter):
        y_next = base + c * composed(y)
        change = float(np.max(np.abs(y_next - y)))
        iterations += 1
        if changes and change > changes[-1]:
            grow_run += 1
            if grow_run >= 5:
                raise DivergenceError(
                    f"sup-norm change grew for 5 consecutive iterations "
                    f"(contraction bound |c| K = {bound:.3g})"
                )
        else:
            grow_run = 0
        changes.append(change)
        y = y_next
        if change <= cfg.fp_tol:
            converged = True
            break
    if not converged:
        raise DivergenceError(
            f"no convergence within {cfg.fp_max_iter} iterations "
            f"(last change {changes[-1]:.3g}, contraction bound {bound:.3g})"
        )
    ratios = [c2 / c1 for c1, c2 in zip(changes, changes[1:]) if c1 > 0.0]
    q = max(ratios) if ratios else None
    residual = float(np.max(np.abs(y - base - c * composed(y))))
    grid = GridFunction(a=0.0, b=b, n=n, values=y)
    return PicardResult(
        grid=grid,
        iterations=iterations,
        sup_changes=tuple(changes),
        contraction_q=q,
        contraction_bound=bound,
        residual_sup=residual,
        converged=True,
    )
