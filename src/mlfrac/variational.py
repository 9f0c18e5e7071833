"""Euler-Lagrange residuals and the two worked variational problems.

A Lagrangian containing the left Caputo-type ML-kernel derivative yields the
residual L1(s) + (right RL-type derivative of L2)(s); a right derivative in
the Lagrangian mirrors to the left.  The quadratic-potential problem is
solved as a fixed point of y -> y0 + c (AB-I-left . AB-I-right) y on a uniform
grid; the RL part of each integral of the piecewise-linear interpolant is
exact, one FFT lag convolution of product-integration weights per application.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, DomainError, MlfracError
from .operators import FracOrder, GridFunction, Side, abr_derivative, gen_ml_integral, opposite
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
        for name in ("grid_n", "fp_max_iter"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.grid_n < 8:
            raise DomainError(f"grid_n must be at least 8, got {self.grid_n}")
        if not (0.0 < self.fp_tol < math.inf):
            raise DomainError(f"fp_tol must be finite and positive, got {self.fp_tol!r}")
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
    n, alpha = (cfg or DEFAULT_SOLVER).grid_n, ord_.alpha
    mode = alpha * np.linspace(0.0, b, n + 1)[1:] ** (alpha - 1.0) / (ord_.b_norm * math.gamma(alpha))
    values = np.concatenate(([y0], y0 + amplitude * mode))
    return GridFunction(a=0.0, b=b, n=n, values=values, singular=(0,) if alpha < 1.0 else ())


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
    its left), d = t - x_i, m = e^(-C d) - 1 and G[i] = H[i] - s_i W/C,

        value = (B/(1-alpha)) [sum H[i] + sum m G[i]],
        t-derivative = -(B/(1-alpha)) [sum C G[i] + sum m C G[i]].

    The value has a weak cusp after each node, so the interior nodes are
    the function's breaks.  Construction takes O(n M) time and n M memory;
    each evaluation is O(M), one expm1 per term and no series call.  Raises
    :class:`DegenerateOrder` for alpha >= ALPHA_KERNEL_CAP, and
    :class:`DomainError` for a grid with singular entries, for |lam|
    (b-a)^alpha > Z_MAX (the rule's domain), for orders below about 0.047
    (see ``exp_sum_kernel``) and, at evaluation, for t outside [a, b].
    """
    alpha, lam = ord_.alpha, ord_.lam
    if grid.singular:
        raise DomainError(
            f"fractional velocity needs finite samples; entries {grid.singular} are singular"
        )
    a, b, n, h = grid.a, grid.b, grid.n, grid.h
    if -lam * (b - a) ** alpha > Z_MAX:
        raise DomainError(
            f"fractional velocity needs |lam| (b-a)^alpha <= {Z_MAX:g}, "
            f"got {-lam * (b - a) ** alpha:.4g}"
        )
    w, c = exp_sum_kernel(alpha, lam)
    w_c = w / c
    scale = ord_.scale
    slopes = (np.diff(grid.values) / h).tolist()
    decay, ramp = np.exp(-c * h), w_c * -np.expm1(-c * h)
    hist = np.zeros((n + 1, len(w)))
    for i in range(1, n + 1):
        hist[i] = decay * hist[i - 1] + slopes[i - 1] * ramp
    gaps = hist[:-1] - np.multiply.outer(slopes, w_c)
    hist_sums, gap_rates = hist.sum(axis=1).tolist(), (gaps @ c).tolist()
    nodes = grid.ts.tolist()

    def cell(t: float) -> tuple[int, np.ndarray]:  # the cell index and m
        if not a <= t <= b:
            raise DomainError(f"fractional velocity evaluated at t={t!r} outside [{a!r}, {b!r}]")
        i = max(bisect_left(nodes, t) - 1, 0)
        return i, np.expm1(c * (nodes[i] - t))

    def fn(t: float) -> float:
        i, m = cell(t)
        return scale * (hist_sums[i] + float(m @ gaps[i]))

    def deriv(t: float) -> float:
        i, m = cell(t)
        return -scale * (gap_rates[i] + float(m @ (c * gaps[i])))

    return RealFunction(fn=fn, a=a, b=b, deriv=deriv, label="ABC-D of interpolant",
                        breaks=tuple(nodes[1:-1]))


def _lag_operator(n: int, alpha: float, h: float) -> Callable[[np.ndarray], np.ndarray]:
    """Left RL integral at every node of the linear interpolant of n+1 samples (step h).

    Product integration: q1[d], q2[d] are the moments of the cell d steps back
    against its two hat functions, so node i is a lag convolution with the
    kernel K[k] = q1[k] + q2[k+1], less the q2 term of node 0, which has no
    cell to its left.  K's spectrum is taken once, at the least power of two
    above 2n, so that no product wraps onto a kept node.  The right integral
    is the left one of the reversed samples, reversed.  Raises DomainError
    when the moments overflow (a step h near the float range).
    """
    x = np.arange(0, n + 2, dtype=float) * h
    with np.errstate(over="ignore", invalid="ignore"):
        dp = np.diff(x**alpha) / alpha
        dp1 = np.diff(x ** (alpha + 1.0)) / (alpha + 1.0)
        norm = math.gamma(alpha) * h
        q1 = np.concatenate(([0.0], dp1[:-1] - x[:-2] * dp[:-1])) / norm
        q2 = (x[1:] * dp - dp1) / norm  # q2[k+1]
    size = 1 << (2 * n).bit_length()
    spectrum = np.fft.rfft(q1 + q2, size)
    if not np.all(np.isfinite(spectrum)):
        raise DomainError(f"lag kernel of order {alpha:g} at step h={h:g} is not finite")

    def apply(values: np.ndarray) -> np.ndarray:
        lagged = np.fft.irfft(np.fft.rfft(values, size) * spectrum, size)[: n + 1] - values[0] * q2
        lagged[0] = 0.0  # the empty integral at the anchor
        return lagged

    return apply


def rl_integral_on_grid(values: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """Exact left RL integral of the linear interpolant of ``values`` (step h) at every node."""
    if not (0.0 < alpha < math.inf and 0.0 < h < math.inf and len(values) > 0
            and np.all(np.isfinite(values))):
        raise DomainError(
            f"rl_integral_on_grid needs finite alpha, h > 0 and finite samples; "
            f"got alpha={alpha!r}, h={h!r} and {len(values)} samples"
        )
    return _lag_operator(len(values) - 1, alpha, h)(values)


def solve_quadratic_potential(
    ord_: FracOrder,
    c: float,
    y0: float,
    b: float,
    cfg: SolverConfig | None = None,
) -> PicardResult:
    """Picard iteration for y = y0 + c (AB-I-left . AB-I-right) y on [0, b].

    Iterates live on the uniform grid; each AB integral of the linear
    interpolant is applied exactly as w0 y + w1 RL(y), the RL part one FFT lag
    convolution.  Divergence is detected at run time (five consecutive
    growing steps, a change that is not finite, or the iteration budget).
    The reported contraction bound is |c| K, with K the infinity-norm of the
    composed operator: its entries are non-negative, so K is its largest row
    sum, the image of all-ones.  A lag kernel or bound that is not finite
    raises DomainError before the first iteration.
    """
    w0, w1 = ord_.ab_weights
    if not (0.0 < b < math.inf and math.isfinite(c) and math.isfinite(y0)):
        raise DomainError(
            f"solve_quadratic_potential needs 0 < b < inf and finite c, y0; "
            f"got b={b!r}, c={c!r}, y0={y0!r}"
        )
    cfg = cfg or DEFAULT_SOLVER
    n = cfg.grid_n
    rl = _lag_operator(n, ord_.alpha, b / n)

    def composed(y: np.ndarray) -> np.ndarray:
        right = w0 * y + w1 * rl(y[::-1])[::-1]
        return w0 * right + w1 * rl(right)

    base = np.full(n + 1, float(y0))
    y = base.copy()
    changes: list[float] = []
    grow_run = 0
    with np.errstate(over="ignore", invalid="ignore"):
        bound = abs(c) * float(np.max(composed(np.ones(n + 1))))
        if not math.isfinite(bound):
            raise DomainError(
                f"contraction bound |c| K is not finite for c={c!r}, b={b!r}, "
                f"B={ord_.b_norm!r} on {n} cells"
            )
        for _ in range(cfg.fp_max_iter):
            y_next = base + c * composed(y)
            change = float(np.max(np.abs(y_next - y)))
            if not math.isfinite(change):
                raise DivergenceError(
                    f"sup-norm change is not finite at iteration {len(changes) + 1} "
                    f"(contraction bound |c| K = {bound:.3g})"
                )
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
                break
        else:
            raise DivergenceError(
                f"no convergence within {cfg.fp_max_iter} iterations "
                f"(last change {changes[-1]:.3g}, contraction bound {bound:.3g})"
            )
    ratios = [c2 / c1 for c1, c2 in zip(changes, changes[1:]) if c1 > 0.0]
    q = max(ratios) if ratios else None
    residual = float(np.max(np.abs(y - base - c * composed(y))))
    return PicardResult(
        grid=GridFunction(a=0.0, b=b, n=n, values=y),
        iterations=len(changes),
        sup_changes=tuple(changes),
        contraction_q=q,
        contraction_bound=bound,
        residual_sup=residual,
    )
