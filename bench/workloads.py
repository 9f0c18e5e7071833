"""The five benchmark workloads: their seeded inputs, their operations and
the per-operation correctness gate.

An operation (``Op``) is one unit of user-visible work: a CLI command, an
identity report, a solve-and-check case or one operator value.  ``run``
calls the public API of mlfrac, looking every name up at call time so that
the traced run sees it through the tracer's wrappers; ``check`` compares the
result with a reference computed beforehand without mlfrac and returns the
error (relative, or the identity report's own abs_err) and whether it is
within the workload's tolerance.

The seed perturbs expression coefficients and evaluation nodes within fixed
ranges.  It never changes a workload's orders alpha or its interval, which
set the workload's cost class.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import reference as ref

@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[float, bool]]


@dataclass
class Workload:
    ops: list[Op]
    #: (rho, mu, gamma) triples whose ratio tables the set-up warms
    ml_params: list[tuple[float, float, float]] = field(default_factory=list)


class Refused(Exception):
    """mlfrac reported a typed MlfracError through its own channel: CLI exit
    code 3, an identity report or a residual grid that recorded one."""


def _draw(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


def _expressions(rng: random.Random) -> list[tuple[ref.Term, ...]]:
    """x^2 + sin(x) and an exp/polynomial expression, each coefficient moved
    by up to 2%: enough to change every value, too little to change how much
    work the adaptive quadrature does."""

    def near(v: float) -> str:
        return _draw(rng, 0.98 * v, 1.02 * v) if v > 0 else _draw(rng, 1.02 * v, 0.98 * v)

    first = (ref.Term("pow", near(1.0), "2"), ref.Term("sin", near(1.0), near(1.0)))
    second = (
        ref.Term("exp", near(0.7), near(-1.3)),
        ref.Term("pow", near(0.4), "3"),
        ref.Term("pow", near(-0.2), "1"),
    )
    return [first, second]


def _cli(argv: list[str]) -> str:
    import mlfrac.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mlfrac.cli.run_cli(argv)
    if code == 3:
        raise Refused("exit code 3")
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return buf.getvalue()


def _parse_grid_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(values, singular mask) of a grid command's CSV output."""
    rows = text.strip().splitlines()[1:]
    values = np.empty(len(rows))
    singular = np.zeros(len(rows), dtype=bool)
    for i, row in enumerate(rows):
        cell = row.split(",")[1]
        if cell.startswith("sing("):
            singular[i] = True
            cell = cell[5:-1]
        values[i] = float(cell)
    return values, singular


def grid_error(text: str, expected: np.ndarray) -> float:
    """Normwise relative error of a grid output; singular nodes must be
    exactly the nodes where the reference is unbounded."""
    values, singular = _parse_grid_csv(text)
    if values.shape != expected.shape or not np.array_equal(singular, ~np.isfinite(expected)):
        return math.inf
    regular = ~singular
    if not np.all(np.isfinite(values[regular])):
        return math.inf
    scale = float(np.max(np.abs(expected[regular])))
    return float(np.max(np.abs(values[regular] - expected[regular]))) / scale


def _within(err: float, tol: float) -> tuple[float, bool]:
    return err, err <= tol


def _grid_op(argv: list[str], expected: np.ndarray, tol: float) -> Op:
    return Op(
        label=" ".join(argv[:5]),
        run=lambda: _cli(argv),
        check=lambda text: _within(grid_error(text, expected), tol),
    )


# ---------------------------------------------------------------------------
# kernel-grid and rl-grid: CLI grid commands on parsed expressions

KERNEL_ALPHAS = (0.25, 0.5, 0.75, 0.9)
KERNEL_GRID = 11
KERNEL_TOL = 1e-8


def kernel_grid(seed: int) -> Workload:
    rng = random.Random(f"kernel-grid:{seed}")
    ts = np.linspace(0.0, 1.0, KERNEL_GRID)
    ops = []
    for terms in _expressions(rng):
        text = ref.expression_text(terms)
        left = ref.taylor(terms, 0.0, 1)
        right = ref.taylor(terms, 1.0, -1)
        for alpha in KERNEL_ALPHAS:
            lv = [ref.ml_kernel_ops(alpha, 1.0, left, float(t)) for t in ts]
            rv = [ref.ml_kernel_ops(alpha, 1.0, right, float(1.0 - t)) for t in ts]
            expected = {
                "abc-left": [v[0] for v in lv],
                "abr-left": [v[1] for v in lv],
                "abc-right": [v[0] for v in rv],
                "abr-right": [v[1] for v in rv],
            }
            for op, vals in expected.items():
                argv = ["deriv", "--op", op, "--alpha", str(alpha), "--interval", "0:1",
                        "--fn", text, "--grid", str(KERNEL_GRID)]
                ops.append(_grid_op(argv, np.array(vals), KERNEL_TOL))
    return Workload(ops, [(a, 1.0, 1.0) for a in KERNEL_ALPHAS])


RL_ALPHAS = (0.5,)
RL_GRID = 1001
RL_TOL = 1e-8


def rl_grid(seed: int) -> Workload:
    rng = random.Random(f"rl-grid:{seed}")
    ts = np.linspace(0.0, 1.0, RL_GRID)
    ops = []
    for terms in _expressions(rng):
        text = ref.expression_text(terms)
        fvals = np.array([float(ref.value(terms, float(t))) for t in ts])
        left = ref.taylor(terms, 0.0, 1)
        right = ref.taylor(terms, 1.0, -1)
        for alpha in RL_ALPHAS:
            lv = ref.rl_ops(alpha, left, [float(t) for t in ts])
            rv = ref.rl_ops(alpha, right, [float(1.0 - t) for t in ts])
            rl_int = {"left": np.array([v[0] for v in lv]), "right": np.array([v[0] for v in rv])}
            expected = {
                ("integ", "rl-left"): rl_int["left"],
                ("integ", "rl-right"): rl_int["right"],
                ("integ", "ab-left"): (1.0 - alpha) * fvals + alpha * rl_int["left"],
                ("integ", "ab-right"): (1.0 - alpha) * fvals + alpha * rl_int["right"],
                ("deriv", "rl-left"): np.array([v[1] for v in lv]),
                ("deriv", "rl-right"): np.array([v[1] for v in rv]),
            }
            for (cmd, op), vals in expected.items():
                argv = [cmd, "--op", op, "--alpha", str(alpha), "--interval", "0:1",
                        "--fn", text, "--grid", str(RL_GRID)]
                ops.append(_grid_op(argv, vals, RL_TOL))
    return Workload(ops, [])


# ---------------------------------------------------------------------------
# identity-sweep: the verify_* checks of run_default_suite on poly closures


def _golden_pair():
    """run_default_suite's golden pair for the RL-type integration by parts."""
    from mlfrac import RealFunction

    rp = math.sqrt(math.pi)
    f = RealFunction(
        fn=lambda x: 0.5 * (1 - x) + 2.0 * (1 - x) ** 1.5 / (3 * rp),
        a=0.0,
        b=1.0,
        deriv=lambda x: -0.5 - (1 - x) ** 0.5 / rp,
    )
    g = RealFunction(
        fn=lambda x: 0.5 * x + 2.0 * x**1.5 / (3 * rp),
        a=0.0,
        b=1.0,
        deriv=lambda x: 0.5 + x**0.5 / rp,
    )
    return f, g


def _report_op(label: str, call: Callable[[], Any]) -> Op:
    def run():
        report = call()
        if "error" in report.params:
            raise Refused(report.params["error"])
        return report

    # the report carries its own tolerance and verdict
    return Op(label=label, run=run, check=lambda r: (r.abs_err, r.passed))


def identity_sweep(seed: int) -> Workload:
    """run_default_suite's checks at alpha = 0.5, plus a slice at 0.25 and 0.75.

    The seed moves the evaluation points of the convolution and
    derivative-shift checks by up to 2%.  The function operands stay those of
    run_default_suite: scaling one by 2% changes the quadrature work of the
    nested checks by up to a third, which would make the workload's cost
    depend on the seed.
    """
    import mlfrac
    from mlfrac import FracOrder, Side
    from mlfrac.identities import poly

    rng = random.Random(f"identity-sweep:{seed}")
    x_fn, omx = poly([0.0, 1.0]), poly([1.0, -1.0])
    x_sq, cubic = poly([0.0, 0.0, 1.0]), poly([0.5, -1.0, 0.0, 2.0])
    ops: list[Op] = []

    def add(label: str, fname: str, *args) -> None:
        ops.append(_report_op(label, lambda: getattr(mlfrac, fname)(*args)))

    # the single-quadrature checks first and the nested ones after them, so
    # that the runner's repeats of the short checks fall between the long
    # ones and spread over the whole pass
    half = FracOrder(0.5, 1.0)
    slices = [FracOrder(alpha, 1.0) for alpha in (0.25, 0.75)]
    add("ibp-integrals 0.5 a", "verify_ibp_integrals", omx, x_fn, half)
    add("ibp-integrals 0.5 b", "verify_ibp_integrals", x_fn, x_sq, half)
    add("caputo-rl 0.5", "verify_caputo_rl_relation", x_sq, half, Side.Left)
    for sigma, nu, x in ((0.0, 1.0, 0.5), (1.0, 1.5, 1.0), (0.0, 2.0, 0.8), (2.0, 1.0, 1.0)):
        xx = round(x * rng.uniform(0.98, 1.02), 4)
        add(f"convolution {sigma} {nu}", "verify_convolution", sigma, nu, 0.5, -1.0, xx)
    for gamma_p, mu in ((1.0, 2.0), (2.0, 2.5), (0.5, 3.0)):
        z = round(0.8 * rng.uniform(0.98, 1.02), 4)
        add(f"diff-formula {gamma_p} {mu}", "verify_diff_formula", gamma_p, mu, 0.5, -1.0, z)
    for o in slices:
        add(f"ibp-integrals {o.alpha} b", "verify_ibp_integrals", x_fn, x_sq, o)
        add(f"caputo-rl {o.alpha}", "verify_caputo_rl_relation", x_sq, o, Side.Left)
    add("ibp-derivatives 0.5", "verify_ibp_derivatives", cubic, x_sq, half)
    add("caputo-ibp 0.5 left", "verify_caputo_ibp", x_fn, omx, half, Side.Left)
    add("inverse-fundamental 0.5 left", "verify_inverse_and_fundamental", x_fn, half, Side.Left)
    add("ibp-derivatives 0.5 golden", "verify_ibp_derivatives", *_golden_pair(), half)
    add("caputo-ibp 0.5 right", "verify_caputo_ibp", x_sq, cubic, half, Side.Right)
    add("inverse-fundamental 0.5 right", "verify_inverse_and_fundamental", x_sq, half, Side.Right)
    for o in slices:
        add(f"caputo-ibp {o.alpha} left", "verify_caputo_ibp", x_fn, omx, o, Side.Left)
    params = [(a, 1.0, 1.0) for a in (0.25, 0.5, 0.75)]
    return Workload(ops, params)


# ---------------------------------------------------------------------------
# el-solve: Picard solves on a large grid plus the Euler-Lagrange decomposition

EL_ALPHA = 0.5
PICARD_GRID = 800
PICARD_CASES = 6
PICARD_TOL = 1e-6
DECOMP_GRID = 16
DECOMP_TOL = 1e-3
DECOMP_START = 0.625


def picard_operator(q1: list[float], q2: list[float], alpha: float) -> np.ndarray:
    """M_L M_R of the product-integration system, with M_R = J M_L J."""
    n = len(q1) - 1
    w = np.zeros((n + 1, n + 1))
    for d in range(1, n + 1):
        rows = np.arange(d, n + 1)
        w[rows, rows - d] += q1[d]
        w[rows, rows - d + 1] += q2[d]
    m_left = (1.0 - alpha) * np.eye(n + 1) + alpha * w
    return m_left @ m_left[::-1, ::-1]


def picard_reference(composed: np.ndarray, c: float, y0: float) -> np.ndarray:
    """Direct dense solve of the fixed point the Picard iteration converges
    to: (I - c M_L M_R) y = y0."""
    n = composed.shape[0]
    return np.linalg.solve(np.eye(n) - c * composed, np.full(n, y0))


def _picard_op(c: float, y0: float, expected: np.ndarray) -> Op:
    def run():
        import mlfrac

        cfg = mlfrac.SolverConfig(grid_n=PICARD_GRID)
        return mlfrac.solve_quadratic_potential(mlfrac.FracOrder(EL_ALPHA, 1.0), c, y0, 1.0, cfg)

    def check(res) -> tuple[float, bool]:
        y = res.grid.values
        return _within(float(np.max(np.abs(y - expected)) / np.max(np.abs(expected))), PICARD_TOL)

    return Op(f"picard c={c} y0={y0}", run, check)


def _decomposition_op(c: float, y0: float, start: float) -> Op:
    """The check of tests/test_variational.py: the Euler-Lagrange residual of
    the Picard fixed point equals minus the boundary-mode defect."""

    def run():
        import mlfrac
        from mlfrac import FracOrder, LagrangianEval, QuadConfig, RealFunction, Side, SolverConfig
        from mlfrac.special import ml_value

        half = FracOrder(EL_ALPHA, 1.0)
        res = mlfrac.solve_quadratic_potential(half, c, y0, 1.0, SolverConfig(grid_n=DECOMP_GRID))
        yfun = res.grid.to_real_function()
        l2fn = mlfrac.fractional_velocity(res.grid, half)
        lag = LagrangianEval(
            l1=lambda y: RealFunction(fn=lambda t: -c * yfun.fn(t), a=0.0, b=1.0),
            l2=lambda y: l2fn,
            deriv_side=Side.Left,
        )
        grid = mlfrac.residual_grid(1.0, 2, start_frac=start)
        cfg = QuadConfig(abs_tol=1e-7, rel_tol=1e-7)
        resid = mlfrac.el_residual(lag, yfun, half, grid, cfg)
        if resid.singular:
            raise Refused(f"el_residual failed at nodes {resid.singular}")
        lam = half.lam
        g0 = mlfrac.ab_integral(Side.Right, yfun, half, 0.0)
        mode = RealFunction(
            fn=lambda t: ml_value(0.5, 1.0, 1.0, lam * t**0.5) if t > 0 else 1.0,
            a=0.0,
            b=1.0,
            deriv=lambda t: lam * t**-0.5 * ml_value(0.5, 0.5, 1.0, lam * t**0.5),
        )
        defect = np.array(
            [c * g0 * mlfrac.abr_derivative(Side.Right, mode, half, float(t), cfg) for t in grid.ts]
        )
        return resid.values + defect

    def check(gap: np.ndarray) -> tuple[float, bool]:
        err = float(np.max(np.abs(gap))) if np.all(np.isfinite(gap)) else math.inf
        return _within(err, DECOMP_TOL)

    return Op(f"el-decomposition c={c} y0={y0}", run, check)


def el_solve(seed: int) -> Workload:
    """Picard cases at c = 0.05 .. 0.15 and y0 = 1, each moved by up to 2%,
    and one decomposition case at the test's c = 0.1, y0 = 1, likewise moved;
    the residual nodes 0.625, 0.8125 and 1 stay fixed."""
    rng = random.Random(f"el-solve:{seed}")
    composed = picard_operator(*ref.rl_weights(EL_ALPHA, 1.0, PICARD_GRID), EL_ALPHA)
    ops = []
    for i in range(PICARD_CASES):
        c = round((0.05 + 0.02 * i) * rng.uniform(0.98, 1.02), 4)
        y0 = round(rng.uniform(0.98, 1.02), 4)
        ops.append(_picard_op(c, y0, picard_reference(composed, c, y0)))
    c = round(0.1 * rng.uniform(0.98, 1.02), 4)
    y0 = round(rng.uniform(0.98, 1.02), 4)
    ops.append(_decomposition_op(c, y0, DECOMP_START))
    params = [(EL_ALPHA, mu, 1.0) for mu in (0.5, 1.0, 2.0)]
    return Workload(ops, params)


# ---------------------------------------------------------------------------
# near-cap: abc_derivative of x where the kernel argument reaches |z| = 49

NEAR_CAP_CLASSES = ((0.9, 2.0), (0.95, 1.0), (0.98, 1.0))
NEAR_CAP_TOL = 1e-8


def _near_cap_op(alpha: float, b: float, b_norm: float, t: float, expected: float) -> Op:
    def run():
        import mlfrac
        from mlfrac.identities import poly

        f = poly([0.0, 1.0], 0.0, b)
        return mlfrac.abc_derivative(mlfrac.Side.Left, f, mlfrac.FracOrder(alpha, b_norm), t)

    def check(v: float) -> tuple[float, bool]:
        err = abs(v - expected) / abs(expected) if math.isfinite(v) else math.inf
        return _within(err, NEAR_CAP_TOL)

    return Op(f"abc-left x alpha={alpha} t={t}", run, check)


def near_cap(seed: int) -> Workload:
    """The quarter nodes of each class; the seed moves the normalization B by
    up to 2%, which scales every value but not the quadrature.

    The nodes stay fixed because the outcome there is chaotic: moving
    alpha = 0.95, t = 0.9994 to t = 0.9993 turns a DepthExceeded after 7 s
    into a value 2e-7 off in 5 ms.  Reference: (B/(1-alpha)) t E_{alpha,2}(lam t^alpha).
    """
    rng = random.Random(f"near-cap:{seed}")
    ops = []
    for alpha, b in NEAR_CAP_CLASSES:
        for q in (0.25, 0.5, 0.75, 1.0):
            b_norm = round(rng.uniform(0.98, 1.02), 4)
            t = b * q
            lam = -alpha / (1.0 - alpha)
            expected = float(ref.ml_two(alpha, 2.0, lam * t**alpha) * b_norm * t / (1.0 - alpha))
            ops.append(_near_cap_op(alpha, b, b_norm, t, expected))
    return Workload(ops, [(a, 1.0, 1.0) for a, _ in NEAR_CAP_CLASSES])


BUILDERS = {
    "kernel-grid": kernel_grid,
    "rl-grid": rl_grid,
    "identity-sweep": identity_sweep,
    "el-solve": el_solve,
    "near-cap": near_cap,
}
WORKLOADS = tuple(BUILDERS)
