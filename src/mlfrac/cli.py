"""Command-line front end: evaluate operators on parsed expressions, run the
identity verification suite, and solve the worked variational problems.

Exit codes: 0 success, 1 at least one verification report failed, 2 usage
error, 3 numeric error from the underlying modules or an ``ml`` value whose
series lost its digits to cancellation (``precision_flag``).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import MlfracError, SingularityError
from .expr import parse_expr, to_real_function
from .identities import (
    run_default_suite,
    verify_caputo_ibp,
    verify_caputo_rl_relation,
    verify_convolution,
    verify_diff_formula,
    verify_ibp_derivatives,
    verify_ibp_integrals,
    verify_inverse_and_fundamental,
)
from .operators import (
    FracOrder,
    GridFunction,
    Side,
    ab_integral,
    abc_derivative,
    abr_derivative,
    rl_derivative,
    rl_integral,
)
from .special import MLParams, ml_eval
from .variational import SolverConfig, solve_free_particle, solve_quadratic_potential

INTEG_OPS = ("ab-left", "ab-right", "rl-left", "rl-right")
DERIV_OPS = ("abc-left", "abc-right", "abr-left", "abr-right", "rl-left", "rl-right")
VERIFY_IDS = (
    "ibp-integrals",
    "ibp-derivatives",
    "caputo-ibp",
    "caputo-rl",
    "inverse-fundamental",
    "convolution",
    "diff-formula",
)

IBP_G_TEXT = "x/2 + 2*x^(3/2)/(3*sqrt(pi))"
IBP_F_TEXT = "(1-x)/2 + 2*(1-x)^(3/2)/(3*sqrt(pi))"


@dataclass(frozen=True)
class RunSpec:
    """Validated description of one command-line invocation."""

    command: str
    selector: str | None = None
    alpha: float = 0.5
    b_norm: float = 1.0
    a: float = 0.0
    b: float = 1.0
    grid_n: int = 101
    fn_text: str | None = None
    fn2_text: str | None = None
    side: Side = Side.Left
    fmt: str = "csv"
    out_path: str | None = None
    tol: float | None = None
    ml_params: tuple[float, float, float, float] | None = None  # rho mu gamma z
    extras: dict = field(default_factory=dict)


def _node_count(text: str) -> int:
    n = int(text)
    if n < 3:
        raise argparse.ArgumentTypeError(f"--grid needs at least 3 nodes, got {n}")
    return n


def _parse_interval(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"interval must look like a:b, got {text!r}")
    if not -math.inf < lo < hi < math.inf:
        raise argparse.ArgumentTypeError(f"interval needs finite a < b, got {text!r}")
    return lo, hi


def _tolerance(text: str) -> float:
    tol = float(text)  # argparse reports a ValueError here as a usage error
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text!r}")
    return tol


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once and shared: a parser per call leaves hundreds of objects in
    reference cycles for the collector."""
    parser = argparse.ArgumentParser(
        prog="mlfrac",
        description="Fractional operators with a Mittag-Leffler kernel: "
        "evaluation, identity verification, variational examples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ml = sub.add_parser("ml", help="evaluate the generalized Mittag-Leffler function")
    ml.add_argument("--rho", type=float, required=True)
    ml.add_argument("--mu", type=float, required=True)
    ml.add_argument("--gamma", type=float, default=1.0)
    ml.add_argument("--z", type=float, required=True)
    ml.add_argument("--format", choices=("plain", "json"), default="plain")
    ml.add_argument("--out")

    def common(p: argparse.ArgumentParser, ops: tuple[str, ...]) -> None:
        p.add_argument("--op", choices=ops, required=True)
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--B", type=float, default=1.0, dest="b_norm")
        p.add_argument("--interval", type=_parse_interval, default=(0.0, 1.0))
        p.add_argument("--fn", required=True, help="expression in x, e.g. 'x^2 + sin(x)'")
        p.add_argument("--grid", type=_node_count, default=101, help="number of output rows")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out")

    integ = sub.add_parser("integ", help="fractional integrals on a grid")
    common(integ, INTEG_OPS)
    deriv = sub.add_parser("deriv", help="fractional derivatives on a grid")
    common(deriv, DERIV_OPS)

    verify = sub.add_parser("verify", help="run identity checks; nonzero exit on failure")
    verify.add_argument("--id", choices=VERIFY_IDS, default=None)
    verify.add_argument("--alpha", type=float, default=0.5)
    verify.add_argument("--B", type=float, default=1.0, dest="b_norm")
    verify.add_argument("--interval", type=_parse_interval, default=(0.0, 1.0))
    verify.add_argument("--tol", type=_tolerance, default=None)
    verify.add_argument("--fn", default=None, help="first test function (identity-specific default)")
    verify.add_argument("--fn2", default=None, help="second test function where applicable")
    verify.add_argument("--side", choices=("left", "right"), default="left")
    verify.add_argument("--sigma", type=float, default=1.0)
    verify.add_argument("--nu", type=float, default=1.5)
    verify.add_argument("--lam", type=float, default=-1.0)
    verify.add_argument("--x", type=float, default=1.0)
    verify.add_argument("--gamma-p", type=float, default=1.0)
    verify.add_argument("--mu", type=float, default=2.0)
    verify.add_argument("--z", type=float, default=0.8)
    verify.add_argument("--format", choices=("json",), default="json")
    verify.add_argument("--out")

    solve = sub.add_parser("solve-el", help="solve the worked variational problems")
    solve.add_argument("--problem", choices=("free-particle", "quadratic"), required=True)
    solve.add_argument("--alpha", type=float, required=True)
    solve.add_argument("--B", type=float, default=1.0, dest="b_norm")
    solve.add_argument("--y0", type=float, default=0.0)
    solve.add_argument("--b", type=float, default=1.0)
    solve.add_argument("--c", type=float, default=0.1)
    solve.add_argument("--grid-n", type=int, default=200)
    solve.add_argument("--amplitude", type=float, default=1.0)
    solve.add_argument("--format", choices=("csv", "json"), default="csv")
    solve.add_argument("--out")
    return parser


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    cmd = args.command
    if cmd == "ml":
        return RunSpec(
            command="ml",
            fmt=args.format,
            out_path=args.out,
            ml_params=(args.rho, args.mu, args.gamma, args.z),
        )
    if cmd in ("integ", "deriv"):
        a, b = args.interval
        return RunSpec(
            command=cmd,
            selector=args.op,
            alpha=args.alpha,
            b_norm=args.b_norm,
            a=a,
            b=b,
            grid_n=args.grid,
            fn_text=args.fn,
            fmt=args.format,
            out_path=args.out,
        )
    if cmd == "verify":
        a, b = args.interval
        return RunSpec(
            command="verify",
            selector=args.id,
            alpha=args.alpha,
            b_norm=args.b_norm,
            a=a,
            b=b,
            fn_text=args.fn,
            fn2_text=args.fn2,
            side=Side.Left if args.side == "left" else Side.Right,
            fmt="json",
            out_path=args.out,
            tol=args.tol,
            extras={
                "sigma": args.sigma,
                "nu": args.nu,
                "lam": args.lam,
                "x": args.x,
                "gamma_p": args.gamma_p,
                "mu": args.mu,
                "z": args.z,
            },
        )
    a, b = 0.0, args.b
    return RunSpec(
        command="solve-el",
        selector=args.problem,
        alpha=args.alpha,
        b_norm=args.b_norm,
        a=a,
        b=b,
        grid_n=args.grid_n,
        fmt=args.format,
        out_path=args.out,
        extras={"y0": args.y0, "c": args.c, "amplitude": args.amplitude},
    )


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite_or_null(obj):
    """Replace non-finite floats with None, so strict JSON readers accept the output."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _json_text(payload) -> str:
    return json.dumps(_finite_or_null(payload), indent=2, allow_nan=False) + "\n"


def _grid_csv(grid: GridFunction) -> str:
    lines = ["t,value"]
    singular = set(grid.singular)
    for i, (t, v) in enumerate(zip(grid.ts, grid.values)):
        value = f"{v:.17g}"
        if i in singular:
            value = f"sing({value})"
        lines.append(f"{t:.17g},{value}")
    return "\n".join(lines) + "\n"


def _grid_json(grid: GridFunction, extra: dict | None = None) -> str:
    payload = {
        "a": grid.a,
        "b": grid.b,
        "n": grid.n,
        "t": [float(t) for t in grid.ts],
        "values": [float(v) for v in grid.values],
        "singular": list(grid.singular),
    }
    if extra:
        payload.update(extra)
    return _json_text(payload)


def _eval_grid(op, a: float, b: float, n: int) -> GridFunction:
    ts = np.linspace(a, b, n + 1)
    values = np.empty(n + 1)
    singular: list[int] = []
    for i, t in enumerate(ts):
        try:
            values[i] = op(float(t))
        except SingularityError:
            values[i] = math.inf
            singular.append(i)
    return GridFunction(a=a, b=b, n=n, values=values, singular=tuple(singular))


def _run_ml(spec: RunSpec) -> int:
    rho, mu, gamma_p, z = spec.ml_params
    result = ml_eval(MLParams(rho, mu, gamma_p), z)
    if spec.fmt == "json":
        payload = {
            "value": result.value,
            "terms_used": result.terms_used,
            "max_term_magnitude": result.max_term_magnitude,
            "precision_flag": result.precision_flag,
        }
        _emit(_json_text(payload), spec.out_path)
    else:
        _emit(f"{result.value:.17g}\n", spec.out_path)
    if result.precision_flag:
        print(
            f"error: series cancellation: value {result.value:.6g} against "
            f"max_term_magnitude {result.max_term_magnitude:.6g}",
            file=sys.stderr,
        )
        return 3
    return 0


def _run_grid_command(spec: RunSpec) -> int:
    f = to_real_function(parse_expr(spec.fn_text), spec.a, spec.b)
    kind, side_name = spec.selector.split("-")
    side = Side.Left if side_name == "left" else Side.Right
    ord_ = FracOrder(spec.alpha, spec.b_norm)
    if kind == "ab":
        op = lambda t: ab_integral(side, f, ord_, t)
    elif kind == "rl" and spec.command == "integ":
        op = lambda t: rl_integral(side, f, ord_, t)
    elif kind == "abc":
        op = lambda t: abc_derivative(side, f, ord_, t)
    elif kind == "abr":
        op = lambda t: abr_derivative(side, f, ord_, t)
    else:
        op = lambda t: rl_derivative(side, f, spec.alpha, t)
    # --grid counts emitted nodes; the grid type counts cells
    grid = _eval_grid(op, spec.a, spec.b, spec.grid_n - 1)
    _emit(_grid_csv(grid) if spec.fmt == "csv" else _grid_json(grid), spec.out_path)
    return 0


def _verify_reports(spec: RunSpec) -> list:
    ord_ = FracOrder(spec.alpha, spec.b_norm)
    a, b = spec.a, spec.b
    tol = spec.tol

    def fn_or(default_text: str, text: str | None):
        return to_real_function(parse_expr(text or default_text), a, b)

    ex = spec.extras
    if spec.selector is None:
        return run_default_suite(tol)
    if spec.selector == "ibp-integrals":
        return [verify_ibp_integrals(fn_or("1-x", spec.fn_text), fn_or("x", spec.fn2_text), ord_, tol)]
    if spec.selector == "ibp-derivatives":
        return [verify_ibp_derivatives(fn_or(IBP_F_TEXT, spec.fn_text), fn_or(IBP_G_TEXT, spec.fn2_text), ord_, tol)]
    if spec.selector == "caputo-ibp":
        return [verify_caputo_ibp(fn_or("x", spec.fn_text), fn_or("1-x", spec.fn2_text), ord_, spec.side, tol)]
    if spec.selector == "caputo-rl":
        return [verify_caputo_rl_relation(fn_or("x", spec.fn_text), ord_, spec.side, tol)]
    if spec.selector == "inverse-fundamental":
        return [verify_inverse_and_fundamental(fn_or("x", spec.fn_text), ord_, spec.side, tol)]
    if spec.selector == "convolution":
        return [verify_convolution(ex["sigma"], ex["nu"], spec.alpha, ex["lam"], ex["x"], tol)]
    return [verify_diff_formula(ex["gamma_p"], ex["mu"], spec.alpha, ex["lam"], ex["z"], tol)]


def _run_verify(spec: RunSpec) -> int:
    reports = _verify_reports(spec)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"[{status}] {r.identity_name} alpha={r.params.get('alpha')} "
            f"abs_err={r.abs_err:.3g} tol={r.tol:g}",
            file=sys.stderr,
        )
    dicts = [r.to_json_dict() for r in reports]
    payload = dicts[0] if len(dicts) == 1 else dicts
    _emit(_json_text(payload), spec.out_path)
    return 0 if all(r.passed for r in reports) else 1


def _run_solve(spec: RunSpec) -> int:
    ord_ = FracOrder(spec.alpha, spec.b_norm)
    cfg = SolverConfig(grid_n=spec.grid_n)
    if spec.selector == "free-particle":
        grid = solve_free_particle(ord_, spec.extras["y0"], spec.b, cfg, spec.extras["amplitude"])
        _emit(_grid_csv(grid) if spec.fmt == "csv" else _grid_json(grid), spec.out_path)
        return 0
    res = solve_quadratic_potential(ord_, spec.extras["c"], spec.extras["y0"], spec.b, cfg)
    stats = {
        "iterations": res.iterations,
        "contraction_q": res.contraction_q,
        "contraction_bound": res.contraction_bound,
        "residual_sup": res.residual_sup,
    }
    if spec.fmt == "json":
        _emit(_grid_json(res.grid, extra=stats), spec.out_path)
    else:
        print(
            "converged in {iterations} iterations, q={contraction_q:.4g}, "
            "residual={residual_sup:.3g}".format(**stats),
            file=sys.stderr,
        )
        _emit(_grid_csv(res.grid), spec.out_path)
    return 0


def run(spec: RunSpec) -> int:
    """Dispatch a validated RunSpec; returns the process exit code."""
    if spec.command == "ml":
        return _run_ml(spec)
    if spec.command in ("integ", "deriv"):
        return _run_grid_command(spec)
    if spec.command == "verify":
        return _run_verify(spec)
    return _run_solve(spec)


def run_cli(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        return run(spec)
    except SyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MlfracError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
