"""Command-line front end: evaluate operators on parsed expressions, run the
identity verification suite, and solve the worked variational problems.

Exit codes: 0 success, 1 at least one verification report failed, 2 usage
error (a bad flag or expression, ``solve-el --grid-n`` below 8, a ``verify``
flag its check does not read, or an ``--out`` file that cannot be written), 3
numeric error from the underlying modules or an ``ml`` value flagged as
cancelled (``precision_flag``, the bound at which the operators' kernel
raises).  ``verify --tol`` sets every report's tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .errors import DomainError, MlfracError, SingularityError
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
#: verify --id: (check, default texts of its --fn/--fn2 operands, the flags
#: passed after the operands); "ord" is --alpha with --B.  verify refuses a flag
#: set away from its default that the check (or the default suite) does not read
CHECKS = {
    "ibp-integrals": (verify_ibp_integrals, ("1-x", "x"), ("ord",)),
    "ibp-derivatives": (
        verify_ibp_derivatives,
        ("(1-x)/2 + 2*(1-x)^(3/2)/(3*sqrt(pi))", "x/2 + 2*x^(3/2)/(3*sqrt(pi))"),
        ("ord",),
    ),
    "caputo-ibp": (verify_caputo_ibp, ("x", "1-x"), ("ord", "side")),
    "caputo-rl": (verify_caputo_rl_relation, ("x",), ("ord", "side")),
    "inverse-fundamental": (verify_inverse_and_fundamental, ("x",), ("ord", "side")),
    "convolution": (verify_convolution, (), ("sigma", "nu", "alpha", "lam", "x")),
    "diff-formula": (verify_diff_formula, (), ("gamma_p", "mu", "alpha", "lam", "z")),
}


def _integer(flag: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{flag} needs an integer, got {text!r}") from None


def _node_count(text: str) -> int:
    n = _integer("--grid", text)
    if n < 3:
        raise argparse.ArgumentTypeError(f"--grid needs at least 3 nodes, got {n}")
    return n


def _parse_interval(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"interval must look like a:b, got {text!r}")
    # a width past the largest float would make every grid node nan
    if not (-math.inf < lo < hi < math.inf and hi - lo < math.inf):
        raise argparse.ArgumentTypeError(f"interval needs finite a < b and b - a, got {text!r}")
    return lo, hi


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text!r}")
    return tol


def _solver_config(text: str) -> SolverConfig:
    try:
        return SolverConfig(grid_n=_integer("--grid-n", text))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc))


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
    ml.set_defaults(run=_run_ml)

    def common(p: argparse.ArgumentParser, ops: tuple[str, ...]) -> None:
        p.add_argument("--op", choices=ops, required=True)
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--B", type=float, default=1.0, dest="b_norm")
        p.add_argument("--interval", type=_parse_interval, default=(0.0, 1.0))
        p.add_argument("--fn", required=True, help="expression in x, e.g. 'x^2 + sin(x)'")
        p.add_argument("--grid", type=_node_count, default=101, help="number of output rows")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out")
        p.set_defaults(run=_run_grid_command)

    integ = sub.add_parser("integ", help="fractional integrals on a grid")
    common(integ, INTEG_OPS)
    deriv = sub.add_parser("deriv", help="fractional derivatives on a grid")
    common(deriv, DERIV_OPS)

    verify = sub.add_parser("verify", help="run identity checks; nonzero exit on failure")
    verify.add_argument("--id", choices=CHECKS, default=None)
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
    verify.add_argument("--out")
    verify.set_defaults(run=_run_verify)

    solve = sub.add_parser("solve-el", help="solve the worked variational problems")
    solve.add_argument("--problem", choices=("free-particle", "quadratic"), required=True)
    solve.add_argument("--alpha", type=float, required=True)
    solve.add_argument("--B", type=float, default=1.0, dest="b_norm")
    solve.add_argument("--y0", type=float, default=0.0)
    solve.add_argument("--b", type=float, default=1.0)
    solve.add_argument("--c", type=float, default=0.1)
    solve.add_argument("--grid-n", type=_solver_config, default="200")
    solve.add_argument("--amplitude", type=float, default=1.0)
    solve.add_argument("--format", choices=("csv", "json"), default="csv")
    solve.add_argument("--out")
    solve.set_defaults(run=_run_solve)
    return parser


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
    for i, (t, v) in enumerate(zip(grid.ts.tolist(), grid.values.tolist())):
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
        "t": grid.ts.tolist(),
        "values": grid.values.tolist(),
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


def _run_ml(args: argparse.Namespace) -> int:
    result = ml_eval(MLParams(args.rho, args.mu, args.gamma), args.z)
    if args.format == "json":
        payload = {
            "value": result.value,
            "terms_used": result.terms_used,
            "max_term_magnitude": result.max_term_magnitude,
            "precision_flag": result.precision_flag,
        }
        _emit(_json_text(payload), args.out)
    else:
        _emit(f"{result.value:.17g}\n", args.out)
    if result.precision_flag:
        print(
            f"error: series cancellation: value {result.value:.6g} against "
            f"max_term_magnitude {result.max_term_magnitude:.6g}",
            file=sys.stderr,
        )
        return 3
    return 0


def _run_grid_command(args: argparse.Namespace) -> int:
    a, b = args.interval
    f = to_real_function(parse_expr(args.fn), a, b)
    kind, side_name = args.op.split("-")
    side = Side.Left if side_name == "left" else Side.Right
    ord_ = FracOrder(args.alpha, args.b_norm)
    # looked up per call, so a name patched on this module is the one called
    rl = rl_integral if args.command == "integ" else rl_derivative
    op = {"ab": ab_integral, "rl": rl, "abc": abc_derivative, "abr": abr_derivative}[kind]
    # --grid counts emitted nodes; the grid type counts cells
    grid = _eval_grid(functools.partial(op, side, f, ord_), a, b, args.grid - 1)
    _emit(_grid_csv(grid) if args.format == "csv" else _grid_json(grid), args.out)
    return 0


def _verify_reports(args: argparse.Namespace) -> list:
    check, texts, after = CHECKS[args.id] if args.id else (None, (), ())
    read = {"id", "tol", "out", *after, *("fn", "fn2")[: len(texts)]}
    if texts:
        read.add("interval")
    if "ord" in after:
        read |= {"alpha", "b_norm"}
    defaults = vars(build_parser().parse_args(["verify"]))
    for name, value in vars(args).items():
        if name not in read and value != defaults[name]:
            flag = "--B" if name == "b_norm" else f"--{name.replace('_', '-')}"
            where = f"--id {args.id}" if args.id else "the default suite"
            raise argparse.ArgumentError(None, f"{flag} is not read by {where}")
    if args.id is None:
        return run_default_suite(args.tol)
    # built only for a check that reads them: convolution and diff-formula
    # take --alpha as a Mittag-Leffler rho, which no FracOrder bounds
    built = {"ord": lambda: FracOrder(args.alpha, args.b_norm), "side": lambda: Side[args.side.title()]}
    a, b = args.interval
    fns = [to_real_function(parse_expr(t or default), a, b) for t, default in zip((args.fn, args.fn2), texts)]
    operands = [*fns, *(built[name]() if name in built else getattr(args, name) for name in after)]
    return [check(*operands) if args.tol is None else check(*operands, tol=args.tol)]


def _run_verify(args: argparse.Namespace) -> int:
    reports = _verify_reports(args)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"[{status}] {r.identity_name} alpha={r.params.get('alpha')} "
            f"abs_err={r.abs_err:.3g} tol={r.tol:g}",
            file=sys.stderr,
        )
    dicts = [r.to_json_dict() for r in reports]
    payload = dicts[0] if len(dicts) == 1 else dicts
    _emit(_json_text(payload), args.out)
    return 0 if all(r.passed for r in reports) else 1


def _run_solve(args: argparse.Namespace) -> int:
    ord_ = FracOrder(args.alpha, args.b_norm)
    cfg = args.grid_n  # a SolverConfig, built by _solver_config
    if args.problem == "free-particle":
        grid = solve_free_particle(ord_, args.y0, args.b, cfg, args.amplitude)
        _emit(_grid_csv(grid) if args.format == "csv" else _grid_json(grid), args.out)
        return 0
    res = solve_quadratic_potential(ord_, args.c, args.y0, args.b, cfg)
    stats = {
        "iterations": res.iterations,
        "contraction_q": res.contraction_q,
        "contraction_bound": res.contraction_bound,
        "residual_sup": res.residual_sup,
    }
    if args.format == "json":
        _emit(_grid_json(res.grid, extra=stats), args.out)
    else:
        # one Picard step leaves no contraction estimate
        q = "" if res.contraction_q is None else f", q={res.contraction_q:.4g}"
        print(f"converged in {res.iterations} iterations{q}, residual={res.residual_sup:.3g}",
              file=sys.stderr)
        _emit(_grid_csv(res.grid), args.out)
    return 0


def _bind_values(argv: list[str]) -> list[str]:
    """'--flag value' as '--flag=value' for every flag but --help, each of
    which takes one value: argparse takes a separate value that starts with
    '-' ('--z -1e-5', '--fn -x', '--interval -1:1') for an option unless it
    reads as a plain number.  A flag with nothing after it stays as it is."""
    bound, args = [], iter(argv)
    for arg in args:
        takes_value = arg.startswith("--") and arg not in ("--", "--help") and "=" not in arg
        value = next(args, None) if takes_value else None
        bound.append(arg if value is None else f"{arg}={value}")
    return bound


def run_cli(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_bind_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.run(args)
    except (SyntaxError, OSError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MlfracError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
