"""The benchmark's tracer (bench/tracing.py) must keep seeing every layer.

The tracer counts calls by replacing names where callers look them up:
``ml_value`` and ``adaptive_gl`` in the modules that bind them, and ``fn`` /
``deriv`` of what ``cli.to_real_function`` returns.  A change that binds one
of those names somewhere else, or integrates a panel without calling the
integrand per node, would make the per-layer counts read low while every
value stays right.  The exact counts below pin that contract.
"""

import contextlib
import dataclasses
import importlib.util
import io
import sys
from pathlib import Path

from mlfrac import cli, expr, identities, operators, quadrature
from mlfrac.operators import FracOrder, Side
from mlfrac.variational import SolverConfig, solve_quadratic_potential

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


Tracer = _tracer_class()


def test_one_panel_costs_the_g7_k15_samples():
    tracer = Tracer()
    try:
        value = quadrature.adaptive_gl(lambda x: x**3 - 2.0 * x, 0.0, 1.0)
    finally:
        tracer.close()
    assert abs(value + 0.75) <= 1e-14
    assert (tracer.counts.quad_calls, tracer.counts.quad_evals) == (1, 15)


def test_abc_left_grid_counts_one_ml_call_and_one_expr_eval_per_node():
    tracer = Tracer()
    patched = list(tracer._patched)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run_cli(
                ["deriv", "--op", "abc-left", "--alpha", "0.5", "--fn", "x^2+sin(x)", "--grid", "3"]
            )
    finally:
        tracer.close()
    assert code == 0 and out.getvalue().startswith("t,value\n")
    c = tracer.counts
    # the node t = a needs no integral; the other two integrate f times the
    # E_{a,a} kernel in one 15-evaluation panel each, then read one kernel
    # value E_a and evaluate f at t and at the anchor
    assert (c.cli_commands, c.quad_calls, tracer.operator_calls["abc_derivative"]) == (1, 2, 3)
    assert c.quad_evals == 30
    assert (c.special_calls, c.expr_evals) == (c.quad_evals + 2, c.quad_evals + 4)
    assert c.cli_bytes_out == len(out.getvalue())
    for owner, name, original in patched:
        assert getattr(owner, name) is original, f"{owner.__name__}.{name} not restored"


def test_a_repeated_text_is_counted_again():
    # the second command reads its operand from the expression memo, which
    # sits behind cli.to_real_function, so the tracer still wraps it
    argv = ["deriv", "--op", "abc-left", "--alpha", "0.5", "--fn", "x^2+sin(x)", "--grid", "3"]
    tracer = Tracer()
    counts = []
    try:
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run_cli(argv) == 0
            c = tracer.counts
            counts.append((c.quad_calls, c.quad_evals, c.special_calls, c.expr_evals))
    finally:
        tracer.close()
    first, both = counts
    assert expr._built.cache_info()[:2] == (1, 1)  # the second command was a hit
    assert first == (2, 30, 32, 34)
    assert both == tuple(2 * n for n in first)


def test_caputo_rl_check_counts_every_graded_half():
    tracer = Tracer()
    try:
        report = identities.verify_caputo_rl_relation(identities.poly([0.0, 0.0, 1.0]), FracOrder(0.5))
    finally:
        tracer.close()
    assert report.passed
    c = tracer.counts
    # five interior nodes: one Prabhakar integral per Caputo-type value, and
    # per kernel-difference value two steps times two graded halves, all
    # through quadrature.adaptive_gl; one ML call per evaluation plus the two
    # anchor kernel values per node
    assert tracer.operator_calls["abc_derivative"] == tracer.operator_calls["abr_derivative_kernel_diff"] == 5
    assert (c.quad_calls, c.quad_evals) == (25, 645)
    assert c.special_calls == c.quad_evals + 10


def test_right_inverse_check_grades_the_operator_images_at_their_anchor():
    tracer = Tracer()
    try:
        report = identities.verify_inverse_and_fundamental(
            identities.poly([0.0, 0.0, 1.0]), FracOrder(0.5), Side.Right)
    finally:
        tracer.close()
    assert report.passed
    # the images declare their dist^alpha cusp at the anchor, so the outer
    # ML-kernel integrals grade it; bisecting toward it took 2,132 calls and
    # 33,720 evaluations
    assert (tracer.counts.quad_calls, tracer.counts.quad_evals) == (520, 7800)


def _picard_interpolant():
    half = FracOrder(0.5)
    grid = solve_quadratic_potential(half, 0.1, 1.0, 1.0, SolverConfig(grid_n=16)).grid
    return half, grid.to_real_function()


def _traced_right_ab_integral(f, ord_):
    tracer = Tracer()
    try:
        operators.ab_integral(Side.Right, f, ord_, 0.0)
    finally:
        tracer.close()
    return tracer.counts.quad_calls, tracer.counts.quad_evals


def test_picard_interpolant_keeps_the_panel_decisions():
    # the grid interpolant's values equal np.interp's to the bit; this is the
    # count np.interp's values give over the whole range in one adaptive
    # call, so an interpolant that rounds otherwise shows here as moved panel
    # decisions.  Without its breakpoints the interpolant takes that path.
    half, interp = _picard_interpolant()
    assert _traced_right_ab_integral(dataclasses.replace(interp, breaks=()), half) == (1, 2445)


def test_picard_interpolant_is_integrated_cell_by_cell():
    # with its 15 interior nodes as breakpoints, each of the 16 linear cells
    # is one adaptive call that one G7/K15 panel integrates exactly
    half, interp = _picard_interpolant()
    assert len(interp.breaks) == 15
    assert _traced_right_ab_integral(interp, half) == (16, 240)
