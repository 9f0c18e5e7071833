"""The benchmark's tracer (bench/tracing.py) must keep seeing every layer.

The tracer counts calls by replacing names where callers look them up:
``ml_value`` and ``adaptive_gl`` in the modules that bind them, and ``fn`` /
``deriv`` of what ``cli.to_real_function`` returns.  A change that binds one
of those names somewhere else, or integrates a panel without calling the
integrand per node, would make the per-layer counts read low while every
value stays right.  The exact counts below pin that contract.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from mlfrac import cli, quadrature

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


Tracer = _tracer_class()


def test_one_panel_costs_the_gl15_gl13_pair():
    tracer = Tracer()
    try:
        value = quadrature.adaptive_gl(lambda x: x**3 - 2.0 * x, 0.0, 1.0)
    finally:
        tracer.close()
    assert abs(value + 0.75) <= 1e-14
    assert (tracer.counts.quad_calls, tracer.counts.quad_evals) == (1, 28)


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
    # E_{a,a} kernel in one 28-evaluation panel each, then read one kernel
    # value E_a and evaluate f at t and at the anchor
    assert (c.cli_commands, c.quad_calls, tracer.operator_calls["abc_derivative"]) == (1, 2, 3)
    assert c.quad_evals == 56
    assert (c.special_calls, c.expr_evals) == (c.quad_evals + 2, c.quad_evals + 4)
    assert c.cli_bytes_out == len(out.getvalue())
    for owner, name, original in patched:
        assert getattr(owner, name) is original, f"{owner.__name__}.{name} not restored"
