"""Tests of the benchmark's own tracing; run with

    python3 -m pytest bench/selftest.py

The file name keeps it out of the package's default test collection: the
repeat-count test runs a slice of every workload twice.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import mlfrac  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def traced(ops) -> tuple[Tracer, run.Outcome]:
    tracer = Tracer()
    outcome = run.Outcome()
    try:
        run.run_pass(ops, outcome, tracer, repeats=1)
    finally:
        tracer.close()
    return tracer, outcome


def counts(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric that is not a time."""
    return {k: v for k, (v, unit) in tracer.metrics().items() if unit != "s" and unit != "us"}


def test_one_panel_cubic_counts_the_gl15_gl13_pair():
    tracer = Tracer()
    try:
        value = mlfrac.quadrature.adaptive_gl(lambda x: x**3 - 2.0 * x, 0.0, 1.0)
    finally:
        tracer.close()
    assert value == pytest.approx(-0.75, abs=1e-14)
    m = tracer.metrics()
    assert m["quadrature.calls"][0] == 1
    assert m["quadrature.evals"][0] == 28


def _slice(name: str):
    """A few operations of each workload, cheap enough to run twice; near-cap
    keeps one node that exhausts the panel budget."""
    ops = workloads.BUILDERS[name](7).ops
    picks = {
        "kernel-grid": ops[:4],
        "rl-grid": ops[:2],
        "identity-sweep": [op for op in ops if op.label.split()[0] in ("convolution", "diff-formula")],
        "el-solve": [ops[0], ops[-1]],
        "near-cap": [ops[0], ops[3]],
    }
    return picks[name]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_two_traced_runs_give_identical_counts(name):
    ops = _slice(name)
    first, _ = traced(ops)
    second, _ = traced(ops)
    assert counts(first) == counts(second)
    assert first.counts.special_calls + first.counts.quad_calls + first.counts.cli_commands > 0


def test_seed_counts_match_the_workload_design():
    rl, _ = traced(_slice("rl-grid"))
    assert rl.counts.special_calls == 0 and rl.counts.expr_evals > 0
    sweep, _ = traced(_slice("identity-sweep"))
    assert sweep.counts.expr_evals == 0 and sweep.counts.identities_reports > 0
    cap, outcome = traced(_slice("near-cap"))
    assert outcome.failed >= 1 and cap.counts.quad_raised >= 1


def test_every_patched_name_is_restored():
    tracer = Tracer()
    patched = list(tracer._patched)
    try:
        assert patched
        for owner, name, original in patched:
            assert getattr(owner, name) is not original
        run.run_pass(_slice("kernel-grid")[:1], run.Outcome(), tracer, repeats=1)
    finally:
        tracer.close()
    for owner, name, original in patched:
        assert getattr(owner, name) is original, f"{owner.__name__}.{name} not restored"
