"""Per-layer tracing of mlfrac from outside the package.

The tracer replaces public names of mlfrac's modules with wrappers, at the
places where callers look them up, and restores every original object when
it is closed.  Each wrapped call records a span (op id, parent span, layer,
start, end) in memory; a layer's self time is the sum of its spans' durations
minus the durations of their direct child spans.

What is wrapped, so that each call is counted once:

* special: ``ml_value`` in ``special`` (which ``ml_one`` calls), and the
  direct ``ml_value`` bindings in ``operators``, ``identities`` and
  ``variational``.
* quadrature: ``adaptive_gl`` in ``quadrature``, ``operators`` and
  ``identities``; the integrand handed to it is counted per evaluation.
* operators: the operator names imported into ``cli``, ``identities`` and
  ``variational``, and those the benchmark calls from the package namespace.
* expr: ``fn`` and ``deriv`` of the function ``cli.to_real_function`` returns.
* identities: the ``verify_*`` checks the benchmark calls.
* variational: the solver entry points the benchmark calls, and ``fn`` and
  ``deriv`` of the function ``fractional_velocity`` returns.
* cli: ``run_cli``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass, replace

import numpy as np

LAYERS = ("cli", "identities", "variational", "operators", "quadrature", "special", "expr")
OPERATOR_FUNCTIONS = (
    "ab_integral",
    "abc_derivative",
    "abr_derivative",
    "abr_derivative_kernel_diff",
    "gen_ml_integral",
    "rl_derivative",
    "rl_integral",
)
_SPAN_FIELDS = 5  # op id, parent span (-1 at the root), layer, start, end
_LARGE_Z = 10.0


@dataclass
class Counts:
    special_calls: int = 0
    special_large_z: int = 0
    special_raised: int = 0
    quad_calls: int = 0
    quad_evals: int = 0
    quad_raised: int = 0
    quad_wasted_evals: int = 0
    expr_evals: int = 0
    identities_reports: int = 0
    identities_passed: int = 0
    fv_evals: int = 0
    picard_iterations: int = 0
    cli_commands: int = 0
    cli_bytes_out: int = 0


class Tracer:
    """Installs the wrappers on construction; ``close`` restores the originals."""

    def __init__(self) -> None:
        self.spans = array("d")
        self.op_id = 0
        self.counts = Counts()
        self.operator_calls = dict.fromkeys(OPERATOR_FUNCTIONS, 0)
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._install()

    # -- span bookkeeping -------------------------------------------------

    def _begin(self, layer: int) -> int:
        idx = len(self.spans) // _SPAN_FIELDS
        parent = self._open[-1] if self._open else -1
        self.spans.extend((self.op_id, parent, layer, time.perf_counter(), 0.0))
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx * _SPAN_FIELDS + 4] = time.perf_counter()
        self._open.pop()

    def _spanned(self, layer: str, fn, on_result=None, on_raise=None):
        """Wrap fn so that every call records one span of ``layer``."""
        lid = LAYERS.index(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._begin(lid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if on_raise is not None:
                    on_raise(args, kwargs)
                raise
            finally:
                self._end(idx)
            return out if on_result is None else on_result(out, args, kwargs)

        return wrapper

    def _patch(self, owner: object, name: str, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def close(self) -> None:
        """Put every original object back, last patch first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- wrappers per layer -----------------------------------------------

    def _install(self) -> None:
        import mlfrac
        from mlfrac import cli, identities, operators, quadrature, special, variational

        c = self.counts

        ml_value = special.ml_value

        def count_ml(args, kwargs):
            c.special_calls += 1
            z = kwargs["z"] if "z" in kwargs else args[3]
            if abs(z) > _LARGE_Z:
                c.special_large_z += 1

        def ml_result(out, args, kwargs):
            count_ml(args, kwargs)
            return out

        def ml_raised(args, kwargs):
            count_ml(args, kwargs)
            c.special_raised += 1

        traced_ml = self._spanned("special", ml_value, ml_result, ml_raised)
        for owner in (special, operators, identities, variational):
            self._patch(owner, "ml_value", traced_ml)

        traced_gl = self._traced_adaptive_gl(quadrature.adaptive_gl)
        for owner in (quadrature, operators, identities):
            self._patch(owner, "adaptive_gl", traced_gl)

        def operator(name: str):
            def counted(out, args, kwargs):
                self.operator_calls[name] += 1
                return out

            def counted_raise(args, kwargs):
                self.operator_calls[name] += 1

            return self._spanned("operators", getattr(operators, name), counted, counted_raise)

        for owner, names in (
            (cli, ("ab_integral", "abc_derivative", "abr_derivative", "rl_derivative", "rl_integral")),
            (identities, ("ab_integral", "abc_derivative", "abr_derivative",
                          "abr_derivative_kernel_diff", "gen_ml_integral")),
            (variational, ("abr_derivative", "gen_ml_integral")),
            (mlfrac, ("ab_integral", "abc_derivative", "abr_derivative")),
        ):
            for name in names:
                self._patch(owner, name, operator(name))

        self._patch(cli, "to_real_function", self._traced_to_real_function(cli.to_real_function))

        def report(out, args, kwargs):
            c.identities_reports += 1
            c.identities_passed += bool(out.passed)
            return out

        for name in (
            "verify_ibp_integrals",
            "verify_ibp_derivatives",
            "verify_caputo_ibp",
            "verify_caputo_rl_relation",
            "verify_inverse_and_fundamental",
            "verify_convolution",
            "verify_diff_formula",
        ):
            self._patch(mlfrac, name, self._spanned("identities", getattr(mlfrac, name), report))

        def picard(out, args, kwargs):
            c.picard_iterations += out.iterations
            return out

        self._patch(
            mlfrac,
            "solve_quadratic_potential",
            self._spanned("variational", mlfrac.solve_quadratic_potential, picard),
        )
        self._patch(
            mlfrac,
            "fractional_velocity",
            self._spanned(
                "variational",
                mlfrac.fractional_velocity,
                lambda out, a, k: self._counted_function(out, "variational", "fv_evals"),
            ),
        )
        self._patch(mlfrac, "el_residual", self._spanned("variational", mlfrac.el_residual))

        def run_cli(out, args, kwargs):
            c.cli_commands += 1
            return out

        traced_cli = self._spanned("cli", cli.run_cli, run_cli)

        @functools.wraps(cli.run_cli)
        def cli_with_bytes(*args, **kwargs):
            start = sys.stdout.tell()
            try:
                return traced_cli(*args, **kwargs)
            finally:
                c.cli_bytes_out += sys.stdout.tell() - start

        self._patch(cli, "run_cli", cli_with_bytes)

    def _traced_adaptive_gl(self, adaptive_gl):
        c = self.counts
        lid = LAYERS.index("quadrature")

        @functools.wraps(adaptive_gl)
        def wrapper(f, lo, hi, cfg=None):
            evals = 0

            def counted(x):
                nonlocal evals
                evals += 1
                return f(x)

            idx = self._begin(lid)
            c.quad_calls += 1
            try:
                return adaptive_gl(counted, lo, hi, cfg)
            except BaseException:
                c.quad_raised += 1
                c.quad_wasted_evals += evals
                raise
            finally:
                self._end(idx)
                c.quad_evals += evals

        return wrapper

    def _counted_function(self, rf, layer: str, counter: str):
        """The RealFunction ``rf`` with fn and deriv traced as ``layer`` spans."""
        c = self.counts

        def bump(out, args, kwargs):
            setattr(c, counter, getattr(c, counter) + 1)
            return out

        deriv = None if rf.deriv is None else self._spanned(layer, rf.deriv, bump)
        return replace(rf, fn=self._spanned(layer, rf.fn, bump), deriv=deriv)

    def _traced_to_real_function(self, to_real_function):
        @functools.wraps(to_real_function)
        def wrapper(*args, **kwargs):
            return self._counted_function(to_real_function(*args, **kwargs), "expr", "expr_evals")

        return wrapper

    # -- results ------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span durations minus their direct children's."""
        s = np.frombuffer(self.spans, dtype=float).reshape(-1, _SPAN_FIELDS)
        out = dict.fromkeys(LAYERS, 0.0)
        if not len(s):
            return out
        dur = s[:, 4] - s[:, 3]
        parent = s[:, 1].astype(np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(s))
        self_time = dur - child_time
        layer = s[:, 2].astype(np.int64)
        for i, name in enumerate(LAYERS):
            out[name] = float(np.sum(self_time[layer == i]))
        return out

    def layer_seconds(self, name: str) -> float:
        """Total span duration of one layer (equal to self time for a leaf)."""
        s = np.frombuffer(self.spans, dtype=float).reshape(-1, _SPAN_FIELDS)
        mask = s[:, 2] == LAYERS.index(name)
        return float(np.sum(s[mask, 4] - s[mask, 3]))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        c = self.counts
        self_s = self.self_seconds()
        special_s = self.layer_seconds("special")

        def share(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        m = {
            "special.calls": (c.special_calls, "count"),
            "special.us_per_call": (1e6 * special_s / c.special_calls if c.special_calls else 0.0, "us"),
            "special.self_s": (self_s["special"], "s"),
            "special.large_z_share": (share(c.special_large_z, c.special_calls), "share"),
            "special.raised": (c.special_raised, "count"),
            "quadrature.calls": (c.quad_calls, "count"),
            "quadrature.evals": (c.quad_evals, "count"),
            "quadrature.evals_per_call": (share(c.quad_evals, c.quad_calls), "count"),
            "quadrature.self_s": (self_s["quadrature"], "s"),
            "quadrature.raised": (c.quad_raised, "count"),
            "quadrature.wasted_evals_share": (share(c.quad_wasted_evals, c.quad_evals), "share"),
            "expr.evals": (c.expr_evals, "count"),
            "expr.self_s": (self_s["expr"], "s"),
            "operators.calls": (sum(self.operator_calls.values()), "count"),
        }
        for name, n in self.operator_calls.items():
            m[f"operators.{name}.calls"] = (n, "count")
        m.update({
            "operators.self_s": (self_s["operators"], "s"),
            "identities.reports": (c.identities_reports, "count"),
            "identities.passed_share": (share(c.identities_passed, c.identities_reports), "share"),
            "identities.self_s": (self_s["identities"], "s"),
            "variational.fv_evals": (c.fv_evals, "count"),
            "variational.picard_iterations": (c.picard_iterations, "count"),
            "variational.self_s": (self_s["variational"], "s"),
            "cli.commands": (c.cli_commands, "count"),
            "cli.bytes_out": (c.cli_bytes_out, "bytes"),
            "cli.self_s": (self_s["cli"], "s"),
        })
        return m
