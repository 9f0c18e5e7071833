import gc
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from mlfrac import expr
from mlfrac.cli import CHECKS, _grid_csv, _grid_json, run_cli
from mlfrac.errors import SingularityError
from mlfrac.operators import (
    FracOrder,
    GridFunction,
    Side,
    ab_integral,
    abc_derivative,
    abr_derivative,
    rl_derivative,
    rl_integral,
)

SQPI = math.sqrt(math.pi)
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

Run = namedtuple("Run", "returncode stdout stderr")


def mlfrac(*argv):
    """The command line run in process, with argparse's SystemExit read as
    the return code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run_cli(list(argv))
        except SystemExit as exc:
            code = exc.code or 0
    return Run(code, out.getvalue(), err.getvalue())


def _python_m_mlfrac(*argv):
    """python -m mlfrac.cli in a child interpreter, importing mlfrac from this
    checkout, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "mlfrac.cli", *argv], capture_output=True, text=True, env=env)


def test_module_entry_point():
    # python -m mlfrac.cli, with its exit codes
    runs = [
        _python_m_mlfrac(*argv)
        for argv in (["ml", "--rho", "1", "--mu", "1", "--z", "1"],
                     ["ml", "--rho", "0.5", "--mu", "1", "--z", "-12"],
                     ["ml", "--rho", "1"])
    ]
    assert [p.returncode for p in runs] == [0, 3, 2]
    assert abs(float(runs[0].stdout) - math.e) <= 1e-14
    assert "max_term_magnitude" in runs[1].stderr and "Traceback" not in runs[1].stderr


def test_command_line_accepts_196_nested_calls():
    # run as a command, where the call stack is the command's own; in
    # process the test runner's frames would count against the nesting
    p = _python_m_mlfrac("integ", "--op", "ab-left", "--alpha", "0.5", "--grid", "3",
                         "--fn", "sin(" * 196 + "x" + ")" * 196)
    assert p.returncode == 0, p.stderr
    assert p.stdout.startswith("t,value\n")


class TestMlCommand:
    def test_plain_value(self):
        p = mlfrac("ml", "--rho", "1", "--mu", "1", "--gamma", "1", "--z", "1")
        assert p.returncode == 0
        assert abs(float(p.stdout.strip()) - math.e) <= 1e-14

    def test_json_payload(self):
        p = mlfrac("ml", "--rho", "0.5", "--mu", "1", "--gamma", "-1", "--z", "1", "--format", "json")
        payload = json.loads(p.stdout)
        assert abs(payload["value"] - (1.0 - 2.0 / SQPI)) <= 1e-14
        assert payload["terms_used"] == 2

    def test_numeric_error_exit_code(self):
        p = mlfrac("ml", "--rho", "0.5", "--mu", "1", "--z", "101")
        assert p.returncode == 3
        assert "error" in p.stderr

    def test_cancelled_value_exits_numeric_error(self):
        # the series sums to -5e7 (true value 4.3e-4), -9.7e48 (true 0.0469)
        # and 2.3e-3 off: flagged, so exit 3
        for rho, z in (("0.98", "-49"), ("0.5", "-12"), ("0.9", "-16.8")):
            p = mlfrac("ml", "--rho", rho, "--mu", "1", "--z", z, "--format", "json")
            assert p.returncode == 3
            payload = json.loads(p.stdout)
            assert payload["precision_flag"] is True
            assert "max_term_magnitude" in p.stderr
            assert f"{payload['max_term_magnitude']:.6g}" in p.stderr
            plain = mlfrac("ml", "--rho", rho, "--mu", "1", "--z", z)
            assert plain.returncode == 3
            assert float(plain.stdout) == payload["value"]

    @pytest.mark.parametrize("rho, mu", [("1e303", "1"), ("0.5", "1e306")])
    def test_rho_or_mu_past_the_log_gamma_range_is_numeric_error(self, rho, mu):
        p = mlfrac("ml", "--rho", rho, "--mu", mu, "--z", "0.5")
        assert p.returncode == 3
        want = f"MLParams requires rho * 2000 + mu < 1e305, got rho={float(rho)!r}, mu={float(mu)!r}"
        assert p.stderr == f"error: {want}\n"
        assert p.stdout == ""

    def test_subnormal_mu_is_numeric_error(self):
        p = mlfrac("ml", "--rho", "1", "--mu", "1e-310", "--z", "0.5")
        assert p.returncode == 3
        want = f"Mittag-Leffler series requires mu >= {sys.float_info.min!r}, the smallest normal float, got 1e-310"
        assert p.stderr == f"error: {want}\n"
        assert p.stdout == ""

    @pytest.mark.parametrize("gamma", ["inf", "-inf", "nan"])
    def test_non_finite_gamma_is_numeric_error(self, gamma):
        p = mlfrac("ml", "--rho", "0.5", "--mu", "1", f"--gamma={gamma}", "--z", "0.5")
        assert p.returncode == 3
        assert p.stderr == f"error: MLParams requires finite gamma_p, got {float(gamma)!r}\n"
        assert p.stdout == ""


class TestGridCommands:
    def test_ab_left_csv_matches_closed_form(self):
        p = mlfrac(
            "integ", "--op", "ab-left", "--alpha", "0.5", "--B", "1",
            "--interval", "0:1", "--fn", "x", "--grid", "11", "--format", "csv",
        )
        assert p.returncode == 0
        lines = p.stdout.strip().split("\n")
        assert lines[0] == "t,value"
        assert len(lines) == 12
        for line in lines[1:]:
            t_s, v_s = line.split(",")
            t, v = float(t_s), float(v_s)
            want = t / 2.0 + 2.0 * t**1.5 / (3.0 * SQPI)
            assert abs(v - want) <= 1e-8

    def test_csv_and_json_keep_all_17_digits(self):
        grid = GridFunction(a=0.0, b=0.3, n=3, values=np.array([0.1 + 0.2, 1 / 3, math.pi, math.inf]),
                            singular=(3,))
        assert _grid_csv(grid) == (
            "t,value\n0,0.30000000000000004\n0.099999999999999992,0.33333333333333331\n"
            "0.19999999999999998,3.1415926535897931\n0.29999999999999999,sing(inf)\n"
        )
        payload = json.loads(_grid_json(grid))
        assert payload["t"] == grid.ts.tolist()
        assert payload["values"] == [0.1 + 0.2, 1 / 3, math.pi, None]

    def test_csv_format_contract(self):
        p = mlfrac(
            "integ", "--op", "rl-left", "--alpha", "0.5",
            "--interval", "0:1", "--fn", "x^2", "--grid", "4",
        )
        assert "\r" not in p.stdout
        value = p.stdout.strip().split("\n")[-1].split(",")[1]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 15

    def test_deriv_singular_node_escape(self):
        # RL derivative of a constant is unbounded at the anchor
        p = mlfrac(
            "deriv", "--op", "rl-left", "--alpha", "0.5",
            "--interval", "0:1", "--fn", "1+0*x", "--grid", "4",
        )
        assert p.returncode == 0
        first = p.stdout.strip().split("\n")[1]
        assert first == "0,sing(inf)"

    def test_abc_deriv_grid(self):
        p = mlfrac(
            "deriv", "--op", "abc-left", "--alpha", "0.5",
            "--interval", "0:1", "--fn", "x^2", "--grid", "5", "--format", "json",
        )
        payload = json.loads(p.stdout)
        assert len(payload["values"]) == 5
        assert payload["singular"] == []

    def test_bad_expression_is_usage_error(self):
        p = mlfrac("integ", "--op", "ab-left", "--alpha", "0.5", "--fn", "x +")
        assert p.returncode == 2

    def test_bad_flag_usage_error(self):
        p = mlfrac("integ", "--op", "sideways", "--alpha", "0.5", "--fn", "x")
        assert p.returncode == 2

    def test_too_deep_nesting_is_usage_error(self):
        # long flat chains parse without recursing; the passes over the tree do not.
        # --fn=... because argparse reads a bare leading '-' as a flag
        for deep in ("sin(" * 220 + "x" + ")" * 220, "*".join(["x"] * 3001), "+".join(["x"] * 3001),
                     "-" * 5000 + "x", "1^" * 5000 + "x"):
            p = mlfrac("integ", "--op", "ab-left", "--alpha", "0.5", f"--fn={deep}", "--grid", "3")
            assert p.returncode == 2
            assert "nested too deeply" in p.stderr and "Traceback" not in p.stderr

    def test_abc_of_a_non_integrable_slope(self):
        # f' of sqrt|x - 1/2| is not integrable; the derivative is computed from f
        p = mlfrac("deriv", "--op", "abc-left", "--alpha", "0.5", "--fn", "sqrt(abs(x-0.5))", "--grid", "5")
        assert p.returncode == 0
        values = dict(line.split(",") for line in p.stdout.strip().split("\n")[1:])
        # 30-digit mpmath quadrature of f' E_a(lam (t-x)^a)
        assert abs(float(values["0.75"]) + 0.104732282657194) <= 1e-9
        assert abs(float(values["1"]) - 0.156836204048864) <= 1e-9
        p = mlfrac("deriv", "--op", "abc-left", "--alpha", "0.5", "--fn", "abs(x-0.5)^0.1", "--grid", "5")
        assert p.returncode == 0

    def test_non_finite_interval_is_usage_error(self):
        # the last one's width overflows: np.linspace would warn and make every node nan
        for interval in ("0:inf", "-inf:1", "nan:1", "-1e308:1e308"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                p = mlfrac("integ", "--op", "ab-left", "--alpha", "0.5", "--fn", "x", f"--interval={interval}")
            assert p.returncode == 2
            assert "interval needs finite a < b" in p.stderr and "Warning" not in p.stderr

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("command, kind, op", [
        ("integ", "ab", ab_integral), ("integ", "rl", rl_integral), ("deriv", "abc", abc_derivative),
        ("deriv", "abr", abr_derivative), ("deriv", "rl", rl_derivative),
    ], ids=["integ-ab", "integ-rl", "deriv-abc", "deriv-abr", "deriv-rl"])
    def test_every_grid_op_reaches_its_own_operator(self, command, kind, op, side):
        p = mlfrac(command, "--op", f"{kind}-{side}", "--alpha", "0.5", "--fn", "x^2+sin(x)", "--grid", "5")
        assert p.returncode == 0, p.stderr
        f = expr.to_real_function(expr.parse_expr("x^2+sin(x)"), 0.0, 1.0)
        rows = [line.split(",") for line in p.stdout.strip().split("\n")[1:]]
        assert [float(t) for t, _ in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        for t, printed in rows:
            try:
                value = op(Side[side.title()], f, FracOrder(0.5), float(t))
            except SingularityError:  # rl-right: f(1) != 0 at its anchor
                assert printed == "sing(inf)", t
                continue
            assert repr(float(printed)) == repr(value), t

    def test_negative_interval_after_a_space(self):
        # argparse alone would read "-1:1" as an unknown option
        for interval, (a, b) in (("-1:1", (-1.0, 1.0)), ("-2.5:-0.5", (-2.5, -0.5))):
            p = mlfrac("integ", "--op", "rl-left", "--alpha", "0.5", "--interval", interval,
                       "--fn", "1", "--grid", "3")
            assert p.returncode == 0, p.stderr
            rows = [[float(v) for v in line.split(",")] for line in p.stdout.strip().split("\n")[1:]]
            assert [t for t, _ in rows] == [a, (a + b) / 2, b]
            assert abs(rows[-1][1] - (b - a) ** 0.5 / math.gamma(1.5)) <= 1e-12

    @pytest.mark.parametrize("argv, flag, value", [
        (("ml", "--rho", "0.5", "--mu", "1"), "--z", "-1e-5"),
        (("solve-el", "--problem", "quadratic", "--alpha", "0.5", "--y0", "1"), "--c", "-1e-2"),
        (("verify", "--id", "convolution"), "--lam", "-2E-1"),
        (("deriv", "--op", "abc-left", "--alpha", "0.5", "--grid", "3"), "--fn", "-x"),
    ], ids=["ml-z", "solve-el-c", "verify-lam", "deriv-fn"])
    def test_negative_value_after_a_space_reads_as_after_an_equals_sign(self, argv, flag, value):
        # argparse alone reads only a plain negative number as a value
        spaced = mlfrac(*argv, flag, value)
        assert spaced.returncode == 0, spaced.stderr
        assert spaced == mlfrac(*argv, f"{flag}={value}")

    def test_flag_without_a_value_is_usage_error(self):
        p = mlfrac("ml", "--rho", "0.5", "--mu", "1", "--z")
        assert p.returncode == 2 and "expected one argument" in p.stderr

    def test_infinite_normalization_is_numeric_error(self):
        p = mlfrac("integ", "--op", "ab-left", "--alpha", "0.5", "--B", "inf", "--fn", "x", "--grid", "3")
        assert p.returncode == 3 and p.stdout == ""
        assert "positive and finite" in p.stderr

    def test_order_too_close_to_zero_is_numeric_error(self):
        # unresolvable by the graded quadrature: unchecked, rl-left at 1e-4 would
        # print 0.49999419934573014 at t = 0.5 against the true 0.4999442049252375
        for cmd, op, alpha in (("integ", "rl-left", "1e-4"), ("integ", "rl-right", "1e-4"),
                               ("integ", "ab-left", "1e-320"), ("deriv", "rl-left", "0.9999")):
            p = mlfrac(cmd, "--op", op, "--alpha", alpha, "--fn", "x", "--grid", "3")
            assert p.returncode == 3 and p.stdout == "", (cmd, op)
            assert "grading power" in p.stderr and "Traceback" not in p.stderr

    def test_non_finite_literal_is_usage_error(self):
        p = mlfrac("integ", "--op", "ab-left", "--alpha", "0.5", "--fn", "1e999*x", "--grid", "3")
        assert p.returncode == 2
        assert "bad number literal '1e999'" in p.stderr


class TestVerifyCommand:
    def test_ibp_integrals_golden(self):
        p = mlfrac("verify", "--id", "ibp-integrals", "--alpha", "0.5")
        assert p.returncode == 0
        payload = json.loads(p.stdout)
        assert payload["pass"] is True
        golden = 1.0 / 12.0 + 8.0 / (105.0 * SQPI)
        assert abs(payload["lhs"][0] - golden) <= 1e-6
        assert abs(payload["rhs"][0] - golden) <= 1e-6
        assert set(payload) == {
            "identity", "alpha", "B", "interval", "lhs", "rhs", "abs_err", "tol", "pass",
        }

    def test_exit_one_on_failure(self):
        p = mlfrac("verify", "--id", "caputo-rl", "--alpha", "0.5", "--tol", "1e-30")
        assert p.returncode == 1
        assert json.loads(p.stdout)["pass"] is False

    def test_report_failed_on_an_exception_names_it(self):
        p = mlfrac("verify", "--id", "caputo-rl", "--fn", "1/(x-0.5)")
        assert p.returncode == 1
        payload = json.loads(p.stdout)
        assert payload["pass"] is False
        # no placeholder value: both sides are null and the error says why
        assert payload["lhs"] is None and payload["rhs"] is None
        assert payload["error"].startswith("DomainError: division by zero")

    @pytest.mark.parametrize("argv, error", [
        (("caputo-ibp", "--alpha", "1"), "DegenerateOrder: ML-kernel operators require alpha < 0.99"),
        (("ibp-integrals", "--fn", "exp(800*x)"), "DomainError: exp of"),
        (("diff-formula", "--mu", "10000", "--z", "2"), "OverflowError"),
        (("convolution", "--nu", "2000", "--x", "2"), "OverflowError"),
    ], ids=["alpha-one", "expression-overflow", "diff-formula-overflow", "convolution-overflow"])
    def test_report_failed_on_a_degenerate_order_or_overflow(self, argv, error):
        p = mlfrac("verify", "--id", *argv)
        assert p.returncode == 1, p.stderr
        payload = json.loads(p.stdout)
        assert payload["pass"] is False
        # no placeholder value: both sides are null and the error says why
        assert payload["lhs"] is None and payload["rhs"] is None
        assert payload["error"].startswith(error)

    def test_failed_check_never_passes_any_tolerance(self):
        failing = ("verify", "--id", "caputo-rl", "--fn", "1/(x-0.5)")
        for tol in ("inf", "nan", "0", "-1"):
            p = mlfrac(*failing, "--tol", tol)
            assert p.returncode == 2
            assert "tolerance must be finite and positive" in p.stderr
            assert p.stdout == ""

    def test_tol_flag_overrides(self):
        p = mlfrac("verify", "--id", "diff-formula", "--tol", "1e-3")
        assert p.returncode == 0
        assert json.loads(p.stdout)["tol"] == 1e-3

    def test_tol_reaches_every_report(self):
        p = mlfrac("verify", "--tol", "1e-30")
        assert re.findall(r" tol=(\S+)$", p.stderr, re.MULTILINE) == ["1e-30"] * 28

    @pytest.mark.parametrize("z", ["0", "-0.5"])
    def test_diff_formula_z_within_the_step_is_numeric_error(self, z):
        p = mlfrac("verify", "--id", "diff-formula", "--z", z)
        assert p.returncode == 3
        assert p.stderr.startswith("error: diff-formula check needs z > ")
        assert "Traceback" not in p.stderr and p.stdout == ""

    @pytest.mark.parametrize("z", ["1e-5", "1e-7"])
    def test_diff_formula_small_z_passes(self, z):
        p = mlfrac("verify", "--id", "diff-formula", "--z", z)
        assert p.returncode == 0, p.stderr
        assert json.loads(p.stdout)["abs_err"] <= 1e-9

    @pytest.mark.parametrize("check_id", ["convolution", "diff-formula"])
    def test_alpha_above_one_reaches_the_ml_checks(self, check_id):
        # these two checks read --alpha as the ML rho, not as a FracOrder
        p = mlfrac("verify", "--id", check_id, "--alpha", "1.5")
        assert p.returncode == 0, p.stderr
        payload = json.loads(p.stdout)
        assert payload["pass"] is True and payload["alpha"] == 1.5

    @pytest.mark.parametrize("x", ["0", "-1", "nan", "inf"])
    def test_convolution_x_outside_the_positive_reals_is_numeric_error(self, x):
        p = mlfrac("verify", "--id", "convolution", "--x", x)
        assert p.returncode == 3
        assert p.stderr.startswith("error: convolution check needs a finite x > 0")
        assert "Traceback" not in p.stderr and p.stdout == ""

    @pytest.mark.parametrize("argv", [
        ("convolution", "--nu", "nan"), ("convolution", "--alpha", "nan"), ("convolution", "--lam", "nan"),
        ("convolution", "--sigma", "inf"), ("convolution", "--sigma", "-inf"), ("convolution", "--sigma", "nan"),
        ("diff-formula", "--mu", "nan"), ("diff-formula", "--z", "inf"), ("diff-formula", "--gamma-p", "nan"),
        ("diff-formula", "--gamma-p", "inf"), ("diff-formula", "--lam", "-inf"), ("diff-formula", "--alpha", "0"),
    ], ids=" ".join)
    def test_ml_check_argument_outside_its_domain_is_numeric_error(self, argv, capsys):
        check_id, flag, value = argv
        assert run_cli(["verify", "--id", check_id, flag, value]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {check_id} check needs ")

    def test_convolution_custom_params(self):
        p = mlfrac("verify", "--id", "convolution", "--alpha", "0.5",
                   "--sigma", "0", "--nu", "2", "--x", "0.5")
        assert p.returncode == 0

    @pytest.mark.parametrize("check_id", list(CHECKS))
    def test_every_check_passes_at_its_defaults(self, check_id):
        p = mlfrac("verify", "--id", check_id)
        assert p.returncode == 0, p.stderr
        payload = json.loads(p.stdout)
        assert payload["pass"] is True
        # only caputo-rl names its report differently from its --id
        assert payload["identity"] == {"caputo-rl": "caputo-rl-relation"}.get(check_id, check_id)

    @pytest.mark.parametrize("check_id, flag, value", [
        ("ibp-integrals", "--side", "right"),
        ("ibp-derivatives", "--sigma", "2"),
        ("caputo-ibp", "--lam", "-2"),
        ("caputo-rl", "--fn2", "x"),
        ("inverse-fundamental", "--z", "0.5"),
        ("convolution", "--B", "5"),
        ("diff-formula", "--interval", "0:3"),
        (None, "--alpha", "0.3"),
    ])
    def test_flag_the_check_does_not_read_is_usage_error(self, check_id, flag, value):
        argv = ["verify", flag, value] if check_id is None else ["verify", "--id", check_id, flag, value]
        p = mlfrac(*argv)
        assert p.returncode == 2 and p.stdout == ""
        read_by = "the default suite" if check_id is None else f"--id {check_id}"
        assert p.stderr == f"error: {flag} is not read by {read_by}\n"

    @pytest.mark.parametrize("check_id", list(CHECKS))
    def test_every_flag_the_check_reads_is_accepted(self, check_id):
        # each flag the check reads, set away from its default
        _, texts, after = CHECKS[check_id]
        values = {"sigma": "0.5", "nu": "2", "alpha": "0.4", "lam": "-0.5", "x": "0.8", "gamma_p": "2",
                  "mu": "1.5", "z": "0.5", "side": "right"}
        argv = ["--tol", "1e-4", *(["--interval", "0:0.5"] if texts else [])]
        for flag, text in zip(("--fn", "--fn2"), texts):
            argv += [flag, f"({text})/2"]
        for name in after:
            flag = f"--{name.replace('_', '-')}"
            argv += ["--alpha", "0.4", "--B", "2"] if name == "ord" else [flag, values[name]]
        p = mlfrac("verify", "--id", check_id, *argv)
        assert p.returncode == 0, p.stderr
        payload = json.loads(p.stdout)
        assert payload["pass"] is True and payload["tol"] == 1e-4 and payload["alpha"] == 0.4

    def test_checks_are_the_default_suites_identities(self):
        # the seven names that test_default_suite_all_pass pins
        names = {"caputo-rl-relation" if i == "caputo-rl" else i for i in CHECKS}
        assert len(CHECKS) == 7 and names == {
            "ibp-integrals",
            "ibp-derivatives",
            "caputo-ibp",
            "caputo-rl-relation",
            "inverse-fundamental",
            "convolution",
            "diff-formula",
        }


class TestSolveCommand:
    def test_free_particle_csv_sing_escape(self):
        p = mlfrac(
            "solve-el", "--problem", "free-particle", "--alpha", "0.5",
            "--y0", "0", "--b", "1", "--grid-n", "8",
        )
        lines = p.stdout.strip().split("\n")
        assert lines[1].split(",")[1] == "sing(0)"
        t, v = lines[-1].split(",")
        assert abs(float(v) - 1.0 / (2.0 * SQPI)) <= 1e-14

    def test_quadratic_json_stats(self):
        p = mlfrac(
            "solve-el", "--problem", "quadratic", "--alpha", "0.5",
            "--y0", "1", "--b", "1", "--c", "0.1", "--grid-n", "16", "--format", "json",
        )
        payload = json.loads(p.stdout)
        assert payload["residual_sup"] <= 1e-7
        assert payload["contraction_q"] < 1.0
        assert len(payload["values"]) == 17


    @pytest.mark.parametrize("extra", [(), ("--y0", "1", "--c", "0")], ids=["default", "c-zero"])
    def test_quadratic_csv_after_one_picard_step(self, extra):
        # one step leaves no contraction estimate, so the summary names none
        p = mlfrac("solve-el", "--problem", "quadratic", "--alpha", "0.5", *extra)
        assert p.returncode == 0, p.stderr
        assert p.stderr.startswith("converged in 1 iterations, residual=") and "q=" not in p.stderr
        assert p.stdout.startswith("t,value\n")

    @pytest.mark.parametrize("n", ["4", "0", "-3"])
    def test_grid_n_below_eight_is_usage_error(self, n, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve-el", "--problem", "free-particle", "--alpha", "0.5", "--grid-n", n])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "grid_n must be at least 8" in captured.err

    def test_non_finite_scalars_rejected(self):
        for problem, flag, value in (
            ("free-particle", "--b", "inf"),
            ("free-particle", "--amplitude", "nan"),
            ("quadratic", "--c", "nan"),
            ("quadratic", "--b", "inf"),
        ):
            p = mlfrac("solve-el", "--problem", problem, "--alpha", "0.5", flag, value, "--grid-n", "8")
            assert p.returncode == 3
            assert "finite" in p.stderr and p.stdout == ""


    def test_overflowing_set_up_exits_at_once_without_warnings(self):
        # b = 1e300 overflows the lag kernel's moments and B = 1e-300 the
        # weights, so the contraction bound; at b = 1e150 the set-up is finite
        # but the third iterate overflows.  None of them may print a numpy
        # warning or iterate on NaN to the budget.
        cases = (("--b", "1e300"), ("--b", "1", "--B", "1e-300"), ("--b", "1e150"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = [mlfrac("solve-el", "--problem", "quadratic", "--alpha", "0.5", "--y0", "1",
                           "--c", "-0.4", "--grid-n", "8", *extra) for extra in cases]
        assert [p.returncode for p in runs] == [3, 3, 3]
        assert all(p.stdout == "" and "not finite" in p.stderr for p in runs)
        assert "lag kernel" in runs[0].stderr and "contraction bound" in runs[1].stderr
        assert "iteration 3" in runs[2].stderr


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_every_readme_cli_command_exits_zero():
    readme = open(os.path.join(os.path.dirname(SRC_DIR), "README.md")).read()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("mlfrac ")]
    assert len(commands) >= 7
    for line in commands:
        p = mlfrac(*shlex.split(line)[1:])
        assert p.returncode == 0, (line, p.stderr)


def test_readme_library_quick_start_runs():
    readme = open(os.path.join(os.path.dirname(SRC_DIR), "README.md")).read()
    block = readme.split("\n## Library quick start\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    line = next(line for line in block.splitlines() if line.startswith("ab_integral("))
    value = eval(line.split("#")[0], namespace)
    assert abs(value - (0.5 + 2.0 / (3.0 * math.sqrt(math.pi)))) <= 1e-12


class TestStrictJson:
    def test_non_finite_values_are_null(self):
        runs = [
            # unbounded at the anchor: the singular node is null, not Infinity
            mlfrac("deriv", "--op", "rl-left", "--alpha", "0.5", "--fn", "1+x",
                   "--grid", "3", "--format", "json"),
            mlfrac("solve-el", "--problem", "free-particle", "--alpha", "0.5",
                   "--grid-n", "8", "--format", "json"),
            mlfrac("solve-el", "--problem", "quadratic", "--alpha", "0.5", "--y0", "1",
                   "--grid-n", "16", "--format", "json"),
            # a report that failed on an exception carries NaN/inf sides
            mlfrac("verify", "--id", "caputo-rl", "--fn", "1/(x-0.5)"),
        ]
        payloads = [json.loads(p.stdout, parse_constant=_reject_constant) for p in runs]
        assert [p.returncode for p in runs] == [0, 0, 0, 1]
        deriv, _, _, report = payloads
        assert deriv["singular"] == [0]
        assert deriv["values"][0] is None
        assert all(v is not None for v in deriv["values"][1:])
        assert report["pass"] is False
        assert report["lhs"] is None and report["abs_err"] is None


OUT_COMMANDS = {
    "ml": ["ml", "--rho", "0.5", "--mu", "1", "--z", "-1", "--format", "json"],
    "integ": ["integ", "--op", "ab-left", "--alpha", "0.5", "--fn", "x", "--grid", "4"],
    "deriv": ["deriv", "--op", "abc-right", "--alpha", "0.5", "--fn", "x^2", "--grid", "3",
              "--format", "json"],
    "verify": ["verify", "--id", "diff-formula"],
    "solve-el": ["solve-el", "--problem", "quadratic", "--alpha", "0.5", "--y0", "1",
                 "--grid-n", "16"],
}


class TestRunCli:
    def test_direct_dispatch(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert run_cli([*OUT_COMMANDS["integ"], "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("t,value\n")
        assert text.endswith("\n") and "\r" not in text

    @pytest.mark.parametrize("argv", OUT_COMMANDS.values(), ids=OUT_COMMANDS)
    def test_out_file_holds_the_stdout_bytes(self, argv, tmp_path, capsys):
        code = run_cli(argv)
        printed = capsys.readouterr()
        out = tmp_path / "out.txt"
        assert run_cli([*argv, "--out", str(out)]) == code
        written = capsys.readouterr()
        assert written.out == "" and written.err == printed.err
        assert out.read_bytes() == printed.out.encode()

    @pytest.mark.parametrize("argv", [OUT_COMMANDS["integ"], OUT_COMMANDS["verify"]],
                             ids=["integ", "verify"])
    def test_unwritable_out_is_usage_error(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        assert run_cli([*argv, "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last.startswith("error: ") and str(path) in last

    def test_run_cli_leaves_no_cyclic_garbage(self):
        argv = ["integ", "--op", "ab-left", "--alpha", "0.5", "--fn", "x", "--grid", "3"]
        with redirect_stdout(io.StringIO()):
            run_cli(argv)
            gc.collect()
            gc.disable()
            try:
                for _ in range(10):
                    run_cli(argv)
            finally:
                unreachable = gc.collect()
                gc.enable()
        # a parser built per call left about 390 objects in cycles each time
        assert unreachable < 100

    @pytest.mark.parametrize("argv", [
        ["integ", "--op", "ab-left", "--alpha", "0.5", "--fn", "x", "--grid", "4.5"],
        ["solve-el", "--problem", "quadratic", "--alpha", "0.5", "--grid-n", "4.5"],
        ["verify", "--tol", "abc"],
    ], ids=["grid", "grid-n", "tol"])
    def test_bad_number_usage_error_names_no_function(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert argv[-1] in captured.err
        assert not re.search(r"(^|[\s'\"])_\w", captured.err), captured.err

    @pytest.mark.parametrize("op", ["abc-left", "rl-left"])
    def test_function_and_derivative_compile_once_per_text(self, op, monkeypatch, capsys):
        calls = []
        compile_ = expr._compile
        monkeypatch.setattr(expr, "_compile", lambda node: calls.append(node) or compile_(node))
        argv = ["deriv", "--op", op, "--alpha", "0.5", "--fn", "x^2+sin(x)", "--grid", "5"]
        assert run_cli(argv) == 0
        assert len(calls) == 2
        assert run_cli(argv) == 0 and len(calls) == 2
        assert capsys.readouterr().out.startswith("t,value\n")

    def test_commands_on_one_text_share_its_derivative(self, monkeypatch, capsys):
        calls = []
        differentiate_ = expr.differentiate
        monkeypatch.setattr(expr, "differentiate", lambda node: calls.append(node) or differentiate_(node))
        argv = ["deriv", "--op", "rl-left", "--alpha", "0.5", "--fn", "x^2+sin(x)", "--grid", "5"]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli([*argv[:-1], "9"]) == 0 and run_cli(argv) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.endswith(first)

    def test_derivative_too_deep_is_usage_error(self, monkeypatch, capsys):
        compile_ = expr._compile

        def fn_only(node):
            if fn_only.done:
                raise RecursionError("maximum recursion depth exceeded")
            fn_only.done = True
            return compile_(node)

        fn_only.done = False
        monkeypatch.setattr(expr, "_compile", fn_only)
        argv = ["integ", "--op", "ab-left", "--alpha", "0.5", "--fn", "x^2+sin(x)", "--grid", "5"]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "nested too deeply" in captured.err

    def test_tower_too_deep_to_differentiate_is_usage_error(self, capsys):
        # its function compiles, so only the symbolic derivative overflows
        tower = "^".join(["x"] * 400)
        argv = ["integ", "--op", "ab-left", "--alpha", "0.5", "--interval", "0.5:1", "--fn", tower, "--grid", "3"]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "nested too deeply" in captured.err

    def test_run_cli_catches_numeric_errors(self, capsys):
        code = run_cli(["ml", "--rho", "0.5", "--mu", "1", "--z", "500"])
        assert code == 3
