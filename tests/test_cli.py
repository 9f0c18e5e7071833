import gc
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout

from mlfrac.cli import RunSpec, run, run_cli

SQPI = math.sqrt(math.pi)
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def mlfrac(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("MLFRAC_TOL", None)
    # the child interpreter imports mlfrac from this checkout, installed or not
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "mlfrac.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


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
        # the series sums to -5e7 here (true value 4.3e-4): flagged, so exit 3
        p = mlfrac("ml", "--rho", "0.98", "--mu", "1", "--z", "-49", "--format", "json")
        assert p.returncode == 3
        payload = json.loads(p.stdout)
        assert payload["precision_flag"] is True
        assert "max_term_magnitude" in p.stderr
        assert f"{payload['max_term_magnitude']:.6g}" in p.stderr
        plain = mlfrac("ml", "--rho", "0.98", "--mu", "1", "--z", "-49")
        assert plain.returncode == 3
        assert float(plain.stdout) == payload["value"]


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
        # long flat chains parse without recursing; the passes over the tree do not
        for deep in ("sin(" * 220 + "x" + ")" * 220, "*".join(["x"] * 3001), "+".join(["x"] * 3001)):
            p = mlfrac("integ", "--op", "ab-left", "--alpha", "0.5", "--fn", deep, "--grid", "3")
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
        for interval in ("0:inf", "-inf:1", "nan:1"):
            p = mlfrac("integ", "--op", "ab-left", "--alpha", "0.5", "--fn", "x", f"--interval={interval}")
            assert p.returncode == 2
            assert "interval needs finite a < b" in p.stderr and "Warning" not in p.stderr

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
        p = mlfrac(
            "verify", "--id", "caputo-rl", "--alpha", "0.5",
            env_extra={"MLFRAC_TOL": "1e-30"},
        )
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

    def test_failed_check_never_passes_any_tolerance(self):
        failing = ("verify", "--id", "caputo-rl", "--fn", "1/(x-0.5)")
        for tol in ("inf", "nan", "0", "-1"):
            p = mlfrac(*failing, "--tol", tol)
            assert p.returncode == 2
            assert "tolerance must be finite and positive" in p.stderr
        p = mlfrac(*failing, env_extra={"MLFRAC_TOL": "inf"})
        assert p.returncode == 3
        assert "MLFRAC_TOL must be finite and positive" in p.stderr
        assert p.stdout == ""

    def test_tol_flag_overrides(self):
        p = mlfrac("verify", "--id", "diff-formula", "--tol", "1e-3")
        assert p.returncode == 0
        assert json.loads(p.stdout)["tol"] == 1e-3

    def test_convolution_custom_params(self):
        p = mlfrac("verify", "--id", "convolution", "--alpha", "0.5",
                   "--sigma", "0", "--nu", "2", "--x", "0.5")
        assert p.returncode == 0


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


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


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


class TestRunSpecApi:
    def test_direct_dispatch(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        spec = RunSpec(
            command="integ",
            selector="ab-left",
            alpha=0.5,
            fn_text="x",
            grid_n=4,
            out_path=str(out),
        )
        assert run(spec) == 0
        text = out.read_text()
        assert text.startswith("t,value\n")
        assert text.endswith("\n") and "\r" not in text

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

    def test_run_cli_catches_numeric_errors(self, capsys):
        code = run_cli(["ml", "--rho", "0.5", "--mu", "1", "--z", "500"])
        assert code == 3
