import json
import math
import os
import subprocess
import sys

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

    def test_run_cli_catches_numeric_errors(self, capsys):
        code = run_cli(["ml", "--rho", "0.5", "--mu", "1", "--z", "500"])
        assert code == 3
