import math

import numpy as np
import pytest

from mlfrac import identities
from mlfrac.errors import DegenerateOrder, DomainError
from mlfrac.identities import (
    IdentityReport,
    ml_eigen_closed,
    poly,
    run_default_suite,
    verify_caputo_ibp,
    verify_caputo_rl_relation,
    verify_convolution,
    verify_diff_formula,
    verify_ibp_derivatives,
    verify_ibp_integrals,
    verify_inverse_and_fundamental,
    zero_mode,
)
from mlfrac.operators import FracOrder, Side, abc_derivative, abr_derivative
from mlfrac.quadrature import QuadConfig, RealFunction
from mlfrac.special import ml_one, ml_value

HALF = FracOrder(0.5, 1.0)
GOLDEN = 1.0 / 12.0 + 8.0 / (105.0 * math.sqrt(math.pi))
SQPI = math.sqrt(math.pi)

X = poly([0.0, 1.0])
ONE_MINUS_X = poly([1.0, -1.0])
X_SQ = poly([0.0, 0.0, 1.0])
ZERO = poly([0.0])

GOLDEN_F = RealFunction(
    fn=lambda x: 0.5 * (1 - x) + 2.0 * (1 - x) ** 1.5 / (3.0 * SQPI),
    a=0.0,
    b=1.0,
    deriv=lambda x: -0.5 - (1 - x) ** 0.5 / SQPI,
    label="AB-I-right of 1-x",
)
GOLDEN_G = RealFunction(
    fn=lambda x: 0.5 * x + 2.0 * x**1.5 / (3.0 * SQPI),
    a=0.0,
    b=1.0,
    deriv=lambda x: 0.5 + x**0.5 / SQPI,
    label="AB-I-left of x",
)


class TestReport:
    def test_pass_iff_within_tolerance(self):
        r = IdentityReport("t", {}, np.array([1.0]), np.array([1.0 + 1e-6]), tol=1e-5)
        assert r.passed and math.isclose(r.abs_err, 1e-6)
        r2 = IdentityReport("t", {}, np.array([1.0]), np.array([1.1]), tol=1e-5)
        assert not r2.passed

    def test_no_tolerance_passes_a_failed_side(self):
        for bad in (math.nan, math.inf):
            r = IdentityReport("t", {}, np.array([bad]), np.array([1.0]), tol=math.inf)
            assert r.abs_err == math.inf and not r.passed

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            IdentityReport("t", {}, np.array([1.0, 2.0]), np.array([1.0]), tol=1e-5)

    def test_json_schema(self):
        r = verify_diff_formula(1.0, 2.0, 0.5, -1.0, 0.7)
        d = r.to_json_dict()
        assert set(d) == {"identity", "alpha", "B", "interval", "lhs", "rhs", "abs_err", "tol", "pass"}
        assert d["pass"] is True


class TestIbpIntegrals:
    def test_golden_value(self):
        r = verify_ibp_integrals(ONE_MINUS_X, X, HALF)
        assert r.passed
        assert abs(r.lhs[0] - GOLDEN) <= 1e-6
        assert abs(r.rhs[0] - GOLDEN) <= 1e-6

    def test_zero_function(self):
        r = verify_ibp_integrals(ZERO, X, HALF)
        assert r.passed
        assert np.max(np.abs(r.lhs)) <= 1e-12

    def test_degree_mix(self):
        r = verify_ibp_integrals(X, X_SQ, FracOrder(0.3), tol=1e-6)
        assert r.passed


class TestIbpDerivatives:
    def test_golden_value(self):
        r = verify_ibp_derivatives(GOLDEN_F, GOLDEN_G, HALF)
        assert r.passed
        assert abs(r.lhs[0] - GOLDEN) <= 1e-6
        assert abs(r.rhs[0] - GOLDEN) <= 1e-6

    def test_zero_function(self):
        r = verify_ibp_derivatives(X, ZERO, HALF)
        assert abs(r.lhs[0]) <= 1e-12 and abs(r.rhs[0]) <= 1e-10

    def test_random_cubic_pair(self):
        f = poly([0.3, -1.2, 0.4, 0.9])
        g = poly([-0.5, 0.8, 1.1, -0.2])
        r = verify_ibp_derivatives(f, g, FracOrder(0.7))
        assert r.abs_err <= 1e-5


class TestCaputoIbp:
    def test_constant_f(self):
        r = verify_caputo_ibp(poly([2.0]), X_SQ, HALF, Side.Left)
        assert r.passed
        assert abs(r.lhs[0]) <= 1e-10

    def test_linear_pair_both_sides(self):
        for side in (Side.Left, Side.Right):
            r = verify_caputo_ibp(X, ONE_MINUS_X, HALF, side)
            assert r.abs_err <= 1e-5, side

    def test_zero_g(self):
        r = verify_caputo_ibp(X, ZERO, HALF, Side.Left)
        assert abs(r.lhs[0]) <= 1e-12 and abs(r.rhs[0]) <= 1e-12


@pytest.mark.parametrize("check", [verify_ibp_integrals, verify_ibp_derivatives, verify_caputo_ibp])
def test_operands_on_different_intervals_are_refused(check):
    # in both orders, so neither operand's interval may stand for the pair's
    for u, v in ((X, poly([1.0, -1.0], 0.0, 2.0)), (poly([1.0, -1.0], 0.5, 1.0), X)):
        with pytest.raises(DomainError, match="operands on different intervals"):
            check(u, v, HALF)


class TestCaputoRlRelation:
    def test_constant(self):
        # small d/dt step: the difference-quotient truncation is the whole gap
        r = verify_caputo_rl_relation(poly([5.0]), HALF, h=5e-5)
        assert r.abs_err <= 1e-7

    def test_linear(self):
        r = verify_caputo_rl_relation(X, HALF)
        assert r.abs_err <= 1e-5

    def test_vanishing_anchor_value(self):
        # f(0) = 0 kills the boundary correction entirely
        r = verify_caputo_rl_relation(X_SQ, HALF)
        assert r.abs_err <= 1e-6

    def test_quadratic_step_convergence(self):
        gaps = []
        for h in (1e-3, 5e-4, 2.5e-4):
            gaps.append(verify_caputo_rl_relation(X, HALF, h=h).abs_err)
        assert gaps[1] <= 0.35 * gaps[0]
        assert gaps[2] <= 0.35 * gaps[1]

    @pytest.mark.parametrize("h", [0.0, -5e-4, math.nan, math.inf])
    def test_step_that_is_not_positive_and_finite_raises_before_any_side(self, h):
        calls = []
        f = RealFunction(fn=lambda x: calls.append(x) or x * x, a=0.0, b=1.0)
        with pytest.raises(DomainError, match="finite step h > 0"):
            verify_caputo_rl_relation(f, HALF, h=h)
        with pytest.raises(DomainError, match="finite step h > 0"):
            verify_caputo_rl_relation(X_SQ, HALF, h=h)
        assert calls == []


class TestInverseFundamental:
    def test_linear_left(self):
        r = verify_inverse_and_fundamental(X, HALF, Side.Left)
        assert r.passed

    def test_constant(self):
        r = verify_inverse_and_fundamental(poly([3.0]), HALF, Side.Left, tol=1e-6)
        assert r.passed

    def test_square_right(self):
        r = verify_inverse_and_fundamental(X_SQ, HALF, Side.Right)
        assert r.abs_err <= 1e-5


class TestConvolution:
    def test_sigma_zero(self):
        r = verify_convolution(0.0, 1.5, 0.5, -1.0, 1.0)
        assert r.passed and r.abs_err <= 1e-8

    def test_lambda_zero(self):
        r = verify_convolution(1.0, 2.0, 0.5, 0.0, 0.7)
        assert r.abs_err <= 1e-10

    def test_sigma_one(self):
        r = verify_convolution(1.0, 1.0, 0.5, -1.0, 1.0)
        assert r.abs_err <= 1e-8


@pytest.mark.parametrize(
    "check",
    [
        lambda: verify_convolution(1.0, 2000.0, 0.5, -1.0, 2.0),  # x^nu = 2^2000
        lambda: verify_diff_formula(1.0, 10000.0, 0.5, -1.0, 2.0),  # z^(mu-1) = 2^9999
    ],
    ids=["convolution", "diff-formula"],
)
def test_overflow_of_the_checks_own_powers_fails_the_report(check):
    r = check()
    assert not r.passed and r.params["error"].startswith("OverflowError")


EXP_800 = RealFunction(lambda x: math.exp(800.0 * x), 0.0, 1.0)


@pytest.mark.parametrize(
    "check",
    [lambda: verify_ibp_integrals(EXP_800, X, HALF), lambda: verify_caputo_rl_relation(EXP_800, HALF)],
    ids=["ibp-integrals", "caputo-rl"],
)
def test_overflow_of_an_operand_fails_the_report(check):
    # every check, not just the series ones, reports an OverflowError of a
    # side as a failed report with both sides NaN
    r = check()
    assert not r.passed and r.params["error"].startswith("OverflowError")
    assert np.isnan(r.lhs).all() and np.isnan(r.rhs).all()


@pytest.mark.parametrize("alpha", [1.0, 0.995])
@pytest.mark.parametrize(
    "check",
    [lambda o: verify_caputo_ibp(X, ONE_MINUS_X, o), lambda o: verify_caputo_rl_relation(X_SQ, o)],
    ids=["caputo-ibp", "caputo-rl"],
)
def test_order_at_or_above_the_cap_fails_the_report(check, alpha):
    # both checks read the kernel rate and B/(1-alpha), which at alpha = 1
    # would divide by zero, inside their try
    r = check(FracOrder(alpha))
    assert not r.passed
    assert r.params["error"].startswith("DegenerateOrder: ML-kernel operators require alpha < 0.99")


class TestDiffFormula:
    def test_exponential_case(self):
        # alpha=1, mu=2: d/dz (e^z - 1) = e^z
        r = verify_diff_formula(1.0, 2.0, 1.0, 1.0, 0.8)
        assert r.abs_err <= 1e-6

    def test_lambda_zero_power_rule(self):
        r = verify_diff_formula(1.0, 2.5, 0.5, 0.0, 0.9)
        assert r.abs_err <= 1e-10

    def test_prabhakar_case(self):
        r = verify_diff_formula(2.0, 2.5, 0.5, -1.0, 1.0)
        assert r.abs_err <= 1e-6

    @pytest.mark.parametrize("z", [0.0, -0.5, math.nan])
    def test_z_within_the_step_of_zero_is_a_domain_error(self, z):
        # z - h <= 0 would raise a complex t^alpha into the series
        with pytest.raises(DomainError, match="d/dz step"):
            verify_diff_formula(1.0, 2.0, 0.5, -1.0, z)

    @pytest.mark.parametrize("z", [1e-7, 2e-6, 1e-5, 1e-3])
    def test_step_follows_small_z(self, z):
        # a step fixed at 2e-6 straddled the z^alpha cusp: 6e-6 off at z = 1e-5
        for gamma_p, mu in ((1.0, 2.0), (2.0, 2.5), (0.5, 3.0)):
            r = verify_diff_formula(gamma_p, mu, 0.5, -1.0, z)
            assert r.passed and r.abs_err <= 1e-9, (gamma_p, mu, r.abs_err)


class TestZeroMode:
    def test_value_at_half(self):
        got = zero_mode(HALF, 1.0)
        assert abs(got - 1.0 / (2.0 * SQPI)) <= 1e-14

    def test_classical_limit(self):
        o = FracOrder(0.999, 1.0)
        for x in np.linspace(0.5, 2.0, 7):
            assert abs(zero_mode(o, float(x)) - 1.0) <= 5e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            zero_mode(HALF, 0.0)

    def test_vanishing_derivative_scaling(self):
        # closed-form derivative of the truncated eigenfunction scales like
        # 1/Gamma(nu): each decade in nu shrinks the sup by ~10x
        sups = []
        for nu in (0.1, 0.01, 0.001):
            sup = max(
                (1.0 - HALF.alpha) / HALF.b_norm * ml_eigen_closed("ABC", -1.0, nu, HALF, x)
                for x in np.linspace(0.2, 1.0, 17)
            )
            sups.append(sup)
        assert sups[1] <= 0.15 * sups[0]
        assert sups[2] <= 0.15 * sups[1]
        # and the x=1 value is 1/Gamma(nu) exactly
        got = (1.0 - 0.5) / 1.0 * ml_eigen_closed("ABC", -1.0, 0.01, HALF, 1.0)
        assert abs(got - 1.0 / math.gamma(0.01)) <= 1e-12


class TestEigenClosed:
    def test_kinds_share_formula(self):
        a = ml_eigen_closed("ABR", 1.0, 1.5, HALF, 0.8)
        b = ml_eigen_closed("ABC", 1.0, 1.5, HALF, 0.8)
        assert a == b
        with pytest.raises(DomainError):
            ml_eigen_closed("XYZ", 1.0, 1.5, HALF, 0.8)

    def test_closed_form_is_not_capped(self):
        # a closed form, not an operator: defined below alpha = 1, cap or not
        got = ml_eigen_closed("ABC", 1.0, 1.5, FracOrder(0.995), 0.01)
        assert math.isclose(got, 0.40200564568376346, rel_tol=1e-15)  # 60-digit mpmath
        with pytest.raises(DegenerateOrder):
            ml_eigen_closed("ABC", 1.0, 1.5, FracOrder(1.0), 0.01)

    def test_pochhammer_truncation_case(self):
        # sigma = -1, nu = 1: E(a,1;0)(z) = 1, so the value is B/(1-a)
        assert abs(ml_eigen_closed("ABR", -1.0, 1.0, HALF, 0.6) - 2.0) <= 1e-14

    def test_matches_numeric_caputo(self):
        sigma, nu, x = 1.0, 1.5, 0.8
        lam = HALF.lam
        f = RealFunction(
            fn=lambda t: t**0.5 * ml_value(0.5, 1.5, sigma, lam * t**0.5) if t > 0 else 0.0,
            a=0.0,
            b=1.0,
            deriv=lambda t: t**-0.5 * ml_value(0.5, 0.5, sigma, lam * t**0.5),
        )
        got = abc_derivative(Side.Left, f, HALF, x, QuadConfig(abs_tol=1e-8, rel_tol=1e-8))
        want = ml_eigen_closed("ABC", sigma, nu, HALF, x)
        assert abs(got - want) <= 1e-6

    def test_caputo_decomposition_at_nu_one(self):
        # at nu = 1 the eigenfunction keeps a nonzero anchor value, and the
        # numeric Caputo-type derivative equals the closed form minus the
        # anchor boundary term; the RL-type derivative matches the closed
        # form directly
        lam = HALF.lam
        cfg = QuadConfig(abs_tol=1e-8, rel_tol=1e-8)
        f = RealFunction(
            fn=lambda t: ml_value(0.5, 1.0, 1.0, lam * t**0.5),
            a=0.0,
            b=1.0,
            deriv=lambda t: lam * t**-0.5 * ml_value(0.5, 0.5, 1.0, lam * t**0.5),
        )
        for x in (0.2, 0.6, 1.0):
            closed = ml_eigen_closed("ABC", 1.0, 1.0, HALF, x)
            boundary = 2.0 * 1.0 * ml_one(0.5, lam * x**0.5)
            got_abc = abc_derivative(Side.Left, f, HALF, x, cfg)
            got_abr = abr_derivative(Side.Left, f, HALF, x, cfg)
            assert abs(got_abc - (closed - boundary)) <= 1e-6
            assert abs(got_abr - closed) <= 1e-6


def test_default_suite_all_pass():
    reports = run_default_suite()
    failed = [r for r in reports if not r.passed]
    assert not failed, [(r.identity_name, r.params, r.abs_err) for r in failed]
    names = {r.identity_name for r in reports}
    assert names == {
        "ibp-integrals",
        "ibp-derivatives",
        "caputo-ibp",
        "caputo-rl-relation",
        "inverse-fundamental",
        "convolution",
        "diff-formula",
    }
    # without a tol every check keeps its own default
    tols = [r.tol for r in reports]
    assert (tols.count(1e-5), tols.count(1e-8), tols.count(1e-6)) == (21, 4, 3)


def test_tol_reaches_every_report():
    reports = run_default_suite(tol=1e-30)
    assert [r.tol for r in reports] == [1e-30] * 28
    # the convolution and diff-formula reports pass at their own defaults
    assert not any(r.passed for r in reports[-7:])


# run_default_suite's reports, in order, that fail when one operator as
# identities binds it returns 1.001 times its value on the left side only.
# Each perturbation must reach the checks that read that operator, whichever
# side of their identity it is on.
PERTURBED_FAILURES = {
    "ab_integral": (0, 1, 5, 6, 7, 11, 12, 13, 17),
    "abr_derivative": (2, 5, 8, 11, 14, 17, 18, 19),
    "abc_derivative": (3, 4, 5, 9, 10, 11, 15, 16, 17),
    "abr_derivative_kernel_diff": (4, 5, 10, 11, 16, 17),
    "gen_ml_integral": (19, 21, 22, 23, 24),
}


@pytest.mark.parametrize("name", sorted(PERTURBED_FAILURES))
def test_one_sided_perturbation_fails_the_same_reports(monkeypatch, name):
    op = getattr(identities, name)

    def perturbed(side, *args, **kwargs):
        out = op(side, *args, **kwargs)
        return 1.001 * out if side is Side.Left else out

    monkeypatch.setattr(identities, name, perturbed)
    reports = run_default_suite()
    failed = tuple(i for i, r in enumerate(reports) if not r.passed)
    assert failed == PERTURBED_FAILURES[name], [reports[i].identity_name for i in failed]
