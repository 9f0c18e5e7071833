import math
import random
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfrac import operators, quadrature
from mlfrac.errors import DegenerateOrder, DomainError, MlfracError, SingularityError
from mlfrac.expr import parse_expr, to_real_function
from mlfrac.operators import (
    FracOrder,
    GridFunction,
    Side,
    ab_integral,
    abc_derivative,
    abr_derivative,
    abr_derivative_kernel_diff,
    gen_ml_integral,
    opposite,
    q_reflect,
    rl_derivative,
    rl_integral,
)
from mlfrac.quadrature import QuadConfig, RealFunction, adaptive_gl
from mlfrac.special import MLParams, ml_one, ml_value

HALF = FracOrder(0.5, 1.0)
CFG8 = QuadConfig(abs_tol=1e-8, rel_tol=1e-8)
SQPI = math.sqrt(math.pi)


def rf(fn, a=0.0, b=1.0, deriv=None, label=""):
    return RealFunction(fn=fn, a=a, b=b, deriv=deriv, label=label)


X = rf(lambda x: x, deriv=lambda x: 1.0, label="x")
ONE_MINUS_X = rf(lambda x: 1.0 - x, deriv=lambda x: -1.0, label="1-x")


def random_cubic(rng, a=0.0, b=1.0):
    c = [rng.uniform(-2.0, 2.0) for _ in range(4)]
    return rf(
        lambda x: c[0] + c[1] * x + c[2] * x * x + c[3] * x**3,
        a,
        b,
        deriv=lambda x: c[1] + 2 * c[2] * x + 3 * c[3] * x * x,
    )


class TestFracOrder:
    def test_validation(self):
        with pytest.raises(DomainError):
            FracOrder(0.0)
        with pytest.raises(DomainError):
            FracOrder(1.2)
        for b_norm in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                FracOrder(0.5, b_norm=b_norm)

    def test_kernel_rate(self):
        assert FracOrder(0.5).lam == -1.0
        assert math.isclose(FracOrder(0.75).lam, -3.0)
        for alpha in (1.0, 0.99):
            with pytest.raises(DegenerateOrder, match="require alpha < 0.99"):
                FracOrder(alpha).lam
        assert FracOrder(0.5).scale == 2.0
        assert FracOrder(0.75, 0.6).scale == 0.6 / 0.25
        for alpha in (1.0, 0.99):
            with pytest.raises(DegenerateOrder, match="require alpha < 0.99"):
                FracOrder(alpha).scale

    def test_kernel_order_cap(self):
        f = X
        for op in (abc_derivative, abr_derivative, abr_derivative_kernel_diff):
            for t in (0.0, 0.5):  # the anchor too, where abc_derivative returns 0
                with pytest.raises(DegenerateOrder):
                    op(Side.Left, f, FracOrder(0.99), t)


class TestGridFunction:
    def test_validation(self):
        with pytest.raises(DomainError):
            GridFunction(0.0, 1.0, 4, np.zeros(3))
        with pytest.raises(DomainError):
            GridFunction(0.0, 1.0, 4, np.array([0, 1, math.nan, 3, 4.0]))
        g = GridFunction(0.0, 1.0, 4, np.array([math.inf, 1, 2, 3, 4.0]), singular=(0,))
        assert g.singular == (0,)
        # -1 would exempt the last sample from the finiteness check
        for bad in ((7,), (5,), (-1,), (1.5,), (True,), ("1",)):
            with pytest.raises(DomainError, match="singular indices must lie in 0..4"):
                GridFunction(0.0, 1.0, 4, np.arange(5.0), singular=bad)
        g = GridFunction(0.0, 1.0, 4, np.array([0, 1, math.inf, 3, 4.0]), singular=(np.int64(2),))
        assert g.singular == (2,)
        for a, b in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
            with pytest.raises(DomainError, match="finite a < b"):
                GridFunction(a, b, 4, np.zeros(5))

    def test_interpolant(self):
        vals = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
        g = GridFunction(0.0, 1.0, 4, vals)
        f = g.to_real_function()
        assert f(0.25) == 1.0
        assert math.isclose(f(0.375), 2.5)
        assert math.isclose(f.deriv(0.30), (4.0 - 1.0) / 0.25)

    @pytest.mark.parametrize("n", [16, 37, 100, 800])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-0.3, 1.7), (0.1, 1.0)])
    def test_slope_at_a_node_is_the_right_cells(self, n, a, b):
        # the cell fn interpolates in: the one to the right of each node, the
        # last cell at b
        grid = GridFunction(a, b, n, np.random.default_rng(n).normal(size=n + 1))
        deriv = grid.to_real_function().deriv
        rises = np.diff(grid.values) / np.diff(grid.ts)
        got = np.array([deriv(t) for t in grid.ts.tolist()])
        np.testing.assert_allclose(got, np.append(rises, rises[-1]), rtol=1e-12)


class TestRlIntegral:
    def test_left_power(self):
        for t in (0.2, 0.6, 1.0):
            want = 4.0 * t**1.5 / (3.0 * SQPI)
            assert abs(rl_integral(Side.Left, X, HALF, t) - want) <= 1e-11

    def test_right_power(self):
        for t in (0.0, 0.4, 0.9):
            want = 4.0 * (1.0 - t) ** 1.5 / (3.0 * SQPI)
            assert abs(rl_integral(Side.Right, ONE_MINUS_X, HALF, t) - want) <= 1e-11

    def test_empty_range(self):
        c = rf(lambda x: 7.0)
        assert rl_integral(Side.Left, c, FracOrder(0.3), 0.0) == 0.0
        assert rl_integral(Side.Right, c, FracOrder(0.3), 1.0) == 0.0


class TestAbIntegral:
    def test_left_of_x_closed_form(self):
        for t in np.linspace(0.0, 1.0, 11):
            want = t / 2.0 + 2.0 * t**1.5 / (3.0 * SQPI)
            assert abs(ab_integral(Side.Left, X, HALF, float(t)) - want) <= 1e-10

    def test_right_of_one_minus_x(self):
        for t in np.linspace(0.0, 1.0, 11):
            want = (1.0 - t) / 2.0 + 2.0 * (1.0 - t) ** 1.5 / (3.0 * SQPI)
            assert abs(ab_integral(Side.Right, ONE_MINUS_X, HALF, float(t)) - want) <= 1e-10

    def test_constant_rule(self):
        got = ab_integral(Side.Left, rf(lambda x: 1.0), HALF, 1.0)
        want = 0.5 + 1.0 / (2.0 * math.gamma(1.5))
        assert abs(got - want) <= 1e-11

    def test_alpha_one_rejected(self):
        with pytest.raises(DegenerateOrder):
            ab_integral(Side.Left, X, FracOrder(1.0), 0.5)

    def test_overflowing_operand_is_a_domain_error(self):
        f = to_real_function(parse_expr("exp(1000*x)"), 0.0, 1.0)
        with pytest.raises(DomainError, match="overflows"):
            ab_integral(Side.Left, f, HALF, 1.0)

    def test_alpha_near_one_is_plain_integral(self):
        # continuity toward the classical limit on a smooth function
        f = rf(lambda x: math.sin(x), deriv=math.cos)
        o = FracOrder(0.99)
        for t in (0.5, 1.0):
            plain = 1.0 - math.cos(t)
            assert abs(ab_integral(Side.Left, f, o, t) - plain) <= 5e-2


class TestAbcDerivative:
    def test_constant_kill(self):
        c = rf(lambda x: 4.2, deriv=lambda x: 0.0)
        for alpha in (0.3, 0.5, 0.7):
            for t in (0.0, 0.4, 1.0):
                assert abs(abc_derivative(Side.Left, c, FracOrder(alpha), t)) <= 1e-10

    def test_linear_function_series_oracle(self):
        # ABC of x: (B/(1-a)) t E_{a,2}(lam t^a), summed independently
        for alpha in (0.3, 0.5, 0.7):
            o = FracOrder(alpha)
            for t in (0.3, 0.8):
                got = abc_derivative(Side.Left, X, o, t)
                want = (1.0 / (1.0 - alpha)) * t * ml_value(alpha, 2.0, 1.0, o.lam * t**alpha)
                assert abs(got - want) <= 1e-9

    def test_eigenfunction_above_one(self):
        # x^(nu-1) E(a,nu;s)(lam x^a) maps to the (s+1)-parameter form, nu > 1
        alpha = 0.5
        o = HALF
        lam = o.lam
        for sigma in (0.0, 1.0):
            for nu in (1.5, 2.0):
                f = rf(
                    lambda x, nu=nu, sigma=sigma: x ** (nu - 1.0)
                    * ml_value(alpha, nu, sigma, lam * x**alpha)
                    if x > 0.0
                    else 0.0,
                    deriv=lambda x, nu=nu, sigma=sigma: x ** (nu - 2.0)
                    * ml_value(alpha, nu - 1.0, sigma, lam * x**alpha),
                )
                for x in (0.2, 0.6, 1.0):
                    got = abc_derivative(Side.Left, f, o, x, CFG8)
                    want = 2.0 * x ** (nu - 1.0) * ml_value(alpha, nu, sigma + 1.0, lam * x**alpha)
                    assert abs(got - want) <= 1e-6

    def test_central_difference_fallback(self):
        # f' is never read, so an operand without one needs no fallback and
        # gets the very same value
        f_exact = rf(lambda x: x * x, deriv=lambda x: 2.0 * x)
        f_numeric = rf(lambda x: x * x)
        got_a = abc_derivative(Side.Left, f_exact, HALF, 0.7)
        got_b = abc_derivative(Side.Left, f_numeric, HALF, 0.7)
        assert got_a == got_b


class TestAbrDerivative:
    def test_constant_boundary_term(self):
        c = rf(lambda x: 3.0, deriv=lambda x: 0.0)
        for t in (0.0, 0.5, 1.0):
            got = abr_derivative(Side.Left, c, HALF, t)
            want = 2.0 * 3.0 * ml_one(0.5, -(t**0.5))
            assert abs(got - want) <= 1e-10

    def test_inverse_of_ab_integral_golden(self):
        # g = AB-I-left of x; its RL-type derivative must recover x
        g = rf(
            lambda x: 0.5 * x + 2.0 * x**1.5 / (3.0 * SQPI),
            deriv=lambda x: 0.5 + x**0.5 / SQPI,
        )
        for t in (0.1, 0.5, 0.9):
            assert abs(abr_derivative(Side.Left, g, HALF, t) - t) <= 1e-8

    def test_eigenfunction_all_nu(self):
        # unlike the Caputo form, the RL-type derivative carries the anchor
        # term, so the closed form holds down to nu = 1
        alpha = 0.5
        lam = HALF.lam
        cases = [
            (0.0, 1.0, rf(lambda x: 1.0, deriv=lambda x: 0.0)),
            (
                1.0,
                1.0,
                rf(
                    lambda x: ml_value(alpha, 1.0, 1.0, lam * x**alpha),
                    deriv=lambda x: lam * x ** (alpha - 1.0) * ml_value(alpha, alpha, 1.0, lam * x**alpha),
                ),
            ),
            (
                1.0,
                1.5,
                rf(
                    lambda x: x**0.5 * ml_value(alpha, 1.5, 1.0, lam * x**alpha) if x > 0 else 0.0,
                    deriv=lambda x: x**-0.5 * ml_value(alpha, 0.5, 1.0, lam * x**alpha),
                ),
            ),
        ]
        for sigma, nu, f in cases:
            for x in (0.2, 0.7, 1.0):
                got = abr_derivative(Side.Left, f, HALF, x, CFG8)
                want = 2.0 * x ** (nu - 1.0) * ml_value(alpha, nu, sigma + 1.0, lam * x**alpha)
                assert abs(got - want) <= 1e-6

    def test_kernel_diff_path_agrees(self):
        f = rf(lambda x: x * x + 1.0, deriv=lambda x: 2.0 * x)
        for side in (Side.Left, Side.Right):
            got = abr_derivative_kernel_diff(side, f, HALF, 0.5)
            want = abr_derivative(side, f, HALF, 0.5)
            assert abs(got - want) <= 1e-6
        # AB-I of x behaves like dist^alpha at the anchor, and the golden
        # pair's operand like x^1.5 at 0: the graded halves of the kernel
        # integral must leave only the step error of the central difference
        tight = QuadConfig(abs_tol=5e-13, rel_tol=1e-12)
        golden = rf(lambda x: 0.5 * x + 2.0 * x**1.5 / (3.0 * SQPI))
        for o in (FracOrder(0.25), HALF, FracOrder(0.75)):
            for side in (Side.Left, Side.Right):
                abi_x = rf(lambda x: ab_integral(side, X, o, x, tight))
                for f in (abi_x, golden):
                    for t in (0.3, 0.5, 0.7):
                        got = abr_derivative_kernel_diff(side, f, o, t, tight)
                        want = abr_derivative(side, f, o, t, tight)
                        assert abs(got - want) <= 1e-6, (o.alpha, side, t)

    @pytest.mark.parametrize("h", [0.0, -5e-4, math.nan, math.inf])
    def test_kernel_diff_refuses_a_step_that_is_not_positive_and_finite(self, h):
        calls = []
        f = rf(lambda x: calls.append(x) or x)
        for side in (Side.Left, Side.Right):
            for t in (0.5, 1.0):
                with pytest.raises(DomainError, match="finite h > 0"):
                    abr_derivative_kernel_diff(side, f, HALF, t, h=h)
        assert calls == []  # refused before K is sampled, so never past [a, b]


class TestRlDerivative:
    def test_power_rule(self):
        for alpha in (0.25, 0.5, 0.75):
            for beta in (1.0, 2.0, 3.0):
                f = rf(lambda x, beta=beta: x**beta,
                       deriv=lambda x, beta=beta: beta * x ** (beta - 1.0) if x > 0 else 0.0)
                for t in (0.4, 1.0):
                    want = math.gamma(beta + 1.0) * t ** (beta - alpha) / math.gamma(beta + 1.0 - alpha)
                    assert abs(rl_derivative(Side.Left, f, FracOrder(alpha), t) - want) <= 1e-8

    def test_power_rule_singular_slope(self):
        # beta = 1/2 has f' ~ x^(-1/2): integrable endpoint singularity, so
        # the quadrature needs a looser target to stay within its depth cap
        cfg = QuadConfig(abs_tol=1e-7, rel_tol=1e-7)
        f = rf(lambda x: math.sqrt(x), deriv=lambda x: 0.5 * x**-0.5 if x > 0 else 0.0)
        for alpha in (0.25, 0.5):
            t = 0.8
            want = math.gamma(1.5) * t ** (0.5 - alpha) / math.gamma(1.5 - alpha)
            assert abs(rl_derivative(Side.Left, f, FracOrder(alpha), t, cfg) - want) <= 1e-6

    def test_constant(self):
        c = rf(lambda x: 1.0, deriv=lambda x: 0.0)
        for t in (0.3, 1.0):
            want = t**-0.5 / math.gamma(0.5)
            assert abs(rl_derivative(Side.Left, c, HALF, t) - want) <= 1e-12

    def test_alpha_near_one_limit(self):
        f = rf(lambda x: x * x, deriv=lambda x: 2.0 * x)
        for t in (0.5, 1.0):
            assert abs(rl_derivative(Side.Left, f, FracOrder(0.999), t) - 2.0 * t) <= 2e-2

    def test_singularity_at_anchor(self):
        with pytest.raises(SingularityError):
            rl_derivative(Side.Left, rf(lambda x: 1.0), HALF, 0.0)
        assert rl_derivative(Side.Left, X, HALF, 0.0) == 0.0
        with pytest.raises(SingularityError):
            rl_derivative(Side.Right, rf(lambda x: 1.0), HALF, 1.0)

    def test_order_one_is_refused(self):
        with pytest.raises(DomainError, match=r"rl_derivative requires alpha in \(0, 1\), got 1.0"):
            rl_derivative(Side.Left, X, FracOrder(1.0), 0.5)

    def test_right_power_rule(self):
        f = rf(lambda x: (1.0 - x) ** 2, deriv=lambda x: -2.0 * (1.0 - x))
        for t in (0.2, 0.7):
            want = math.gamma(3.0) * (1.0 - t) ** 1.5 / math.gamma(2.5)
            assert abs(rl_derivative(Side.Right, f, HALF, t) - want) <= 1e-8


class TestSmallOrders:
    # power_quad's substitution d = w^p, p = 1/alpha here, resolves the
    # operand only while p <= quadrature.GRADING_POWER_MAX

    def test_orders_below_the_grading_cap_are_refused(self):
        for alpha in (1e-4, 9.9e-4, 1e-320):
            for op in (rl_integral, ab_integral, abr_derivative, abc_derivative):
                for side in (Side.Left, Side.Right):
                    with pytest.raises(DomainError, match="grading power"):
                        op(side, X, FracOrder(alpha), 0.5)
        for alpha in (0.9999, math.nextafter(1.0, 0.0)):
            with pytest.raises(DomainError, match="grading power"):
                rl_derivative(Side.Left, X, FracOrder(alpha), 0.5)

    @pytest.mark.parametrize("alpha", [1e-3, 1.001e-3, 2e-3])
    @pytest.mark.parametrize("side", [Side.Left, Side.Right])
    @pytest.mark.parametrize("dist", [0.1, 0.5, 1.0])
    def test_orders_just_above_the_cap_match_mpmath(self, alpha, side, dist):
        # operand dist^1 from the anchor: x on the left, 1 - x on the right
        f, t = (X, dist) if side is Side.Left else (ONE_MINUS_X, 1.0 - dist)
        o = FracOrder(alpha)
        with mpmath.workdps(30):
            a, d, nu = mpmath.mpf(alpha), mpmath.mpf(dist), mpmath.mpf(1.0 - alpha)
            rl = d ** (1 + a) / mpmath.gamma(2 + a)
            want = {
                "rl": rl,
                "ab": (1 - a) * d + a * rl,
                "kernel": d * _ml_mp(alpha, 2.0, float(-a / (1 - a) * d**a)) / (1 - a),
                "rld": d ** (1 - nu) / mpmath.gamma(2 - nu),
            }
        got = {
            "rl": rl_integral(side, f, o, t),
            "ab": ab_integral(side, f, o, t),
            "kernel": abr_derivative(side, f, o, t),
            "rld": rl_derivative(side, f, FracOrder(1.0 - alpha), t),
        }
        for name, value in got.items():
            assert abs(value - float(want[name])) <= 1e-12, name
        assert abc_derivative(side, f, o, t) == got["kernel"]  # f vanishes at the anchor


class TestQReflect:
    def test_values_and_involution(self):
        q = q_reflect(X)
        assert q(0.0) == 1.0
        assert q(0.25) == 0.75
        qsq = q_reflect(q_reflect(rf(lambda t: t * t)))
        assert qsq(0.25) == 0.0625
        qt2 = q_reflect(rf(lambda t: t * t))
        assert qt2(0.25) == 0.5625

    def test_derivative_mapping(self):
        q = q_reflect(rf(lambda x: x**3, deriv=lambda x: 3 * x * x))
        assert math.isclose(q.deriv(0.3), -3.0 * 0.7**2)

    def test_duality_all_operator_families(self):
        rng = random.Random(11)
        o = FracOrder(0.6)
        ops = [
            lambda s, f, t: rl_integral(s, f, o, t),
            lambda s, f, t: ab_integral(s, f, o, t),
            lambda s, f, t: abc_derivative(s, f, o, t),
            lambda s, f, t: abr_derivative(s, f, o, t),
            lambda s, f, t: abr_derivative_kernel_diff(s, f, o, t),
            lambda s, f, t: rl_derivative(s, f, o, t),
            # mu below and above 1: the substitution's powers differ
            lambda s, f, t: gen_ml_integral(s, MLParams(o.alpha, 0.7, 1.0), -0.8, f, t),
            lambda s, f, t: gen_ml_integral(s, MLParams(o.alpha, 1.5, 2.0), -0.8, f, t),
        ]
        for _ in range(3):
            f = random_cubic(rng)
            qf = q_reflect(f)
            for op in ops:
                for t in (0.25, 0.6, 0.9):
                    left = op(Side.Left, qf, t)
                    right = op(Side.Right, f, 1.0 - t)
                    assert abs(left - right) <= 1e-7


class TestGenMlIntegral:
    def test_unit_kernel(self):
        # gamma=1, mu=1, omega=0 collapses the kernel to 1
        p = MLParams(0.5, 1.0, 1.0)
        got = gen_ml_integral(Side.Left, p, 0.0, rf(lambda t: t * t), 1.0)
        assert abs(got - 1.0 / 3.0) <= 1e-11

    def test_empty_range(self):
        p = MLParams(0.5, 1.0, 1.0)
        assert gen_ml_integral(Side.Left, p, -1.0, X, 0.0) == 0.0
        assert gen_ml_integral(Side.Right, p, -1.0, X, 1.0) == 0.0

    def test_convolution_case(self):
        # Kil-type collapse at sigma=0, nu=1: integral of the plain kernel
        # against E(a,1) gives x E(a,2;2)
        alpha, lam = 0.5, -1.0
        p = MLParams(alpha, 1.0, 1.0)
        f = rf(lambda t: ml_value(alpha, 1.0, 1.0, lam * t**alpha))
        for x in (0.5, 1.0):
            got = gen_ml_integral(Side.Left, p, lam, f, x)
            want = x * ml_value(alpha, 2.0, 2.0, lam * x**alpha)
            assert abs(got - want) <= 1e-9

    def test_weak_singular_kernel_vs_tanh_sinh(self):
        # mu < 1 goes through the substitution path; cross-check against an
        # independent tanh-sinh evaluation of the singular integral
        p = MLParams(0.5, 0.5, 1.0)
        om = -0.8
        f = rf(lambda t: math.cos(t))
        x = 0.9
        got = gen_ml_integral(Side.Left, p, om, f, x)
        with mpmath.workdps(25):
            def integrand(t):
                d = x - t
                ml = sum(
                    (om * float(d) ** 0.5) ** k / float(math.gamma(0.5 * k + 0.5))
                    for k in range(60)
                )
                return d ** (-0.5) * ml * mpmath.cos(t)
            want = float(mpmath.quad(integrand, [0.0, x]))
        assert abs(got - want) <= 1e-7

    def test_right_operator(self):
        p = MLParams(0.5, 1.5, 1.0)
        f = rf(lambda t: 1.0)
        # kernel (t-x)^(mu-1) E(...) of a constant, against direct quadrature
        x = 0.3
        got = gen_ml_integral(Side.Right, p, -0.5, f, x)
        want = adaptive_gl(
            lambda t: (t - x) ** 0.5 * ml_value(0.5, 1.5, 1.0, -0.5 * (t - x) ** 0.5),
            x,
            1.0,
        )
        assert abs(got - want) <= 1e-9


def test_operator_linearity():
    rng = random.Random(3)
    for alpha in (0.3, 0.5, 0.7):
        o = FracOrder(alpha)
        f = random_cubic(rng)
        g = random_cubic(rng)
        c1, c2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        combo = rf(
            lambda x: c1 * f.fn(x) + c2 * g.fn(x),
            deriv=lambda x: c1 * f.deriv(x) + c2 * g.deriv(x),
        )
        for op in (rl_integral, ab_integral, abc_derivative, abr_derivative):
            for t in (0.4, 0.9):
                lhs = op(Side.Left, combo, o, t)
                rhs = c1 * op(Side.Left, f, o, t) + c2 * op(Side.Left, g, o, t)
                assert abs(lhs - rhs) <= 1e-8


def test_opposite():
    assert opposite(Side.Left) is Side.Right
    assert opposite(Side.Right) is Side.Left


# --- both ML-kernel derivatives by parts, from f alone ------------------------


def _no_derivative(x):
    raise AssertionError("an ML-kernel derivative read f'")


@st.composite
def _kernel_cases(draw):
    """(side, order, a, b, t).  The interval is at most 1 long, so the kernel
    argument stays within |z| <= 9; past that the series itself loses digits
    (ROADMAP item 1), which is not what these properties are about."""
    alpha = draw(st.floats(0.05, 0.9))
    b_norm = draw(st.floats(0.5, 2.0))
    a = draw(st.floats(-1.0, 1.0))
    b = a + draw(st.floats(0.05, 1.0))
    t = a + draw(st.floats(0.0, 1.0)) * (b - a)
    return draw(st.sampled_from(Side)), FracOrder(alpha, b_norm), a, b, min(t, b)


def _by_parts_setup(case):
    side, o, a, b, t = case
    scale = o.b_norm / (1.0 - o.alpha)
    dist = abs(t - (a if side is Side.Left else b))
    return side, o, a, b, t, scale, dist


# c excludes subnormals: they carry too few bits for a bound relative to |c|
# (c = 2.2e-313 leaves a residue of about 50 units of 4.9e-324)
@settings(max_examples=60, deadline=None)
@given(_kernel_cases(), st.floats(-3.0, 3.0, allow_subnormal=False))
def test_abc_of_a_constant_is_zero(case, c):
    side, o, a, b, t, scale, _ = _by_parts_setup(case)
    f = rf(lambda x: c, a, b, deriv=_no_derivative)
    assert abs(abc_derivative(side, f, o, t)) <= 1e-10 * scale * abs(c)


@settings(max_examples=60, deadline=None)
@given(_kernel_cases())
def test_abr_of_one_is_the_scaled_kernel(case):
    side, o, a, b, t, scale, dist = _by_parts_setup(case)
    f = rf(lambda x: 1.0, a, b, deriv=_no_derivative)
    want = scale * ml_one(o.alpha, o.lam * dist**o.alpha)
    assert abs(abr_derivative(side, f, o, t) - want) <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(_kernel_cases())
def test_abc_of_x_is_the_two_parameter_closed_form(case):
    # (B/(1-a)) dist E_{a,2}(lam dist^a), with the right side's sign
    side, o, a, b, t, scale, dist = _by_parts_setup(case)
    f = rf(lambda x: x, a, b, deriv=_no_derivative)
    want = side.sign * scale * dist * ml_value(o.alpha, 2.0, 1.0, o.lam * dist**o.alpha)
    assert abs(abc_derivative(side, f, o, t) - want) <= 1e-9 * scale * max(1.0, abs(a), abs(b))


@settings(max_examples=40, deadline=None)
@given(_kernel_cases(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_ml_kernel_derivatives_are_linear(case, c1, c2):
    side, o, a, b, t, scale, _ = _by_parts_setup(case)
    f = rf(math.sin, a, b, deriv=_no_derivative)
    g = rf(lambda x: x * x - 0.5, a, b, deriv=_no_derivative)
    combo = rf(lambda x: c1 * f.fn(x) + c2 * g.fn(x), a, b, deriv=_no_derivative)
    for op in (abc_derivative, abr_derivative):
        lhs = op(side, combo, o, t)
        rhs = c1 * op(side, f, o, t) + c2 * op(side, g, o, t)
        assert abs(lhs - rhs) <= 1e-9 * scale * (abs(c1) + abs(c2) + 1.0)


def test_abr_does_not_go_through_abc(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("abr_derivative called abc_derivative")

    monkeypatch.setattr(operators, "abc_derivative", forbidden)
    f = rf(lambda x: x * x, deriv=_no_derivative)
    for side in Side:
        assert math.isfinite(abr_derivative(side, f, HALF, 0.3))


def _ml_mp(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) summed in mpmath with enough digits for the cancellation."""
    with mpmath.workdps(30 + int(abs(z) ** (1.0 / alpha) / math.log(10))):
        a, zz = mpmath.mpf(alpha), mpmath.mpf(z)
        return float(mpmath.nsum(lambda j: zz**j * mpmath.rgamma(a * j + beta), [0, mpmath.inf]))


# At the default tolerance 1e-10 the graded substitution lands within 6e-12 of
# these closed forms; the u = d^alpha one missed them by up to 6e-10.
GRADED_ALPHAS = (0.3, 0.6, 0.75, 0.9)


@pytest.mark.parametrize("alpha", GRADED_ALPHAS)
def test_rl_integral_of_monomials_is_the_power_rule(alpha):
    # I^a x^k = k!/Gamma(k+1+a) t^(k+a), on either side
    o = FracOrder(alpha)
    for k in range(4):
        left = rf(lambda x, k=k: x**k)
        right = rf(lambda x, k=k: (1.0 - x) ** k)
        for t in (0.3, 0.7, 1.0):
            want = math.factorial(k) / math.gamma(k + 1 + alpha) * t ** (k + alpha)
            assert rl_integral(Side.Left, left, o, t) == pytest.approx(want, rel=1e-11, abs=0)
            assert rl_integral(Side.Right, right, o, 1.0 - t) == pytest.approx(want, rel=1e-11, abs=0)


@pytest.mark.parametrize("alpha", GRADED_ALPHAS)
def test_gen_ml_integral_of_monomials_is_the_convolution_closed_form(alpha):
    # integral_0^x E_a(om (x-t)^a) t^k dt = k! x^(k+1) E_{a,k+2}(om x^a)
    p, om = MLParams(alpha, 1.0, 1.0), -1.0
    for k in range(3):
        f = rf(lambda x, k=k: x**k)
        for x in (0.4, 1.0):
            want = math.factorial(k) * x ** (k + 1) * _ml_mp(alpha, k + 2.0, om * x**alpha)
            assert gen_ml_integral(Side.Left, p, om, f, x) == pytest.approx(want, rel=1e-11, abs=0)


def test_graded_substitution_needs_a_third_of_the_panels(monkeypatch):
    # the u = d^alpha substitution took 188 G7/K15 panels for this grid
    panels = 0
    panel = quadrature._eval_panel

    def counted(f, lo, hi):
        nonlocal panels
        panels += 1
        return panel(f, lo, hi)

    monkeypatch.setattr(quadrature, "_eval_panel", counted)
    f = rf(lambda x: x * x + math.sin(x))
    for i in range(11):
        abr_derivative(Side.Left, f, FracOrder(0.9), i / 10)
    assert panels <= 188 // 3


def test_near_cap_abc_of_x_is_right_or_a_typed_error():
    # every input the API accepts gets the right number or a typed error,
    # quickly; (B/(1-a)) t E_{a,2}(lam t^a) at the quarter nodes up to |z| = 49
    returned = 0
    for alpha, b in ((0.9, 2.0), (0.95, 1.0), (0.98, 1.0)):
        o, f = FracOrder(alpha), rf(lambda x: x, 0.0, b)
        for t in (0.25 * b, 0.5 * b, 0.75 * b, b):
            start = time.process_time()
            try:
                got = abc_derivative(Side.Left, f, o, t)
            except MlfracError:
                got = None
            assert time.process_time() - start < 1.0, (alpha, t)
            if got is not None:
                returned += 1
                want = t / (1.0 - alpha) * _ml_mp(alpha, 2.0, o.lam * t**alpha)
                assert abs(got - want) <= 1e-8 * abs(want), (alpha, t)
    assert returned >= 5
