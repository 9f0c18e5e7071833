import math
import random
import re

import mpmath
import pytest

from mlfrac import quadrature
from mlfrac.errors import DepthExceeded, DomainError, NonFiniteIntegrand
from mlfrac.operators import FracOrder, Side, q_reflect, rl_integral
from mlfrac.quadrature import QuadConfig, RealFunction, adaptive_gl, central_diff, power_quad

GOLDEN = 1.0 / 12.0 + 8.0 / (105.0 * math.sqrt(math.pi))


def test_polynomial_and_trig():
    assert math.isclose(adaptive_gl(lambda x: x, 0.0, 1.0), 0.5, rel_tol=1e-13)
    assert math.isclose(adaptive_gl(math.sin, 0.0, math.pi), 2.0, rel_tol=1e-12)


def test_golden_integrand():
    # integral_0^1 (1-x)(x/2 + 2 x^{3/2}/(3 sqrt(pi))) dx
    c = 2.0 / (3.0 * math.sqrt(math.pi))
    f = lambda x: (1.0 - x) * (0.5 * x + c * x**1.5)
    assert abs(adaptive_gl(f, 0.0, 1.0) - GOLDEN) <= 1e-10
    tight = QuadConfig(abs_tol=1e-13, rel_tol=1e-13)
    assert abs(adaptive_gl(f, 0.0, 1.0, tight) - GOLDEN) <= 1e-12


@pytest.mark.parametrize("bad", [0.0, -1e-10, math.nan, math.inf])
def test_quad_config_requires_finite_positive_tolerances(bad):
    # a nan or inf tolerance would stop adaptive_gl after its first panel
    for cfg in ({"abs_tol": bad}, {"rel_tol": bad}):
        with pytest.raises(DomainError, match="finite and positive"):
            QuadConfig(**cfg)


def test_panel_rule_exactness():
    # K15 is exact to degree 22; G7 only to degree 13, so |K15 - G7| first
    # opens at x^14.  Guards the hard-coded node and weight table.
    for k in range(23):
        value, err = quadrature._eval_panel(lambda x, k=k: x**k, 0.0, 1.0)
        assert abs(value - 1.0 / (k + 1)) <= 1e-15, k
        if k <= 13:
            assert err <= 1e-15, k
        elif k == 14:
            assert err > 1e-10


def test_empty_and_reversed_range():
    assert adaptive_gl(lambda x: 1.0, 2.0, 2.0) == 0.0
    with pytest.raises(DomainError):
        adaptive_gl(lambda x: 1.0, 1.0, 0.0)


def test_linearity_on_random_polynomials():
    rng = random.Random(7)
    for _ in range(10):
        c1 = [rng.uniform(-2, 2) for _ in range(4)]
        c2 = [rng.uniform(-2, 2) for _ in range(4)]
        a, b = rng.uniform(-1, 0), rng.uniform(0.5, 2)
        p = lambda x: sum(c * x**k for k, c in enumerate(c1))
        q = lambda x: sum(c * x**k for k, c in enumerate(c2))
        lam, mu = rng.uniform(-3, 3), rng.uniform(-3, 3)
        lhs = adaptive_gl(lambda x: lam * p(x) + mu * q(x), a, b)
        rhs = lam * adaptive_gl(p, a, b) + mu * adaptive_gl(q, a, b)
        assert abs(lhs - rhs) <= 2e-10 * max(1.0, abs(lhs))


def test_depth_exceeded_on_harsh_singularity(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 12)
    cfg = QuadConfig(abs_tol=1e-12, rel_tol=1e-12)
    with pytest.raises(DepthExceeded) as info:
        adaptive_gl(lambda x: abs(x - 0.3) ** -0.9, 0.0, 1.0, cfg)
    msg = str(info.value)
    assert "bisection depth 12" in msg
    assert "worst panel" in msg
    # the message carries the worst panel's estimate, the summed estimate and
    # the target max(abs_tol, rel_tol * |total|), which exceeds 1e-12 here
    est = re.search(r"error estimate (\S+), summed estimate (\S+), target (\S+)$", msg)
    assert est is not None, msg
    panel_err, total_err, target = (float(v) for v in est.groups())
    assert 0.0 < panel_err <= total_err
    assert target >= 1e-12
    assert total_err > target


def test_panel_budget_message(monkeypatch):
    monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 4)
    cfg = QuadConfig(abs_tol=1e-12, rel_tol=1e-12)
    with pytest.raises(DepthExceeded, match=r"within 4 panels on \[0, 1\]: worst panel .* target "):
        adaptive_gl(lambda x: abs(x - 0.3) ** -0.9, 0.0, 1.0, cfg)


def test_non_finite_integrand():
    with pytest.raises(NonFiniteIntegrand):
        adaptive_gl(lambda x: math.sqrt(x - 0.5) if x >= 0.5 else math.nan, 0.0, 1.0)


def _rf(fn, a=0.0, b=1.0, deriv=None):
    return RealFunction(fn=fn, a=a, b=b, deriv=deriv)


def test_rl_constant_and_identity_cases():
    f1 = _rf(lambda s: 1.0)
    got = rl_integral(Side.Left, f1, FracOrder(0.5), 1.0)
    assert abs(got - 1.0 / math.gamma(1.5)) <= 1e-12
    assert rl_integral(Side.Left, f1, FracOrder(0.5), 0.0) == 0.0


def test_rl_linear_closed_form():
    # f(x) = x, order 1/2 from 0: Gamma(2) t^{3/2} / Gamma(5/2)
    f = _rf(lambda s: s)
    for t in (0.25, 0.5, 1.0):
        want = math.gamma(2.0) * t**1.5 / math.gamma(2.5)
        assert abs(rl_integral(Side.Left, f, FracOrder(0.5), t) - want) <= 1e-12


def test_rl_monomial_rule_sweep():
    # (1/G(a)) int (t-s)^{a-1} (s-a)^b ds = G(b+1)(t-a)^{a+b}/G(a+b+1)
    for alpha in (0.25, 0.5, 0.75):
        for beta in (0, 1, 2, 3):
            f = _rf(lambda s, beta=beta: (s - 0.0) ** beta)
            t = 0.8
            want = math.gamma(beta + 1.0) * t ** (alpha + beta) / math.gamma(alpha + beta + 1.0)
            got = rl_integral(Side.Left, f, FracOrder(alpha), t)
            assert abs(got - want) <= 1e-9


def test_rl_quadratic_derived_value():
    # power-rule oracle with beta = 2, alpha = 1/2 at t = 1
    want = math.gamma(3.0) / math.gamma(3.5)
    got = rl_integral(Side.Left, _rf(lambda s: s * s), FracOrder(0.5), 1.0)
    assert abs(got - want) <= 1e-10


def test_rl_right_mirror():
    # right-side power rule: (1/G(a)) int_t^b (s-t)^{a-1}(b-s)^beta ds
    alpha, beta, b = 0.5, 2.0, 1.0
    f = _rf(lambda s: (b - s) ** beta)
    for t in (0.0, 0.3, 0.9):
        want = math.gamma(beta + 1.0) * (b - t) ** (alpha + beta) / math.gamma(alpha + beta + 1.0)
        assert abs(rl_integral(Side.Right, f, FracOrder(alpha), t) - want) <= 1e-9
    assert rl_integral(Side.Right, f, FracOrder(alpha), b) == 0.0


def test_rl_substitution_vs_direct_singular_quadrature():
    # cross-validate the substitution path against an independent
    # tanh-sinh evaluation of the weakly singular integral
    alpha, t = 0.6, 0.9
    f = _rf(lambda s: math.sin(s) + 0.5 * s * s, a=0.0, b=1.0)
    got = rl_integral(Side.Left, f, FracOrder(alpha), t)
    direct = float(
        mpmath.quad(
            lambda s: (t - s) ** (alpha - 1.0) * (mpmath.sin(s) + 0.5 * s * s),
            [0.0, t],
        )
        / mpmath.gamma(alpha)
    )
    assert abs(got - direct) <= 1e-7


def test_rl_domain_errors():
    f = _rf(lambda s: 1.0)
    for side in (Side.Left, Side.Right):
        with pytest.raises(DomainError):
            rl_integral(side, f, FracOrder(0.5), 1.5)
        with pytest.raises(DomainError):
            rl_integral(side, f, FracOrder(0.5), -0.5)
        with pytest.raises(DomainError):
            rl_integral(side, f, FracOrder(-0.5), 0.5)
        with pytest.raises(DomainError):
            rl_integral(side, f, FracOrder(math.inf), 0.5)
        anchor = side.anchor(f)
        assert rl_integral(side, f, FracOrder(0.5), anchor) == 0.0


def test_grading_power_above_the_cap_is_a_domain_error():
    # a small rho, or a small mu that needs many multiples m of 1/rho
    for mu, rho in ((1e-4, 1e-4), (1e-320, 1e-320), (1e-300, 0.5)):
        with pytest.raises(DomainError, match="grading power"):
            power_quad(lambda s: 1.0, 0.0, 1.0, mu, rho)
    assert power_quad(lambda s: 1.0, 0.0, 1.0, 1e-3, 1e-3) == pytest.approx(1e3, rel=1e-12)


def test_real_function_needs_a_finite_interval():
    for a, b in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (1.0, 1.0)):
        with pytest.raises(DomainError, match="finite a < b"):
            RealFunction(fn=lambda s: 1.0, a=a, b=b)


def test_central_diff_basics():
    assert abs(central_diff(_rf(lambda x: x * x), 1.0) - 2.0) <= 1e-9
    assert abs(central_diff(_rf(math.sin, a=-1.0, b=1.0), 0.0) - 1.0) <= 1e-9
    assert abs(central_diff(_rf(math.exp), 1.0) - math.e) <= 1e-8


def test_central_diff_endpoints_one_sided():
    f = _rf(lambda x: x**3, a=0.0, b=1.0)
    assert abs(central_diff(f, 0.0) - 0.0) <= 1e-8
    assert abs(central_diff(f, 1.0) - 3.0) <= 1e-7
    with pytest.raises(DomainError):
        central_diff(f, 1.5)


def test_central_diff_samples_stay_inside_a_short_interval():
    # the step is capped at (b - a)/6, so even the one-sided five-point taps
    # of an interval shorter than the default step read only [a, b]
    a, b = 1.0, 1.0 + 1e-6

    def fn(x):
        assert a <= x <= b, x
        return x**3

    f = _rf(fn, a=a, b=b)
    for t in (a, a + 1e-7, 0.5 * (a + b), b - 1e-7, b):
        assert central_diff(f, t) == pytest.approx(3.0 * t * t, rel=1e-7)


def test_central_diff_agrees_with_analytic():
    f = RealFunction(fn=lambda x: math.exp(0.5 * x) * math.sin(x), a=0.0, b=2.0,
                     deriv=lambda x: math.exp(0.5 * x) * (0.5 * math.sin(x) + math.cos(x)))
    for t in (0.1, 0.7, 1.3, 1.9):
        assert abs(central_diff(f, t) - f.deriv(t)) <= 1e-7


def test_power_quad_integrates_piece_by_piece_between_breaks(monkeypatch):
    # |s - 0.3| against (1 - s)^(-1/2) from the anchor 0 to t = 1: the kink at
    # s = 0.3 is one break, so two adaptive calls integrate polynomials in w
    f = lambda s: abs(s - 0.3)
    r = math.sqrt(0.7)
    exact = (0.7 * 2.0 * r - 2.0 / 3.0 * r**3) + (2.0 / 3.0 - 1.4) - (2.0 / 3.0 * r**3 - 1.4 * r)
    calls = []
    real = quadrature.adaptive_gl
    monkeypatch.setattr(quadrature, "adaptive_gl", lambda *a: calls.append(a[1:]) or real(*a))
    got = power_quad(f, 0.0, 1.0, 0.5, 0.5, breaks=(0.3,))
    assert abs(got - exact) <= 1e-15
    # each piece gets half the absolute tolerance and the unchanged relative one
    assert [(lo, hi, cfg.abs_tol, cfg.rel_tol) for lo, hi, cfg in calls] == [
        (0.0, math.sqrt(0.7), 5e-11, 1e-10), (math.sqrt(0.7), 1.0, 5e-11, 1e-10)]


def test_power_quad_without_an_interior_break_is_one_call(monkeypatch):
    # breaks at or outside the range's ends leave the single adaptive call,
    # and its value, exactly as with no breaks at all
    f = lambda s: abs(s - 0.3)
    calls = []
    real = quadrature.adaptive_gl
    monkeypatch.setattr(quadrature, "adaptive_gl", lambda *a: calls.append(a) or real(*a))
    for anchor, breaks in ((0.0, (0.0, 1.0)), (0.0, (-2.0, 1.5)), (0.3, (0.3,))):
        with_breaks = power_quad(f, anchor, 1.0, 0.5, 0.5, breaks=breaks)
        assert with_breaks == power_quad(f, anchor, 1.0, 0.5, 0.5)
    assert len(calls) == 6


def _counted(fn):
    """fn and a list that grows by one entry per call of it."""
    calls = []
    return (lambda s: calls.append(s) or fn(s)), calls


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_rl_integral_is_graded_at_a_declared_anchor_cusp(alpha):
    # I^a sqrt(s) = Gamma(1.5)/Gamma(1.5+a) t^(0.5+a); the declared cusp at the
    # anchor is graded, where the undeclared one is bisected toward
    for t in (0.1, 0.3, 0.6, 1.0):
        want = math.gamma(1.5) / math.gamma(1.5 + alpha) * t ** (0.5 + alpha)
        fn, declared = _counted(math.sqrt)
        sqrt = RealFunction(fn, 0.0, 1.0, cusp=(0.0, 0.5))
        assert abs(rl_integral(Side.Left, sqrt, FracOrder(alpha), t) - want) <= 1e-14
        fn, undeclared = _counted(math.sqrt)
        rl_integral(Side.Left, RealFunction(fn, 0.0, 1.0), FracOrder(alpha), t)
        assert 3 * len(declared) <= len(undeclared)
        mirrored = rl_integral(Side.Right, q_reflect(sqrt), FracOrder(alpha), 1.0 - t)
        assert abs(mirrored - want) <= 1e-14


def test_power_quad_splits_a_cusp_at_the_anchor_into_two_halves(monkeypatch):
    calls = []
    real = quadrature.adaptive_gl
    monkeypatch.setattr(quadrature, "adaptive_gl", lambda *a: calls.append(a[1:]) or real(*a))
    cfg = QuadConfig(1e-10, 1e-10)
    got = power_quad(math.sqrt, 0.0, 1.0, 0.5, 0.5, cfg, cusp=(0.0, 0.5))
    assert abs(got - math.pi / 2.0) <= 1e-14  # B(1/2, 3/2)
    # one adaptive call per half, each at the whole of the caller's tolerances
    assert [c for *_, c in calls] == [cfg, cfg]


@pytest.mark.parametrize("anchor, far", [(0.0, 1.0), (1.0, 0.0)])
def test_a_cusp_at_the_anchor_is_the_hand_written_midpoint_split_at_mu_one(anchor, far):
    # with mu = 1 and no kernel the half at the anchor integrates fn itself,
    # so the cusp path gives the two graded halves' sum bit for bit
    fn, cfg = (lambda s: math.cos(s) * abs(s - anchor) ** 0.3), QuadConfig(1e-8, 1e-8)
    for alpha in (0.25, 0.5, 0.75):
        halves = power_quad(fn, 0.5, anchor, 1.0, alpha, cfg) + power_quad(fn, 0.5, far, 1.0, 0.5, cfg)
        assert power_quad(fn, anchor, far, 1.0, 0.5, cfg, cusp=(anchor, alpha)) == halves


def test_a_cusp_away_from_the_anchor_leaves_the_value_bit_identical():
    f = lambda s: math.sqrt(1.0 - s)
    plain, far = RealFunction(f, 0.0, 1.0), RealFunction(f, 0.0, 1.0, cusp=(1.0, 0.5))
    for alpha in (0.25, 0.5, 0.75):
        for t in (0.3, 0.6, 1.0):
            assert rl_integral(Side.Left, far, FracOrder(alpha), t) == rl_integral(
                Side.Left, plain, FracOrder(alpha), t)


@pytest.mark.parametrize("cusp", [(0.5, 0.5), (0.0, 0.0), (1.0, -0.5), (0.0, math.nan), (1.0, math.inf)])
def test_a_cusp_needs_an_end_and_a_finite_positive_power(cusp):
    with pytest.raises(DomainError, match="cusp"):
        RealFunction(math.sqrt, 0.0, 1.0, cusp=cusp)
