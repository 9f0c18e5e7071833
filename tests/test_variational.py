import math
import tracemalloc

import numpy as np
import pytest

from mlfrac import variational
from mlfrac.errors import DegenerateOrder, DivergenceError, DomainError
from mlfrac.expr import parse_expr, to_real_function
from mlfrac.identities import zero_mode
from mlfrac.operators import (
    FracOrder,
    GridFunction,
    Side,
    ab_integral,
    abc_derivative,
    abr_derivative,
    q_reflect,
    rl_integral,
)
from mlfrac.quadrature import QuadConfig, RealFunction
from mlfrac.special import ml_value
from mlfrac.variational import (
    LagrangianEval,
    SolverConfig,
    el_residual,
    fractional_velocity,
    natural_bc,
    residual_grid,
    rl_integral_on_grid,
    solve_free_particle,
    solve_quadratic_potential,
)

HALF = FracOrder(0.5, 1.0)
SMOOTH16 = GridFunction(0.0, 1.0, 16, np.linspace(0.0, 1.0, 17) ** 2)
CFG8 = QuadConfig(abs_tol=1e-8, rel_tol=1e-8)


def zero_traj_fn(y):
    return RealFunction(fn=lambda t: 0.0, a=0.0, b=1.0, deriv=lambda t: 0.0)


class TestNaturalBc:
    def test_zero_l2(self):
        l2 = RealFunction(fn=lambda t: 0.0, a=0.0, b=1.0)
        assert natural_bc(l2, HALF, Side.Right) == (0.0, 0.0)

    def test_order_at_the_cap_rejected(self):
        l2 = RealFunction(fn=lambda t: t, a=0.0, b=1.0)
        with pytest.raises(DegenerateOrder, match="require alpha < 0.99"):
            natural_bc(l2, FracOrder(0.995), Side.Right)

    def test_anchor_endpoint_exact_zero(self):
        l2 = RealFunction(fn=lambda t: t * t + 1.0, a=0.0, b=1.0)
        at0, atb = natural_bc(l2, HALF, Side.Right)
        assert atb == 0.0
        at0_l, _ = natural_bc(l2, HALF, Side.Left)
        assert at0_l == 0.0

    def test_linear_l2_against_direct_quadrature(self):
        # right operator at t=0 is int_0^1 E_{1/2}(-s^{1/2}) s ds
        l2 = RealFunction(fn=lambda t: t, a=0.0, b=1.0)
        at0, atb = natural_bc(l2, HALF, Side.Right)
        ss = np.linspace(0.0, 1.0, 20001)
        vals = np.array([ml_value(0.5, 1.0, 1.0, -math.sqrt(s)) * s for s in ss])
        oracle = float(np.trapezoid(vals, ss))
        assert atb == 0.0
        assert abs(at0 - oracle) <= 1e-8


class TestFreeParticle:
    def test_closed_form_values(self):
        g = solve_free_particle(HALF, 0.0, 1.0, SolverConfig(grid_n=10))
        assert g.singular == (0,)
        assert g.values[0] == 0.0
        assert abs(g.values[-1] - 1.0 / (2.0 * math.sqrt(math.pi))) <= 1e-14
        t5 = g.ts[5]
        assert abs(g.values[5] - 0.5 * t5**-0.5 / math.gamma(0.5)) <= 1e-14

    def test_classical_limit(self):
        g = solve_free_particle(FracOrder(0.999, 1.0), 1.0, 2.0, SolverConfig(grid_n=40))
        mask = g.ts >= 0.5
        assert np.max(np.abs(g.values[mask] - 2.0)) <= 5e-3

    def test_matches_the_zero_mode_per_node(self):
        for alpha in (0.25, 0.5, 0.999):
            o = FracOrder(alpha, 0.8)
            g = solve_free_particle(o, 0.0, 2.0, SolverConfig(grid_n=50))
            want = np.array([zero_mode(o, float(t)) for t in g.ts[1:]])
            assert np.all(np.abs(g.values[1:] - want) <= 2.0 * np.spacing(want))

    def test_amplitude_parameter(self):
        g1 = solve_free_particle(HALF, 0.5, 1.0, SolverConfig(grid_n=8), amplitude=2.0)
        g2 = solve_free_particle(HALF, 0.5, 1.0, SolverConfig(grid_n=8), amplitude=1.0)
        assert np.allclose(g1.values[1:] - 0.5, 2.0 * (g2.values[1:] - 0.5))

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_free_particle(HALF, 0.0, -1.0)
        for y0, b, amplitude in ((0.0, math.inf, 1.0), (math.nan, 1.0, 1.0), (0.0, 1.0, math.inf)):
            with pytest.raises(DomainError, match="finite"):
                solve_free_particle(HALF, y0, b, SolverConfig(grid_n=8), amplitude)

    def test_overflowing_mode_is_refused(self):
        # numpy warned of the overflow, and the grid then refused a "non-finite sample"
        # at the default 200 cells: the divide, the multiply and then the add overflow
        for ord_, y0, amplitude in ((FracOrder(0.5, 1e-308), 0.0, 1.0), (HALF, 0.0, 1e308), (HALF, 1.5e308, 1e307)):
            with pytest.raises(DomainError, match="overflows"):
                solve_free_particle(ord_, y0, 1.0, amplitude=amplitude)


class TestElResidual:
    def test_constant_trajectory(self):
        y = RealFunction(fn=lambda t: 3.0, a=0.0, b=1.0, deriv=lambda t: 0.0)
        lag = LagrangianEval(l1=zero_traj_fn, l2=zero_traj_fn, deriv_side=Side.Left)
        r = el_residual(lag, y, HALF, residual_grid(1.0, 10))
        assert np.max(np.abs(r.values)) <= 1e-8
        assert r.singular == ()

    def test_free_particle_plugback(self):
        # the extremal's fractional velocity vanishes identically, so L2 is
        # the zero function and the residual is the opposite-side derivative
        # of zero
        for alpha in (0.3, 0.5, 0.7):
            o = FracOrder(alpha, 1.0)
            y = solve_free_particle(o, 0.0, 1.0).to_real_function()
            lag = LagrangianEval(l1=zero_traj_fn, l2=zero_traj_fn, deriv_side=Side.Left)
            r = el_residual(lag, y, o, residual_grid(1.0, 10))
            assert np.max(np.abs(r.values)) <= 1e-5

    def test_operator_failures_recorded_not_raised(self):
        lag = LagrangianEval(
            l1=zero_traj_fn,
            l2=lambda y: RealFunction(fn=lambda t: t, a=0.4, b=1.0),
            deriv_side=Side.Left,
        )
        y = RealFunction(fn=lambda t: t, a=0.0, b=1.0)
        grid = residual_grid(1.0, 5)  # nodes below 0.4 are outside l2's domain
        r = el_residual(lag, y, HALF, grid)
        assert len(r.singular) > 0
        assert all(math.isnan(r.values[i]) for i in r.singular)

    def test_overflowing_l1_node_is_flagged(self):
        l1 = to_real_function(parse_expr("exp(1000*x)"), 0.0, 1.0)
        lag = LagrangianEval(l1=lambda y: l1, l2=zero_traj_fn, deriv_side=Side.Left)
        y = RealFunction(fn=lambda t: t, a=0.0, b=1.0)
        r = el_residual(lag, y, HALF, residual_grid(1.0, 9))
        # exp overflows above t = 0.7098: the nodes 0.8, 0.9 and 1
        assert r.singular == (7, 8, 9)
        assert np.all(np.isfinite(r.values[:7])) and np.all(np.isnan(r.values[7:]))


def dense_composed(ord_, b, n):
    """M_L M_R of the solver as dense matrices, filled cell by cell: the cell
    [x_j, x_j+1] below node i adds its two hat-function moments to columns j
    and j+1 of row i.  M_R is M_L reversed in both indices."""
    alpha, h = ord_.alpha, b / n
    # the moments cancel, so the ends are the nodes j h: hi - h instead
    # would cost 3e-14 of the bound at n = 800
    hi = np.arange(1, n + 1) * h
    lo = np.arange(0, n) * h
    p0 = (hi**alpha - lo**alpha) / alpha
    p1 = (hi ** (alpha + 1.0) - lo ** (alpha + 1.0)) / (alpha + 1.0)
    q1, q2 = p1 - lo * p0, hi * p0 - p1
    w = np.zeros((n + 1, n + 1))
    for j in range(n):
        # the rows i = j+1 .. n, at distance i - j - 1 = 0 .. n-j-1 above the cell
        w[j + 1 :, j] += q1[: n - j]
        w[j + 1 :, j + 1] += q2[: n - j]
    w /= math.gamma(alpha) * h
    m_left = ((1.0 - alpha) * np.eye(n + 1) + alpha * w) / ord_.b_norm
    return m_left @ m_left[::-1, ::-1]


class TestWeightMatrix:
    def test_exact_on_linear(self):
        for alpha in (0.3, 0.5, 0.75):
            ts = np.linspace(0.0, 1.0, 41)
            got = rl_integral_on_grid(ts, alpha, 1.0 / 40)
            want = ts ** (1.0 + alpha) / math.gamma(2.0 + alpha)
            assert np.max(np.abs(got - want)) <= 1e-14
            gotc = rl_integral_on_grid(np.ones(41), alpha, 1.0 / 40)
            wantc = ts**alpha / math.gamma(1.0 + alpha)
            assert np.max(np.abs(gotc - wantc)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 2000])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_matches_direct_convolution(self, n, alpha):
        # the FFT product against np.convolve of the same product-integration weights
        h = 1.0 / n
        x = np.arange(0, n + 2) * h
        dp = np.diff(x**alpha) / alpha
        dp1 = np.diff(x ** (alpha + 1.0)) / (alpha + 1.0)
        q1 = np.concatenate(([0.0], dp1 - x[:-1] * dp))
        q2 = np.concatenate(([0.0], x[1:] * dp - dp1))
        vals = np.cos(7.0 * x[:-1]) + x[:-1]
        lagged = np.convolve(q1[:-1] + q2[1:], vals)[: n + 1] - vals[0] * q2[1:]
        want = lagged / (math.gamma(alpha) * h)
        got = rl_integral_on_grid(vals, alpha, h)
        assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))
        assert got[0] == want[0] == 0.0

    @pytest.mark.parametrize(
        "args",
        [(np.ones(9), math.inf, 0.125), (np.ones(9), 0.5, 0.0), (np.ones(9), 0.5, -0.125),
         (np.ones(9), 0.5, math.nan), (np.array([]), 0.5, 0.125),
         (np.array([0.0, 1.0, math.nan]), 0.5, 0.125)],
        ids=["alpha-inf", "h-zero", "h-negative", "h-nan", "no-samples", "nan-sample"],
    )
    def test_rejects_bad_input(self, args):
        # a non-finite sample would reach every node through the FFT product
        with pytest.raises(DomainError, match="rl_integral_on_grid"):
            rl_integral_on_grid(*args)

    def test_matches_quadrature_of_interpolant(self):
        # dual route: lag convolution against the adaptive substitution path,
        # both applied to the same piecewise-linear function.  The interpolant
        # carries its nodes as breakpoints, so power_quad integrates each
        # linear cell on its own and meets the product-integration weights to
        # rounding: left, right, and the right side of the reflection, whose
        # breakpoints are 1 - x.  With the cells merged into one adaptive range
        # these samples were up to 7.2e-7 off at alpha = 0.9, at the default
        # 1e-10 target and with no flag raised.
        n = 16
        ts = np.linspace(0.0, 1.0, n + 1)
        vals = np.sin(5.0 * ts) + 0.3 * (-1.0) ** np.arange(n + 1)
        interp = GridFunction(0.0, 1.0, n, vals).to_real_function()
        mirror = q_reflect(interp)
        for alpha in (0.25, 0.5, 0.7, 0.9):
            ord_ = FracOrder(alpha)
            left = rl_integral_on_grid(vals, alpha, 1.0 / n)
            right = rl_integral_on_grid(vals[::-1], alpha, 1.0 / n)[::-1]
            for i, t in enumerate(ts.tolist()):
                assert abs(rl_integral(Side.Left, interp, ord_, t) - left[i]) <= 1e-14
                assert abs(rl_integral(Side.Right, interp, ord_, t) - right[i]) <= 1e-14
                assert abs(rl_integral(Side.Right, mirror, ord_, 1.0 - t) - left[i]) <= 1e-14

    def test_quadrature_of_interpolant_on_2000_cells(self):
        # one adaptive range over all 2,000 kinks ran out of its 4,000 panels
        # (DepthExceeded); cell by cell the quadrature is exact.  Against a
        # 30-digit product-integration sum at these nodes the quadrature is
        # 1.5e-15 off and the FFT reference 2.9e-12, which sets the tolerance.
        n, alpha = 2000, 0.9
        ts = np.linspace(0.0, 1.0, n + 1)
        vals = np.sin(5.0 * ts) + 0.3 * (-1.0) ** np.arange(n + 1)
        interp = GridFunction(0.0, 1.0, n, vals).to_real_function()
        ord_ = FracOrder(alpha)
        left = rl_integral_on_grid(vals, alpha, 1.0 / n)
        right = rl_integral_on_grid(vals[::-1], alpha, 1.0 / n)[::-1]
        for i in (1, 777, n):
            assert abs(rl_integral(Side.Left, interp, ord_, float(ts[i])) - left[i]) <= 1e-11
            assert abs(rl_integral(Side.Right, interp, ord_, float(ts[n - i])) - right[n - i]) <= 1e-11

    def test_right_side_is_the_reversal(self):
        # the right RL integral is ab_integral(Side.Right) less its w0 f term
        ord_ = FracOrder(0.4, 0.7)
        n, b = 20, 1.5
        ts = np.linspace(0.0, b, n + 1)
        vals = np.cos(3.0 * ts) + ts
        interp = GridFunction(0.0, b, n, vals).to_real_function()
        got = rl_integral_on_grid(vals[::-1], ord_.alpha, b / n)[::-1]
        w0, w1 = (1.0 - ord_.alpha) / ord_.b_norm, ord_.alpha / ord_.b_norm
        for i in (0, 7, 13, 19, 20):
            direct = (ab_integral(Side.Right, interp, ord_, float(ts[i])) - w0 * vals[i]) / w1
            assert abs(got[i] - direct) <= 1e-9
        assert got[-1] == 0.0


def test_interpolant_is_np_interp():
    rng = np.random.default_rng(7)
    grid = GridFunction(-0.3, 1.7, 37, rng.normal(size=38))
    interp = grid.to_real_function()
    assert [interp.fn(t) for t in grid.ts.tolist()] == grid.values.tolist()
    ts = np.concatenate([rng.uniform(-1.0, 2.5, 2000), [-math.inf, math.inf]])
    got = np.array([interp.fn(t) for t in ts.tolist()])
    want = np.interp(ts, grid.ts, grid.values)
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


class TestQuadraticPotential:
    def test_zero_coupling_single_step(self):
        res = solve_quadratic_potential(HALF, 0.0, 2.0, 1.0, SolverConfig(grid_n=16))
        assert res.iterations == 1
        assert np.allclose(res.grid.values, 2.0)

    def test_fixed_point_self_consistency(self):
        res = solve_quadratic_potential(HALF, 0.1, 1.0, 1.0)
        assert res.residual_sup <= 1e-7
        assert res.contraction_q is not None and res.contraction_q < 1.0
        assert res.contraction_bound < 1.0

    def test_geometric_decay(self):
        for c in (0.05, 0.1, 0.2):
            res = solve_quadratic_potential(HALF, c, 1.0, 1.0, SolverConfig(grid_n=64))
            assert res.residual_sup <= 1e-7
            changes = res.sup_changes
            ratios = [c2 / c1 for c1, c2 in zip(changes[1:], changes[2:]) if c1 > 0]
            assert all(r < 1.0 for r in ratios)

    def test_grid_refinement_stability(self):
        r1 = solve_quadratic_potential(HALF, 0.1, 1.0, 1.0, SolverConfig(grid_n=50))
        r2 = solve_quadratic_potential(HALF, 0.1, 1.0, 1.0, SolverConfig(grid_n=100))
        assert np.max(np.abs(r2.grid.values[::2] - r1.grid.values)) <= 5e-4

    def test_divergence_detected(self):
        with pytest.raises(DivergenceError):
            solve_quadratic_potential(HALF, 30.0, 1.0, 1.0, SolverConfig(grid_n=16))

    def test_alpha_one_rejected(self):
        with pytest.raises(DegenerateOrder):
            solve_quadratic_potential(FracOrder(1.0), 0.1, 1.0, 1.0)

    def test_non_finite_scalars_rejected_at_once(self):
        for c, y0, b in ((math.nan, 1.0, 1.0), (0.1, math.inf, 1.0), (0.1, 1.0, math.inf)):
            with pytest.raises(DomainError, match="finite"):
                solve_quadratic_potential(HALF, c, y0, b, SolverConfig(fp_max_iter=1))

    @pytest.mark.parametrize("field, value, match", [
        ("grid_n", 8.5, "grid_n must be an integer"),
        ("grid_n", True, "grid_n must be an integer"),
        ("fp_max_iter", 10.0, "fp_max_iter must be an integer"),
        ("fp_max_iter", False, "fp_max_iter must be an integer"),
        ("fp_tol", math.inf, "fp_tol must be finite and positive"),
        ("fp_tol", math.nan, "fp_tol must be finite and positive"),
        ("fp_tol", 0.0, "fp_tol must be finite and positive"),
    ])
    def test_solver_config_rejects_a_bad_value(self, field, value, match):
        with pytest.raises(DomainError, match=match):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("n", [16, 64, 800])
    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    def test_matches_dense_system(self, n, alpha):
        # bound = |c| times the largest row sum of the non-negative M_L M_R,
        # and the fixed point solves (I - c M_L M_R) y = y0
        ord_, c, y0, b = FracOrder(alpha, 0.7), 0.1, 1.3, 1.0
        composed = dense_composed(ord_, b, n)
        assert np.all(composed >= 0.0)
        res = solve_quadratic_potential(ord_, c, y0, b, SolverConfig(grid_n=n, fp_tol=1e-14))
        want_bound = abs(c) * np.max(np.sum(composed, axis=1))
        assert abs(res.contraction_bound - want_bound) <= 1e-14 * want_bound
        direct = np.linalg.solve(np.eye(n + 1) - c * composed, np.full(n + 1, y0))
        assert np.max(np.abs(res.grid.values - direct)) <= 1e-12

    def test_large_grid_allocates_no_dense_operator(self):
        # one (2001 x 2001) float matrix alone is 32 MB
        solve_quadratic_potential(HALF, 0.1, 1.0, 1.0, SolverConfig(grid_n=16))
        tracemalloc.start()
        try:
            solve_quadratic_potential(HALF, 0.1, 1.0, 1.0, SolverConfig(grid_n=2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestFractionalVelocity:
    def test_matches_direct_operator_on_smooth_grid(self):
        n = 12
        ts = np.linspace(0.0, 1.0, n + 1)
        grid = GridFunction(0.0, 1.0, n, ts**2)
        fv = fractional_velocity(grid, HALF)
        interp = grid.to_real_function()
        cfg = QuadConfig(abs_tol=1e-7, rel_tol=1e-7)
        # t = a, inside the first cell, between nodes, on a node, t = b
        for t in (0.0, 0.05, 0.35, float(ts[5]), 0.8, 1.0):
            direct = abc_derivative(Side.Left, interp, HALF, t, cfg)
            assert abs(fv.fn(t) - direct) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_grid_of_x_matches_the_closed_forms(self, alpha):
        # D x = (B/(1-a)) t E_{a,2}(lam t^a), and its t-derivative is
        # (B/(1-a)) E_a(lam t^a); the interpolant of x is x itself.  On [0, 1]
        # |z| <= 3, where the series reference keeps 1e-12 (at z = -5 and
        # a = 0.75 its cancellation costs 1.4e-11)
        o, n, b = FracOrder(alpha, 0.8), 16, 1.0
        ts = np.linspace(0.0, b, n + 1)
        fv = fractional_velocity(GridFunction(0.0, b, n, ts), o)
        scale = o.b_norm / (1.0 - alpha)
        for t in [0.0, *ts[1:-1], *(ts[:-1] + 0.5 * b / n), b]:
            z = o.lam * t**alpha
            value, slope = scale * t * ml_value(alpha, 2.0, 1.0, z), scale * ml_value(alpha, 1.0, 1.0, z)
            assert abs(fv.fn(t) - value) <= 1e-12 * abs(value)
            assert abs(fv.deriv(t) - slope) <= 1e-12 * abs(slope)

    def test_no_series_call_at_any_t(self, monkeypatch):
        # value and derivative come from the exponential sum, O(M) per point
        # whatever the number of nodes below t
        calls = []
        real = variational.ml_value

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(variational, "ml_value", counted)
        n = 12
        ts = np.linspace(0.0, 1.0, n + 1)
        fv = fractional_velocity(GridFunction(0.0, 1.0, n, ts**2), HALF)
        for t in (0.0, 0.05, float(ts[5]), 0.55, 1.0):
            for evaluate in (fv.fn, fv.deriv):
                evaluate(t)
        assert calls == []

    @pytest.mark.parametrize(
        "case",
        [
            # the kernel argument would leave the series domain at the first evaluation
            (lambda: (SMOOTH16, FracOrder(0.995)), DegenerateOrder, "require alpha"),
            # y0 stands in for the unbounded sample at t = 0
            (lambda: (solve_free_particle(HALF, 1.0, 1.0), HALF), DomainError, "singular"),
            # |lam| (b-a)^alpha = 9 * 20^0.9 = 133 > Z_MAX
            (
                lambda: (GridFunction(0.0, 20.0, 16, SMOOTH16.values), FracOrder(0.9)),
                DomainError,
                "<= 100",
            ),
            # the exponential sum cannot hold the kernel below alpha ~ 0.047
            (lambda: (SMOOTH16, FracOrder(0.03)), DomainError, "cannot hold"),
        ],
        ids=["near-cap-order", "singular-grid", "beyond-rule-domain", "tiny-order"],
    )
    def test_rejects_bad_input_at_construction(self, case):
        make, error, match = case
        with pytest.raises(error, match=match):
            fractional_velocity(*make())

    def test_rejects_t_outside_the_grid(self):
        fv = fractional_velocity(SMOOTH16, HALF)
        for t in (-1e-9, 1.0 + 1e-9):
            for evaluate in (fv.fn, fv.deriv):
                with pytest.raises(DomainError, match="outside"):
                    evaluate(t)

    def test_derivative_consistency(self):
        n = 12
        ts = np.linspace(0.0, 1.0, n + 1)
        grid = GridFunction(0.0, 1.0, n, np.cos(ts))
        fv = fractional_velocity(grid, HALF)
        for t in (0.3, 0.77):
            h = 1e-6
            fd = (fv.fn(t + h) - fv.fn(t - h)) / (2.0 * h)
            assert abs(fv.deriv(t) - fd) <= 1e-5
        # one ulp above a node the derivative takes the node's slope jump
        node = float(ts[5])
        assert abs(fv.deriv(math.nextafter(node, 2.0)) - fv.deriv(node + 1e-10)) <= 1e-4


def decomposition(n, cfg, c=0.1):
    """Euler-Lagrange residual of the grid_n = n Picard fixed point and the
    boundary-mode defect, on five nodes of [0.25, 1].

    The fixed point of y = y0 + c ABI_left(ABI_right y) satisfies the
    Euler-Lagrange equation only up to the boundary mode
    -c (ABI_right y)(0) ABR_right[E_alpha(lam t^alpha)]: inverting the left
    Caputo-type derivative introduces that term, so residual + defect is the
    discretisation's gap."""
    res = solve_quadratic_potential(HALF, c, 1.0, 1.0, SolverConfig(grid_n=n))
    traj = res.grid
    yfun = traj.to_real_function()
    l2fn = fractional_velocity(traj, HALF)
    lag = LagrangianEval(
        l1=lambda y: RealFunction(fn=lambda t: -c * yfun.fn(t), a=0.0, b=1.0),
        l2=lambda y: l2fn,
        deriv_side=Side.Left,
    )
    grid = residual_grid(1.0, 4, start_frac=0.25)
    resid = el_residual(lag, yfun, HALF, grid, cfg)

    lam = HALF.lam
    g0 = ab_integral(Side.Right, yfun, HALF, 0.0)
    mode = RealFunction(
        fn=lambda t: ml_value(0.5, 1.0, 1.0, lam * t**0.5) if t > 0 else 1.0,
        a=0.0,
        b=1.0,
        deriv=lambda t: lam * t**-0.5 * ml_value(0.5, 0.5, 1.0, lam * t**0.5),
    )
    defect = np.array(
        [c * g0 * abr_derivative(Side.Right, mode, HALF, float(t), cfg) for t in grid.ts]
    )
    return resid.values, defect


def test_quadratic_potential_el_decomposition():
    # the decomposition exercises solver and operators end to end
    resid, defect = decomposition(16, QuadConfig(abs_tol=1e-7, rel_tol=1e-7))
    assert np.max(np.abs(resid + defect)) <= 1e-3
    # the defect itself is far from zero, so the decomposition is informative
    assert np.max(np.abs(defect)) > 1e-2


def test_decomposition_gap_converges_at_order_one_plus_alpha():
    """The gap falls like h^(1+alpha) as the grid is refined.

    The Picard iterate is the exact fixed point of the product-integration
    system of the piecewise-linear interpolant, so the gap is the
    interpolation error carried through the operators.  The solution has a
    t^alpha component at each end (the RL integral of a constant), which
    linear interpolation on a uniform grid resolves only to O(h^(1+alpha));
    the smooth part's O(h^2) decays faster, so the observed order approaches
    1 + alpha = 1.5 from above.  Measured with the quadrature at 1e-11 and
    the Picard tolerance at 1e-13: gaps 4.437e-4, 1.484e-4, 5.035e-5,
    1.724e-5, 5.942e-6 and 2.060e-6 at grid_n 16 to 512, orders 1.580,
    1.560, 1.547, 1.536 and 1.528.  The quadrature at 1e-9 and the default
    Picard tolerance used here move each gap by less than 2e-4 of itself.
    """
    cfg = QuadConfig(abs_tol=1e-9, rel_tol=1e-9)
    gaps = [np.max(np.abs(np.add(*decomposition(n, cfg)))) for n in (16, 32, 64)]
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert np.all((1.5 <= orders) & (orders <= 1.6)), orders
    assert orders[1] < orders[0]
