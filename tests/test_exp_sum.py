"""The exponential-sum form of the ML kernel and the fractional velocity built on it.

The oracle is an mpmath evaluation of E_{alpha,beta}(-x) from its definition:
the power series at 80 digits where x^(1/alpha) < 100 (its terms then stay
below e^100, about 1e43, so 37 digits survive the cancellation) and the
asymptotic expansion -sum_k (-x)^-k / Gamma(beta - alpha k) above, where its
smallest term is below e^-97.  The two agree to 1e-25 at the switch.
"""

import functools
import math
import threading

import mpmath as mp
import numpy as np
import pytest

from mlfrac.errors import DomainError
from mlfrac.operators import FracOrder, GridFunction
from mlfrac.special import Z_MAX, exp_sum_kernel
from mlfrac.variational import fractional_velocity

_TOL = mp.mpf(10) ** -25


@functools.cache
def _coefficients(alpha: float, beta: int) -> list:
    # x^(1/alpha) < 100 needs alpha k up to about 330 before terms fall below 1e-27
    with mp.workdps(80):
        return [mp.rgamma(mp.mpf(alpha) * k + beta) for k in range(int(400 / alpha) + 50)]


@functools.cache
def mp_ml(alpha: float, beta: int, x: float):
    """E_{alpha,beta}(-x) for x >= 0, to about 25 digits."""
    with mp.workdps(80):
        a, x, total = mp.mpf(alpha), mp.mpf(x), mp.mpf(0)
        if x ** (1 / a) < 100:
            power = mp.mpf(1)
            for k, coef in enumerate(_coefficients(alpha, beta)):
                term = power * coef
                total += term
                if k > 10 and abs(term) < _TOL * abs(total):
                    return total
                power *= -x
        else:
            for k in range(1, 100000):
                total -= (-x) ** -k * mp.rgamma(beta - a * k)
                if x ** -k * (2 + mp.gamma(a * k + 1)) < _TOL * abs(total):
                    return total
    raise AssertionError(f"oracle did not converge at alpha={alpha}, beta={beta}, x={x}")


def kernel_lam(alpha: float) -> float:
    return -alpha / (1.0 - alpha)


class TestRule:
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98])
    def test_kernel_and_antiderivative_match_mpmath(self, alpha):
        lam = kernel_lam(alpha)
        w, c = exp_sum_kernel(alpha, lam)
        assert abs(float(np.sum(w)) - 1.0) <= 1e-15
        assert float((w / c) @ -np.expm1(-c * 0.0)) == 0.0
        for x in (0.0, 1e-10, 1e-6, 1e-3, 0.05, 0.5, 2.0, 7.0, 20.0, 60.0, Z_MAX):
            s = (x / -lam) ** (1.0 / alpha)
            kernel = float(np.exp(-c * s) @ w)
            antider = float((w / c) @ -np.expm1(-c * s))
            assert abs(kernel - mp_ml(alpha, 1, x)) <= 1e-12 * mp_ml(alpha, 1, x), (x, "E")
            want = s * mp_ml(alpha, 2, x)
            assert abs(antider - want) <= 1e-12 * want, (x, "G")

    def test_rates_stay_finite_over_the_domain(self):
        # the lowest rate stands for every node with C s_max <= eps; the highest
        # keeps C s_max <= 1e300
        for alpha in (0.05, 0.5, 0.98):
            lam = kernel_lam(alpha)
            w, c = exp_sum_kernel(alpha, lam)
            s_max = (Z_MAX / -lam) ** (1.0 / alpha)
            assert np.all(np.diff(c) > 0.0) and np.all(w > 0.0)
            assert c[0] * s_max <= 1.001 * 2.0**-52 and c[-1] * s_max <= 1e300
            assert np.all(np.isfinite(w / c))

    def test_arrays_are_cached_and_read_only(self):
        w, c = exp_sum_kernel(0.5, -1.0)
        assert exp_sum_kernel(0.5, -1.0)[0] is w
        for arr in (w, c):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_two_threads_building_one_order_agree(self):
        alpha, lam = 0.3141, -0.4579  # an order no other test builds
        barrier = threading.Barrier(2)
        out = []

        def build():
            barrier.wait(timeout=10)
            out.append(exp_sum_kernel(alpha, lam))

        threads = [threading.Thread(target=build) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads) and len(out) == 2
        for a, b in zip(*out):
            assert np.array_equal(a, b) and not a.flags.writeable

    def test_rejects_what_it_cannot_hold(self):
        bad = ((0.0, -1.0), (1.0, -1.0), (0.5, 0.0), (0.5, -math.inf), (0.5, math.nan))
        # |lam| > Z_MAX, or so small that s_max = (Z_MAX/|lam|)^(1/alpha) overflows
        for alpha, lam in bad + ((0.5, -101.0), (0.5, -1e-200)):
            with pytest.raises(DomainError):
                exp_sum_kernel(alpha, lam)
        # below alpha ~ 0.047 the rates past C s_max = 1e300 would carry more than 1e-12
        with pytest.raises(DomainError, match="cannot hold"):
            exp_sum_kernel(0.03, kernel_lam(0.03))


def sum_by_parts(grid: GridFunction, ord_: FracOrder, i: int, delta: float):
    """(value, t-derivative) of the fractional velocity at t = x_i + delta, at 30
    digits: (B/(1-alpha)) sum over the nodes x_j < t of jump_j (t-x_j)
    E_{alpha,2}(lam (t-x_j)^alpha), and the same with the kernel E_alpha in
    place of the antiderivative; at t = a, the limit from the right.  The
    distances are (i-j) h + delta, so they repeat across points and the
    oracle's cache serves them."""
    with mp.workdps(30):
        alpha, lam = ord_.alpha, ord_.lam
        slopes = np.diff(grid.values) / grid.h
        jumps = np.diff(slopes, prepend=0.0, append=0.0)
        value = deriv = mp.mpf(0)
        for j in range(i + 1 if delta > 0.0 or i == 0 else i):
            s = (i - j) * grid.h + delta
            z = float(-lam * mp.mpf(s) ** alpha)
            value += jumps[j] * s * mp_ml(alpha, 2, z)
            deriv += jumps[j] * mp_ml(alpha, 1, z)
        scale = ord_.b_norm / (1.0 - alpha)
        return float(scale * value), float(scale * deriv)


@pytest.mark.parametrize("n", [16, 200])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9, 0.98])
def test_fractional_velocity_matches_mpmath_sum_by_parts(alpha, n):
    # the series path this replaces raised ConvergenceError at alpha = 0.98,
    # where the kernel argument reaches -49
    ord_ = FracOrder(alpha, 0.8)
    ts = np.linspace(0.0, 1.0, n + 1)
    grid = GridFunction(0.0, 1.0, n, np.sin(2.0 * ts) + ts**2)
    fv = fractional_velocity(grid, ord_)
    # a, two nodes (each closing the cell to its left), b, and points inside
    # three cells at one offset
    delta = 0.37 * grid.h
    nodes = [(0, 0.0), (1, 0.0), (n // 2, 0.0), (n, 0.0)]
    points = nodes + [(0, delta), (n // 3, delta), (n - 1, delta)]
    want = np.array([sum_by_parts(grid, ord_, i, d) for i, d in points])
    got = np.array([(fv.fn(ts[i] + d), fv.deriv(ts[i] + d)) for i, d in points])
    for k in (0, 1):
        assert np.max(np.abs(got[:, k] - want[:, k])) <= 1e-12 * np.max(np.abs(want[:, k]))
