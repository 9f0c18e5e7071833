import contextlib
import math
import random
import re
import sys
import threading

import numpy as np
import pytest

from mlfrac import quadrature, special
from mlfrac.errors import ConvergenceError, DomainError, MlfracError, PoleError
from mlfrac.special import TERM_CAP, MLParams, gamma_fn, ml_eval, ml_one, ml_value

EPS = 2.0**-52


def test_gamma_classical_values():
    assert gamma_fn(1.0) == 1.0
    assert math.isclose(gamma_fn(0.5), math.sqrt(math.pi), rel_tol=1e-14)
    assert gamma_fn(5.0) == 24.0
    # reflection-side value: Gamma(-0.5) = -2 sqrt(pi)
    assert math.isclose(gamma_fn(-0.5), -2.0 * math.sqrt(math.pi), rel_tol=1e-13)


def test_gamma_relative_accuracy_across_range():
    # spot-check against exact factorials and half-integer closed forms
    for n in range(2, 160, 7):
        assert math.isclose(gamma_fn(float(n)), math.factorial(n - 1), rel_tol=1e-13)


def test_gamma_errors():
    with pytest.raises(PoleError):
        gamma_fn(0.0)
    with pytest.raises(PoleError):
        gamma_fn(-3.0)
    with pytest.raises(OverflowError):
        gamma_fn(170.5)
    with pytest.raises(DomainError):
        gamma_fn(math.nan)


def test_ml_exponential():
    r = ml_eval(MLParams(1.0, 1.0, 1.0), 1.0)
    assert math.isclose(r.value, math.e, rel_tol=1e-14)
    assert r.terms_used <= 2000
    assert not r.precision_flag


def test_ml_gamma_zero_is_constant():
    # Prabhakar parameter 0 truncates after the k=0 term: 1/Gamma(mu) for any z
    for z in (-7.0, 0.0, 3.5, 90.0):
        r = ml_eval(MLParams(0.7, 2.5, 0.0), z)
        assert math.isclose(r.value, 1.0 / math.gamma(2.5), rel_tol=1e-14)
        assert r.terms_used == 1


def test_ml_negative_integer_gamma_truncates_exactly():
    r = ml_eval(MLParams(0.5, 1.0, -1.0), 1.0)
    expected = 1.0 - 2.0 / math.sqrt(math.pi)
    assert abs(r.value - expected) <= 1e-14
    assert r.terms_used == 2


def test_ml_erfc_identity():
    # E_{1/2,1}(z) = exp(z^2) erfc(-z) on the real line
    for i in range(31):
        z = -3.0 + 0.1 * i
        got = ml_eval(MLParams(0.5, 1.0, 1.0), z).value
        want = math.exp(z * z) * math.erfc(-z)
        assert abs(got - want) <= 1e-11


def test_ml_at_zero_inverse_gamma():
    for beta in (0.1, 0.5, 1.0, 2.0, 7.5, 20.0, 50.0):
        r = ml_eval(MLParams(0.8, beta, 1.0), 0.0)
        assert abs(r.value * math.gamma(beta) - 1.0) <= 1e-13


def test_ml_exp_band():
    for i in range(41):
        z = -10.0 + 0.5 * i
        got = ml_eval(MLParams(1.0, 1.0, 1.0), z).value
        assert abs(got - math.exp(z)) <= 1e-12 * math.exp(abs(z))


def test_ml_cosine_band():
    for i in range(26):
        z = -25.0 + i
        got = ml_eval(MLParams(2.0, 1.0, 1.0), z).value
        assert abs(got - math.cos(math.sqrt(-z))) <= 1e-11


def test_ml_two_parameter_reduction():
    # gamma = 1 must agree with an arbitrary-precision two-parameter sum
    import mpmath

    rng = random.Random(42)
    with mpmath.workdps(40):
        for _ in range(100):
            rho = rng.uniform(0.3, 2.0)
            mu = rng.uniform(0.2, 3.0)
            z = rng.uniform(-3.0, 3.0)
            zm = mpmath.mpf(z)
            total = mpmath.mpf(0)
            for k in range(400):
                term = zm**k / mpmath.gamma(rho * k + mu)
                total += term
                if k > 4 and abs(term) < 1e-25 * abs(total):
                    break
            direct = float(total)
            got = ml_eval(MLParams(rho, mu, 1.0), z).value
            assert abs(got - direct) <= 1e-14 * max(1.0, 10 * abs(direct))


def test_ml_domain_and_convergence_errors():
    with pytest.raises(DomainError):
        ml_eval(MLParams(0.5, 1.0, 1.0), 101.0)
    with pytest.raises(ConvergenceError):
        # slowly growing terms exhaust the 2000-term cap before converging
        ml_eval(MLParams(0.005, 1.0, 1.0), 1.05)
    # nan is outside the domain too, for the bare value as for ml_eval
    for evaluate in (lambda z: ml_eval(MLParams(0.5, 1.0, 1.0), z), lambda z: ml_value(0.5, 1.0, 1.0, z),
                     lambda z: ml_one(0.5, z)):
        with pytest.raises(DomainError, match="working domain"):
            evaluate(math.nan)
    with pytest.raises(DomainError):
        MLParams(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        MLParams(1.0, -2.0, 1.0)
    for rho, mu in ((math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(DomainError):
            MLParams(rho, mu, 1.0)


def test_ml_cancellation_flag():
    # strongly alternating sums, flagged and refused by ml_value alike; the
    # truths are 80-digit mpmath series
    for rho, z, truth in (
        (0.5, -6.0, 0.0927765678005),
        (0.5, -12.0, 0.0468542210149),  # the series sums to -9.7e48 here
        (0.9, -16.8, 0.0069757413473),  # 2.3e-3 off, yet 9e-12 of the largest term
    ):
        r = ml_eval(MLParams(rho, 1.0, 1.0), z)
        assert r.precision_flag
        assert EPS * r.max_term_magnitude > 1e-6 * abs(r.value)
        assert abs(r.value - truth) > 1e-6 * truth
        with pytest.raises(ConvergenceError, match="cancellation"):
            ml_value(rho, 1.0, 1.0, z)
    # and the flag definition is an iff: a mild loss of digits within the
    # bound is not flagged, and ml_value answers there
    for rho, z in ((1.0, 2.0), (0.5, -3.0)):
        r = ml_eval(MLParams(rho, 1.0, 1.0), z)
        assert not r.precision_flag
        assert EPS * r.max_term_magnitude <= 1e-6 * abs(r.value)
        assert ml_value(rho, 1.0, 1.0, z) == pytest.approx(r.value, rel=1e-12)


def test_numpy_scalar_z_raises_the_typed_error():
    # numpy scalar arithmetic would overflow with a RuntimeWarning instead
    for z in (-40.0, np.float64(-40.0)):
        with pytest.raises(ConvergenceError):
            ml_value(0.25, 0.25, 1.0, z)
    assert ml_eval(MLParams(0.5, 1.0, 1.0), np.float64(-0.7)) == ml_eval(MLParams(0.5, 1.0, 1.0), -0.7)
    assert type(ml_value(0.5, 1.0, 1.0, np.float64(-0.7))) is float


def test_ml_value_matches_ml_eval():
    r = ml_eval(MLParams(0.5, 1.0, 1.0), -0.7)
    assert abs(ml_value(0.5, 1.0, 1.0, -0.7) - r.value) <= 4 * r.terms_used * EPS * r.max_term_magnitude


def _reference_series(rho, mu, g, z):
    """The series summed term by term, as plainly as possible: the term cap
    and the truncation of negative-integer g checked before every term, each
    ratio from its own two log-gammas."""
    truncated = g <= 0.0 and g == math.floor(g)
    n_exact = int(1 - g) if truncated else TERM_CAP
    term = math.exp(-math.lgamma(mu))
    total, max_term, tiny_run, k = term, abs(term), 0, 0
    while True:
        if truncated and k + 1 >= n_exact:
            return total, k + 1, max_term
        if k + 1 >= TERM_CAP:
            raise ConvergenceError(f"did not converge within {TERM_CAP} terms")
        ratio = (g + k) / (k + 1) * math.exp(math.lgamma(rho * k + mu) - math.lgamma(rho * (k + 1) + mu))
        term = term * ratio * z
        total += term
        k += 1
        if not math.isfinite(total):
            raise ConvergenceError(f"overflowed at term {k} ")
        a = abs(term)
        max_term = max(max_term, a)
        if a == 0.0 or a < 1e-16 * abs(total):
            tiny_run += 1
            if tiny_run == 2:
                return total, k + 1, max_term
        else:
            tiny_run = 0


def test_ml_series_is_bit_identical_to_the_reference_recurrence():
    grid = [
        (rho, mu, g, z)
        for rho in (0.25, 0.5, 0.9, 1.5)
        for mu in (0.5, 1.0, 1.7)
        for g in (1.0, 0.6, 2.5, 0.0, -1.0, -4.0)
        for z in (0.0, 1e-300, -0.7, 2.5, -9.0, -30.0)
    ] + [(0.005, 1.0, 1.0, 1.05), (0.5, 1.0, -2500.0, 0.1), (0.5, 1.0, -40.0, 1e-300)]
    raised = cancelled = 0
    for rho, mu, g, z in grid:
        try:
            value, used, max_term = _reference_series(rho, mu, g, z)
        except ConvergenceError as exc:
            raised += 1
            for call in (lambda: ml_value(rho, mu, g, z), lambda: ml_eval(MLParams(rho, mu, g), z)):
                with pytest.raises(ConvergenceError, match=str(exc)):
                    call()
            continue
        # ml_value answers only where rounding in the largest term stays
        # within 1e-6 of the value; ml_eval always answers, flagged where not
        kept = EPS * max_term <= 1e-6 * abs(value)
        if kept:
            assert abs(ml_value(rho, mu, g, z) - value) <= 4 * used * EPS * max_term, (rho, mu, g, z)
        else:
            cancelled += 1
            with pytest.raises(ConvergenceError, match="cancellation"):
                ml_value(rho, mu, g, z)
        r = ml_eval(MLParams(rho, mu, g), z)
        assert (r.value.hex(), r.terms_used, r.max_term_magnitude.hex()) == (value.hex(), used, max_term.hex())
        assert r.precision_flag is not kept, (rho, mu, g, z)
    assert 0 < raised < len(grid) // 4
    assert 0 < cancelled < len(grid) // 4


def _mp_series(rho, mu, z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        zm, total, k = mpmath.mpf(z), mpmath.mpf(0), 0
        while True:
            term = zm**k * mpmath.rgamma(rho * k + mu)
            total += term
            if k > 4 and abs(term) < mpmath.mpf(10) ** -45 * abs(total):
                return float(total)
            k += 1


@pytest.mark.parametrize("alpha, z_max", [(0.25, 0.34), (0.5, 1.0), (0.75, 3.0), (0.9, 9.0)])
def test_ml_value_against_a_50_digit_series(alpha, z_max):
    # the kernel-grid ranges: |z| up to alpha / (1 - alpha) on [0, 1]
    worst = {"value": 0.0, "loop": 0.0}
    for mu in (alpha, 1.0):
        for i in range(61):
            z = -z_max * i / 60
            exact = _mp_series(alpha, mu, z)
            r = ml_eval(MLParams(alpha, mu), z)
            got = ml_value(alpha, mu, 1.0, z)
            assert abs(got - exact) <= 4 * r.terms_used * EPS * r.max_term_magnitude, (mu, z)
            worst["value"] = max(worst["value"], abs(got - exact) / abs(exact))
            worst["loop"] = max(worst["loop"], abs(r.value - exact) / abs(exact))
    assert worst["value"] <= 1.5 * worst["loop"], worst


@pytest.mark.parametrize("rho", [0.25, 0.5, 1.5])
def test_ml_value_far_out_is_finite_or_typed(rho):
    for mu in (rho, 1.0):
        for g in (1.0, 0.6, 2.5):
            for z in (-100.0, -30.0, 30.0, 100.0):
                try:
                    value = ml_value(rho, mu, g, z)
                except MlfracError:
                    continue
                assert isinstance(value, float) and math.isfinite(value), (rho, mu, g, z)


@pytest.mark.parametrize("rho, g, z", [(0.5, 10000.5, 10**-0.5), (0.5, 100000.5, 10**-2.5), (2.0, 1e8 + 0.5, 0.1)])
def test_ml_value_with_huge_coefficients_matches_the_loop(rho, g, z):
    # coefficients c_k far above the terms c_k z^k: a Horner partial sum
    # would overflow although every term and the value are finite
    r = ml_eval(MLParams(rho, 1.0, g), z)
    assert abs(ml_value(rho, 1.0, g, z) - r.value) <= 4 * r.terms_used * EPS * r.max_term_magnitude


def test_ml_value_first_calls_from_threads_match_serial_calls():
    triples = [(0.3 + 0.01 * i, 0.7 + 0.02 * i, 1.0) for i in range(6)]
    zs = [-8.0 * j / 40 for j in range(41)] + [0.5, 1.5]
    zs += [s * 2.0 ** (j / 4) for j in range(-8, 13) for s in (-1.0, 1.0)]  # band edges

    def value_or_error(p, z):
        try:
            return ml_value(*p, z)
        except ConvergenceError as exc:
            return str(exc)

    def values():
        return [[value_or_error(p, z) for z in zs] for p in triples]

    special._plan.cache_clear()
    start = threading.Barrier(4)
    results = [None] * 4

    def worker(i):
        start.wait()
        results[i] = values()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    special._plan.cache_clear()
    serial = values()
    assert all(r == serial for r in results)


@pytest.mark.parametrize("g, length", [(1.0, TERM_CAP), (0.6, TERM_CAP), (0.0, 0), (-5.0, 5), (-3000.0, TERM_CAP)])
def test_a_known_triple_builds_no_new_plan(g, length):
    rho, mu = 0.37, 1.13  # a triple no other test uses

    def calls():
        for z in (-0.3, 0.2, -2.5, 0.7, 1e-9, 0.0):
            for call in (lambda: ml_value(rho, mu, g, z), lambda: ml_eval(MLParams(rho, mu, g), z)):
                with contextlib.suppress(ConvergenceError):
                    call()

    calls()
    misses = special._plan.cache_info().misses
    calls()
    assert special._plan.cache_info().misses == misses
    assert sum(1 for _ in special._ratios(rho, mu, g)) == length


def test_a_fresh_triple_evaluates_only_the_log_gammas_it_needs(monkeypatch):
    counted = []
    lgamma = math.lgamma
    monkeypatch.setattr(math, "lgamma", lambda x: counted.append(x) or lgamma(x))
    ml_value(0.41, 1.17, 1.0, -0.3)  # triples no other test uses
    first_value = len(counted)
    ml_eval(MLParams(0.43, 1.19, 1.0), -0.3)
    assert first_value < 100 and len(counted) - first_value < 100, (first_value, len(counted))


@pytest.mark.parametrize("g", [math.inf, -math.inf, math.nan])
def test_non_finite_third_parameter_is_a_domain_error(g):
    with pytest.raises(DomainError, match="finite gamma"):
        MLParams(0.5, 1.0, g)
    for z in (0.5, -3.0, 0.0):
        with pytest.raises(DomainError, match="finite gamma"):
            ml_value(0.5, 1.0, g, z)


@pytest.mark.parametrize("rho, mu", [(-0.01, 1.0), (0.5, 0.0), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)])
def test_bad_rho_or_mu_is_a_domain_error_that_caches_nothing(rho, mu):
    size = special._plan.cache_info().currsize
    for z in (0.1, -0.3, 0.0):
        with pytest.raises(DomainError, match="rho > 0" if not 0 < rho < math.inf else "mu > 0"):
            ml_value(rho, mu, 1.0, z)
    assert special._plan.cache_info().currsize == size


@pytest.mark.parametrize("rho, mu", [(1e303, 1.0), (0.5, 1e306)])
def test_rho_or_mu_past_the_log_gamma_range_is_a_domain_error(rho, mu):
    # lgamma(rho k + mu) overflows past about 2.5e305
    for call in (lambda: ml_eval(MLParams(rho, mu), 0.5), lambda: ml_value(rho, mu, 1.0, 0.5)):
        with pytest.raises(DomainError, match=r"rho \* 2000 \+ mu < 1e305"):
            call()
    assert ml_value(rho / 1e4, mu / 1e4, 1.0, 0.5) == ml_eval(MLParams(rho / 1e4, mu / 1e4), 0.5).value


def test_subnormal_mu_is_a_domain_error():
    # the first series ratio, Gamma(mu)/Gamma(rho+mu) ~ 1/mu, overflows below
    # the smallest normal float, which still answers z e^z, the mu -> 0 limit
    for call in (lambda: ml_eval(MLParams(1.0, 1e-310), 0.5), lambda: ml_value(1.0, 1e-310, 1.0, 0.5)):
        with pytest.raises(DomainError, match="smallest normal float"):
            call()
    assert math.isclose(ml_value(1.0, sys.float_info.min, 1.0, 0.5), 0.5 * math.exp(0.5), rel_tol=1e-15)


def _band_points(b):
    """The inner edge, centre and last float of |z| band b, both signs."""
    lo = 0.0 if b == special._FLOOR_BAND else 2.0 ** (b / 4)
    hi = min(2.0 ** ((b + 1) / 4), special.Z_MAX)
    return [s * x for x in (lo, 0.5 * (lo + hi), math.nextafter(hi, 0.0)) for s in (1.0, -1.0)]


@pytest.mark.parametrize("alpha, mu", [(alpha, mu) for alpha in (0.25, 0.5, 0.75, 0.9) for mu in (alpha, 1.0)])
def test_band_plans_are_short_and_ml_value_raises_exactly_where_the_loop_raises(alpha, mu):
    # the operators reach |z| <= alpha / (1 - alpha) on [0, 1]
    top = math.floor(4.0 * math.log2(alpha / (1.0 - alpha)))
    raised = 0
    for b in range(special._FLOOR_BAND, 27):
        if b <= top:
            coeffs, _, _ = special._plan(alpha, mu, 1.0, b, True)
            assert len(coeffs) <= 20, (b, len(coeffs))
        for z in _band_points(b):
            try:
                r = ml_eval(MLParams(alpha, mu), z)
            except ConvergenceError as exc:
                raised += 1
                with pytest.raises(ConvergenceError, match=re.escape(str(exc))):
                    ml_value(alpha, mu, 1.0, z)
                continue
            if r.precision_flag:
                raised += 1
                with pytest.raises(ConvergenceError, match="cancellation"):
                    ml_value(alpha, mu, 1.0, z)
            else:
                got = ml_value(alpha, mu, 1.0, z)
                assert abs(got - r.value) <= 4 * r.terms_used * EPS * r.max_term_magnitude, z
    assert raised > 0


def test_per_parameter_caches_are_bounded():
    for cached in (special._plan, special.exp_sum_kernel, quadrature._grading):
        assert cached.cache_info().maxsize is not None


@pytest.mark.parametrize("cached, args", [
    (quadrature._grading, lambda i: (1.0, 0.5 + i / 1024)),
], ids=["grading"])
def test_cache_stops_at_its_bound_and_rebuilds_the_same_value(cached, args):
    bound = cached.cache_info().maxsize
    first = cached(*args(0))
    for i in range(1, bound + 8):
        cached(*args(i))
    assert cached.cache_info().currsize == bound
    again = cached(*args(0))  # evicted, so built again
    assert again is not first and again == first


def _loop_calls(zs):
    grid = [(a, mu, z) for a in (0.25, 0.5, 0.75, 0.9) for mu in (a, 1.0) for z in zs]

    def value(a, mu, z):
        with contextlib.suppress(ConvergenceError):
            ml_value(a, mu, 1.0, z)

    for point in grid:  # build the plans
        value(*point)
    calls = []
    loop = special._sum_series
    special._sum_series = lambda *args: calls.append(args) or loop(*args)
    try:
        for point in grid:
            value(*point)
    finally:
        special._sum_series = loop
    return len(calls)


def test_positive_bands_send_few_values_to_the_loop():
    # every coefficient is positive there, so a plan answers its whole band;
    # with the floor of z < 0 the loop took 728 of these 1,600 values.  The
    # rest raise in the loop (253, alpha = 0.25 from z of about 4) or sit in
    # bands where z^n or a coefficient leaves the float range (155: alpha =
    # 0.25 from z of about 2.8, alpha = 0.5 from z = 8).
    zs = [1.0 + 9.0 * i / 199 for i in range(200)]
    assert _loop_calls(zs) <= 410
    assert _loop_calls([-z for z in zs]) == 667  # negative plans are unchanged
