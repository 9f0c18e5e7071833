import math
import random

import pytest

from mlfrac.errors import ConvergenceError, DomainError, PoleError
from mlfrac.special import TERM_CAP, MLParams, gamma_fn, ml_eval, ml_one, ml_value, pochhammer


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


def test_pochhammer_values():
    assert pochhammer(-1.0, 0) == 1.0
    assert pochhammer(-1.0, 1) == -1.0
    assert pochhammer(-1.0, 2) == 0.0
    assert pochhammer(-1.0, 5) == 0.0
    assert pochhammer(3.0, 4) == 360.0
    assert pochhammer(0.5, 2) == 0.75


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
    # strongly alternating sum: true value ~ 0.09, largest term ~ 3e14
    r = ml_eval(MLParams(0.5, 1.0, 1.0), -6.0)
    assert r.precision_flag
    assert abs(r.value) < 1e-13 * r.max_term_magnitude
    # and the flag definition is an iff
    r2 = ml_eval(MLParams(1.0, 1.0, 1.0), 2.0)
    assert not r2.precision_flag
    assert abs(r2.value) >= 1e-13 * r2.max_term_magnitude


def test_ml_monotone_term_decay_after_knee():
    p = MLParams(0.8, 1.2, 1.0)
    z = 5.0
    r = ml_eval(p, z, record_terms=True)
    assert r.terms is not None
    # past the index where Gamma growth dominates z^k the terms must shrink
    kstar = next(
        k for k in range(len(r.terms)) if p.rho * k + p.mu > abs(z) ** (1.0 / p.rho)
    )
    mags = [abs(t) for t in r.terms[kstar:]]
    assert all(m2 < m1 for m1, m2 in zip(mags, mags[1:]) if m1 > 0)


def test_ml_value_matches_ml_eval():
    assert ml_value(0.5, 1.0, 1.0, -0.7) == ml_eval(MLParams(0.5, 1.0, 1.0), -0.7).value


def _reference_series(rho, mu, g, z):
    """The series summed term by term, as plainly as possible: the term cap
    and the truncation of negative-integer g checked before every term, each
    ratio from its own two log-gammas, every term kept."""
    truncated = g <= 0.0 and g == math.floor(g)
    n_exact = int(1 - g) if truncated else TERM_CAP
    term = math.exp(-math.lgamma(mu))
    total, max_term, terms, tiny_run, k = term, abs(term), [term], 0, 0
    while True:
        if truncated and k + 1 >= n_exact:
            return total, k + 1, max_term, terms
        if k + 1 >= TERM_CAP:
            raise ConvergenceError(f"did not converge within {TERM_CAP} terms")
        ratio = (g + k) / (k + 1) * math.exp(math.lgamma(rho * k + mu) - math.lgamma(rho * (k + 1) + mu))
        term = term * ratio * z
        total += term
        k += 1
        terms.append(term)
        if not math.isfinite(total):
            raise ConvergenceError(f"overflowed at term {k} ")
        a = abs(term)
        max_term = max(max_term, a)
        if a == 0.0 or a < 1e-16 * abs(total):
            tiny_run += 1
            if tiny_run == 2:
                return total, k + 1, max_term, terms
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
            value, used, max_term, terms = _reference_series(rho, mu, g, z)
        except ConvergenceError as exc:
            raised += 1
            for call in (lambda: ml_value(rho, mu, g, z), lambda: ml_eval(MLParams(rho, mu, g), z, True)):
                with pytest.raises(ConvergenceError, match=str(exc)):
                    call()
            continue
        # ml_value answers only where rounding in the largest term stays
        # within 1e-6 of the value; ml_eval always answers, with the flag
        if 2.0**-52 * max_term <= 1e-6 * abs(value):
            assert ml_value(rho, mu, g, z).hex() == value.hex(), (rho, mu, g, z)
        else:
            cancelled += 1
            with pytest.raises(ConvergenceError, match="cancellation"):
                ml_value(rho, mu, g, z)
        r = ml_eval(MLParams(rho, mu, g), z, record_terms=True)
        assert (r.value.hex(), r.terms_used, r.max_term_magnitude.hex()) == (value.hex(), used, max_term.hex())
        assert [t.hex() for t in r.terms] == [t.hex() for t in terms], (rho, mu, g, z)
    assert 0 < raised < len(grid) // 4
    assert 0 < cancelled < len(grid) // 4
