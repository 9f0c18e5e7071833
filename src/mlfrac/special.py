"""Gamma and Mittag-Leffler series evaluation.

The three-parameter (Prabhakar) Mittag-Leffler function

    E(rho, mu, gamma; z) = sum_k  (gamma)_k z^k / (Gamma(rho k + mu) k!)

is the kernel of every nonlocal operator in this package.  Terms are
generated by a ratio recurrence whose gamma factors are evaluated as
log-gamma differences, so the series stays in floating-point range far
past the overflow point of Gamma itself.  Each ratio is computed as the
loop reads it, so a sum costs only its own terms.  One loop,
:func:`_sum_series`, sums them and returns a :class:`SeriesResult` with the
cancellation verdict: a value has lost its digits iff eps times the largest
term exceeds 1e-6 of it.  ``ml_eval`` returns that result.  ``ml_value``,
the operators' kernel, sums per quarter-octave |z| band and sign of z the
terms the loop needs at the band's outer edge, re-expanded once about the
band's midpoint into about ten coefficients, by Horner's rule, and hands z
to the loop where that sum falls below the band's floor (see :func:`_plan`;
the last 8,192 plans are all it keeps); it raises where the loop sets the
verdict.

``exp_sum_kernel`` gives the operator kernel E_alpha(lam s^alpha), lam < 0,
as an exact sum of decaying exponentials instead.  For 0 < alpha < 1 the
kernel is completely monotone (Gorenflo, Loutchko & Luchko, FCAA 5(4), 2002):
with theta = alpha pi and c = (-lam)^(1/alpha),

    E_alpha(lam s^alpha) = integral over y of w(y) exp(-c e^(y/alpha) s) dy,
    w(y) = sin(theta) / (4 theta (sinh^2(y/2) + cos^2(theta/2))),

with y the log of the Laplace variable raised to alpha; w is positive, has
unit mass and falls off like e^(-|y|), so the integrand has no cancellation.
A G7/K15 rule in y turns the integral into sum_j W_j exp(-C_j s), and the
kernel's antiderivative s E_{alpha,2}(lam s^alpha) into
sum_j (W_j/C_j)(1 - exp(-C_j s)).  Both hold on the series' domain
0 <= |lam| s^alpha <= Z_MAX, down to s = 0, to a few 1e-15 relative for
alpha >= 0.06 and to 1e-12 down to alpha = 0.047 (see :func:`exp_sum_kernel`).
Each rule is built on first use, in 5-10 ms and with 450-700 terms for
alpha in [0.5, 0.98] (0.3 s and 5,000 terms at alpha = 0.05), and kept as
read-only arrays for the last 32 (alpha, lam) pairs used.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate, islice, pairwise, tee

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError
from .quadrature import _GK15

#: Hard cap on the number of series terms before giving up.
TERM_CAP = 2000

#: Largest |z| accepted by :func:`ml_eval`.  Kernel arguments produced by the
#: operator layer stay well inside this bound because orders close to 1 are
#: rejected there.
Z_MAX = 100.0

_REL_STOP = 1e-16
_CANCEL_LIMIT = 1e-6 / 2.0**-52  # the cancellation bound on max_term / |value|


def gamma_fn(x: float) -> float:
    """Gamma function with the error contract used throughout the package.

    Relative error is at machine level (<= 1e-13) for x in [-50, 170].
    """
    if not math.isfinite(x):
        raise DomainError(f"gamma_fn requires finite x, got {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma_fn has a pole at the non-positive integer {x:g}")
    if x > 170.0:
        raise OverflowError(f"gamma_fn overflows for x > 170 (got {x:g})")
    return math.gamma(x)


@dataclass(frozen=True)
class MLParams:
    """Parameters (rho, mu, gamma_p) of the generalized Mittag-Leffler function."""

    rho: float
    mu: float
    gamma_p: float = 1.0

    def __post_init__(self) -> None:
        _check_params("MLParams", self.rho, self.mu, self.gamma_p)


def _check_params(owner: str, rho: float, mu: float, gamma_p: float) -> None:
    """DomainError unless rho, mu > 0 and gamma_p are finite and every
    log-gamma argument rho k + mu, k <= TERM_CAP, is below 1e305."""
    if not (0.0 < rho < math.inf):
        raise DomainError(f"{owner} requires finite rho > 0, got {rho!r}")
    if not (0.0 < mu < math.inf):
        raise DomainError(f"{owner} requires finite mu > 0, got {mu!r}")
    if not (-math.inf < gamma_p < math.inf):
        raise DomainError(f"{owner} requires finite gamma_p, got {gamma_p!r}")
    if not rho * TERM_CAP + mu < 1e305:  # lgamma overflows past about 2.5e305
        raise DomainError(f"{owner} requires rho * {TERM_CAP} + mu < 1e305, got rho={rho!r}, mu={mu!r}")


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of one series summation, built only by :func:`_sum_series`'s loop.

    ``precision_flag``, set there, is true iff eps times the largest term
    magnitude exceeds 1e-6 of the value: cancellation may have cost more than
    1e-6 of it, and :func:`ml_value` raises there.
    """

    value: float
    terms_used: int
    max_term_magnitude: float
    precision_flag: bool


def _ratios(rho: float, mu: float, gamma_p: float) -> Iterator[float]:
    """Term ratios r_k of the series, term_{k+1} = term_k * z * r_k, each
    computed as it is read: TERM_CAP of them, or -gamma_p (at most TERM_CAP)
    where a negative-integer gamma_p ends the series after 1 - gamma_p terms.
    Parameters that fail :func:`_check_params`, or a subnormal mu, raise
    DomainError at the call."""
    _check_params("Mittag-Leffler series", rho, mu, gamma_p)
    if mu < sys.float_info.min:  # the first ratio, Gamma(mu)/Gamma(rho+mu) ~ 1/mu, overflows
        raise DomainError(f"Mittag-Leffler series requires mu >= {sys.float_info.min!r}, "
                          f"the smallest normal float, got {mu!r}")
    n = min(int(-gamma_p), TERM_CAP) if gamma_p <= 0.0 and gamma_p == math.floor(gamma_p) else TERM_CAP
    lg = pairwise(map(math.lgamma, (rho * k + mu for k in range(n + 1))))
    return ((gamma_p + k) / (k + 1) * math.exp(a - b) for k, (a, b) in enumerate(lg))


def _sum_series(rho: float, mu: float, gamma_p: float, z: float,
                ratios: Iterator[float] | None = None) -> SeriesResult:
    """The series at z, summed over ratios, by default a fresh :func:`_ratios`
    stream, and its cancellation verdict: the one place ``precision_flag`` is set.
    Stops after two consecutive terms below 1e-16 of the partial sum; raises
    ConvergenceError if the sum overflows or the term cap is reached first."""
    ratios = _ratios(rho, mu, gamma_p) if ratios is None else ratios
    isfinite, stop = math.isfinite, _REL_STOP
    term = math.exp(-math.lgamma(mu))
    total = max_term = term
    tiny = False
    k = 0
    for k, r in enumerate(islice(ratios, TERM_CAP - 1), 1):
        term = term * r * z
        total += term
        if not isfinite(total):
            raise ConvergenceError(
                f"Mittag-Leffler series overflowed at term {k} "
                f"(rho={rho:g}, mu={mu:g}, gamma={gamma_p:g}, z={z:g})"
            )
        a = abs(term)
        if a > max_term:
            max_term = a
        # stop after two consecutive terms below 1e-16 of the sum
        if a < stop * abs(total) or a == 0.0:
            if tiny:
                break
            tiny = True
        else:
            tiny = False
    else:
        if next(ratios, None) is not None:  # only a truncated series may end here
            raise ConvergenceError(
                f"Mittag-Leffler series did not converge within {TERM_CAP} terms "
                f"(rho={rho:g}, mu={mu:g}, gamma={gamma_p:g}, z={z:g})"
            )
    return SeriesResult(total, k + 1, max_term, max_term > _CANCEL_LIMIT * abs(total))


def ml_eval(p: MLParams, z: float) -> SeriesResult:
    """Evaluate the generalized Mittag-Leffler function at real z: the
    result of :func:`_sum_series`, whose loop sets ``precision_flag``.

    Raises :class:`DomainError` for |z| > 100 and :class:`ConvergenceError`
    if the term cap is reached first.  A value that lost its digits to
    cancellation comes back with ``precision_flag`` set.
    """
    z = float(z)
    if not math.isfinite(z) or abs(z) > Z_MAX:
        raise DomainError(f"ml_eval working domain is |z| <= {Z_MAX:g}, got z={z!r}")
    return _sum_series(p.rho, p.mu, p.gamma_p, z)


_FLOOR_BAND = -105  # every |z| < 2^-26 shares this band: two or three terms
_FLOOR = 2.0 ** ((_FLOOR_BAND + 1) / 4)


@functools.lru_cache(maxsize=8192)
def _plan(rho: float, mu: float, gamma_p: float, band: int, negative: bool) -> tuple:
    """Horner plan (d_{K-1} .. d_0, z_c, floor) for the |z| band
    [lo, edge) = [2^(band/4), 2^((band+1)/4)) on one side of 0: the n terms
    the loop needs at the edge, re-expanded about z_c by repeated synthetic
    division (pass k gives the Taylor coefficient d_k) until two consecutive
    |d_k| delta^k, delta the reach from z_c, are below 1e-17 of the floor.
    ml_value accepts a sum iff |value| >= floor.  z_c is the band's
    midpoint and floor = max(|c_n| edge^n / 1e-16, max_term /
    _CANCEL_LIMIT): there the first omitted term and the largest term, both
    at the edge, pass the loop's stop rule and its cancellation bound.  The
    empty plan () sends the band to the loop: a negative-integer gamma_p, a
    loop that raises at the edge, or an edge where z^n, a coefficient or a
    Horner partial sum could leave the normal float range, so that ml_value
    needs no such check per call."""
    # the loop at the edge and the coefficients read one stream; bad parameters raise DomainError
    ratios, loop_ratios = tee(_ratios(rho, mu, gamma_p))
    if gamma_p <= 0.0 and gamma_p == math.floor(gamma_p):
        return ()
    edge = min(2.0 ** ((band + 1) / 4), Z_MAX)
    try:
        at_edge = _sum_series(rho, mu, gamma_p, -edge if negative else edge, loop_ratios)
    except ConvergenceError:
        return ()
    n, max_term = at_edge.terms_used, at_edge.max_term_magnitude
    coeffs = list(accumulate(islice(ratios, n), operator.mul, initial=math.exp(-math.lgamma(mu))))
    if not (n * math.log(edge) < 700.0 and n * max_term < 1e300 and 1e-290 < min(map(abs, coeffs))):
        return ()
    floor = max(abs(coeffs.pop()) * edge**n / _REL_STOP, max_term / _CANCEL_LIMIT)
    lo = 0.0 if band == _FLOOR_BAND else 2.0 ** (band / 4)
    delta, centre = (edge - lo) / 2, (edge + lo) / (-2 if negative else 2)
    tiny = False
    for j in range(n):  # pass j leaves d_j in coeffs[j]
        for k in range(n - 2, j - 1, -1):
            coeffs[k] += centre * coeffs[k + 1]
        small = abs(coeffs[j]) * delta**j < 1e-17 * floor
        if small and tiny:  # drop both: each is below 1e-17 of any value accepted
            del coeffs[j - 1 :]
            break
        tiny = small
    # with |u| <= delta, this sum bounds every Horner partial sum in u = z - z_c
    if sum(abs(d) * max(1.0, delta) ** j for j, d in enumerate(coeffs)) < 1e300:
        return tuple(reversed(coeffs)), centre, floor
    return ()


def ml_value(rho: float, mu: float, gamma_p: float, z: float) -> float:
    """Series value, for the operator kernels' hot loops.

    Sums the plan of z's quarter-octave |z| band (see :func:`_plan`), about
    ten coefficients of the series re-expanded about the band's midpoint
    z_c, by Horner's rule in z - z_c; a band's first call builds its plan
    from the terms it needs.  The loop answers instead where the sum is
    below the band's floor: where the first omitted term or the largest
    term, both taken at the band's outer edge, breaks the loop's stop rule
    or its cancellation bound for that sum; so the loop decides every
    refusal.
    Raises ConvergenceError where the loop sets ``precision_flag``:
    cancellation may have cost more than 1e-6 of the value."""
    z = float(z)
    az = abs(z)
    if not az <= Z_MAX:  # also rejects nan
        raise DomainError(f"ml_value working domain is |z| <= {Z_MAX:g}, got z={z!r}")
    band = math.floor(4.0 * math.log2(az)) if az >= _FLOOR else _FLOOR_BAND
    plan = _plan(rho, mu, gamma_p, band, z < 0.0)
    if plan:
        coeffs, centre, floor = plan
        u = z - centre
        value = 0.0
        for c in coeffs:
            value = value * u + c
        if abs(value) >= floor:
            return value
    r = _sum_series(rho, mu, gamma_p, z)
    if r.precision_flag:
        raise ConvergenceError(
            f"Mittag-Leffler series lost its digits to cancellation: value {r.value:.3g}, largest "
            f"term {r.max_term_magnitude:.3g} (rho={rho:g}, mu={mu:g}, gamma={gamma_p:g}, z={z:g})"
        )
    return r.value


_GK_X, _GK_K, _GK_G = np.array(sorted(_GK15)).T
_RULE_TOL = 1e-14  # panel error estimate, relative to a lower bound of the value
_RULE_PANELS = 4000
_RATE_CAP = 1e300  # largest C_j s_max: every product C_j s stays finite
_Y_TAIL = 40.0  # w holds less than 4.3e-18 of its mass beyond |y| = 40
_TAIL_LIMIT = 1e-12


@functools.lru_cache(maxsize=32)
def exp_sum_kernel(alpha: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights W and rates C, both read-only and of equal length, with

        E_alpha(lam s^alpha) = sum_j W_j exp(-C_j s)
        s E_{alpha,2}(lam s^alpha) = sum_j (W_j / C_j) (1 - exp(-C_j s))

    for 0 <= |lam| s^alpha <= Z_MAX.  The rates are sorted; sum_j W_j = 1.

    G7/K15 panels in y cover [y_lo, y_hi].  A panel is bisected until the
    QUADPACK error estimate |K15 - G7| min(1, (200 |K15 - G7| / resasc)^1.5)
    of both sums lies below 1e-14 times a lower bound of the value,
    1/(1 + Gamma(1-alpha) |lam| s^alpha) for the kernel and s times it for the
    antiderivative, at s = 0 and at s = 1/C(y) for y every alpha/2 (the
    points where exp(-C s) switches off), capped at s_max.  The mass of w
    outside [y_lo, y_hi] is known in closed form and becomes one term at
    each end: below y_lo, where C s_max < eps, the term takes its exact
    limits W and W s; above y_hi it is at most 4.3e-18, except that the
    rates stop at C s_max = 1e300, which for alpha < 0.06 leaves a larger
    mass there and costs at most that mass in accuracy near |lam| s^alpha of
    the same size.  Orders whose mass left there exceeds 1e-12 (alpha below
    about 0.047) raise :class:`DomainError`, as do lam >= 0 and a lam whose
    rates would leave the float range (|lam| > Z_MAX or
    |lam| < Z_MAX e^(-600 alpha)).  A build that needs more than 4000 panels
    raises :class:`ConvergenceError`.
    """
    if not (0.0 < alpha < 1.0 and -math.inf < lam < 0.0):
        raise DomainError(
            f"exp_sum_kernel needs 0 < alpha < 1 and finite lam < 0, got {alpha!r}, {lam!r}"
        )
    log_s_max = (math.log(Z_MAX) - math.log(-lam)) / alpha
    if not 0.0 <= log_s_max <= 600.0:
        raise DomainError(
            f"exp_sum_kernel rates leave the float range at alpha = {alpha:g}, lam = {lam:g}"
        )
    theta = math.pi * alpha
    sin_t, cos_t, cos_half2 = math.sin(theta), math.cos(theta), math.cos(0.5 * theta) ** 2
    # C s_max = (Z_MAX e^y)^(1/alpha), so both ends follow from alpha alone
    y_lo = max(alpha * math.log(2.0**-52) - math.log(Z_MAX), -_Y_TAIL)
    y_hi = min(alpha * math.log(_RATE_CAP) - math.log(Z_MAX), _Y_TAIL)
    # mass of w below y_lo and above y_hi; w(y) = w(-y)
    low = math.atan(sin_t / (math.exp(-y_lo) + cos_t)) / theta
    high = math.atan(sin_t / (math.exp(y_hi) + cos_t)) / theta
    if high > _TAIL_LIMIT:
        raise DomainError(
            f"exp_sum_kernel cannot hold E_alpha at alpha = {alpha:g}: the rates past "
            f"C s_max = {_RATE_CAP:g} carry {high:.2g} of the kernel"
        )

    def rates(y: np.ndarray) -> np.ndarray:
        return np.exp((y + math.log(-lam)) / alpha)

    checks = np.arange(y_lo, y_hi, 0.5 * alpha)
    s = np.unique(np.concatenate(([0.0], np.minimum(1.0 / rates(checks), math.exp(log_s_max)))))
    floor = 1.0 / (1.0 + math.gamma(1.0 - alpha) * -lam * s**alpha)
    tols = (_RULE_TOL * floor, _RULE_TOL * s * floor)

    def settled(f: np.ndarray, tol: np.ndarray) -> bool:
        diff = np.abs((_GK_K - _GK_G) @ f)
        resasc = _GK_K @ np.abs(f - 0.5 * (_GK_K @ f))
        # d min(1, (200 d / resasc)^1.5), written so that resasc = 0 reads 0
        ratio = np.minimum(200.0 * diff, resasc) / np.maximum(resasc, 1e-300)
        return bool(np.all(diff * ratio**1.5 <= tol))

    edges = np.concatenate((np.arange(0.0, y_lo, -8.0), np.arange(0.0, y_hi, 8.0), [y_lo, y_hi]))
    edges = np.unique(edges)
    todo = list(zip(edges[:-1], edges[1:]))[::-1]  # popped from the left
    done: list[tuple[np.ndarray, np.ndarray]] = []
    while todo:
        lo, hi = todo.pop()
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        y = mid + half * _GK_X
        c = rates(y)
        w = half * sin_t / (4.0 * theta * (np.sinh(0.5 * y) ** 2 + cos_half2))
        cs = np.outer(c, s)
        kernel = w[:, None] * np.exp(-cs)
        antider = (w / c)[:, None] * -np.expm1(-cs)
        if settled(kernel, tols[0]) and settled(antider, tols[1]):
            done.append((_GK_K * w, c))
        elif len(done) + len(todo) >= _RULE_PANELS:
            raise ConvergenceError(
                f"exp_sum_kernel needs more than {_RULE_PANELS} panels at alpha = {alpha:g}"
            )
        else:
            todo += [(mid, hi), (lo, mid)]
    weights = np.concatenate([[low], *(w for w, _ in done), [high]])
    rate = np.concatenate([rates(np.array([y_lo])), *(c for _, c in done), rates(np.array([y_hi]))])
    weights.flags.writeable = rate.flags.writeable = False
    return weights, rate
