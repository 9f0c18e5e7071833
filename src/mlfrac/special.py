"""Gamma, Pochhammer, and Mittag-Leffler series evaluation.

The three-parameter (Prabhakar) Mittag-Leffler function

    E(rho, mu, gamma; z) = sum_k  (gamma)_k z^k / (Gamma(rho k + mu) k!)

is the kernel of every nonlocal operator in this package.  Terms are
generated by a ratio recurrence whose gamma factors are evaluated as
log-gamma differences, so the series stays in floating-point range far
past the overflow point of Gamma itself.  Ratio tables depend only on
(rho, mu, gamma) and are memoized across calls; one loop walks the cached
table term by term, and ``ml_eval(record_terms=True)`` replays the same
recurrence afterwards instead of recording inside that loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .errors import ConvergenceError, DomainError, PoleError

#: Hard cap on the number of series terms before giving up.
TERM_CAP = 2000

#: Largest |z| accepted by :func:`ml_eval`.  Kernel arguments produced by the
#: operator layer stay well inside this bound because orders close to 1 are
#: rejected there.
Z_MAX = 100.0

_REL_STOP = 1e-16
_CANCEL_RATIO = 1e-13


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


def pochhammer(gamma_p: float, k: int) -> float:
    """Rising factorial (gamma_p)_k = gamma_p (gamma_p+1) ... (gamma_p+k-1).

    (gamma_p)_0 = 1.  For negative-integer gamma_p the product hits an exact
    zero factor, so the truncation of the Prabhakar series is exact.
    """
    if k < 0:
        raise DomainError(f"pochhammer requires k >= 0, got {k}")
    out = 1.0
    for i in range(k):
        out *= gamma_p + i
    return out


@dataclass(frozen=True)
class MLParams:
    """Parameters (rho, mu, gamma_p) of the generalized Mittag-Leffler function."""

    rho: float
    mu: float
    gamma_p: float = 1.0

    def __post_init__(self) -> None:
        if not (self.rho > 0.0):
            raise DomainError(f"MLParams requires rho > 0, got {self.rho!r}")
        if not (self.mu > 0.0):
            raise DomainError(f"MLParams requires mu > 0, got {self.mu!r}")


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of one series summation.

    ``precision_flag`` is set exactly when the summed value is smaller than
    1e-13 times the largest term magnitude, i.e. when alternating-series
    cancellation has eaten more than ~13 digits.
    """

    value: float
    terms_used: int
    max_term_magnitude: float
    precision_flag: bool
    terms: tuple[float, ...] | None = None


# key (rho, mu, gamma_p) -> tuple of term ratios r_k with
# term_{k+1} = term_k * z * r_k.  Replaced atomically when extended.
_ratio_cache: dict[tuple[float, float, float], tuple[float, ...]] = {}


def _ratios(rho: float, mu: float, gamma_p: float, upto: int) -> tuple[float, ...]:
    key = (rho, mu, gamma_p)
    cached = _ratio_cache.get(key, ())
    if len(cached) >= upto:
        return cached
    ratios = list(cached)
    lg = math.lgamma(rho * len(ratios) + mu)
    for k in range(len(ratios), upto):
        lg_next = math.lgamma(rho * (k + 1) + mu)
        ratios.append((gamma_p + k) / (k + 1) * math.exp(lg - lg_next))
        lg = lg_next
    out = tuple(ratios)
    _ratio_cache[key] = out
    return out


def _sum_series(rho: float, mu: float, gamma_p: float, z: float) -> tuple[float, int, float]:
    """(value, terms used, largest term magnitude) of the series at z."""
    # Negative-integer (or zero) gamma_p ends the series after 1-gamma_p terms.
    n_ratios = int(-gamma_p) if gamma_p <= 0.0 and gamma_p == math.floor(gamma_p) else TERM_CAP
    limit = min(n_ratios, TERM_CAP - 1)
    ratios = _ratio_cache.get((rho, mu, gamma_p)) or _ratios(rho, mu, gamma_p, 64)
    isfinite, stop = math.isfinite, _REL_STOP
    term = math.exp(-math.lgamma(mu))
    total = max_term = term
    tiny = False
    k = 0
    while True:
        for r in ratios[k:limit]:
            term = term * r * z
            total += term
            k += 1
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
                    return total, k + 1, max_term
                tiny = True
            else:
                tiny = False
        if k == limit:
            break
        ratios = _ratios(rho, mu, gamma_p, 2 * len(ratios))
    if k == n_ratios:
        return total, k + 1, max_term
    raise ConvergenceError(
        f"Mittag-Leffler series did not converge within {TERM_CAP} terms "
        f"(rho={rho:g}, mu={mu:g}, gamma={gamma_p:g}, z={z:g})"
    )


def ml_eval(p: MLParams, z: float, record_terms: bool = False) -> SeriesResult:
    """Evaluate the generalized Mittag-Leffler function at real z.

    Stops after two consecutive terms below 1e-16 of the partial sum.
    Raises :class:`DomainError` for |z| > 100 and :class:`ConvergenceError`
    if the term cap is reached first.  ``record_terms`` replays the same
    recurrence over the terms used.
    """
    if not math.isfinite(z) or abs(z) > Z_MAX:
        raise DomainError(f"ml_eval working domain is |z| <= {Z_MAX:g}, got z={z!r}")
    value, used, max_term = _sum_series(p.rho, p.mu, p.gamma_p, z)
    terms = None
    if record_terms:
        ratios = _ratios(p.rho, p.mu, p.gamma_p, used - 1)[: used - 1]
        terms = tuple(accumulate(ratios, lambda t, r: t * r * z, initial=math.exp(-math.lgamma(p.mu))))
    return SeriesResult(
        value=value,
        terms_used=used,
        max_term_magnitude=max_term,
        precision_flag=abs(value) < _CANCEL_RATIO * max_term,
        terms=terms,
    )


def ml_value(rho: float, mu: float, gamma_p: float, z: float) -> float:
    """Bare series value, for the operator kernels' hot loops."""
    if not abs(z) <= Z_MAX:  # also rejects nan
        raise DomainError(f"ml_value working domain is |z| <= {Z_MAX:g}, got z={z!r}")
    return _sum_series(rho, mu, gamma_p, z)[0]


def ml_one(alpha: float, z: float) -> float:
    """Classical one-parameter Mittag-Leffler E_alpha(z)."""
    return ml_value(alpha, 1.0, 1.0, z)
