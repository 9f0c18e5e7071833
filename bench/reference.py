"""High-precision reference values for the benchmark, computed with mpmath.

Nothing here imports mlfrac: every closed form is evaluated from its own
series so that a defect shared with the package cannot certify itself.

Test functions are sums of terms ``c x^p``, ``c sin(w x)`` and ``c exp(w x)``
on [0, b].  Every operator is reduced to the left-sided operator at distance
tau from the anchor, applied to the Taylor series of the operand about that
anchor: right-sided operators use the reflection (Qf)(x) = f(b - x), whose
Taylor coefficients about 0 are (-1)^k f^(k)(b) / k!.

Closed forms used, with lam = -alpha/(1-alpha) and s = B/(1-alpha):

* ABC-left[x^k](tau) = s k! tau^k E_{alpha,k+1}(lam tau^alpha), k >= 1
  (zero for k = 0); ABR-left adds the k = 0 term s E_alpha(lam tau^alpha).
* RL integral:   I^a[x^k](tau) = k!/Gamma(k+1+a) tau^(k+a).
* RL derivative: D^a[x^k](tau) = k!/Gamma(k+1-a) tau^(k-a).
* AB integral:   ((1-a)/B) f + (a/B) I^a f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

#: Working precision (decimal digits) of every reference value.
DPS = 30
#: Taylor terms kept; every test function has |w| <= 2 on intervals of
#: length <= 2, where the tail beyond this is far below 1e-30.
TAYLOR_TERMS = 48


@dataclass(frozen=True)
class Term:
    """One summand of a test function: coef * x^param, sin(param x) or exp(param x)."""

    kind: str  # "pow", "sin" or "exp"
    coef: str  # decimal text, shared verbatim with the expression given to mlfrac
    param: str

    def text(self) -> str:
        if self.kind == "pow":
            return f"{self.coef}*x^{self.param}"
        return f"{self.coef}*{self.kind}({self.param}*x)"

    def derivative(self, k: int, x0: mp.mpf) -> mp.mpf:
        c, w = mp.mpf(self.coef), mp.mpf(self.param)
        if self.kind == "pow":
            p = int(self.param)
            if k > p:
                return mp.mpf(0)
            return c * mp.factorial(p) / mp.factorial(p - k) * x0 ** (p - k)
        if self.kind == "sin":
            return c * w**k * mp.sin(w * x0 + k * mp.pi / 2)
        return c * w**k * mp.exp(w * x0)


def expression_text(terms: tuple[Term, ...]) -> str:
    return " + ".join(t.text() for t in terms)


def taylor(terms: tuple[Term, ...], x0: float, sign: int) -> list[mp.mpf]:
    """Coefficients a_k of f(x0 + sign*x) about x = 0."""
    x0m = mp.mpf(x0)
    out = []
    for k in range(TAYLOR_TERMS):
        dk = sum((t.derivative(k, x0m) for t in terms), mp.mpf(0))
        out.append(dk * sign**k / mp.factorial(k))
    # drop the tail that cannot reach the working precision
    floor = mp.mpf(10) ** (-DPS - 8) * max(abs(a) for a in out)
    while len(out) > 1 and abs(out[-1]) < floor:
        out.pop()
    return out


def value(terms: tuple[Term, ...], x: float) -> mp.mpf:
    return sum((t.derivative(0, mp.mpf(x)) for t in terms), mp.mpf(0))


def ml_family(alpha: mp.mpf, z: mp.mpf, kmax: int) -> list[mp.mpf]:
    """[E_{alpha,k+1}(z) for k = 0..kmax], summed at a precision that absorbs
    the alternating-series cancellation of large |z|."""
    j_terms = []
    zj = mp.mpf(1)
    j = 0
    # 1/Gamma(alpha j + 1) z^j, summed until far past the largest term
    while True:
        term = zj * mp.rgamma(alpha * j + 1)
        j_terms.append((term, alpha * j))
        if j > 8 and abs(term) < mp.mpf(10) ** (-DPS - 5):
            break
        j += 1
        zj *= z
    out = []
    for k in range(kmax + 1):
        if k:
            j_terms = [(g / (aj + k), aj) for g, aj in j_terms]
        out.append(mp.fsum(g for g, _ in j_terms))
    return out


def _extra_digits(alpha: float, z: float) -> int:
    # the largest series term of E_alpha(z) is about exp(|z|^(1/alpha))
    return int(abs(z) ** (1.0 / alpha) / math.log(10)) + 10


def ml_kernel_ops(
    alpha: float, b_norm: float, coeffs: list[mp.mpf], tau: float
) -> tuple[float, float]:
    """(Caputo-type, RL-type) ML-kernel derivative at distance tau from the
    anchor, for the function with Taylor coefficients ``coeffs`` there."""
    if tau == 0.0:
        return 0.0, b_norm / (1.0 - alpha) * float(coeffs[0])
    lam_f = -alpha / (1.0 - alpha)
    with mp.workdps(DPS + _extra_digits(alpha, lam_f * tau**alpha)):
        a = mp.mpf(alpha)
        t = mp.mpf(tau)
        scale = mp.mpf(b_norm) / (1 - a)
        fam = ml_family(a, -a / (1 - a) * t**a, len(coeffs) - 1)
        caputo = mp.mpf(0)
        tk = mp.mpf(1)
        for k, ak in enumerate(coeffs):
            if k:
                tk *= t
                caputo += ak * mp.factorial(k) * tk * fam[k]
        rl_type = caputo + coeffs[0] * fam[0]
        return float(scale * caputo), float(scale * rl_type)


def rl_ops(alpha: float, coeffs: list[mp.mpf], taus) -> list[tuple[float, float]]:
    """(RL integral, RL derivative) of order alpha at each distance tau from
    the anchor; the derivative is inf where the anchor value makes it unbounded."""
    out = []
    with mp.workdps(DPS):
        a = mp.mpf(alpha)
        facs = [ak * mp.factorial(k) for k, ak in enumerate(coeffs)]
        c_int = [fk * mp.rgamma(k + 1 + a) for k, fk in enumerate(facs)]
        c_der = [fk * mp.rgamma(k + 1 - a) for k, fk in enumerate(facs)]
        for tau in taus:
            if tau == 0.0:
                out.append((0.0, math.inf if coeffs[0] != 0 else 0.0))
                continue
            t = mp.mpf(tau)
            integ = mp.polyval(c_int[::-1], t)
            deriv = mp.polyval(c_der[::-1], t)
            out.append((float(integ * t**a), float(deriv * t ** (-a))))
    return out


def ml_two(alpha: float, beta: float, z: float) -> mp.mpf:
    """E_{alpha,beta}(z) to DPS digits."""
    with mp.workdps(DPS + _extra_digits(alpha, z)):
        a, bt, zz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        total = mp.mpf(0)
        zj = mp.mpf(1)
        j = 0
        while True:
            term = zj * mp.rgamma(a * j + bt)
            total += term
            if j > 8 and abs(term) < mp.mpf(10) ** (-DPS - 5) * max(abs(total), 1e-300):
                return +total
            j += 1
            zj *= zz


def rl_weights(alpha: float, b: float, n: int) -> tuple[list[float], list[float]]:
    """Per-lag moments (q1, q2) of the order-alpha RL kernel against the two
    hat functions of a uniform cell, scaled by 1/(Gamma(alpha) h).

    Row i of the left product-integration matrix is
    sum_d q1[d] e_{i-d} + q2[d] e_{i-d+1} over lags d = 1..i.
    """
    with mp.workdps(DPS):
        a = mp.mpf(alpha)
        h = mp.mpf(b) / n
        norm = mp.rgamma(a) / h
        q1 = [0.0]
        q2 = [0.0]
        for d in range(1, n + 1):
            hi, lo = d * h, (d - 1) * h
            m0 = (hi**a - lo**a) / a  # integral of u^(a-1) over the cell, u = t - s
            m1 = (hi ** (a + 1) - lo ** (a + 1)) / (a + 1)
            q1.append(float(norm * (m1 - lo * m0)))
            q2.append(float(norm * (hi * m0 - m1)))
        return q1, q2
