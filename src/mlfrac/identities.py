"""Numerical verification of the operator identities, with structured reports.

Every ``verify_*`` function computes the two sides of one identity through
disjoint code paths (different operators, an extra numerical d/dt, or a
direct series evaluation) so that a shared bug cannot certify itself.  It
hands a closure of its two sides to :func:`_report`, the one runner, which
returns an :class:`IdentityReport` instead of raising: a side that raises
MlfracError or OverflowError gives a failed report, both sides NaN, that
names the error.  Argument checks made before any side is computed raise.

The outer integrals of u * Op(v) know where their integrand is singular:
Op(v) behaves like dist^alpha at Op's anchor.  They integrate through the
graded substitution of :func:`~mlfrac.quadrature.power_quad`, as the
operators do, instead of bisecting toward that cusp.  An operator image that
is itself an operand, as in the inverse checks, declares that cusp
(``RealFunction.cusp``), so the operators applied to it grade there too.

Test functions are assumed smooth on the interval; membership in the exact
image spaces of the fractional integrals is not computationally decidable
and is not checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, MlfracError
from .operators import (
    FracOrder,
    Side,
    ab_integral,
    abc_derivative,
    abr_derivative,
    abr_derivative_kernel_diff,
    gen_ml_integral,
    opposite,
)
from .quadrature import QuadConfig, RealFunction, power_quad
# unused here, but bench/tracing.py patches identities.adaptive_gl
from .quadrature import adaptive_gl  # noqa: F401
from .special import MLParams, ml_one, ml_value

#: Report tolerance of the operator checks; convolution and diff-formula keep their own.
DEFAULT_TOL = 1e-5

# Outer integrals of operator-valued integrands (:func:`_outer_integral`) run
# at a coarser tolerance than the operators themselves: the integrand carries
# the inner quadrature noise, and asking the outer estimate to go below that
# noise floor stalls.  Each of their two graded halves gets the whole of it.
_OUTER = QuadConfig(abs_tol=1e-8, rel_tol=1e-8)
_INNER = QuadConfig(abs_tol=1e-10, rel_tol=1e-10)
_TIGHT = QuadConfig(abs_tol=5e-13, rel_tol=1e-12)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check: both sides, max gap, tolerance, verdict."""

    identity_name: str
    params: dict
    lhs: np.ndarray
    rhs: np.ndarray
    tol: float
    abs_err: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        lhs, rhs = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (self.lhs, self.rhs))
        if lhs.shape != rhs.shape:
            raise DomainError(f"side shapes differ: {lhs.shape} vs {rhs.shape}")
        # an empty or failed side makes err infinite, which no tolerance may pass
        finite = lhs.size and np.isfinite(lhs).all() and np.isfinite(rhs).all()
        err = float(np.max(np.abs(lhs - rhs))) if finite else math.inf
        for name, value in (("lhs", lhs), ("rhs", rhs), ("abs_err", err)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "passed", bool(math.isfinite(err) and err <= self.tol))

    def to_json_dict(self) -> dict:
        lhs = self.lhs.tolist()
        rhs = self.rhs.tolist()
        return {
            "identity": self.identity_name,
            "alpha": self.params.get("alpha"),
            "B": self.params.get("B"),
            "interval": list(self.params.get("interval", ())),
            "lhs": lhs[0] if len(lhs) == 1 else lhs,
            "rhs": rhs[0] if len(rhs) == 1 else rhs,
            "abs_err": self.abs_err,
            "tol": self.tol,
            "pass": self.passed,
        } | ({"error": self.params["error"]} if "error" in self.params else {})


def _report(name: str, params: dict, tol: float, sides: Callable[[], tuple]) -> IdentityReport:
    """The report of one check: ``sides()`` gives its (lhs, rhs).  A side that
    raises MlfracError or OverflowError gives a failed report instead, with
    both sides NaN and the error named in ``params["error"]``."""
    try:
        lhs, rhs = sides()
    except (MlfracError, OverflowError) as exc:
        params = params | {"error": f"{type(exc).__name__}: {exc}"}
        lhs = rhs = math.nan
    return IdentityReport(name, params, lhs, rhs, tol)


def _base_params(ord_: FracOrder, a: float, b: float, **labels: str) -> dict:
    """Order, interval and the nonempty ``labels`` (operand labels, side)."""
    labels = {k: v for k, v in labels.items() if v}
    return {"alpha": ord_.alpha, "B": ord_.b_norm, "interval": (a, b)} | labels


def _outer_integral(u: RealFunction, op: Callable, side: Side, v: RealFunction, ord_: FracOrder) -> float:
    """Integral over v's [a, b] of u * Op(v), Op = ``op(side, v, ord_, x)`` at
    the inner tolerances.

    Op(v) behaves like dist^alpha at its anchor, so the half of [a, b] there is
    graded for that power.  The other half gets a square-root grading, which
    leaves a smooth integrand smooth and makes a (far - x)^(k/2) endpoint of a
    test function analytic.
    """
    anchor, far = (v.a, v.b) if side is Side.Left else (v.b, v.a)
    fn = lambda x: u.fn(x) * op(side, v, ord_, x, _INNER)
    return power_quad(fn, anchor, far, 1.0, 0.5, _OUTER, cusp=(anchor, ord_.alpha))


def _interior_grid(a: float, b: float, m: int, margin: float = 0.1) -> list[float]:
    lo = a + margin * (b - a)
    hi = b - margin * (b - a)
    return [lo + (hi - lo) * i / (m - 1) for i in range(m)]


def verify_ibp_integrals(
    phi: RealFunction,
    psi: RealFunction,
    ord_: FracOrder,
    tol: float = DEFAULT_TOL,
) -> IdentityReport:
    """Both displays of the integral integration-by-parts theorem.

    First pair:  int phi (AB-I_left psi)  against  int psi (AB-I_right phi);
    second pair swaps the operator sides.
    """
    def sides():
        return zip(*[(_outer_integral(phi, ab_integral, s, psi, ord_),
                      _outer_integral(psi, ab_integral, opposite(s), phi, ord_))
                     for s in (Side.Left, Side.Right)])

    params = _base_params(ord_, phi.a, phi.b, phi=phi.label, psi=psi.label)
    return _report("ibp-integrals", params, tol, sides)


def verify_ibp_derivatives(
    f: RealFunction,
    g: RealFunction,
    ord_: FracOrder,
    tol: float = DEFAULT_TOL,
) -> IdentityReport:
    """int f (ABR-left g) against int (ABR-right f) g."""
    def sides():
        return (_outer_integral(f, abr_derivative, Side.Left, g, ord_),
                _outer_integral(g, abr_derivative, Side.Right, f, ord_))

    return _report("ibp-derivatives", _base_params(ord_, f.a, f.b, f=f.label, g=g.label), tol, sides)


def verify_caputo_ibp(
    f: RealFunction,
    g: RealFunction,
    ord_: FracOrder,
    side: Side = Side.Left,
    tol: float = DEFAULT_TOL,
) -> IdentityReport:
    """Integration by parts for the Caputo-type derivative anchored at 0.

    Left:  int (ABC-left f) g = int f (ABR-right g) + s [f Eg]_0^b with the
    right ML integral operator Eg and s = B/(1-alpha); the Right version
    mirrors with the left operator and a minus sign on the boundary part.
    """
    a, b = f.a, f.b
    kernel = MLParams(ord_.alpha, 1.0, 1.0)
    other = opposite(side)

    def sides():
        lam, scale = ord_.lam, ord_.scale
        lhs = _outer_integral(g, abc_derivative, side, f, ord_)
        integral = _outer_integral(f, abr_derivative, other, g, ord_)
        eg = lambda t: gen_ml_integral(other, kernel, lam, g, t, _INNER)
        boundary = f.fn(b) * eg(b) - f.fn(a) * eg(a)
        return lhs, integral + side.sign * scale * boundary

    return _report("caputo-ibp", _base_params(ord_, a, b, f=f.label, g=g.label, side=side.name), tol, sides)


def verify_caputo_rl_relation(
    f: RealFunction,
    ord_: FracOrder,
    side: Side = Side.Left,
    tol: float = DEFAULT_TOL,
    h: float = 5e-4,
) -> IdentityReport:
    """Caputo-type equals RL-type minus the anchor boundary term.

    The package computes the Caputo-type derivative *from* this relation,
    with the RL-type one integrated by parts, so the check re-evaluates the
    RL-type derivative independently by differentiating the kernel integral
    with a central difference of step h.
    """
    if not (0.0 < h < math.inf):
        raise DomainError(f"caputo-rl check needs a finite step h > 0, got h={h!r}")
    a, b = f.a, f.b
    anchor = side.anchor(f)

    def sides():
        lam, scale = ord_.lam, ord_.scale
        anchor_val = f.fn(anchor)
        ts = _interior_grid(a, b, 5)
        lhs = [abc_derivative(side, f, ord_, t, _TIGHT) for t in ts]
        rhs = [
            abr_derivative_kernel_diff(side, f, ord_, t, _TIGHT, h=h)
            - scale * anchor_val * ml_one(ord_.alpha, lam * abs(t - anchor) ** ord_.alpha)
            for t in ts
        ]
        return lhs, rhs

    params = _base_params(ord_, a, b, f=f.label, side=side.name) | {"h": h}
    return _report("caputo-rl-relation", params, tol, sides)


def verify_inverse_and_fundamental(
    f: RealFunction,
    ord_: FracOrder,
    side: Side = Side.Left,
    tol: float = DEFAULT_TOL,
) -> IdentityReport:
    """Three compositions: D(I f) = f, I(D f) = f, I(Caputo-D f) = f - f(anchor).

    The first composition takes the RL-type derivative by the independent
    d/dt path, so D.I and I.D share no derivative code.
    """
    a, b = f.a, f.b

    def sides():
        anchor_val = f.fn(side.anchor(f))
        ts = _interior_grid(a, b, 4, margin=0.15)
        cusp = (side.anchor(f), ord_.alpha)
        image = lambda op: RealFunction(lambda x: op(side, f, ord_, x, _INNER), a, b, cusp=cusp)
        abi_f, abr_f, abc_f = image(ab_integral), image(abr_derivative), image(abc_derivative)
        lhs = [abr_derivative_kernel_diff(side, abi_f, ord_, t, _INNER, h=2.5e-4) for t in ts]
        lhs += [ab_integral(side, g, ord_, t, _OUTER) for g in (abr_f, abc_f) for t in ts]
        fv = [f.fn(t) for t in ts]
        return lhs, fv + fv + [v - anchor_val for v in fv]

    params = _base_params(ord_, a, b, f=f.label, side=side.name) | {"compositions": ("D.I", "I.D", "I.Dc")}
    return _report("inverse-fundamental", params, tol, sides)


def verify_convolution(
    sigma: float,
    nu: float,
    alpha: float,
    lambda_: float,
    x: float,
    tol: float = 1e-8,
) -> IdentityReport:
    """ML convolution: the generalized integral of an eigenfunction against the
    matching kernel collapses to a single higher-parameter ML value."""
    if nu <= 0.0:
        raise DomainError(f"convolution check needs nu > 0, got {nu!r}")
    if not 0.0 < x < math.inf:
        # the operand lives on [0, x]: refused here, not reported as a failed side
        raise DomainError(f"convolution check needs a finite x > 0, got {x!r}")
    params = {"alpha": alpha, "B": 1.0, "interval": (0.0, x), "sigma": sigma, "nu": nu, "lambda": lambda_}

    def sides():
        f = RealFunction(
            fn=lambda t: t ** (nu - 1.0) * ml_value(alpha, nu, sigma, lambda_ * t**alpha)
            if t > 0.0
            else (0.0 if nu > 1.0 else ml_value(alpha, nu, sigma, 0.0)),
            a=0.0,
            b=x,
        )
        lhs = gen_ml_integral(Side.Left, MLParams(alpha, 1.0, 1.0), lambda_, f, x, _INNER)
        return lhs, x**nu * ml_value(alpha, 1.0 + nu, 1.0 + sigma, lambda_ * x**alpha)

    return _report("convolution", params, tol, sides)


def verify_diff_formula(
    gamma_p: float,
    mu: float,
    alpha: float,
    lambda_: float,
    z: float,
    tol: float = 1e-6,
) -> IdentityReport:
    """First-derivative shift: d/dz [z^(mu-1) E(a,mu;g)(l z^a)] = z^(mu-2) E(a,mu-1;g)(l z^a)."""
    if mu <= 1.0:
        raise DomainError(f"diff-formula check needs mu > 1, got {mu!r}")
    if not z > 0.0:
        # the difference quotient samples z - h, where t^alpha must be real
        raise DomainError(f"diff-formula check needs z > 0 for its d/dz step, got {z!r}")
    # a step proportional to z keeps both samples clear of the z^alpha cusp at 0
    h = 2e-6 * z
    params = {"alpha": alpha, "B": 1.0, "interval": (z, z), "gamma": gamma_p, "mu": mu, "lambda": lambda_}
    fn = lambda t: t ** (mu - 1.0) * ml_value(alpha, mu, gamma_p, lambda_ * t**alpha)

    def sides():
        lhs = (fn(z + h) - fn(z - h)) / (2.0 * h)
        return lhs, z ** (mu - 2.0) * ml_value(alpha, mu - 1.0, gamma_p, lambda_ * z**alpha)

    return _report("diff-formula", params, tol, sides)


def zero_mode(ord_: FracOrder, x: float) -> float:
    """The nonzero function annihilated (in the vanishing-parameter limit) by
    both ML-kernel derivatives: alpha x^(alpha-1) / (B(alpha) Gamma(alpha))."""
    if x <= 0.0:
        raise DomainError(f"zero_mode requires x > 0, got {x!r}")
    return ord_.alpha * x ** (ord_.alpha - 1.0) / (ord_.b_norm * math.gamma(ord_.alpha))


def ml_eigen_closed(kind: str, sigma: float, nu: float, ord_: FracOrder, x: float) -> float:
    """Closed form of the ML-kernel derivative of x^(nu-1) E(alpha,nu;sigma)(lam x^alpha).

    Both derivative kinds share one right-hand side:
    (B/(1-alpha)) x^(nu-1) E(alpha,nu;1+sigma)(lam x^alpha).  A closed form,
    not an operator: it holds for every alpha < 1, the operators' cap aside.
    """
    if kind not in ("ABR", "ABC"):
        raise DomainError(f"kind must be 'ABR' or 'ABC', got {kind!r}")
    if nu <= 0.0 or x <= 0.0:
        raise DomainError("ml_eigen_closed requires nu > 0 and x > 0")
    w0, w1 = ord_.ab_weights  # (1-a)/B, a/B; their alpha < 1 gate is all a closed form needs
    lam, scale = -w1 / w0, 1.0 / w0
    return scale * x ** (nu - 1.0) * ml_value(ord_.alpha, nu, 1.0 + sigma, lam * x**ord_.alpha)


# ---------------------------------------------------------------------------
# default sweep


def poly(coeffs: Sequence[float], a: float = 0.0, b: float = 1.0) -> RealFunction:
    """Polynomial sum(c_k x^k) as a RealFunction with its exact derivative."""
    cs = tuple(float(c) for c in coeffs)

    def fn(x: float) -> float:
        out = 0.0
        for c in reversed(cs):
            out = out * x + c
        return out

    def deriv(x: float) -> float:
        out = 0.0
        for k in range(len(cs) - 1, 0, -1):
            out = out * x + k * cs[k]
        return out

    label = "+".join(f"{c:g}x^{k}" for k, c in enumerate(cs) if c)
    return RealFunction(fn=fn, a=a, b=b, deriv=deriv, label=label or "0")


def run_default_suite(tol: float | None = None) -> list[IdentityReport]:
    """The default verification sweep of `mlfrac verify`; ``tol``, if given,
    reaches every report, else each check keeps its own default."""
    x_fn, one_minus_x = poly([0.0, 1.0]), poly([1.0, -1.0])
    x_sq, cubic = poly([0.0, 0.0, 1.0]), poly([0.5, -1.0, 0.0, 2.0])
    rp = 3 * math.sqrt(math.pi)
    golden_f = RealFunction(lambda x: 0.5 * (1 - x) + 2.0 * (1 - x) ** 1.5 / rp, 0.0, 1.0,
                            label="(1-x)/2+2(1-x)^1.5/(3 sqrt(pi))", cusp=(1.0, 0.5))
    golden_g = RealFunction(lambda x: 0.5 * x + 2.0 * x**1.5 / rp, 0.0, 1.0,
                            label="x/2+2x^1.5/(3 sqrt(pi))", cusp=(0.0, 0.5))
    half = FracOrder(0.5)
    cases = [
        case
        for o in map(FracOrder, (0.25, 0.5, 0.75))
        for case in (
            (verify_ibp_integrals, one_minus_x, x_fn, o),
            (verify_ibp_integrals, x_fn, x_sq, o),
            (verify_ibp_derivatives, cubic, x_sq, o),
            (verify_caputo_ibp, x_fn, one_minus_x, o, Side.Left),
            (verify_caputo_rl_relation, x_sq, o, Side.Left),
            (verify_inverse_and_fundamental, x_fn, o, Side.Left),
        )
    ] + [
        (verify_ibp_derivatives, golden_f, golden_g, half),
        (verify_caputo_ibp, x_sq, cubic, half, Side.Right),
        (verify_inverse_and_fundamental, x_sq, half, Side.Right),
        *[
            (verify_convolution, sigma, nu, 0.5, -1.0, x)
            for sigma, nu, x in ((0.0, 1.0, 0.5), (1.0, 1.5, 1.0), (0.0, 2.0, 0.8), (2.0, 1.0, 1.0))
        ],
        *[(verify_diff_formula, g, mu, 0.5, -1.0, 0.8) for g, mu in ((1.0, 2.0), (2.0, 2.5), (0.5, 3.0))],
    ]
    return [check(*args) if tol is None else check(*args, tol=tol) for check, *args in cases]
