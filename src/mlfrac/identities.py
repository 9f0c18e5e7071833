"""Numerical verification of the operator identities, with structured reports.

Every ``verify_*`` function computes the two sides of one identity through
disjoint code paths (different operators, an extra numerical d/dt, or a
direct series evaluation) so that a shared bug cannot certify itself, and
returns an :class:`IdentityReport` instead of raising: numeric failures are
recorded in the report.

The outer integrals of u * Op(v) know where their integrand is singular:
Op(v) behaves like dist^alpha at Op's anchor.  They integrate through the
graded substitution of :func:`~mlfrac.quadrature.power_quad`, as the
operators do, instead of bisecting toward that cusp.

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
        lhs = np.atleast_1d(np.asarray(self.lhs, dtype=float))
        rhs = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        if lhs.shape != rhs.shape:
            raise DomainError(f"side shapes differ: {lhs.shape} vs {rhs.shape}")
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        gaps = np.abs(lhs - rhs)
        err = float(np.max(gaps)) if gaps.size else math.inf
        if not np.all(np.isfinite(lhs)) or not np.all(np.isfinite(rhs)):
            err = math.inf
        object.__setattr__(self, "abs_err", err)
        # a failed side makes err infinite, which no tolerance may pass
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


def _failed_report(name: str, params: dict, tol: float, exc: Exception) -> IdentityReport:
    params = dict(params)
    params["error"] = f"{type(exc).__name__}: {exc}"
    return IdentityReport(name, params, np.array([math.nan]), np.array([math.nan]), tol)


def _base_params(ord_: FracOrder, a: float, b: float, **labels: str) -> dict:
    p: dict = {"alpha": ord_.alpha, "B": ord_.b_norm, "interval": (a, b)}
    p.update({k: v for k, v in labels.items() if v})
    return p


def _outer_integral(fn: Callable[[float], float], side: Side, alpha: float, a: float, b: float) -> float:
    """Integral over [a, b] of fn = u * Op(v), Op an operator of order alpha
    anchored on ``side``.

    Op(v) behaves like dist^alpha at its anchor, so the half of [a, b] there is
    graded for that power.  The other half gets a square-root grading, which
    leaves a smooth integrand smooth and makes a (far - x)^(k/2) endpoint of a
    test function analytic.
    """
    anchor, far = (a, b) if side is Side.Left else (b, a)
    mid = 0.5 * (a + b)
    return power_quad(fn, mid, anchor, 1.0, alpha, _OUTER) + power_quad(fn, mid, far, 1.0, 0.5, _OUTER)


def _interior_grid(a: float, b: float, m: int, margin: float = 0.1) -> list[float]:
    lo = a + margin * (b - a)
    hi = b - margin * (b - a)
    return [lo + (hi - lo) * i / (m - 1) for i in range(m)]


def verify_ibp_integrals(
    phi: RealFunction,
    psi: RealFunction,
    ord_: FracOrder,
    tol: float | None = None,
) -> IdentityReport:
    """Both displays of the integral integration-by-parts theorem.

    First pair:  int phi (AB-I_left psi)  against  int psi (AB-I_right phi);
    second pair swaps the operator sides.
    """
    tol = DEFAULT_TOL if tol is None else tol
    a, b = phi.a, phi.b
    params = _base_params(ord_, a, b, phi=phi.label, psi=psi.label)

    def outer(u: RealFunction, v: RealFunction, side: Side) -> float:
        return _outer_integral(
            lambda x: u.fn(x) * ab_integral(side, v, ord_, x, _INNER), side, ord_.alpha, a, b
        )

    lhs: list[float] = []
    rhs: list[float] = []
    try:
        for side in (Side.Left, Side.Right):
            lhs.append(outer(phi, psi, side))
            rhs.append(outer(psi, phi, opposite(side)))
    except MlfracError as exc:
        return _failed_report("ibp-integrals", params, tol, exc)
    return IdentityReport("ibp-integrals", params, np.array(lhs), np.array(rhs), tol)


def verify_ibp_derivatives(
    f: RealFunction,
    g: RealFunction,
    ord_: FracOrder,
    tol: float | None = None,
) -> IdentityReport:
    """int f (ABR-left g) against int (ABR-right f) g."""
    tol = DEFAULT_TOL if tol is None else tol
    a, b = f.a, f.b
    params = _base_params(ord_, a, b, f=f.label, g=g.label)
    try:
        lhs = _outer_integral(
            lambda x: f.fn(x) * abr_derivative(Side.Left, g, ord_, x, _INNER),
            Side.Left, ord_.alpha, a, b,
        )
        rhs = _outer_integral(
            lambda x: abr_derivative(Side.Right, f, ord_, x, _INNER) * g.fn(x),
            Side.Right, ord_.alpha, a, b,
        )
    except MlfracError as exc:
        return _failed_report("ibp-derivatives", params, tol, exc)
    return IdentityReport("ibp-derivatives", params, np.array([lhs]), np.array([rhs]), tol)


def verify_caputo_ibp(
    f: RealFunction,
    g: RealFunction,
    ord_: FracOrder,
    side: Side = Side.Left,
    tol: float | None = None,
) -> IdentityReport:
    """Integration by parts for the Caputo-type derivative anchored at 0.

    Left:  int (ABC-left f) g = int f (ABR-right g) + s [f Eg]_0^b with the
    right ML integral operator Eg and s = B/(1-alpha); the Right version
    mirrors with the left operator and a minus sign on the boundary part.
    """
    tol = DEFAULT_TOL if tol is None else tol
    a, b = f.a, f.b
    params = _base_params(ord_, a, b, f=f.label, g=g.label)
    params["side"] = side.name
    kernel = MLParams(ord_.alpha, 1.0, 1.0)
    other = opposite(side)
    try:
        lam, scale = ord_.lam, ord_.scale
        lhs = _outer_integral(
            lambda t: abc_derivative(side, f, ord_, t, _INNER) * g.fn(t), side, ord_.alpha, a, b
        )
        integral = _outer_integral(
            lambda t: f.fn(t) * abr_derivative(other, g, ord_, t, _INNER), other, ord_.alpha, a, b
        )
        eg = lambda t: gen_ml_integral(other, kernel, lam, g, t, _INNER)
        boundary = f.fn(b) * eg(b) - f.fn(a) * eg(a)
        rhs = integral + side.sign * scale * boundary
    except MlfracError as exc:
        return _failed_report("caputo-ibp", params, tol, exc)
    return IdentityReport("caputo-ibp", params, np.array([lhs]), np.array([rhs]), tol)


def verify_caputo_rl_relation(
    f: RealFunction,
    ord_: FracOrder,
    side: Side = Side.Left,
    tol: float | None = None,
    h: float = 5e-4,
) -> IdentityReport:
    """Caputo-type equals RL-type minus the anchor boundary term.

    The package computes the Caputo-type derivative *from* this relation,
    with the RL-type one integrated by parts, so the check re-evaluates the
    RL-type derivative independently by differentiating the kernel integral
    with a central difference of step h.
    """
    tol = DEFAULT_TOL if tol is None else tol
    a, b = f.a, f.b
    params = _base_params(ord_, a, b, f=f.label)
    params["side"] = side.name
    params["h"] = h
    anchor = side.anchor(f)
    try:
        lam, scale = ord_.lam, ord_.scale
        anchor_val = f.fn(anchor)
        ts = _interior_grid(a, b, 5)
        lhs = [abc_derivative(side, f, ord_, t, _TIGHT) for t in ts]
        rhs = []
        for t in ts:
            abr_indep = abr_derivative_kernel_diff(side, f, ord_, t, _TIGHT, h=h)
            dist = abs(t - anchor)
            rhs.append(abr_indep - scale * anchor_val * ml_one(ord_.alpha, lam * dist**ord_.alpha))
    except MlfracError as exc:
        return _failed_report("caputo-rl-relation", params, tol, exc)
    return IdentityReport("caputo-rl-relation", params, np.array(lhs), np.array(rhs), tol)


def verify_inverse_and_fundamental(
    f: RealFunction,
    ord_: FracOrder,
    side: Side = Side.Left,
    tol: float | None = None,
) -> IdentityReport:
    """Three compositions: D(I f) = f, I(D f) = f, I(Caputo-D f) = f - f(anchor).

    The first composition takes the RL-type derivative by the independent
    d/dt path, so D.I and I.D share no derivative code.
    """
    tol = DEFAULT_TOL if tol is None else tol
    a, b = f.a, f.b
    params = _base_params(ord_, a, b, f=f.label)
    params["side"] = side.name
    params["compositions"] = ("D.I", "I.D", "I.Dc")
    try:
        anchor_val = f.fn(side.anchor(f))
        ts = _interior_grid(a, b, 4, margin=0.15)
        abi_f = RealFunction(
            fn=lambda x: ab_integral(side, f, ord_, x, _INNER), a=a, b=b
        )
        comp1 = [abr_derivative_kernel_diff(side, abi_f, ord_, t, _INNER, h=2.5e-4) for t in ts]

        abr_f = RealFunction(
            fn=lambda x: abr_derivative(side, f, ord_, x, _INNER), a=a, b=b
        )
        comp2 = [ab_integral(side, abr_f, ord_, t, _OUTER) for t in ts]

        abc_f = RealFunction(
            fn=lambda x: abc_derivative(side, f, ord_, x, _INNER), a=a, b=b
        )
        comp3 = [ab_integral(side, abc_f, ord_, t, _OUTER) for t in ts]

        lhs = comp1 + comp2 + comp3
        fv = [f.fn(t) for t in ts]
        rhs = fv + fv + [v - anchor_val for v in fv]
    except MlfracError as exc:
        return _failed_report("inverse-fundamental", params, tol, exc)
    return IdentityReport("inverse-fundamental", params, np.array(lhs), np.array(rhs), tol)


def verify_convolution(
    sigma: float,
    nu: float,
    alpha: float,
    lambda_: float,
    x: float,
    tol: float | None = None,
) -> IdentityReport:
    """ML convolution: the generalized integral of an eigenfunction against the
    matching kernel collapses to a single higher-parameter ML value."""
    tol = 1e-8 if tol is None else tol
    if nu <= 0.0:
        raise DomainError(f"convolution check needs nu > 0, got {nu!r}")
    params = {
        "alpha": alpha,
        "B": 1.0,
        "interval": (0.0, x),
        "sigma": sigma,
        "nu": nu,
        "lambda": lambda_,
    }
    try:
        f = RealFunction(
            fn=lambda t: t ** (nu - 1.0) * ml_value(alpha, nu, sigma, lambda_ * t**alpha)
            if t > 0.0
            else (0.0 if nu > 1.0 else ml_value(alpha, nu, sigma, 0.0)),
            a=0.0,
            b=x,
            label=f"t^{nu - 1:g} E({alpha:g},{nu:g},{sigma:g})",
        )
        lhs = gen_ml_integral(Side.Left, MLParams(alpha, 1.0, 1.0), lambda_, f, x, _INNER)
        rhs = x**nu * ml_value(alpha, 1.0 + nu, 1.0 + sigma, lambda_ * x**alpha)
    except (MlfracError, OverflowError) as exc:
        return _failed_report("convolution", params, tol, exc)
    return IdentityReport("convolution", params, np.array([lhs]), np.array([rhs]), tol)


def verify_diff_formula(
    gamma_p: float,
    mu: float,
    alpha: float,
    lambda_: float,
    z: float,
    tol: float | None = None,
) -> IdentityReport:
    """First-derivative shift: d/dz [z^(mu-1) E(a,mu;g)(l z^a)] = z^(mu-2) E(a,mu-1;g)(l z^a)."""
    tol = 1e-6 if tol is None else tol
    if mu <= 1.0:
        raise DomainError(f"diff-formula check needs mu > 1, got {mu!r}")
    if not z > 0.0:
        # the difference quotient samples z - h, where t^alpha must be real
        raise DomainError(f"diff-formula check needs z > 0 for its d/dz step, got {z!r}")
    # a step proportional to z keeps both samples clear of the z^alpha cusp at 0
    h = 2e-6 * z
    params = {"alpha": alpha, "B": 1.0, "interval": (z, z), "gamma": gamma_p, "mu": mu, "lambda": lambda_}
    try:
        fn = lambda t: t ** (mu - 1.0) * ml_value(alpha, mu, gamma_p, lambda_ * t**alpha)
        lhs = (fn(z + h) - fn(z - h)) / (2.0 * h)
        rhs = z ** (mu - 2.0) * ml_value(alpha, mu - 1.0, gamma_p, lambda_ * z**alpha)
    except (MlfracError, OverflowError) as exc:
        return _failed_report("diff-formula", params, tol, exc)
    return IdentityReport("diff-formula", params, np.array([lhs]), np.array([rhs]), tol)


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
    """The default verification sweep of `mlfrac verify`; ``tol`` reaches every report."""
    x_fn = poly([0.0, 1.0])
    one_minus_x = poly([1.0, -1.0])
    x_sq = poly([0.0, 0.0, 1.0])
    cubic = poly([0.5, -1.0, 0.0, 2.0])

    golden_pair = (
        RealFunction(
            fn=lambda x: 0.5 * (1 - x) + 2.0 * (1 - x) ** 1.5 / (3 * math.sqrt(math.pi)),
            a=0.0,
            b=1.0,
            label="(1-x)/2+2(1-x)^1.5/(3 sqrt(pi))",
        ),
        RealFunction(
            fn=lambda x: 0.5 * x + 2.0 * x**1.5 / (3 * math.sqrt(math.pi)),
            a=0.0,
            b=1.0,
            label="x/2+2x^1.5/(3 sqrt(pi))",
        ),
    )

    reports: list[IdentityReport] = []
    for alpha in (0.25, 0.5, 0.75):
        ord_ = FracOrder(alpha, 1.0)
        reports.append(verify_ibp_integrals(one_minus_x, x_fn, ord_, tol))
        reports.append(verify_ibp_integrals(x_fn, x_sq, ord_, tol))
        reports.append(verify_ibp_derivatives(cubic, x_sq, ord_, tol))
        reports.append(verify_caputo_ibp(x_fn, one_minus_x, ord_, Side.Left, tol))
        reports.append(verify_caputo_rl_relation(x_sq, ord_, Side.Left, tol))
        reports.append(verify_inverse_and_fundamental(x_fn, ord_, Side.Left, tol))
    ord_half = FracOrder(0.5, 1.0)
    reports.append(verify_ibp_derivatives(golden_pair[0], golden_pair[1], ord_half, tol))
    reports.append(verify_caputo_ibp(x_sq, cubic, ord_half, Side.Right, tol))
    reports.append(verify_inverse_and_fundamental(x_sq, ord_half, Side.Right, tol))
    for sigma, nu, x in ((0.0, 1.0, 0.5), (1.0, 1.5, 1.0), (0.0, 2.0, 0.8), (2.0, 1.0, 1.0)):
        reports.append(verify_convolution(sigma, nu, 0.5, -1.0, x, tol))
    for gamma_p, mu in ((1.0, 2.0), (2.0, 2.5), (0.5, 3.0)):
        reports.append(verify_diff_formula(gamma_p, mu, 0.5, -1.0, 0.8, tol))
    return reports
