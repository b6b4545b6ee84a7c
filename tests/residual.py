"""Sampled residual of the canonical equation: the float reference that the
closed forms, which solve the equation by construction, are checked against,
with the rational invariant I(eta; e) it needs, and the float and polynomial
arithmetic on package records that only the tests use: eta at a single point
of the map, and the gauge and Phi at a single eta.

It lives with the tests because the package decides the convention by
derivation (see ``rrspectra.spectral``) and samples no residual at run time.
"""

from __future__ import annotations

import math

import numpy as np

from rrspectra import _exact as ex
from rrspectra.geometry import _inverse
from rrspectra.routh import RealPolynomial
from rrspectra.spectral import ClosedForm, PotentialSpec, TangentPolySpec


def energy_slope(tp: TangentPolySpec) -> float:
    """Coefficient d of the energy in O0(e) = O00 + d*e, i.e. 2a(1 + kappa)."""
    return 2.0 * tp.a * (1.0 + tp.kappa_plus)


def poly_mul(p: RealPolynomial, q: RealPolynomial) -> RealPolynomial:
    """The exact product of two real polynomials."""
    return RealPolynomial.from_coeffs(ex.rp_mul(list(p.coeffs), list(q.coeffs)))


def poly_eval(p: RealPolynomial, x):
    """p(x) in floats, by Horner."""
    return np.polyval([float(c) for c in reversed(p.coeffs)] or [0.0], x)


def eta_of_x(tp: TangentPolySpec, x: float) -> float:
    """eta at one point ``x`` by the package's Newton inverse, started from
    s = x / sqrt(a max(1, kappa)), which never overshoots the root."""
    (eta,) = _inverse(tp, [x])
    return eta


def gauge(solution: ClosedForm, eta: float) -> float:
    """(1+eta^2)^p * exp(q*atan eta), the positive factor of ``solution``."""
    return (1.0 + eta * eta) ** solution.power * math.exp(solution.atan_coeff * math.atan(eta))


def phi_value(solution: ClosedForm, eta: float) -> float:
    """Phi(eta) = scale * gauge * R(eta) at a float ``eta``."""
    return solution.scale * gauge(solution, eta) * float(poly_eval(solution.poly.poly, eta))


def phi_second_derivative(solution: ClosedForm, eta):
    """Phi''(eta) from the gauge log-derivative u = (2p*eta + q)/(1+eta^2):
    Phi'' = scale * gauge * [(u^2 + u') R + 2u R' + R'']."""
    eta = np.asarray(eta, dtype=float)
    p, q = solution.power, solution.atan_coeff
    w = 1.0 + eta ** 2
    u = (2.0 * p * eta + q) / w
    du = (2.0 * p - 2.0 * p * eta ** 2 - 2.0 * q * eta) / (w * w)
    r0 = list(solution.poly.poly.coeffs)
    r1 = ex.rp_diff(r0)
    r2 = ex.rp_diff(r1)
    r0, r1, r2 = (poly_eval(RealPolynomial.from_coeffs(r), eta) for r in (r0, r1, r2))
    g = np.reshape([gauge(solution, e) for e in eta.ravel().tolist()], eta.shape)
    out = solution.scale * g * ((u * u + du) * r0 + 2.0 * u * r1 + r2)
    return float(out) if out.ndim == 0 else out


def bose_invariant_eval(spec: PotentialSpec, epsilon: float, eta):
    """The rational invariant I(eta; e) of the canonical equation, real for real eta.

    The singular-point strengths slide linearly with energy,
    h(e) = h0 - c*e and O0(e) = O00 + d*e, with (c, d) the tangent-polynomial
    coefficients.  The conjugate pairing of the +-i fractions keeps the value
    real on the real line.
    """
    eta = np.asarray(eta, dtype=float)
    h = spec.h0 - spec.energy_coupling * epsilon
    o0 = spec.o00 + energy_slope(spec.tp) * epsilon
    denom = (1.0 + eta ** 2)
    # h/(eta+i)^2 + conj(h)/(eta-i)^2 = 2*Re[h*(eta-i)^2] / (1+eta^2)^2
    re_part = h.real * (eta ** 2 - 1.0) + 2.0 * h.imag * eta
    out = -0.25 * (2.0 * re_part / denom ** 2 - o0 / denom)
    return float(out) if out.ndim == 0 else out


def rcsle_residual(spec: PotentialSpec, epsilon: float, solution: ClosedForm, eta_samples) -> float:
    """max over samples of |Phi'' + I(eta; e) Phi| / (1 + |Phi|), with the
    exact second derivative :func:`phi_second_derivative`."""
    etas = np.asarray(eta_samples, dtype=float)
    vals = np.array([phi_value(solution, e) for e in etas.tolist()])
    second = np.asarray(phi_second_derivative(solution, etas), dtype=float)
    inv = bose_invariant_eval(spec, epsilon, etas)
    res = np.abs(second + inv * vals) / (1.0 + np.abs(vals))
    return float(np.max(res))
