"""Tangent polynomials, Bose invariants and the Liouville change of variable.

The potentials handled here live on the whole real line and come from a
rational canonical Sturm-Liouville form Phi'' + I(eta; e) Phi = 0 with two
complex-conjugate singular points +-i.  A second-order tangent polynomial
T(eta) with no real zeros fixes the monotone change of variable x <-> eta via
eta' = (1+eta^2)/sqrt(T), and the Liouville transformation then produces a
Schroedinger potential V(x) (units hbar = 2m = 1 throughout).

The symmetric tangent polynomial a*(eta^2 + kappa) generates the Milson
family; kappa = 1 with a = 1 is the Gendenshtein (Scarf II) limit where
eta(x) = sinh x.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import OutOfGrid, StepFailure


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class _TangentPolyFields(NamedTuple):
    a: float
    kappa_plus: float


class TangentPolySpec(_TangentPolyFields):
    """Symmetric second-order tangent polynomial T(eta) = a*(eta^2 + kappa_plus).

    It has no real zeros (negative discriminant) exactly when kappa_plus > 0.
    """

    __slots__ = ()

    def __new__(cls, a: float = 1.0, kappa_plus: float = 1.0):
        if not (a > 0):
            raise ValueError("leading coefficient a must be positive")
        if not (kappa_plus > 0):
            raise ValueError("kappa_plus must be positive")
        return super().__new__(cls, a, kappa_plus)

    @property
    def d(self) -> float:
        return 2.0 * self.a * (1.0 + self.kappa_plus)


def tangent_eval(tp: TangentPolySpec, eta):
    """Evaluate the tangent polynomial; strictly positive on the real line."""
    eta = np.asarray(eta, dtype=float)
    out = tp.a * (eta ** 2 + tp.kappa_plus)
    return float(out) if out.ndim == 0 else out


class _PotentialFields(NamedTuple):
    h0: complex
    tp: TangentPolySpec


class PotentialSpec(_PotentialFields):
    """One potential of the family: singular-point strength h0 plus tangent data.

    The constant term of the invariant is not free: vanishing of the potential
    at both infinities forces O00 = 2*Re(h0) + 1, which is enforced here.  The
    zero-energy exponent parameter lambda0 = sqrt(h0 + 1) must have a positive
    real part.
    """

    __slots__ = ()

    def __new__(cls, h0: complex, tp: TangentPolySpec):
        h0 = complex(h0)
        if not (math.isfinite(h0.real) and math.isfinite(h0.imag)):
            raise ValueError("h0 must be finite")
        lam = np.sqrt(complex(h0 + 1.0))
        if not (lam.real > 0):
            raise ValueError("Re sqrt(h0+1) must be positive")
        return super().__new__(cls, h0, tp)

    @property
    def o00(self) -> float:
        return 2.0 * self.h0.real + 1.0

    @property
    def lambda0(self) -> complex:
        lam = complex(np.sqrt(complex(self.h0 + 1.0)))
        return lam if lam.real > 0 else -lam

    @property
    def energy_coupling(self) -> float:
        """Coefficient c of the energy in h(e) = h0 - c*e, i.e. a*(1 - kappa)."""
        return self.tp.a * (1.0 - self.tp.kappa_plus)


def bose_invariant_eval(spec: PotentialSpec, epsilon: float, eta):
    """The rational invariant I(eta; e) of the canonical equation, real for real eta.

    The singular-point strengths slide linearly with energy,
    h(e) = h0 - c*e and O0(e) = O00 + d*e, with (c, d) the tangent-polynomial
    coefficients.  The conjugate pairing of the +-i fractions keeps the value
    real on the real line.
    """
    eta = np.asarray(eta, dtype=float)
    h = spec.h0 - spec.energy_coupling * epsilon
    o0 = spec.o00 + spec.tp.d * epsilon
    denom = (1.0 + eta ** 2)
    # h/(eta+i)^2 + conj(h)/(eta-i)^2 = 2*Re[h*(eta-i)^2] / (1+eta^2)^2
    re_part = h.real * (eta ** 2 - 1.0) + 2.0 * h.imag * eta
    out = -0.25 * (2.0 * re_part / denom ** 2 - o0 / denom)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# the Liouville map
# ---------------------------------------------------------------------------

def liouville_x(tp: TangentPolySpec, eta):
    """Closed-form x(eta) = integral_0^eta sqrt(T(u))/(1+u^2) du, symmetric T.

    With T = a(u^2 + kappa), r = sqrt(eta^2 + kappa) and s = sqrt|kappa - 1|,

        x = sqrt(a) [asinh(eta/sqrt(kappa)) + s atan(s eta/r)]     (kappa >= 1)

    For kappa < 1 the second term is -s atanh(s eta/r), which cancels most
    of the first when kappa is small.  The same value is summed instead from
    three terms of one sign (eta >= 0; the map is odd):

        x = sqrt(a) [log1p((1-s) eta/(r + s eta)) + (1-s) log((r + s eta)/sqrt(kappa))
                     + (s/2) log1p(eta^2)]

    ``r`` comes from ``hypot``, so huge |eta| does not overflow.
    """
    eta = np.asarray(eta, dtype=float)
    kap = tp.kappa_plus
    rk = math.sqrt(kap)
    s = math.sqrt(abs(kap - 1.0))
    if kap >= 1.0:
        out = np.arcsinh(eta / rk) + s * np.arctan(s * eta / np.hypot(eta, rk))
    else:
        e = np.abs(eta)
        r = np.hypot(e, rk)
        one_minus_s = kap / (1.0 + s)
        # each log1p argument is rewritten to avoid cancellation and overflow
        out = np.copysign(
            np.log1p(one_minus_s * e / (r + s * e))
            + one_minus_s * np.log1p(e * (e / (r + rk) + s) / rk)  # log((r + s e)/sqrt(kappa))
            + s * np.log1p(e * (e / (1.0 + np.hypot(1.0, e)))),  # log1p(e^2)/2
            eta,
        )
    out = math.sqrt(tp.a) * out
    return float(out) if out.ndim == 0 else out


class VariableMap:
    """The monotone bijection x <-> eta generated by eta' = (1+eta^2)/sqrt(T).

    Anchored at eta(0) = 0.  x(eta) is the closed form :func:`liouville_x`
    and eta(x) its Newton inverse; the grid table ``eta_grid`` must come out
    strictly increasing.  The tangent polynomial is symmetric, so the map
    is odd.  The tests check both directions against an
    independent ODE solve and quadrature.
    """

    def __init__(self, tp: TangentPolySpec, x_max: float, n_points: int):
        if x_max <= 0:
            raise ValueError("x_max must be positive")
        if n_points < 64:
            raise ValueError("need at least 64 grid points")
        self.tp = tp
        self.x_max = float(x_max)
        self.n_points = int(n_points)
        self.x_grid = np.linspace(-self.x_max, self.x_max, self.n_points)
        self.eta_grid = self.eta_of_x(self.x_grid)
        if np.any(np.diff(self.eta_grid) <= 0):
            raise StepFailure("variable map table is not strictly increasing")

    def eta_of_x(self, x):
        """Inverse of :func:`liouville_x` by Newton's method in s = asinh eta.

        The slope dx/ds = sqrt(a (eta^2+kappa)/(eta^2+1)) runs monotonically
        from sqrt(a kappa) at s = 0 to sqrt(a) at infinity, so x(s) is concave
        on s > 0 for kappa > 1 and convex for kappa < 1.  Starting from
        s = x / (sqrt(a) max(1, sqrt(kappa))), which never overshoots the
        root, the iterates approach it monotonically (for kappa < 1 after the
        first step).  The iteration stops once every step is below 1e-14
        relative to s, after one polishing step, and raises
        :class:`StepFailure` if that does not happen or eta overflows.
        """
        xs = np.asarray(x, dtype=float)
        if np.any(np.abs(xs) > self.x_max * (1.0 + 1e-12)):
            raise OutOfGrid("|x| exceeds the map range %.6g" % self.x_max)
        ra, rk = math.sqrt(self.tp.a), math.sqrt(self.tp.kappa_plus)
        s = xs / (ra * max(1.0, rk))
        done = False
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(60):
                eta = np.sinh(s)
                step = (liouville_x(self.tp, eta) - xs) * np.hypot(eta, 1.0) / (ra * np.hypot(eta, rk))
                s = s - step
                if done:
                    break
                done = bool(np.all(np.abs(step) <= 1e-14 * np.abs(s)))
            else:
                raise StepFailure("variable-map inversion did not converge")
            eta = np.sinh(s)
        if not np.all(np.isfinite(eta)):
            raise StepFailure("variable-map inversion gave a non-finite eta")
        return float(eta) if eta.ndim == 0 else eta

    def deriv(self, eta):
        """Closed-form eta'(eta) = (1+eta^2)/sqrt(T(eta))."""
        eta = np.asarray(eta, dtype=float)
        out = (1.0 + eta ** 2) / np.sqrt(tangent_eval(self.tp, eta))
        return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Schwarzian and the potential
# ---------------------------------------------------------------------------

def schwarzian_eval(tp: TangentPolySpec, eta):
    """Schwarzian derivative {eta, x} of the symmetric map, in closed form.

    a * {eta, x} -> -1/2 as |eta| -> infinity.  The closed form is cheap and
    exact; the generic definition applied to the numeric map is kept for
    cross-checking in tests.
    """
    eta = np.asarray(eta, dtype=float)
    kap = tp.kappa_plus
    e2 = eta ** 2
    ratio = (1.0 + e2) / (e2 + kap)
    bracket = -0.5 - (kap + 1.0) / (1.0 + e2) + 2.5 * kap / (e2 + kap)
    out = ((1.0 - e2) / (e2 + kap) - ratio ** 2 * bracket) / tp.a
    return float(out) if out.ndim == 0 else out


def potential_of_eta(spec: PotentialSpec, eta):
    """The Liouville potential expressed through eta (symmetric family)."""
    eta = np.asarray(eta, dtype=float)
    t = tangent_eval(spec.tp, eta)
    num = 4.0 * spec.h0.real - 4.0 * spec.h0.imag * eta + eta ** 2 + 1.0
    out = -num / (4.0 * t) - 0.5 * schwarzian_eval(spec.tp, eta)
    return float(out) if out.ndim == 0 else out


def choose_x_max(spec: PotentialSpec) -> float:
    """Grid half-width with |V| below 1e-3 at both ends, plus 1, rounded up to a quarter."""
    eta = 1.0
    for _ in range(80):
        if abs(potential_of_eta(spec, eta)) < 1e-3 and abs(potential_of_eta(spec, -eta)) < 1e-3:
            break
        eta *= 1.25
    else:
        raise StepFailure("potential does not decay below 1e-3")
    x_at = liouville_x(spec.tp, eta)  # the map is odd
    return float(math.ceil((x_at + 1.0) * 4.0) / 4.0)

