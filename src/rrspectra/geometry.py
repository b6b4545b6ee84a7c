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
from dataclasses import dataclass

import numpy as np

from .errors import OutOfGrid, StepFailure


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangentPolySpec:
    """Second-order tangent polynomial T(eta) = a*eta^2 - c_im*eta + a*kappa_plus.

    ``a`` and ``kappa_plus`` parameterize the symmetric part; a nonzero
    ``c_im`` (imaginary part of the general complex coefficient) adds a real
    linear term.  The no-real-zeros requirement is the negative-discriminant
    invariant c_im^2 < 4 a^2 kappa_plus.
    """

    a: float = 1.0
    kappa_plus: float = 1.0
    c_im: float = 0.0

    def __post_init__(self):
        if not (self.a > 0):
            raise ValueError("leading coefficient a must be positive")
        if not (self.kappa_plus > 0):
            raise ValueError("kappa_plus must be positive")
        if not (self.c_im ** 2 < 4.0 * self.a ** 2 * self.kappa_plus):
            raise ValueError("tangent polynomial must have negative discriminant")

    @classmethod
    def from_general(cls, c: complex, d: float) -> "TangentPolySpec":
        """Build from the general parameterization with coefficients (c, c*, d).

        The leading coefficient is a = (2 Re c + d)/4 and the symmetric-form
        parameter is kappa_plus = 1 - Re(c)/a.
        """
        c = complex(c)
        a = (2.0 * c.real + d) / 4.0
        if a <= 0:
            raise ValueError("general coefficients give nonpositive leading term")
        return cls(a=a, kappa_plus=1.0 - c.real / a, c_im=c.imag)

    @property
    def is_symmetric(self) -> bool:
        return self.c_im == 0.0

    @property
    def c_complex(self) -> complex:
        """The general-form coefficient paired with the (eta+i)^2 term."""
        return complex(self.a * (1.0 - self.kappa_plus), self.c_im)

    @property
    def d(self) -> float:
        return 2.0 * self.a * (1.0 + self.kappa_plus)

    def to_json_dict(self) -> dict:
        return {"a": self.a, "kappa_plus": self.kappa_plus, "c_im": self.c_im}


def tangent_eval(tp: TangentPolySpec, eta):
    """Evaluate the tangent polynomial; strictly positive on the real line."""
    eta = np.asarray(eta, dtype=float)
    out = tp.a * (eta ** 2 + tp.kappa_plus) - tp.c_im * eta
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PotentialSpec:
    """One potential of the family: singular-point strength h0 plus tangent data.

    The constant term of the invariant is not free: vanishing of the potential
    at both infinities forces O00 = 2*Re(h0) + 1, which is enforced here.  The
    zero-energy exponent parameter lambda0 = sqrt(h0 + 1) must have a positive
    real part.
    """

    h0: complex
    tp: TangentPolySpec

    def __post_init__(self):
        h0 = complex(self.h0)
        object.__setattr__(self, "h0", h0)
        lam = np.sqrt(complex(h0 + 1.0))
        if not (lam.real > 0):
            raise ValueError("Re sqrt(h0+1) must be positive")

    @property
    def h0_re(self) -> float:
        return self.h0.real

    @property
    def h0_im(self) -> float:
        return self.h0.imag

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

    @property
    def is_symmetric(self) -> bool:
        return self.h0.imag == 0.0 and self.tp.is_symmetric

    def well_strengths(self) -> tuple:
        """Depth/asymmetry strengths (V1, V2) of the equivalent hyperbolic well,
        normalized by 4a V1 = -4 Re(h0) - 3 and 4a V2 = Im(h0)."""
        return (
            (-4.0 * self.h0.real - 3.0) / (4.0 * self.tp.a),
            self.h0.imag / (4.0 * self.tp.a),
        )

    def to_json_dict(self) -> dict:
        return {"h0": [self.h0.real, self.h0.imag], "tp": self.tp.to_json_dict()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PotentialSpec":
        tp = d["tp"]
        return cls(
            h0=complex(d["h0"][0], d["h0"][1]),
            tp=TangentPolySpec(
                a=tp.get("a", 1.0), kappa_plus=tp["kappa_plus"], c_im=tp.get("c_im", 0.0)
            ),
        )


def bose_invariant_eval(spec: PotentialSpec, epsilon: float, eta):
    """The rational invariant I(eta; e) of the canonical equation, real for real eta.

    The singular-point strengths slide linearly with energy,
    h(e) = h0 - c*e and O0(e) = O00 + d*e, with (c, d) the tangent-polynomial
    coefficients.  The conjugate pairing of the +-i fractions keeps the value
    real on the real line.
    """
    eta = np.asarray(eta, dtype=float)
    c = spec.tp.c_complex
    h = spec.h0 - c * epsilon
    o0 = spec.o00 + spec.tp.d * epsilon
    denom = (1.0 + eta ** 2)
    # h/(eta+i)^2 + conj(h)/(eta-i)^2 = 2*Re[h*(eta-i)^2] / (1+eta^2)^2
    re_part = h.real * (eta ** 2 - 1.0) + 2.0 * h.imag * eta
    out = -0.25 * (2.0 * re_part / denom ** 2 - o0 / denom)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# the Liouville map
# ---------------------------------------------------------------------------

class VariableMap:
    """The monotone bijection x <-> eta generated by eta' = (1+eta^2)/sqrt(T).

    Anchored at eta(0) = 0.  The forward map comes from adaptive high-order
    ODE integration (dense output); the inverse is computed independently by
    quadrature of x(eta) = integral sqrt(T)/(1+u^2) du, which is what the
    round-trip test leans on.  Only symmetric tangent polynomials are
    supported, so the map is odd.
    """

    def __init__(self, tp: TangentPolySpec, x_max: float, n_points: int):
        if not tp.is_symmetric:
            raise ValueError("variable map requires a symmetric tangent polynomial")
        if x_max <= 0:
            raise ValueError("x_max must be positive")
        if n_points < 64:
            raise ValueError("need at least 64 grid points")
        self.tp = tp
        self.x_max = float(x_max)
        self.n_points = int(n_points)

        from scipy.integrate import solve_ivp

        a, kap = tp.a, tp.kappa_plus
        sol = solve_ivp(
            lambda _x, y: [(1.0 + y[0] ** 2) / math.sqrt(a * (y[0] ** 2 + kap))],
            (0.0, self.x_max),
            [0.0],
            method="DOP853",
            rtol=1e-13,
            atol=1e-14,
            dense_output=True,
        )
        if not sol.success:
            raise StepFailure("variable-map integration failed: %s" % sol.message)
        self._sol = sol.sol
        self.x_grid = np.linspace(-self.x_max, self.x_max, self.n_points)
        self.eta_grid = self.eta_of_x(self.x_grid)
        if np.any(np.diff(self.eta_grid) <= 0):
            raise StepFailure("variable map table is not strictly increasing")

    def eta_of_x(self, x):
        xs = np.asarray(x, dtype=float)
        if np.any(np.abs(xs) > self.x_max * (1.0 + 1e-12)):
            raise OutOfGrid("|x| exceeds the map range %.6g" % self.x_max)
        flat = np.atleast_1d(xs)
        vals = np.sign(flat) * self._sol(np.abs(flat))[0]
        return float(vals[0]) if xs.ndim == 0 else vals.reshape(xs.shape)

    def x_of_eta(self, eta):
        from scipy.integrate import quad

        def one(e):
            if e == 0.0:
                return 0.0
            val, _err = quad(
                lambda u: math.sqrt(tangent_eval(self.tp, u)) / (1.0 + u * u),
                0.0,
                abs(e),
                epsabs=1e-13,
                epsrel=1e-13,
                limit=200,
            )
            return math.copysign(val, e)

        es = np.asarray(eta, dtype=float)
        if es.ndim == 0:
            return one(float(es))
        return np.array([one(float(e)) for e in es.ravel()]).reshape(es.shape)

    def deriv(self, eta):
        """Closed-form eta'(eta) = (1+eta^2)/sqrt(T(eta))."""
        eta = np.asarray(eta, dtype=float)
        out = (1.0 + eta ** 2) / np.sqrt(tangent_eval(self.tp, eta))
        return float(out) if out.ndim == 0 else out


def build_variable_map(tp: TangentPolySpec, x_max: float, n_points: int = 4096) -> VariableMap:
    return VariableMap(tp, x_max, n_points)


# ---------------------------------------------------------------------------
# Schwarzian and the potential
# ---------------------------------------------------------------------------

def schwarzian_eval(tp: TangentPolySpec, eta):
    """Schwarzian derivative {eta, x} of the symmetric map, in closed form.

    a * {eta, x} -> -1/2 as |eta| -> infinity.  The closed form is cheap and
    exact; the generic definition applied to the numeric map is kept for
    cross-checking in tests.
    """
    if not tp.is_symmetric:
        raise ValueError("closed-form Schwarzian requires a symmetric tangent polynomial")
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


def potential_eval(spec: PotentialSpec, vmap: VariableMap, x):
    """V(x) at a point (or array) inside the map's grid."""
    return potential_of_eta(spec, vmap.eta_of_x(x))


def choose_x_max(spec: PotentialSpec, threshold: float = 1e-3, margin: float = 1.0) -> float:
    """Smallest grid half-width with |V| below ``threshold`` at the ends."""
    eta = 1.0
    for _ in range(80):
        if abs(potential_of_eta(spec, eta)) < threshold and abs(
            potential_of_eta(spec, -eta)
        ) < threshold:
            break
        eta *= 1.25
    else:
        raise StepFailure("potential does not decay below %g" % threshold)
    probe = VariableMap(spec.tp, 1.0, 64)  # only used for its quadrature inverse
    x_at = max(abs(probe.x_of_eta(eta)), abs(probe.x_of_eta(-eta)))
    return float(math.ceil((x_at + margin) * 4.0) / 4.0)


def stevenson_xi(eta) -> complex:
    """The linear-fraction variable 2/(1 + i*eta); maps the real line onto |xi-1|=1."""
    return 2.0 / (1j * np.asarray(eta, dtype=float) + 1.0)


def write_potential_csv(spec: PotentialSpec, vmap: VariableMap, path) -> None:
    """Dump the sampled potential as CSV with header ``x,eta,V``."""
    vs = potential_of_eta(spec, vmap.eta_grid)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,eta,V\n")
        for x, e, v in zip(vmap.x_grid, vmap.eta_grid, vs):
            fh.write("%.12g,%.12g,%.12g\n" % (x, e, v))
