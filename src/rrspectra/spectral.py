"""Quantization of the symmetric-tangent-polynomial potential family.

The discrete spectrum is governed by the real part of the branch
lambda(e) = sqrt(h0 + 1 - c*e) (branch Re > 0, c = a*(1-kappa)): level n sits
where lambda_R(e_n) = n + 1/2 + sqrt(-a*e_n).  Eliminating the imaginary part
through 2*lambda_R*lambda_I = Im(h0) turns the condition into a quartic in
lambda_R,

    kappa*L^4 + (1-kappa)(2m+1)*L^3 - [h0_R + 1 + (1-kappa)(m+1/2)^2]*L^2
        - Im(h0)^2/4 = 0,

whose positive admissible roots give the bound states and whose negative
roots give the companion (type-d) closed-form solutions lying below the
ground level.  At kappa = 1 the quartic collapses to a quadratic in L^2 and
the root becomes order-independent (the shape-invariant Gendenshtein limit).

Solutions are assembled as gauge * polynomial closed forms

    Phi(eta) = (1+eta^2)^p * exp(q*atan eta) * R_m^(alpha)(eta),
    p = (1 - L_R)/2,  q = -L_I,  alpha = 1 - conj(lambda).

This convention is derived, not searched for.  With g = (1+eta^2)^p
exp(q atan eta) and Phi = g*R, (1+eta^2)^2 (Phi'' + I*Phi)/g is the polynomial

    (1+eta^2)^2 R'' + 2(2p*eta + q)(1+eta^2) R'
        + [(2p*eta + q)^2 + 2p - 2q*eta - 2p*eta^2 + (1+eta^2)^2 I] R.

Reduced by the canonical Routh equation (:func:`routh.ode_residual`), the R'
term vanishes exactly when alpha = 2p - i*q, and the rest exactly when lambda
lies on the order-m quartic with p and q as above.  This is the Liouville
normal form of the canonical rational equation (Milson, Int. J. Theor. Phys.
37, 1998; Nikiforov & Uvarov, Special Functions of Mathematical Physics,
1988).  :func:`pinned_convention` names the resulting record;
``tests/test_convention.py`` proves the reduction in exact rationals.

This module imports no numpy: roots, counts and identities are decided in
rationals, and :mod:`geometry` samples the closed forms on grids.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import _exact as ex
from ._exact import to_fraction
from .errors import (
    BranchUndefined,
    ConventionUnresolved,
    NoSuchRoot,
    PreconditionViolated,
)
from .routh import (
    ComplexIndex,
    RealPolynomial,
    RouthPolynomial,
    cauchy_beta_ratios,
    discriminant_order2,
    integer_product,
    log_cauchy_beta,
    real_root_count,
    real_roots,
    routh_polynomial,
    theorem_root_count,
)

THRESHOLD_ENERGY = 1e-10


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
        lam = cmath.sqrt(h0 + 1.0)
        if not (lam.real > 0):
            raise ValueError("Re sqrt(h0+1) must be positive")
        return super().__new__(cls, h0, tp)

    @property
    def o00(self) -> float:
        return 2.0 * self.h0.real + 1.0

    @property
    def lambda0(self) -> complex:
        lam = cmath.sqrt(self.h0 + 1.0)
        return lam if lam.real > 0 else -lam

    @property
    def energy_coupling(self) -> float:
        """Coefficient c of the energy in h(e) = h0 - c*e, i.e. a*(1 - kappa)."""
        return self.tp.a * (1.0 - self.tp.kappa_plus)


class QuarticRoots(NamedTuple):
    """Classified real roots of the order-m quartic."""

    order: int
    roots: tuple
    c_candidates: tuple  # roots > m + 1/2, bound-state admissible
    d_roots: tuple       # negative roots, type-d branch


class EtaSolution(NamedTuple):
    """Closed form scale * (1+eta^2)^p * exp(q*atan eta) * R(eta), as a record:
    the gauge power p, the atan coefficient q, the exact polynomial R and the
    scale.  :mod:`geometry` evaluates it and its log-derivatives on grids."""

    power: float
    atan_coeff: float
    poly: RealPolynomial
    scale: float = 1.0


class ClosedForm(NamedTuple):
    """An order-n solution from :func:`_solution`: a bound state (kind "c") or
    a type-d companion.  ``nodes`` counts the real roots of ``poly`` exactly."""

    kind: str  # "c" | "d"
    n: int
    energy: float
    lam: complex
    poly: RouthPolynomial
    nodes: int
    phi: EtaSolution

    @property
    def nodeless(self) -> bool:
        return self.nodes == 0


class Spectrum(NamedTuple):
    states: tuple
    n_max_formula: int
    notes: tuple = ()

    @property
    def n_max_constructive(self) -> int:
        return len(self.states)

    @property
    def formula_consistent(self) -> bool:
        """The closed-form level count (max index + 1) versus the constructive one."""
        return self.n_max_formula + 1 == self.n_max_constructive

    @property
    def energies(self) -> list:
        return [s.energy for s in self.states]

    def to_json_dict(self) -> dict:
        return {
            "states": [
                {
                    "n": s.n,
                    "energy": s.energy,
                    "lambda": [s.lam.real, s.lam.imag],
                    "nodes": s.nodes,
                }
                for s in self.states
            ],
            "n_max_constructive": self.n_max_constructive,
            "n_max_formula": self.n_max_formula,
            "formula_consistent": self.formula_consistent,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# branch and quartic
# ---------------------------------------------------------------------------

def lambda_of_energy(spec: PotentialSpec, epsilon: float) -> complex:
    """lambda(e) = sqrt(h0 + 1 - c*e) on the branch Re(lambda) > 0."""
    arg = spec.h0 + 1.0 - spec.energy_coupling * epsilon
    if arg == 0:
        raise BranchUndefined("h0 + 1 - c*e vanishes; branch point")
    lam = cmath.sqrt(arg)
    if lam.real < 0:
        lam = -lam
    return lam


def _quartic_coeffs(spec: PotentialSpec, m: int) -> list:
    """Exact ascending coefficients of the order-m quartic in lambda_R."""
    kap = to_fraction(spec.tp.kappa_plus)
    b = 1 - kap
    a_coef = to_fraction(spec.h0.real) + 1
    c_const = to_fraction(spec.h0.imag) ** 2 / 4
    half = Fraction(2 * m + 1, 2)
    return [
        -c_const,
        Fraction(0),
        -(a_coef + b * half ** 2),
        b * (2 * m + 1),
        kap,
    ]


def quartic_residual_scale(spec: PotentialSpec, m: int, lam_r: float) -> float:
    val = 0.0
    for c in reversed(_quartic_coeffs(spec, m)):  # Horner, as np.polyval evaluates
        val = val * lam_r + float(c)
    return abs(val) / max(1.0, abs(lam_r) ** 4)


def quartic_lambda_roots(spec: PotentialSpec, m: int) -> QuarticRoots:
    """All real roots of the order-m quartic, exactly isolated and classified.

    Roots at lambda = 0 (present only when Im(h0) = 0) sit on the square-root
    branch point and are discarded.  Positive roots above m + 1/2 are
    bound-state candidates; negative roots belong to type-d solutions.
    """
    roots = [r for r in real_roots(RealPolynomial.from_coeffs(_quartic_coeffs(spec, m)))
             if abs(r) > 1e-12]
    half = m + 0.5
    return QuarticRoots(
        order=m,
        roots=tuple(roots),
        c_candidates=tuple(r for r in roots if r > half),
        d_roots=tuple(r for r in roots if r < 0),
    )


# ---------------------------------------------------------------------------
# the closed-form convention
# ---------------------------------------------------------------------------

def pinned_convention() -> dict:
    """The index/sign convention of every closed form, as a record.

    Phi = (1+eta^2)^p exp(q atan eta) R_m^(alpha) solves the canonical
    equation identically exactly when lambda is on the order-m quartic,
    p = (1 - L_R)/2, q = -L_I and alpha = 2p - i*q = 1 - conj(lambda) (see the
    module docstring).  In the record's terms: the atan coefficient is
    ``sign`` * L_I, and the index is -lambda, ``conjugate``d, plus ``shift``.
    """
    return {"sign": -1, "conjugate": True, "shift": 1}


def _closed_form(lam: complex, m: int) -> tuple:
    """(R_m^(1 - conj lambda), unnormalized Phi) in the pinned convention.

    The index is -conj(lambda) shifted by one exactly: 1 - L_R is never
    rounded, so the Routh coefficients are those of the float lambda.
    """
    rp = routh_polynomial(m, ComplexIndex.of(-lam.conjugate()).shifted(1))
    return rp, EtaSolution(0.5 * (1.0 - lam.real), -lam.imag, rp.poly)


# ---------------------------------------------------------------------------
# spectrum enumeration and assembly
# ---------------------------------------------------------------------------

def _normalize_phi(spec: PotentialSpec, phi: EtaSolution) -> EtaSolution:
    """Scale so that integral Phi^2 * density deta = 1 (hence psi is L2-normal).

    Closed form, with Phi = (1+eta^2)^p exp(q atan eta) R(eta).  The density
    splits as T/(1+eta^2)^2 = a/(1+eta^2) + a(kappa-1)/(1+eta^2)^2, so each
    part of Phi^2 times it is R^2 (1+eta^2)^-nu exp(2q atan eta) with
    nu = 1 - 2p in the first part and nu + 1 in the second: Cauchy beta
    integrals, each an exact rational multiple of B(nu, q)
    (:func:`routh.cauchy_beta_ratios`), while
    B(nu+1, q) = B(nu, q) nu(2nu-1)/(2(nu^2+q^2)).  Only B(nu, q) is
    rounded.  Every integral converges for an admissible level of order n,
    since nu > n + 1/2.
    """
    p, q = to_fraction(phi.power), to_fraction(phi.atan_coeff)
    nu = 1 - 2 * p
    sq, den = integer_product(phi.poly.coeffs, phi.poly.coeffs)  # R^2 = sq(eta) / den^2
    m0, m1 = cauchy_beta_ratios(sq, q, (nu, nu + 1))
    kap = to_fraction(spec.tp.kappa_plus)
    bracket = m0 + (kap - 1) * nu * (2 * nu - 1) / (2 * (nu * nu + q * q)) * m1
    norm2 = spec.tp.a * phi.scale ** 2 * math.exp(log_cauchy_beta(nu, q)) * float(bracket / (den * den))
    return phi._replace(scale=phi.scale / math.sqrt(norm2))


def _solution(spec: PotentialSpec, kind: str, qr: QuarticRoots) -> ClosedForm:
    """The unnormalized order-m solution of ``kind``: type c on the largest
    admissible root, type d on the most negative one, both at
    e = -(m + 1/2 - lambda_R)^2 / a.  The node count is taken here, once."""
    m = qr.order
    roots = qr.c_candidates if kind == "c" else qr.d_roots
    if not roots:
        raise NoSuchRoot("no type-%s root at order %d" % (kind, m))
    lam_r = max(roots) if kind == "c" else min(roots)
    lam = complex(lam_r, spec.h0.imag / (2.0 * lam_r) if spec.h0.imag != 0.0 else 0.0)
    rp, phi = _closed_form(lam, m)
    return ClosedForm(
        kind=kind, n=m, energy=-((m + 0.5 - lam_r) ** 2) / spec.tp.a, lam=lam,
        poly=rp, nodes=real_root_count(rp.poly), phi=phi,
    )


@lru_cache(maxsize=64)
def enumerate_bound_spectrum(spec: PotentialSpec) -> Spectrum:
    """Constructive bound-state enumeration: walk n upward until no root fits.

    State n is the normalized type-c solution of order n (:func:`_solution`):
    its root exceeds n + 1/2, and |e| < ``THRESHOLD_ENERGY`` ends the walk.
    The closed-form level-count (floor of Re lambda0, read as a maximal
    index) is recorded alongside for comparison but never drives the loop.
    """
    notes = []
    states = []
    n = 0
    while True:
        qr = quartic_lambda_roots(spec, n)
        if not qr.c_candidates:
            break
        if len(qr.c_candidates) > 1:
            notes.append("order %d: %d admissible roots; kept the largest" % (n, len(qr.c_candidates)))
        state = _solution(spec, "c", qr)
        if abs(state.energy) < THRESHOLD_ENERGY:
            notes.append("order %d: |e| < %g treated as threshold, not bound" % (n, THRESHOLD_ENERGY))
            break
        states.append(state._replace(phi=_normalize_phi(spec, state.phi)))
        n += 1
    return Spectrum(
        states=tuple(states),
        n_max_formula=math.floor(spec.lambda0.real),
        notes=tuple(notes),
    )


def bound_state(spec: PotentialSpec, n: int) -> ClosedForm:
    """The normalized n-th bound state, after the exact check that its
    polynomial has n real roots.  (Admissibility, lambda_R > n + 1/2, is how
    :func:`enumerate_bound_spectrum` chose the root.)"""
    states = enumerate_bound_spectrum(spec).states
    if n >= len(states):
        raise NoSuchRoot("no bound state with index %d" % n)
    if states[n].nodes != n:
        raise ConventionUnresolved("state %d polynomial has %d real roots" % (n, states[n].nodes))
    return states[n]


def aeh_solution(spec: PotentialSpec, kind: str, m: int) -> ClosedForm:
    """Unnormalized solution of the requested kind and order.

    Type c are the normalizable branch (the bound states); type d carry the
    negative quartic root, lie below the ground level, and are the Darboux
    seeds when their polynomial factor is nodeless.
    """
    if kind not in ("c", "d"):
        raise ValueError("kind must be 'c' or 'd'")
    return _solution(spec, kind, quartic_lambda_roots(spec, m))


# ---------------------------------------------------------------------------
# named potentials and identity checks
# ---------------------------------------------------------------------------

def gendenshtein_params(a_g: float, b_g: float) -> PotentialSpec:
    """The shape-invariant kappa = 1 member with lambda0 = a + 1/2 + i*b.

    V(x) = [b^2 - a(a+1)]/cosh^2 x + (2a+1) b sinh x / cosh^2 x, bound levels
    -(a-n)^2 and type-d companions at -(a+m+1)^2.
    """
    if not a_g > 0:
        raise ValueError("a must be positive")
    lam0 = complex(a_g + 0.5, b_g)
    return PotentialSpec(h0=lam0 * lam0 - 1.0, tp=TangentPolySpec(a=1.0, kappa_plus=1.0))


class SigmaRhoReport(NamedTuple):
    sigma: float
    rho: complex
    sum_identity_dev: float     # (sigma-1/2)^2 + (rho-1/2)^2 vs h_R(e) + 1
    product_identity_dev: float  # 2 lambda_R lambda_I vs Im(h0)


def milson_sigma_rho(spec: PotentialSpec, epsilon: float) -> SigmaRhoReport:
    """Exponent-difference parameters sigma = 1/2 - lambda_R, rho = 1/2 - i*lambda_I,

    with both defining identities evaluated and reported as deviations."""
    lam = lambda_of_energy(spec, epsilon)
    sigma = 0.5 - lam.real
    rho = 0.5 - 1j * lam.imag
    lhs = (sigma - 0.5) ** 2 + (rho - 0.5) ** 2
    rhs = spec.h0.real + 1.0 - spec.energy_coupling * epsilon
    dev_sum = abs(lhs - rhs)
    dev_prod = abs(2.0 * lam.real * lam.imag - spec.h0.imag)
    return SigmaRhoReport(sigma=sigma, rho=rho,
                          sum_identity_dev=float(dev_sum),
                          product_identity_dev=float(dev_prod))


def stevenson_identity_check(state: ClosedForm) -> float:
    """Largest coefficient deviation between the truncated hypergeometric
    solution form and the Routh polynomial of the bound ``state`` of level n.

    With xi = 2/(1 + i*eta) and lambda the state's branch value, the identity

        xi^-n F(-n, lambda*-n; 2(lambda_R-n); xi)
            = (-i)^n n! / (2 lambda_R - 2n)_n * R_n^(1-lambda*)(eta)

    compares two polynomials in eta, since the left side is one of degree n
    in 1/xi = (1 + i*eta)/2.  Their coefficients are compared exactly, in
    Gaussian rationals, so the result is 0.0 when the identity holds.  No
    Pochhammer (2 lambda_R - 2n)_j vanishes: an admissible root has
    2(lambda_R - n) > 1.
    """
    n = state.n
    lam_r, lam_i = to_fraction(state.lam.real), to_fraction(state.lam.imag)
    c_param = 2 * (lam_r - n)
    lhs = []  # ascending in eta
    term = ex.C_ONE  # (-n)_j (lambda* - n)_j / ((c)_j j!), the coefficient of xi^j in F
    for j in range(n + 1):
        # Horner in 1/xi: lhs <- lhs * (1 + i*eta)/2 + term, with i*(re, im) = (-im, re)
        lhs = [ex.c_scale(ex.c_add(a, (-b[1], b[0])), Fraction(1, 2))
               for a, b in zip(lhs + [ex.C_ZERO], [ex.C_ZERO] + lhs)]
        lhs[0] = ex.c_add(lhs[0], term)
        term = ex.c_scale(ex.c_mul(term, (lam_r - n + j, -lam_i)),
                          Fraction(j - n) / ((c_param + j) * (j + 1)))
    scale = Fraction(math.factorial(n))
    for j in range(n):
        scale /= c_param + j
    unit = ((1, 0), (0, -1), (-1, 0), (0, 1))[n % 4]  # (-i)^n
    rhs = [ex.c_scale(unit, scale * c) for c in state.poly.poly.coeffs]
    rhs += [ex.C_ZERO] * (len(lhs) - len(rhs))
    return max(math.hypot(float(a[0] - b[0]), float(a[1] - b[1])) for a, b in zip(lhs, rhs))


# ---------------------------------------------------------------------------
# nodelessness scan
# ---------------------------------------------------------------------------

class ScanCell(NamedTuple):
    a: float
    b: float
    empirical_nodeless: bool | None
    threshold_prediction: bool | None
    discriminant_prediction: bool | None
    consistent: bool | None  # exact root count vs theorem_root_count, where it applies


def nodeless_threshold_b2(a_g: float) -> float:
    """Quoted order-2 nodelessness bound on the asymmetry: b^2 < (2a+5)^2/(6a+11)."""
    return (2.0 * a_g + 5.0) ** 2 / (6.0 * a_g + 11.0)


def _scan_cell(a_g: float, b_g: float, m: int) -> ScanCell:
    spec = gendenshtein_params(a_g, b_g)
    try:
        sol = aeh_solution(spec, "d", m)
    except NoSuchRoot:
        return ScanCell(a_g, b_g, None, None, None, None)
    consistent = theorem_root_count(m, sol.poly.index) in (None, sol.nodes)
    disc_pred = None
    if m == 2:
        disc_pred = discriminant_order2(sol.poly.index) < 0.0
    thresh = bool(b_g ** 2 < nodeless_threshold_b2(a_g)) if m == 2 else None
    return ScanCell(
        a=a_g, b=b_g,
        empirical_nodeless=sol.nodeless,
        threshold_prediction=thresh,
        discriminant_prediction=disc_pred,
        consistent=consistent,
    )


def _scan_axis(start, stop, num: int) -> list:
    """``num`` >= 2 floats from ``start`` to ``stop``, equal to
    ``np.linspace(start, stop, num)`` bit for bit: i*step + start with the
    last value set to ``stop``, and (i/(num-1))*delta + start when the step
    rounds to zero, as numpy does."""
    start, stop = float(start), float(stop)
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0:
        out = [i / div * delta + start for i in range(num)]
    else:
        out = [i * step + start for i in range(num)]
    out[-1] = stop
    return out


def nodeless_scan(a_range, b_range, m: int, na: int = 16, nb: int = 16, workers: int = 1):
    """Three-way nodelessness map over a (a, b) parameter grid at fixed order.

    Per cell: the exact root count of the type-d polynomial factor (checked
    against :func:`routh.theorem_root_count` where it applies; the gauge
    factor is positive, so no root means a nodeless solution), the quoted
    asymmetry threshold, and the canonical discriminant sign.  Disagreements
    are reported, not resolved.
    """
    if m < 2 or m % 2:
        raise PreconditionViolated("scan order must be even and >= 2")
    if na < 2 or nb < 2:
        raise PreconditionViolated("grid resolutions must be at least 2")
    tasks = [(a, b, m) for a in _scan_axis(*a_range, na) for b in _scan_axis(*b_range, nb)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_scan_cell, *zip(*tasks)))
    else:
        cells = [_scan_cell(*t) for t in tasks]
    return cells
