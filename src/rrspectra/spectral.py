"""Quantization of the symmetric-tangent-polynomial potential family.

A potential is :class:`PotentialSpec` (h0, kappa): the singular-point
strength h0 and the tangent polynomial T(eta) = eta^2 + kappa.  The discrete
spectrum is governed by the real part of the branch
lambda(e) = sqrt(h0 + 1 - c*e) (branch Re > 0, c = 1 - kappa): level n sits
where lambda_R(e_n) = n + 1/2 + sqrt(-e_n).  Eliminating the imaginary part
through 2*lambda_R*lambda_I = Im(h0) turns the condition into a quartic in
lambda_R,

    kappa*L^4 + (1-kappa)(2m+1)*L^3 - [h0_R + 1 + (1-kappa)(m+1/2)^2]*L^2
        - Im(h0)^2/4 = 0,

whose admissible roots, L > mu = m + 1/2, give the bound states and whose
negative roots give the companion (type-d) closed-form solutions lying below
the ground level.  With H = h0_R + 1 and C = Im(h0)^2/4 the quartic is
exactly Q(L) = L^4 - (1-kappa) L^2 (L-mu)^2 - H L^2 - C, so
(Q/L^2)' = 2[kappa (L-mu) + mu] + 2C/L^3 > 0 for L > mu: order m has one
admissible root exactly when Q(mu) = mu^4 - H mu^2 - C < 0, and never two.
At kappa = 1 the quartic collapses to a quadratic in L^2 and the root
becomes order-independent (the shape-invariant Gendenshtein limit).

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

One record, :class:`ClosedForm`, holds a solution: its energy, lambda, the
exact Routh polynomial R and a scale; p and q are read off lambda, and the
node count of R follows from its order and index by theorem
(:func:`routh.theorem_root_count`), so no solution counts its roots.  The
nodelessness scan alone counts them, exactly, as the cross-check of that
theorem.  A Darboux partner's levels are exact as well:
:func:`partner_levels` reads them off the parent levels and the seed's
energy, and refuses a seed with nodes by its node count.  A command
enumerates its :class:`Spectrum` once and reads its levels from
``states``; nothing here is cached.  Only
``spectrum`` samples bound states, so only it normalizes them
(:func:`normalized`), each once.  This module imports no numpy: roots,
counts and identities are decided in rationals held as Python integers
(:mod:`rrspectra._exact`), the float data entering through
``float.as_integer_ratio``, and :mod:`geometry` samples the closed forms on
grids.
"""

from __future__ import annotations

import cmath
import math
import os
from typing import NamedTuple

from . import _exact as ex
from .errors import ConfigError, NodeDetected, NoSuchRoot
from .routh import (
    ComplexIndex,
    RouthPolynomial,
    cauchy_beta_ratio,
    discriminant_order2,
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

class _PotentialFields(NamedTuple):
    h0: complex
    kappa_plus: float


class PotentialSpec(_PotentialFields):
    """One potential of the family: singular-point strength h0 and the tangent
    polynomial T(eta) = eta^2 + kappa_plus, which has no real zeros exactly
    when kappa_plus > 0.  A leading coefficient a of T would only scale x by
    sqrt(a) and e by 1/a, so T has none.

    The constant term of the invariant is not a parameter: with singular
    points at +-i, vanishing of the potential at both infinities forces
    O00 = 2*Re(h0) + 1, so h0 and kappa_plus fix the potential.  The
    zero-energy exponent parameter lambda0 = sqrt(h0 + 1) must have a positive
    real part.
    """

    __slots__ = ()

    def __new__(cls, h0: complex, kappa_plus: float):
        if not (kappa_plus > 0):
            raise ValueError("kappa_plus must be positive")
        h0 = complex(h0)
        if not (math.isfinite(h0.real) and math.isfinite(h0.imag)):
            raise ValueError("h0 must be finite")
        lam = cmath.sqrt(h0 + 1.0)
        if not (lam.real > 0):
            raise ValueError("Re sqrt(h0+1) must be positive")
        return super().__new__(cls, h0, kappa_plus)

    @property
    def lambda0(self) -> complex:
        return cmath.sqrt(self.h0 + 1.0)


class ClosedForm(NamedTuple):
    """An order-n solution from :func:`aeh_solution`, a bound state (kind "c") or
    a type-d companion: scale * (1+eta^2)^p * exp(q*atan eta) * R(eta), with
    the gauge power p and atan coefficient q read off ``lam`` and R the exact
    ``poly``.  ``scale`` is 1.0 until :func:`normalized` sets it.
    :mod:`geometry` evaluates the record and its log-derivative on grids."""

    kind: str  # "c" | "d"
    energy: float
    lam: complex
    poly: RouthPolynomial
    scale: float = 1.0

    @property
    def n(self) -> int:
        return self.poly.order

    @property
    def nodes(self) -> int:
        """The real roots of R, by theorem (:func:`routh.theorem_root_count`):
        n for a bound state, since lambda_R > n + 1/2 gives
        n < 1/2 - Re(index), and n mod 2 for a type-d companion, since
        lambda_R < 0 gives Re(index) > 1."""
        return theorem_root_count(self.n, self.poly.index)

    @property
    def power(self) -> float:
        """p = (1 - L_R)/2."""
        return 0.5 * (1.0 - self.lam.real)

    @property
    def atan_coeff(self) -> float:
        """q = -L_I."""
        return -self.lam.imag


class Spectrum(NamedTuple):
    states: tuple
    n_max_formula: int
    notes: tuple = ()

    @property
    def n_max_constructive(self) -> int:
        return len(self.states)

    @property
    def formula_consistent(self) -> bool:
        """The closed-form level count (max index + 1) versus the constructive one.

        Order n is admissible exactly when n + 1/2 < Re lambda0, since Q(mu) < 0
        exactly when mu^2 < (H + sqrt(H^2 + 4C))/2 = (Re lambda0)^2 (module
        docstring).  Unless the threshold cut ends the walk first, the
        constructive count is ceil(Re lambda0 - 1/2), and floor(Re lambda0) + 1
        overcounts it by one whenever frac(Re lambda0) <= 1/2.
        """
        return self.n_max_formula + 1 == self.n_max_constructive

    @property
    def energies(self) -> list:
        return [s.energy for s in self.states]


# ---------------------------------------------------------------------------
# quartic
# ---------------------------------------------------------------------------

def _quartic_coeffs(spec: PotentialSpec, m: int) -> tuple:
    """The order-m quartic in lambda_R, exactly: its ascending integer
    numerators over one positive denominator, ``(num, den)``.  With
    kappa = k/kd, H = h0_R + 1 = (h + hd)/hd and Im(h0) = c/cd, the
    coefficients are -c^2/(4cd^2), 0, -(H + (1-kappa)(m+1/2)^2),
    (1-kappa)(2m+1) and kappa."""
    k, kd = ex.ratio(spec.kappa_plus)
    h, hd = ex.ratio(spec.h0.real)
    c, cd = ex.ratio(spec.h0.imag)
    den = math.lcm(4 * cd * cd, hd, 4 * kd)
    odd = 2 * m + 1
    return [
        -c * c * (den // (4 * cd * cd)),
        0,
        -((h + hd) * (den // hd) + (kd - k) * odd * odd * (den // (4 * kd))),
        (kd - k) * odd * (den // kd),
        k * (den // kd),
    ], den


def quartic_residual_scale(spec: PotentialSpec, m: int, lam_r: float) -> float:
    """|Q(lam_r)| of the order-m quartic Q by Horner's rule, relative to the
    scale of the terms it adds, sum_j |c_j| |lam_r|^j."""
    num, den = _quartic_coeffs(spec, m)
    val = scale = 0.0
    for c in reversed(num):  # Horner, as np.polyval evaluates
        val = val * lam_r + c / den
        scale = scale * abs(lam_r) + abs(c) / den
    return abs(val) / scale


def quartic_lambda_roots(spec: PotentialSpec, m: int, kind: str) -> list:
    """The correctly rounded roots of the order-m quartic that a solution of
    ``kind`` may take, ascending: those in (mu, inf), mu = m + 1/2, for a
    bound state (type c), and those at or below -1e-12, clear of the branch
    point at lambda = 0, for a type-d companion.  The interval is decided
    exactly, and only its roots are located.  A type-c list holds at most
    one root: Q/L^2 has derivative 2[kappa (L-mu) + mu] + 2C/L^3 > 0 on
    (mu, inf) (module docstring), so Q has a root there when Q(mu) < 0, and
    only then.
    """
    num, _ = _quartic_coeffs(spec, m)
    if kind == "c":
        return real_roots(num, lo=(2 * m + 1, 2))
    return real_roots(num, hi=ex.ratio(-1e-12))


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


# ---------------------------------------------------------------------------
# spectrum enumeration and assembly
# ---------------------------------------------------------------------------

def normalized(spec: PotentialSpec, solution: ClosedForm) -> ClosedForm:
    """``solution`` scaled so that integral Phi^2 * density deta = 1 (hence psi is L2-normal).

    Closed form, with Phi = (1+eta^2)^p exp(q atan eta) R(eta).  With the
    density T/(1+eta^2)^2, T = eta^2 + kappa, Phi^2 times it is
    R^2 T (1+eta^2)^-(nu+1) exp(2q atan eta), nu = 1 - 2p: a Cauchy beta
    integral, an exact rational multiple of B(nu+1, q)
    (:func:`routh.cauchy_beta_ratio`), while
    B(nu+1, q) = B(nu, q) nu(2nu-1)/(2(nu^2+q^2)).  Only B(nu, q) is
    rounded.  The integral converges for an admissible level of order n,
    since nu > n + 1/2.  In integers, nu = N/L and q = Q/L over one L, and
    the factor of B(nu+1, q) is N(2N - L)/(2(N^2 + Q^2)).
    """
    (p, pd), (q, qd) = ex.ratio(solution.power), ex.ratio(solution.atan_coeff)
    big_l = math.lcm(pd, qd)
    nu, q = big_l - 2 * p * (big_l // pd), q * (big_l // qd)  # nu = 1 - 2p, over L
    num, den = solution.poly.num, solution.poly.den
    k, kd = ex.ratio(spec.kappa_plus)
    # R^2 T = num^2 (kd eta^2 + k) / (den^2 kd)
    a, b = cauchy_beta_ratio(ex.rp_mul(ex.rp_mul(num, num), [k, 0, kd]), (q, big_l),
                             (nu + big_l, big_l))
    top, bottom = nu * (2 * nu - big_l) * a, 2 * (nu * nu + q * q) * b * kd
    scale = solution.scale
    norm2 = (scale ** 2 * math.exp(log_cauchy_beta(nu / big_l, q / big_l))
             * (top / (bottom * den * den)))
    return solution._replace(scale=scale / math.sqrt(norm2))


def aeh_solution(spec: PotentialSpec, kind: str, m: int) -> ClosedForm:
    """The unnormalized order-m solution of ``kind``: type c, the
    normalizable branch (a bound state), on the one admissible root, and
    type d, a companion below the ground level and a Darboux seed when its
    polynomial factor is nodeless, on the most negative root; both at
    e = -(m + 1/2 - lambda_R)^2.  There is one admissible root exactly when
    Q(m + 1/2) < 0, never two.

    The polynomial is R_m^(1 - conj lambda) of the pinned convention.  Its
    index is -conj(lambda) shifted by one exactly: 1 - L_R is never rounded,
    so the Routh coefficients are those of the float lambda.  A solution of
    order above :data:`MAX_ORDER` is a :class:`ConfigError`, and its
    polynomial is never built.  An energy beyond the double range raises
    ``OverflowError`` naming the kind, the order and m + 1/2 - lambda_R."""
    if kind not in ("c", "d"):
        raise ValueError("kind must be 'c' or 'd'")
    roots = quartic_lambda_roots(spec, m, kind)
    if not roots:
        raise NoSuchRoot("no type-%s root at order %d" % (kind, m))
    if m > MAX_ORDER:
        raise ConfigError("a type-%s solution of order %d exists, above the order cap %d"
                          % (kind, m, MAX_ORDER))
    lam_r = roots[0]
    lam = complex(lam_r, spec.h0.imag / (2.0 * lam_r) if spec.h0.imag != 0.0 else 0.0)
    rp = routh_polynomial(m, ComplexIndex.of(-lam.conjugate()).shifted(1))
    try:
        return ClosedForm(kind=kind, energy=-((m + 0.5 - lam_r) ** 2), lam=lam, poly=rp)
    except OverflowError:
        raise OverflowError("type-%s order %d: the energy -(%.6g)^2 is beyond the double range"
                            % (kind, m, m + 0.5 - lam_r)) from None


def enumerate_bound_spectrum(spec: PotentialSpec) -> Spectrum:
    """Constructive bound-state enumeration: walk n upward until no root fits.

    State n is the unnormalized type-c solution of order n
    (:func:`aeh_solution`): its root exceeds n + 1/2, so its polynomial has
    n real roots by theorem (:attr:`ClosedForm.nodes`), and |e| <
    ``THRESHOLD_ENERGY`` ends the walk.  The closed-form level-count (floor
    of Re lambda0, read as a maximal index) is recorded alongside for
    comparison but never drives the loop.

    The walk would otherwise go on through about Re lambda0 levels, which is
    unbounded in practice for a huge h0.  So a level whose polynomial has a
    coefficient beyond the double range raises ``OverflowError``, since no
    float can sample it, and a level of order above :data:`MAX_ORDER` raises
    :class:`ConfigError` (:func:`aeh_solution`).
    """
    notes = []
    states = []
    n = 0
    while True:
        try:
            state = aeh_solution(spec, "c", n)
        except NoSuchRoot:
            break
        if abs(state.energy) < THRESHOLD_ENERGY:
            notes.append("order %d: |e| < %g treated as threshold, not bound" % (n, THRESHOLD_ENERGY))
            break
        if max(map(abs, state.poly.num)) > ex.DOUBLE_MAX * state.poly.den:
            raise OverflowError("order %d: a Routh coefficient is beyond the double range" % n)
        states.append(state)
        n += 1
    return Spectrum(
        states=tuple(states),
        n_max_formula=math.floor(spec.lambda0.real),
        notes=tuple(notes),
    )


def partner_levels(parent, seed: ClosedForm) -> list:
    """The levels of the Darboux partner built on ``seed`` from the
    ``parent`` levels: a type-d seed inserts its energy, a bound-state
    (type-c) seed erases the ground level.  A seed whose polynomial has real
    zeros (by its node count) raises :class:`NodeDetected`, before any grid
    is built for it."""
    if seed.nodes:
        raise NodeDetected("factorization polynomial has real zeros")
    return sorted([*parent, seed.energy]) if seed.kind == "d" else list(parent[1:])


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
    return PotentialSpec(h0=lam0 * lam0 - 1.0, kappa_plus=1.0)


def stevenson_identity_check(state: ClosedForm) -> float:
    """Largest coefficient deviation between the truncated hypergeometric
    solution form and the Routh polynomial of the bound ``state`` of level n.

    With xi = 2/(1 + i*eta) and lambda the state's branch value, the identity

        xi^-n F(-n, lambda*-n; 2(lambda_R-n); xi)
            = (-i)^n n! / (2 lambda_R - 2n)_n * R_n^(1-lambda*)(eta)

    compares two polynomials in eta, since the left side is one of degree n
    in 1/xi = (1 + i*eta)/2.  Their coefficients are compared exactly, in
    Gaussian integers over one denominator, so the result is 0.0 exactly
    when the identity holds; a nonzero difference too small for a double
    reports the least positive double.  No Pochhammer (2 lambda_R - 2n)_j
    vanishes: an admissible root has 2(lambda_R - n) > 1.

    In integers, with lambda = (A + iB)/L and c = 2(lambda_R - n), the
    coefficient of xi^j in F is G_j / H_j, where G_(j+1) = G_j (j - n)
    (A - (n - j)L - iB) and H_(j+1) = H_j (2A - (2n - j)L)(j + 1), both from
    1, so (c)_n = H_n / (n! L^n).  Then 2^n H_n times the left side is
    sum_j 2^j G_j (H_n / H_j) (1 + i eta)^(n-j), and 2^n H_n times the
    right side is K (-i)^n num / den with K = 2^n (n!)^2 L^n.
    """
    n = state.n
    (a, ad), (b, bd) = ex.ratio(state.lam.real), ex.ratio(state.lam.imag)
    big_l = math.lcm(ad, bd)
    a, b = a * (big_l // ad), b * (big_l // bd)
    g = [(1, 0)]  # G_j as (re, im)
    h = []  # H_(j+1) / H_j
    for j in range(n):
        f_re, f_im = (j - n) * (a - (n - j) * big_l), (n - j) * b
        re, im = g[-1]
        g.append((re * f_re - im * f_im, re * f_im + im * f_re))
        h.append((2 * a - (2 * n - j) * big_l) * (j + 1))
    # suffix products H_n / H_j, from j = n down
    ratios = [1] * (n + 1)
    for j in range(n - 1, -1, -1):
        ratios[j] = ratios[j + 1] * h[j]
    lhs = []  # ascending in eta, Horner in (1 + i eta): P <- P (1 + i eta) + 2^j T_j
    for j in range(n + 1):
        lhs = [(x[0] - y[1], x[1] + y[0])
               for x, y in zip(lhs + [(0, 0)], [(0, 0)] + lhs)]
        t = ratios[j] << j
        lhs[0] = (lhs[0][0] + g[j][0] * t, lhs[0][1] + g[j][1] * t)
    big_k = math.factorial(n) ** 2 * big_l ** n << n
    u_re, u_im = ((1, 0), (0, -1), (-1, 0), (0, 1))[n % 4]  # (-i)^n
    num, den = state.poly.num, state.poly.den
    num = list(num) + [0] * (len(lhs) - len(num))
    diffs = [(x * den - big_k * u_re * c, y * den - big_k * u_im * c)
             for (x, y), c in zip(lhs, num)]
    if not any(re or im for re, im in diffs):
        return 0.0
    scale = ratios[0] * den << n  # 2^n H_n den
    return max(math.ulp(0.0), *(math.hypot(re / scale, im / scale) for re, im in diffs))


# ---------------------------------------------------------------------------
# nodelessness scan
# ---------------------------------------------------------------------------

class ScanCell(NamedTuple):
    a: float
    b: float
    empirical_nodeless: bool | None
    threshold_prediction: bool | None
    discriminant_prediction: bool | None
    consistent: bool | None  # exact root count vs theorem_root_count


def nodeless_threshold_b2(a_g: float) -> float:
    """Quoted order-2 nodelessness bound on the asymmetry: b^2 < (2a+5)^2/(6a+11)."""
    return (2.0 * a_g + 5.0) ** 2 / (6.0 * a_g + 11.0)


def _scan_cell(a_g: float, b_g: float, m: int) -> ScanCell:
    spec = gendenshtein_params(a_g, b_g)
    try:
        sol = aeh_solution(spec, "d", m)
    except NoSuchRoot:
        return ScanCell(a_g, b_g, None, None, None, None)
    count = real_root_count(sol.poly.num)
    disc_pred = None
    if m == 2:
        disc_pred = discriminant_order2(sol.poly.num) < 0
    thresh = bool(b_g ** 2 < nodeless_threshold_b2(a_g)) if m == 2 else None
    return ScanCell(
        a=a_g, b=b_g,
        empirical_nodeless=count == 0,
        threshold_prediction=thresh,
        discriminant_prediction=disc_pred,
        consistent=theorem_root_count(m, sol.poly.index) == count,
    )


# Largest grid point count and scan cell count na * nb: about 100 times the
# largest grid in use, and a 1024 x 1024 map.
MAX_COUNT = 2 ** 20
# Largest order of a closed form, set by the config or reached by a bound
# state: about four times the 31 states of the deepest hard case (Gendenshtein
# a = 30.3).  The cost of one exact solution grows about fourfold to
# sevenfold from order 120 to order 240.
MAX_ORDER = 128


def linspace(start, stop, num: int) -> list:
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


def nodeless_scan(a_range, b_range, m: int, na: int, nb: int, workers: int = 1):
    """Three-way nodelessness map over a (a, b) parameter grid at fixed order.

    Per cell: the exact real-root count of the type-d polynomial factor
    (the gauge factor is positive, so no root means a nodeless solution),
    checked against :func:`routh.theorem_root_count`, which decides every
    type-d count; the quoted asymmetry threshold; and the canonical
    discriminant sign, decided exactly.  Disagreements
    are reported, not resolved.  The order ``m`` is even and >= 2 and both
    resolutions are >= 2, as the run configuration checks.  The cells do not
    depend on ``workers``, which is capped at the CPU and cell counts: the
    pool forks all its workers at once, and each takes one block of cells,
    since a task per cell costs more in messages than the cell itself.
    """
    tasks = [(a, b, m) for a in linspace(*a_range, na) for b in linspace(*b_range, nb)]
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = -(-len(tasks) // workers)
            cells = list(pool.map(_scan_cell, *zip(*tasks), chunksize=chunk))
    else:
        cells = [_scan_cell(*t) for t in tasks]
    return cells
