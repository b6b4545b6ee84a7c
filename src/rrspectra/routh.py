"""Complex-index Jacobi polynomials and the Routh family on the imaginary axis.

Everything here is built from one canonical object: the Jacobi polynomial with
complex indices, normalized so that index (1, 1) reproduces the Legendre
polynomials (``_jacobi_coeffs_cached(m, beta, alpha)`` gives the coefficients
of the textbook Jacobi polynomial of indices ``(beta - 1, alpha - 1)``).  The
Routh polynomial of order ``m`` and complex index ``alpha`` is then

    R_m^(alpha)(eta) = (-i)^m * P_m^(alpha*, alpha)(i * eta)

whose coefficients are real for *every* complex ``alpha``.  Construction is
exact: the Jacobi sum is evaluated in integers over one common denominator,
so realness, degree degeneracy and ODE residuals are decided by identity.
Weighted integrals of these polynomials are exact rational multiples of one
rounded Cauchy beta integral.  Real roots are isolated by integer Sturm chains
and correctly rounded by an exact search started from a float estimate.
Floats otherwise appear only in evaluation.

One empirically pinned fact about the family is exposed and tested here: the
Rodrigues-type generator with weight index ``alpha`` produces
``2^m m! * R_m^(alpha* + 1)``, so its record carries the family index
``alpha* + 1`` and satisfies the one canonical equation.
"""

from __future__ import annotations

import cmath
import math
import struct
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

import numpy as np

from . import _exact as ex
from .errors import ImaginaryResidue, RootOverflow, ZeroPolynomial


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class ComplexIndex(NamedTuple):
    """A complex polynomial index stored as exact rationals."""

    re: Fraction
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, value) -> "ComplexIndex":
        if isinstance(value, ComplexIndex):
            return value
        if isinstance(value, complex):
            return cls(ex.to_fraction(value.real), ex.to_fraction(value.imag))
        return cls(ex.to_fraction(value), Fraction(0))

    def conjugate(self) -> "ComplexIndex":
        return ComplexIndex(self.re, -self.im)

    def shifted(self, k) -> "ComplexIndex":
        return ComplexIndex(self.re + Fraction(k), self.im)

    def __repr__(self):
        return "ComplexIndex(%s, %s)" % (self.re, self.im)


class RealPolynomial(NamedTuple):
    """Dense real polynomial with exact Fraction coefficients, ascending degree.

    The trailing (highest-degree) coefficient is nonzero unless the polynomial
    is identically zero, in which case ``coeffs`` is empty.
    """

    coeffs: tuple

    @classmethod
    def from_coeffs(cls, coeffs) -> "RealPolynomial":
        cs = [ex.to_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def as_floats(self) -> np.ndarray:
        if self.is_zero:
            return np.zeros(1)
        return np.array([float(c) for c in self.coeffs])

    def __call__(self, x):
        if self.is_zero:
            return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
        return np.polyval(self.as_floats()[::-1], x)

    def __mul__(self, other):
        if isinstance(other, RealPolynomial):
            return RealPolynomial.from_coeffs(ex.rp_mul(list(self.coeffs), list(other.coeffs)))
        return RealPolynomial.from_coeffs(ex.rp_scale(list(self.coeffs), other))

    __rmul__ = __mul__


class RouthPolynomial(NamedTuple):
    """A Routh polynomial: real polynomial plus its complex index and order."""

    order: int
    index: ComplexIndex
    poly: RealPolynomial

    def __call__(self, eta):
        return self.poly(eta)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _binomial_basis(m: int) -> tuple:
    """Integer coefficients (ascending) of C(m,k) (y-1)^k (y+1)^(m-k), k = 0..m."""
    out = []
    for k in range(m + 1):
        p = [comb(m, k)]
        for r in [-1] * k + [1] * (m - k):  # times (y + r)
            p = [u + r * v for u, v in zip([0] + p, p + [0])]
        out.append(p)
    return tuple(out)


def _rising_tails(index: ComplexIndex, d: int, m: int) -> list:
    """d^(m-k) (index+k)_{m-k} for k = 0..m, as Gaussian-integer pairs."""
    re, im = int(index.re * d), int(index.im * d)
    out = [(1, 0)] * (m + 1)
    for i in range(m - 1, -1, -1):
        (pr, pi), fr = out[i + 1], re + i * d
        out[i] = (pr * fr - pi * im, pr * im + pi * fr)
    return out


@lru_cache(maxsize=4096)
def _jacobi_coeffs_cached(m: int, beta: ComplexIndex, alpha: ComplexIndex) -> tuple:
    """Coefficients (ascending, CNum) of the complex-index Jacobi polynomial.

    Index normalization: (beta, alpha) here corresponds to textbook indices
    (beta-1, alpha-1), so (1, 1) gives Legendre.  The expansion is the finite
    double sum

        2^-m * sum_k (beta+k)_{m-k} (alpha+m-k)_k / (k! (m-k)!)
                     * (y-1)^k (y+1)^{m-k}

    with rising-factorial Pochhammers, evaluated exactly in integers.  With d
    the common denominator of the four index parts, each Pochhammer product
    is a Gaussian integer over d^m, and 1/(k! (m-k)!) = C(m,k)/m!.  The
    integer sum is divided once by 2^m m! d^m; Fractions are canonical, so
    these are the same rationals a term-by-term evaluation gives.
    """
    d = math.lcm(beta.re.denominator, beta.im.denominator,
                 alpha.re.denominator, alpha.im.denominator)
    sb, sa = _rising_tails(beta, d, m), _rising_tails(alpha, d, m)
    re, im = [0] * (m + 1), [0] * (m + 1)
    for k, basis in enumerate(_binomial_basis(m)):
        (br, bi), (ar, ai) = sb[k], sa[m - k]
        pr, pi = br * ar - bi * ai, br * ai + bi * ar
        for j, c in enumerate(basis):
            re[j] += c * pr
            im[j] += c * pi
    den = 2 ** m * factorial(m) * d ** m
    return tuple((Fraction(r, den), Fraction(i, den)) for r, i in zip(re, im))


@lru_cache(maxsize=4096)
def _routh_cached(m: int, alpha: ComplexIndex) -> RouthPolynomial:
    coeffs = _jacobi_coeffs_cached(m, alpha.conjugate(), alpha)
    real_coeffs = []
    for j, (re, im) in enumerate(coeffs):
        # times (-i)^m * i^j = i^(j-m): a quarter turn is a swap and a sign change
        re, im = ((re, im), (-im, re), (-re, -im), (im, -re))[(j - m) % 4]
        if im != 0:
            raise ImaginaryResidue(
                "coefficient of eta^%d has imaginary part %s" % (j, im)
            )
        real_coeffs.append(re)
    return RouthPolynomial(order=m, index=alpha, poly=RealPolynomial.from_coeffs(real_coeffs))


def routh_polynomial(m: int, alpha) -> RouthPolynomial:
    """Canonical Routh polynomial (-i)^m P_m^(alpha*, alpha)(i eta), exact."""
    if m < 0:
        raise ValueError("order must be nonnegative")
    return _routh_cached(m, ComplexIndex.of(alpha))


def routh_rodrigues(m: int, alpha) -> RouthPolynomial:
    """Routh polynomial generated by the m-fold Rodrigues-type derivative.

    Computes w^-1 d^m/deta^m [(1+eta^2)^m w] with w the generating weight at
    index ``alpha``, by exact symbolic differentiation.  The result is
    2^m m! times the canonical polynomial at index ``alpha* + 1`` (the unit
    index offset between the two generators is pinned by the test suite), so
    the record is labelled with that family index.
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    a = ComplexIndex.of(alpha)
    two_ar = 2 * a.re
    two_ai = 2 * a.im
    # Invariant: current expression is P(eta) * (1+eta^2)^k * w(eta).
    p = [Fraction(1)]
    for k in range(m, 0, -1):
        dp = ex.rp_diff(p)
        term = ex.rp_mul(dp, [Fraction(1), Fraction(0), Fraction(1)])
        lin = [two_ai, two_ar + 2 * k]
        p = ex.rp_add(term, ex.rp_mul(lin, p))
    return RouthPolynomial(order=m, index=a.conjugate().shifted(1), poly=RealPolynomial.from_coeffs(p))


# ---------------------------------------------------------------------------
# verification helpers
# ---------------------------------------------------------------------------

def ode_residual(p: RouthPolynomial) -> RealPolynomial:
    """Residual of the real-line hypergeometric-type equation for ``p``.

    The equation, obtained from the complex-index Jacobi equation under the
    imaginary-axis substitution, reads at the family index alpha = aR + i aI

        (1+eta^2) R'' + 2(aR*eta - aI) R' - m(m + 2aR - 1) R = 0.

    Rodrigues records carry their family index alpha* + 1, so the same
    equation covers them.  Returns the residual polynomial, exactly; it must
    be identically zero.
    """
    a, m = p.index, p.order
    r = list(p.poly.coeffs)
    d1 = ex.rp_diff(r)
    res = ex.rp_mul(ex.rp_diff(d1), [1, 0, 1])
    res = ex.rp_add(res, ex.rp_mul([-2 * a.im, 2 * a.re], d1))
    res = ex.rp_add(res, ex.rp_scale(r, -m * (m + 2 * a.re - 1)))
    return RealPolynomial.from_coeffs(res)


# ---------------------------------------------------------------------------
# Cauchy-beta integrals
# ---------------------------------------------------------------------------

# Stirling-series coefficients B_2k / (2k (2k-1)), k = 1..6
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _log_abs_gamma(z: complex) -> float:
    """log|Gamma(z)| for Re z > 0: recurrence up to Re z >= 15, then Stirling's series."""
    shift = 0.0
    while z.real < 15.0:
        shift += math.log(abs(z))
        z += 1.0
    w = 1.0 / (z * z)
    series = sum(c * w ** k for k, c in enumerate(_STIRLING)) / z
    return ((z - 0.5) * cmath.log(z) - z + series).real + 0.5 * math.log(2.0 * math.pi) - shift


def log_cauchy_beta(nu, q) -> float:
    """log B(nu, q) for nu > 1/2, with Cauchy's beta integral

        B(nu, q) = integral (1+eta^2)^-nu exp(2q atan eta) deta
                 = sqrt(pi) Gamma(nu-1/2) Gamma(nu) / |Gamma(nu+iq)|^2.
    """
    nu_f, q_f = float(nu), float(q)
    return (
        0.5 * math.log(math.pi) + math.lgamma(nu_f - 0.5) + math.lgamma(nu_f)
        - 2.0 * _log_abs_gamma(complex(nu_f, q_f))
    )


def integer_product(a, b) -> tuple:
    """(p, den) with a(eta) b(eta) = p(eta) / den^2, for Fraction coefficient
    sequences ``a`` and ``b`` (ascending): ``p`` is a list of integers and
    ``den`` the least common denominator of both."""
    den = math.lcm(*(c.denominator for c in (*a, *b)))
    ia = [c.numerator * (den // c.denominator) for c in a]
    ib = [c.numerator * (den // c.denominator) for c in b]
    out = [0] * (len(ia) + len(ib) - 1)
    for i, x in enumerate(ia):
        for k, y in enumerate(ib):
            out[i + k] += x * y
    return out, den


def cauchy_beta_ratios(p: list, q: Fraction, nus) -> list:
    """integral p(eta) (1+eta^2)^-nu exp(2q atan eta) deta / B(nu, q), exactly,
    for the integer polynomial ``p`` (ascending) and each rational nu in ``nus``.

    The weight is (1+i eta)^-alpha (1-i eta)^-beta with alpha, beta = nu +- iq.
    Written in w = 1 + i eta (once, for every nu), p needs only the moments of
    w^j, and w^j multiplies Cauchy's integral B(nu, q) by
    prod_{i=1..j} 2(alpha-i)/(2nu-1-i).  The sum runs in exact Gaussian
    rationals, since in floats it cancels badly (relative error 1.5e-10 at
    order 4 and 1e-4 at order 13 for the normalization of
    Gendenshtein(16.2, 0.7)); its imaginary part must vanish, or
    :class:`ImaginaryResidue` is raised.  Each integral converges when
    2 nu > deg p + 1.
    """
    # p in w, with eta^k = i^k (1 - w)^k: Gaussian integers (re, im)
    in_w = []
    for j in range(len(p)):
        parts = [0, 0]
        for k in range(j, len(p)):
            parts[k % 2] += (-1) ** (j + k // 2) * comb(k, j) * p[k]
        in_w.append(tuple(parts))
    out = []
    for nu in nus:
        total, ratio = ex.C_ZERO, ex.C_ONE
        for j, d in enumerate(in_w):
            if j:
                ratio = ex.c_scale(ex.c_mul(ratio, (nu - j, q)), Fraction(2) / (2 * nu - 1 - j))
            total = ex.c_add(total, ex.c_mul(d, ratio))
        if total[1] != 0:
            raise ImaginaryResidue("beta-moment sum has a nonzero imaginary part")
        out.append(total[0])
    return out


# ---------------------------------------------------------------------------
# exact real roots
# ---------------------------------------------------------------------------
#
# Polynomials are scaled once to primitive integer coefficient lists
# (ascending).  Each square-free factor gets a Sturm chain built by primitive
# pseudo-remainders; sign variations are taken at rationals num/den by
# homogeneous Horner, so every sign is exact.

def _primitive(p: list) -> list:
    g = math.gcd(*p)
    return p if g == 1 else [c // g for c in p]


def _integer_poly(coeffs) -> list:
    """Primitive integer coefficients, a positive multiple of the rational ``coeffs``."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in coeffs])


def _prem(a: list, b: list) -> list:
    """Remainder of ``a`` modulo ``b``, times a positive constant."""
    r = list(a)
    db = len(b) - 1
    lb, sb = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(r) > db:
        q = sb * r[-1]
        shift = len(r) - 1 - db
        r = [lb * c for c in r]
        for i, c in enumerate(b):
            r[i + shift] -= q * c
        while r and r[-1] == 0:
            r.pop()
    return r


def _sturm_chain(f: list) -> list:
    """f, f', then negated remainders, each scaled by a positive constant."""
    chain = [f, _primitive(ex.rp_diff(f))]
    while True:
        r = _prem(chain[-2], chain[-1])
        if not r:
            return chain
        chain.append(_primitive([-c for c in r]))


def _exact_quotient(a: list, b: list) -> list:
    """a / b over the rationals, for b dividing a."""
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = a[k + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            a[k + j] -= q[k] * c
    return q


def _square_free_chains(f: list) -> list:
    """Sturm chains of square-free factors whose roots, pooled, are the roots
    of ``f`` with multiplicity.

    With g = gcd(f, f'), the distinct roots of f are the roots of f/g, and g
    holds every repeated root once fewer times; recurse on g.
    """
    chain = _sturm_chain(f)
    g = chain[-1]  # gcd(f, f') up to a constant
    if len(g) == 1:
        return [chain]
    return [_sturm_chain(_integer_poly(_exact_quotient(f, g)))] + _square_free_chains(g)


def _hom(p: list, num: int, den: int) -> int:
    """den^deg(p) * p(num/den) for den > 0: an integer with the sign of p."""
    acc = p[-1]
    scale = 1
    for i in range(len(p) - 2, -1, -1):
        scale *= den
        acc = acc * num + p[i] * scale
    return acc


def _variations(signs) -> int:
    v = 0
    last = 0
    for s in signs:
        if s:
            if last and (s > 0) != (last > 0):
                v += 1
            last = s
    return v


def _variations_at(chain: list, x: Fraction) -> int:
    return _variations(_hom(q, x.numerator, x.denominator) for q in chain)


def _variations_at_infinity(chain: list, side: int) -> int:
    return _variations(q[-1] * side ** (len(q) - 1) for q in chain)


def _float_key(x: float) -> int:
    """Integer key, monotone in x, with adjacent doubles one apart: -0.0 is
    -1, just below +0.0 at 0, so a negative root that rounds to zero keeps
    its sign."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -1 - (bits & 0x7FFF_FFFF_FFFF_FFFF)


def _key_bits(k: int) -> int:
    """Bit pattern of |_key_float(k)|."""
    return k if k >= 0 else -1 - k


def _key_float(k: int) -> float:
    x = struct.unpack("<d", struct.pack("<q", _key_bits(k)))[0]
    return x if k >= 0 else -x


def _root_guess(f: list, lo: Fraction, hi: Fraction, s_hi: bool) -> float:
    """Float estimate of the root of ``f`` in (lo, hi], above which f has sign
    ``s_hi``: Newton steps on f / |lead| that bisect the float-sign bracket
    when they would leave it.  NaN when the data do not fit in doubles."""
    try:
        c = [x / abs(f[-1]) for x in reversed(f)]
        a, b = float(lo), float(hi)
    except OverflowError:
        return math.nan
    x = 0.5 * a + 0.5 * b
    for _ in range(40):
        v = dv = 0.0
        for ci in c:
            v, dv = v * x + ci, dv * x + v
        if (v > 0.0) == s_hi:
            b = x
        else:
            a = x
        step = x - v / dv if dv else math.nan
        if step != x and not a < step < b:
            step = 0.5 * a + 0.5 * b
        if step == x:
            break
        x = step
    return x


def _rounded_root(f: list, lo: Fraction, hi: Fraction) -> float:
    """The double nearest the single root of square-free ``f`` in (lo, hi].

    Searches the doubles between round(lo) and round(hi) for the least d
    whose upper rounding boundary, the exact midpoint of d and its successor,
    lies at or above the root (ties to the even mantissa), with each side
    decided by the exact sign of f at that midpoint.  That predicate is
    monotone in d, so where the search starts sets only how many midpoints
    it tests, never the result.  It starts from :func:`_root_guess`; a guess
    outside [round(lo), round(hi)) leaves plain bisection.
    """
    s_hi = _hom(f, hi.numerator, hi.denominator)
    if s_hi == 0:
        return float(hi)
    s_hi = s_hi > 0
    lo_n, lo_d = lo.numerator, lo.denominator
    # Every probe k lies in [k_lo, k_hi), and the answer stays in [k_lo, k_hi].
    # Probes gallop out from the guess with doubling steps; once one would
    # leave the interval, the root is bracketed and the search bisects.
    k_lo, k_hi = _float_key(float(lo)), _float_key(float(hi))
    guess = _root_guess(f, lo, hi, s_hi)
    k = _float_key(guess) if math.isfinite(guess) else k_hi
    step = 1
    while k_lo < k_hi:
        if not k_lo <= k < k_hi:
            k, step = (k_lo + k_hi) // 2, 1 << 64
        n1, d1 = _key_float(k).as_integer_ratio()
        n2, d2 = _key_float(k + 1).as_integer_ratio()
        den = max(d1, d2)
        num = n1 * (den // d1) + n2 * (den // d2)
        den *= 2
        if num * lo_d <= lo_n * den:
            # reachable only as a tie; lo may be another root, and this one is above it
            root_below = False
        else:
            s = _hom(f, num, den)
            # a tie goes to the even mantissa, and an exact zero to +0.0
            root_below = (_key_bits(k) % 2 == 0 and k != -1) if s == 0 else (s > 0) == s_hi
        if root_below:
            k_hi, k = k, k - step
        else:
            k_lo, k = k + 1, k + step
        step *= 2
    return _key_float(k_lo)


_DOUBLE_MAX = Fraction(sys.float_info.max)


def _roots_beyond(chain: list, x: Fraction) -> int:
    """Number of roots r of ``chain[0]`` with |r| > x, for x > 0."""
    at_minus_x = _hom(chain[0], -x.numerator, x.denominator) == 0  # counted in (-inf, -x]
    return (_variations_at_infinity(chain, -1) - _variations_at(chain, -x) - at_minus_x
            + _variations_at(chain, x) - _variations_at_infinity(chain, 1))


def _isolated_roots(chain: list) -> list:
    """Correctly rounded roots of the square-free ``chain[0]``.

    Bisects (-2^k, 2^k], a power-of-two Cauchy bound, with the Sturm count
    V(a) - V(b) of roots in (a, b], until each interval holds one root.
    When 2^k exceeds the largest double, a root beyond it raises
    :class:`RootOverflow` with its binary magnitude, and otherwise the
    bisection starts from (-max - 1, max] instead.
    """
    f = chain[0]
    # |root| < 1 + max|c_i| / |c_n| <= 1 + ceil(...) <= 2^k
    k = (-(-max(abs(c) for c in f[:-1]) // abs(f[-1]))).bit_length()
    lo, hi = -Fraction(1 << k), Fraction(1 << k)
    if hi > _DOUBLE_MAX:
        if _roots_beyond(chain, _DOUBLE_MAX):
            # least e with every |root| <= 2^e; 2^1023 < max < 2^1024
            e_lo, e_hi = 1023, k
            while e_hi - e_lo > 1:
                mid = (e_lo + e_hi) // 2
                if _roots_beyond(chain, Fraction(1 << mid)):
                    e_lo = mid
                else:
                    e_hi = mid
            raise RootOverflow(
                "a real root with 2^%d < |root| <= 2^%d (about 1e%d) is beyond the double range"
                % (e_hi - 1, e_hi, round(e_hi * math.log10(2.0)))
            )
        lo, hi = -_DOUBLE_MAX - 1, _DOUBLE_MAX  # -max itself may be a root
    out = []
    stack = [(lo, hi, _variations_at(chain, lo), _variations_at(chain, hi))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        count = v_lo - v_hi
        if count == 1:
            out.append(_rounded_root(f, lo, hi))
        elif count > 1:
            mid = (lo + hi) / 2
            v_mid = _variations_at(chain, mid)
            stack.append((lo, mid, v_lo, v_mid))
            stack.append((mid, hi, v_mid, v_hi))
    return out


def _root_chains(p) -> list:
    if isinstance(p, RouthPolynomial):
        p = p.poly
    if not isinstance(p, RealPolynomial):
        p = RealPolynomial.from_coeffs(p)
    if p.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    return _square_free_chains(_integer_poly(p.coeffs)) if p.degree > 0 else []


def real_roots(p) -> list[float]:
    """All real roots of ``p`` with multiplicity, ascending.

    Roots are isolated exactly (Sturm chains on integer coefficients) and
    each location is the correctly rounded double of the exact root.
    """
    return sorted(r for chain in _root_chains(p) for r in _isolated_roots(chain))


def real_root_count(p) -> int:
    """Number of real roots of ``p`` with multiplicity, decided exactly.

    Sturm sign variations at -inf and +inf, read from leading coefficients;
    no root is located.
    """
    return sum(_variations_at_infinity(chain, -1) - _variations_at_infinity(chain, 1)
               for chain in _root_chains(p))


def theorem_root_count(m: int, alpha) -> int | None:
    """Real roots of the canonical R_m^(alpha), with multiplicity, by theorem:
    m mod 2 when m + 2 Re(alpha) - 1 > 0, else None (no claim).

    Proof.  R solves (1+eta^2) R'' + 2(aR eta - aI) R' = lam R with
    lam = m(m + 2aR - 1) > 0 for m >= 1 (see :func:`ode_residual`).  At a
    real critical point eta0, R''(eta0) = lam R(eta0) / (1 + eta0^2), so |R|
    has a strict local minimum wherever R' = 0 and R != 0.  Between two
    consecutive real roots |R| would need a positive local maximum, so there
    is at most one distinct real root.  It is simple, since R = R' = 0 at a
    point would make R vanish identically (the equation is regular), while
    the leading coefficient is proportional to (m + 2aR - 1)_m > 0.  Nonreal
    roots pair up, so the count has the parity of m.
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    return m % 2 if m + 2 * ComplexIndex.of(alpha).re - 1 > 0 else None


def discriminant_order2(alpha) -> float:
    """Discriminant of the order-2 canonical Routh polynomial, from its
    coefficients.  In closed form it equals -(1/4)(2aR+1)[(aR+1)^2 + aI^2],
    so its sign is that of -(2aR+1) and does not depend on aI.
    """
    a = ComplexIndex.of(alpha)
    p = routh_polynomial(2, a).poly
    cs = list(p.coeffs) + [Fraction(0)] * (3 - len(p.coeffs))
    c0, c1, c2 = cs[0], cs[1], cs[2]
    return float(c1 * c1 - 4 * c2 * c0)
