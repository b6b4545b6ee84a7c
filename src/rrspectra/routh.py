"""Routh polynomials on the imaginary axis, exactly, and their real roots.

The Routh polynomial of order ``m`` and complex index ``alpha`` is the
polynomial solution of its own equation, built from it by an integer
recurrence (:func:`routh_polynomial`).  It equals

    R_m^(alpha)(eta) = (-i)^m * P_m^(alpha*, alpha)(i * eta),

with the complex-index Jacobi polynomial normalized so that index (1, 1)
reproduces the Legendre polynomials, and its coefficients are real for
*every* complex ``alpha``.  Everything here is in Python integers: an index
is three integers (p, q, d), alpha = (p + iq)/d, a polynomial is integer
numerators over one positive denominator, and a root bracket's ends are
integer pairs (num, den).  Construction is exact, so degree degeneracy and
ODE residuals are decided by identity.  Weighted integrals of these
polynomials are exact rational multiples of one rounded Cauchy beta
integral, summed in integers by the moments' recurrence.  Real roots are
counted and isolated by Descartes' rule of signs with integer bisection, and
correctly rounded by an exact search started from a float estimate.  Nothing
here imports numpy: closed forms are evaluated on grids by :mod:`geometry`.
Each command builds a polynomial once and passes the record on, and nothing
here is memoized.
"""

from __future__ import annotations

import cmath
import math
import struct
from bisect import bisect_left
from itertools import accumulate
from math import factorial
from typing import NamedTuple

from . import _exact as ex
from .errors import RootOverflow, ZeroPolynomial


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class ComplexIndex(NamedTuple):
    """A complex polynomial index alpha = (p + i q) / d in integers, with
    d > 0 and gcd(p, q, d) = 1, so that equal indices are equal tuples."""

    p: int
    q: int = 0
    d: int = 1

    @classmethod
    def of(cls, value) -> "ComplexIndex":
        """The index equal to an int, a finite float or a finite complex."""
        if isinstance(value, ComplexIndex):
            return value
        if isinstance(value, int):
            return cls(value)
        value = complex(value)
        (p, a), (q, b) = ex.ratio(value.real), ex.ratio(value.imag)
        d = max(a, b)  # both are powers of two
        return cls(p * (d // a), q * (d // b), d)

    def conjugate(self) -> "ComplexIndex":
        return self._replace(q=-self.q)

    def shifted(self, k: int) -> "ComplexIndex":
        return self._replace(p=self.p + k * self.d)


class RouthPolynomial(NamedTuple):
    """A Routh polynomial of order ``order`` and complex index ``index``:
    its real coefficients are ``num[j] / den``, with ``num`` the integer
    numerators in ascending degree, trailing zeros dropped (empty only for
    the zero polynomial), and ``den`` > 0.  :func:`routh_polynomial` gives
    every record of order m and index (p + iq)/d the one denominator
    (2d)^m m!."""

    order: int
    index: ComplexIndex
    num: tuple
    den: int


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def routh_polynomial(m: int, alpha) -> RouthPolynomial:
    """The canonical Routh polynomial R_m^(alpha), exactly: the polynomial
    solution of

        (1+eta^2) R'' + 2(aR*eta - aI) R' = m(m + 2aR - 1) R,   alpha = aR + i aI,

    with leading coefficient c_m = (m + 2aR - 1)_m / (2^m m!).  It equals
    (-i)^m P_m^(alpha*, alpha)(i eta), the complex-index Jacobi polynomial
    normalized so that index (1, 1) gives Legendre, and its coefficients
    are real.  The coefficient of eta^j in the equation reads

        (j+2)(j+1) c_(j+2) - 2aI (j+1) c_(j+1) = (m-j)(m+j+2aR-1) c_j,

    which gives c_(m-1), ..., c_0 from the top down.  With alpha =
    (p + iq)/d, every c_j is an integer n_j over D = (2d)^m m!, and with
    e_j = (m-j)(d(m+j-1) + 2p) the equation reads in integers

        e_j n_j = (j+2)(j+1) d n_(j+2) - 2q (j+1) n_(j+1),

    from n_m = prod_(i<m) (d(m-1+i) + 2p) and n_(m+1) = 0, so each step is
    one exact division by the small integer e_j.  The n_j are integers: in
    the explicit Jacobi double sum

        P_m^(beta, alpha)(y) = 2^-m sum_k (beta+k)_(m-k) (alpha+m-k)_k
                               / (k! (m-k)!) (y-1)^k (y+1)^(m-k),

    each term is a Gaussian integer over d^m 2^m k! (m-k)!, which divides
    (2d)^m m! since k! (m-k)! divides m!, and (-i)^m P_m(i eta) keeps the
    denominator.  These are the rationals that sum gives
    (``tests/test_construction.py`` keeps it as the reference).

    The factor e_j vanishes for some j < m exactly at a degenerate index,
    2aR = 1 - m - j0 with 0 <= j0 < m.  There R_m = s R_(j0), with k = m - j0
    and s = (-1)^k (j0!/m!) prod_(j<k) (aI + i((k-1)/2 - j)), which is real:
    the factors pair up as aI^2 + ((k-1)/2 - j)^2, and for odd k the middle
    one is aI.  Proof.  With beta = alpha* and z = (1 - y)/2,

        P_m^(beta, alpha)(y) = (beta)_m / m! F(-m, m + 2aR - 1; beta; z),

    and m + 2aR - 1 = -j0, so the series stops at z^(j0).  At order j0 the
    second parameter is j0 + 2aR - 1 = -m, so P_(j0) is (beta)_(j0) / j0!
    times the same terminating sum, and
    P_m = (j0!/m!) (beta + j0)_k P_(j0), an identity of polynomials in beta.
    Here beta + j0 + j = -i (aI + i(j - (k-1)/2)), and with
    R_n(eta) = (-i)^n P_n(i eta), s = (-i)^(2k) (j0!/m!)
    prod_(j<k) (aI + i(j - (k-1)/2)); reversing j gives the form above.
    The order-j0 polynomial is not degenerate: that would need 2aR =
    1 - j0 - j1 with j1 < j0, so j1 = m.  Over (2d)^m m!, s R_(j0) has the
    numerators (-1)^k 2^(k mod 2) q^(k mod 2)
    prod_(j<k//2) (4q^2 + (k-1-2j)^2 d^2) times those of R_(j0).
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    alpha = ComplexIndex.of(alpha)
    p, q, d = alpha
    den = (2 * d) ** m * factorial(m)
    if 2 * p % d == 0 and 0 <= 1 - m - 2 * p // d < m:
        j0 = 1 - m - 2 * p // d
        k = m - j0
        s = (-1) ** k * (2 * q if k % 2 else 1)
        s *= math.prod(4 * q * q + (k - 1 - 2 * j) ** 2 * d * d for j in range(k // 2))
        low = routh_polynomial(j0, alpha).num
        return RouthPolynomial(m, alpha, ex.rp_trim([s * c for c in low]), den)
    n = [0] * (m + 2)
    n[m] = math.prod(d * (m - 1 + i) + 2 * p for i in range(m))
    for j in range(m - 1, -1, -1):
        e = (m - j) * (d * (m + j - 1) + 2 * p)
        n[j] = ((j + 2) * (j + 1) * d * n[j + 2] - 2 * q * (j + 1) * n[j + 1]) // e
    return RouthPolynomial(m, alpha, ex.rp_trim(n[:m + 1]), den)


# ---------------------------------------------------------------------------
# verification helpers
# ---------------------------------------------------------------------------

def ode_residual(p: RouthPolynomial) -> tuple:
    """Residual of the real-line hypergeometric-type equation for ``p``.

    The equation, obtained from the complex-index Jacobi equation under the
    imaginary-axis substitution, reads at the family index alpha = aR + i aI

        (1+eta^2) R'' + 2(aR*eta - aI) R' - m(m + 2aR - 1) R = 0.

    Returns the coefficients of d * den times the residual, with alpha =
    (p + iq)/d and R = num/den: integers, trailing zeros dropped, so the
    tuple is empty exactly when the equation holds.
    """
    a, m, r = p.index, p.order, p.num
    d1 = ex.rp_diff(r)
    res = ex.rp_mul(ex.rp_diff(d1), [a.d, 0, a.d])
    res = ex.rp_add(res, ex.rp_mul([-2 * a.q, 2 * a.p], d1))
    lam = m * (a.d * (m - 1) + 2 * a.p)
    return ex.rp_trim(ex.rp_add(res, [-lam * c for c in r]))


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


def log_cauchy_beta(nu: float, q: float) -> float:
    """log B(nu, q) for nu > 1/2, with Cauchy's beta integral

        B(nu, q) = integral (1+eta^2)^-nu exp(2q atan eta) deta
                 = sqrt(pi) Gamma(nu-1/2) Gamma(nu) / |Gamma(nu+iq)|^2.
    """
    return (
        0.5 * math.log(math.pi) + math.lgamma(nu - 0.5) + math.lgamma(nu)
        - 2.0 * _log_abs_gamma(complex(nu, q))
    )


def cauchy_beta_ratio(p: list, q: tuple, nu: tuple) -> tuple:
    """integral p(eta) (1+eta^2)^-nu exp(2q atan eta) deta / B(nu, q), exactly,
    for the integer polynomial ``p`` (ascending) and the rationals
    q = (num, den) and nu = (num, den): one (num, den) pair.

    The derivative of (1+eta^2)^(1-nu) exp(2q atan eta) eta^j integrates to
    zero, so the moments M_j of eta^j over B(nu, q) obey Pearson's recurrence

        (2nu - 2 - j) M_(j+1) = 2q M_j + j M_(j-1),    M_0 = 1.

    With nu = N/L and q = Q/L over one L, M_j = m_j / D_j with integers
    m_(j+1) = 2Q m_j + jL h_(j-1) m_(j-1) and D_(j+1) = h_j D_j, where
    h_j = 2N - (2+j)L, and the sum keeps one numerator over D_j as it goes.
    The sum is exact since in floats it cancels badly (relative error 1.5e-10
    at order 4 and 1e-4 at order 13 for the normalization of
    Gendenshtein(16.2, 0.7)).  It converges when 2 nu > deg p + 1, and then
    every h_j is positive.
    """
    if not p:
        return 0, 1
    big_l = math.lcm(nu[1], q[1])
    two_n, two_q = 2 * nu[0] * (big_l // nu[1]), 2 * q[0] * (big_l // q[1])
    # (m_(j-1) h_(j-1), m_j) and the sum over D_j, from j = 0
    prev, m, total, den = 0, 1, p[0], 1
    for j in range(1, len(p)):
        h = two_n - (1 + j) * big_l
        prev, m = m * h, two_q * m + (j - 1) * big_l * prev
        total, den = total * h + p[j] * m, den * h
    return total, den


# ---------------------------------------------------------------------------
# exact real roots
# ---------------------------------------------------------------------------
#
# Integer coefficient lists (ascending) are made primitive once and split into
# square-free factors.  Every step of root isolation is an integer Taylor
# shift or scaling, and every sign at a rational num/den, den > 0, is taken
# by homogeneous Horner, so every count and every sign is exact.

_PRIME = (1 << 61) - 1  # for the square-free test of _square_free_factors


def _primitive(p: list) -> list:
    g = math.gcd(*p)
    return p if g == 1 else [c // g for c in p]


def _pdiv(a: list, b: list) -> tuple:
    """(q, r) with (lead b)^(deg a - deg b + 1) a = q b + r and deg r < deg b."""
    r, q = list(a), []
    for k in range(len(a) - len(b), -1, -1):
        t = r[-1]
        r = [b[-1] * x for x in r[:k]] + [b[-1] * x - t * c for x, c in zip(r[k:-1], b)]
        q = [t] + [b[-1] * x for x in q]
    return q, ex.rp_trim(r)


def _gcd(a: list, b: list, p: int = 0) -> list:
    """gcd(a, b) up to a constant, by pseudo-remainders made primitive or,
    for a prime p that divides neither lead, reduced modulo p."""
    norm = (lambda r: ex.rp_trim([c % p for c in r])) if p else _primitive
    a, b = norm(a), norm(b)
    while b:
        a, b = b, norm(_pdiv(a, b)[1])
    return a


def _square_free_factors(coeffs) -> list:
    """Primitive square-free factors whose roots, pooled, are the roots of
    the polynomial with ascending integer ``coeffs``, with multiplicity.

    With g = gcd(f, f'), f/g has the distinct roots of f and g the repeated
    ones once fewer times; repeat on g.  The exact gcd runs only when the
    prime divides lead f or gcd(f, f') modulo it is not constant: by Gauss's
    lemma a repeated factor of f divides f and f' in integers, with a lead
    that divides lead f, so it keeps its degree modulo the prime.
    """
    f = ex.rp_trim(coeffs)
    if not f:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    f, out = _primitive(f), []
    while len(f) > 2 and (f[-1] % _PRIME == 0 or len(_gcd(f, ex.rp_diff(f), _PRIME)) > 1):
        g = _gcd(f, ex.rp_diff(f))
        if len(g) == 1:
            break
        out.append(_primitive(_pdiv(f, g)[0]))
        f = g
    return out + [f]


def _taylor(q: list, a: int = 1) -> list:
    """Descending coefficients of p(x + a), from the descending ``q`` of p:
    each pass is one Horner sweep, a prefix sum when a = 1."""
    q = list(q)
    for end in range(len(q), 1, -1):
        q[:end] = accumulate(q[:end], None if a == 1 else lambda acc, c: acc * a + c)
    return q


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


def _root_bound(f: list) -> int:
    """The least k >= 0 with |f_(n-i) / f_n| < 2^((k-1) i) for every i, by
    bit lengths: every |root| < 2^k, by Fujiwara's bound |root| <= 2 max_i
    |f_(n-i) / f_n|^(1/i) (the i = n term halved)."""
    top = abs(f[-1]).bit_length()
    return max([0] + [1 - (top - 1 - abs(c).bit_length()) // i
                      for i, c in enumerate(reversed(f[:-1]), 1) if c])


def _beyond(f: list, x: int, k: int) -> list:
    """Brackets (:func:`_isolate`) of the roots r of the square-free ``f``
    with x < |r| < 2^k, those of f(-x) for r < 0."""
    mirrored = [-c if i % 2 else c for i, c in enumerate(f)]
    return [br for g in (f, mirrored) for br in _isolate(g, (x, 1), (1 << k, 1))]


def _isolate(f: list, lo: tuple, hi: tuple) -> list:
    """Brackets (lo_i, hi_i) of (num, den) pairs, one per root of the
    square-free ``f`` in (lo, hi], both ends finite with den > 0: the root
    is lo_i = hi_i, or the one root in (lo_i, hi_i), and hi_i is no root.

    With x = (a + w t) / den, g(t) = den^n f(x) has integer coefficients.
    A node is an interval (c, c+1) / 2^e of t whose roots are those of its
    own h in (0, 1).  The sign variations of (t+1)^n h(1 / (t+1)) bound
    them and are exact at 0 or 1; otherwise the node is halved into
    2^n h(t/2) and its shift by 1, and a root at the midpoint is exact.
    Small enough nodes of a square-free h are decided (Vincent's theorem).
    A node that also ends on a root is halved until no bracket does.
    """
    den = math.lcm(lo[1], hi[1])
    a, b = lo[0] * (den // lo[1]), hi[0] * (den // hi[1])
    if a >= b:
        return []
    w, n = b - a, len(f) - 1
    g = [c * den ** i for i, c in enumerate(reversed(f))]  # descending
    g = [c * w ** (n - i) for i, c in enumerate(_taylor(g, a) if a else g)]
    out, stack = ([((b, den), (b, den))] if sum(g) == 0 else []), [(g, 0, 0)]
    while stack:
        h, c, e = stack.pop()
        v = _variations(_taylor(h[::-1]))
        x, d = (a << e) + w * c, den << e
        if v == 1 and sum(h):
            out.append(((x, d), (x + w, d)))
        elif v:
            left = [y << i for i, y in enumerate(h)]
            if sum(left) == 0:
                out.append(((2 * x + w, 2 * d),) * 2)
            stack += [(_taylor(left), 2 * c + 1, e + 1), (left, 2 * c, e + 1)]
    return out


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


def _root_guess(f: list, lo: tuple, hi: tuple, s_hi: bool) -> float:
    """Float estimate of the root of ``f`` in (lo, hi], above which f has sign
    ``s_hi``: Newton steps on f / |lead| that bisect the float-sign bracket
    when they would leave it.  NaN when the data do not fit in doubles."""
    try:
        c = [x / abs(f[-1]) for x in reversed(f)]
        a, b = lo[0] / lo[1], hi[0] / hi[1]
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


def _rounded_root(f: list, lo: tuple, hi: tuple) -> float:
    """The double nearest the single root of square-free ``f`` in (lo, hi],
    both ends (num, den) pairs with den > 0.

    Searches the doubles between round(lo) and round(hi) for the least d
    whose upper rounding boundary, the exact midpoint of d and its successor,
    lies at or above the root (ties to the even mantissa), with each side
    decided by the exact sign of f at that midpoint.  That predicate is
    monotone in d, so where the search starts sets only how many midpoints
    it tests, never the result.  It starts from :func:`_root_guess`; a guess
    outside [round(lo), round(hi)) leaves plain bisection.
    """
    s_hi = _hom(f, *hi)
    if s_hi == 0:
        return hi[0] / hi[1]
    s_hi = s_hi > 0
    lo_n, lo_d = lo
    # Every probe k lies in [k_lo, k_hi), and the answer stays in [k_lo, k_hi].
    # Probes gallop out from the guess with doubling steps; once one would
    # leave the interval, the root is bracketed and the search bisects.
    k_lo, k_hi = _float_key(lo_n / lo_d), _float_key(hi[0] / hi[1])
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


def _cut(lo, hi, bottom: int, top: int) -> tuple:
    """(lo, hi] cut to (bottom, top]: each end a (num, den) pair, with den > 0,
    or None for unbounded."""
    return ((bottom, 1) if lo is None or lo[0] < bottom * lo[1] else lo,
            (top, 1) if hi is None or hi[0] > top * hi[1] else hi)


def _beyond_in(f: list, x: int, k: int, lo, hi) -> bool:
    """Whether the square-free ``f``, whose roots all lie in (-2^k, 2^k), has
    a root r in (lo, hi] (:func:`_cut`) with |r| > x."""
    top = 1 << k
    if _isolate(f, *_cut(lo, hi, x, top)):
        return True
    # the negative side (-2^k, -x], less a root at -x itself
    return any(end[0] != -x * end[1] for end, _ in _isolate(f, *_cut(lo, hi, -top, -x)))


def real_roots(coeffs, *, lo=None, hi=None) -> list[float]:
    """The real roots in (lo, hi], with multiplicity, ascending, of the
    polynomial with ascending integer ``coeffs``; each end is a rational
    (num, den) with den > 0, or None for unbounded.

    Each square-free factor's roots in (lo, hi], cut to (-2^k - 1, 2^k] by
    its root bound, are isolated (:func:`_isolate`) and correctly rounded.
    When 2^k exceeds the largest double, a root in (lo, hi] beyond it raises
    :class:`RootOverflow`, and otherwise the cut is (-max - 1, max]; a root
    beyond it outside (lo, hi] is no error.
    """
    out = []
    for f in _square_free_factors(coeffs):
        k = _root_bound(f)
        if 1 << k > ex.DOUBLE_MAX and _beyond_in(f, ex.DOUBLE_MAX, k, lo, hi):
            # least e with every |root| in (lo, hi] <= 2^e; 2^1023 < max < 2^1024
            e = 1024 + bisect_left(range(1024, k), True,
                                   key=lambda e: not _beyond_in(f, 1 << e, k, lo, hi))
            raise RootOverflow(
                "a real root with 2^%d < |root| <= 2^%d (about 1e%d) is beyond the double range"
                % (e - 1, e, round(e * math.log10(2.0)))
            )
        top = min(1 << k, ex.DOUBLE_MAX)  # every root is in (-top - 1, top]; -max may be one
        out += [_rounded_root(f, *bracket) for bracket in _isolate(f, *_cut(lo, hi, -top - 1, top))]
    return sorted(out)


def real_root_count(coeffs) -> int:
    """Number of real roots, with multiplicity, of the polynomial with
    ascending integer ``coeffs``, decided exactly.

    A square-free factor f has a root at 0 when f(0) = 0, and its other
    roots are isolated (:func:`_beyond`), not located.
    """
    return sum((f[0] == 0) + len(_beyond(f, 0, _root_bound(f)))
               for f in _square_free_factors(coeffs))


def theorem_root_count(m: int, alpha) -> int | None:
    """Real roots of the canonical R_m^(alpha), with multiplicity, by theorem:
    m when m < 1 - Re(alpha), m mod 2 when m + 2 Re(alpha) - 1 > 0, else
    None (no claim).  At m = 0 both hold and agree.

    Both proofs use the equation (1+eta^2) R'' + 2(aR eta - aI) R' = lam R,
    lam = m(m + 2aR - 1), at alpha = aR + i aI (see :func:`ode_residual`),
    and that R has real coefficients.

    Proof of m (finite orthogonality).  With the weight
    W = (1+eta^2)^(aR - 1) exp(-2 aI atan eta) > 0 and P = (1+eta^2) W the
    equation is self-adjoint, (P R')' = lam W R.  Let n < m < 1 - aR.  Then
    m + n + 2aR - 1 < 0, so P (R_m R_n' - R_m' R_n) vanishes at +-inf,
    W R_m R_n is integrable, and lam_m - lam_n = (m - n)(m + n + 2aR - 1)
    is nonzero: integrating by parts, R_m is W-orthogonal to R_n.  The
    leading coefficient of R_k is proportional to (k + 2aR - 1)_k, each of
    whose factors is at most 2k + 2aR - 2 < 0 for k <= m, so deg R_k = k
    and R_0 .. R_(m-1) span the polynomials of degree below m.  If R_m
    changed sign at k < m real points x_i only, R_m prod (eta - x_i) would
    keep one sign and have a nonzero W-integral, against orthogonality.  So
    R_m has m simple real roots.  This is the finite orthogonal subset of
    Romanovski polynomials (Romanovski, C. R. Acad. Sci. Paris 188, 1929,
    1023; Askey, J. Indian Math. Soc. 51, 1987, 27; Raposo, Weber,
    Alvarez-Castillo and Kirchbach, Cent. Eur. J. Phys. 5, 2007, 253).

    Proof of m mod 2.  Here lam > 0 for m >= 1.  At a real critical point
    eta0, R''(eta0) = lam R(eta0) / (1 + eta0^2), so |R| has a strict local
    minimum wherever R' = 0 and R != 0.  Between two consecutive real roots
    |R| would need a positive local maximum, so there is at most one
    distinct real root.  It is simple, since R = R' = 0 at a point would
    make R vanish identically (the equation is regular), while the leading
    coefficient is proportional to (m + 2aR - 1)_m > 0.  Nonreal roots pair
    up, so the count has the parity of m.
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    p, _, d = ComplexIndex.of(alpha)
    if m * d < d - p:  # m < 1 - aR
        return m
    return m % 2 if (m - 1) * d + 2 * p > 0 else None


def discriminant_order2(coeffs) -> int:
    """Discriminant c1^2 - 4 c2 c0 of the quadratic with ascending integer
    ``coeffs``.  For the numerators of the order-2 canonical Routh
    polynomial over den, it is den^2 times the polynomial's own
    discriminant, -(1/4)(2aR+1)[(aR+1)^2 + aI^2] at the index
    alpha = aR + i aI, so its sign is that of -(2aR+1) and does not depend
    on aI.
    """
    c0, c1, c2 = (*coeffs, 0, 0, 0)[:3]
    return c1 * c1 - 4 * c2 * c0
