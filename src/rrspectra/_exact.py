"""Exact Gaussian-rational scalars and dense polynomials.

Scalars are ``(re, im)`` pairs of :class:`fractions.Fraction`; polynomials are
coefficient lists in ascending degree.  Polynomial *construction* stays in this
representation so that realness and residual-zero assertions are decided by
identity, never by tolerance; floats enter only at evaluation time.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isfinite

CNum = tuple[Fraction, Fraction]

C_ZERO: CNum = (Fraction(0), Fraction(0))
C_ONE: CNum = (Fraction(1), Fraction(0))


def to_fraction(value) -> Fraction:
    if isinstance(value, float) and not isfinite(value):
        raise ValueError("non-finite value %r" % value)
    return Fraction(value)


def c_add(a: CNum, b: CNum) -> CNum:
    return (a[0] + b[0], a[1] + b[1])


def c_mul(a: CNum, b: CNum) -> CNum:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def c_scale(a: CNum, s) -> CNum:
    s = Fraction(s)
    return (a[0] * s, a[1] * s)


def rising(a: CNum, n: int) -> CNum:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1)."""
    out = C_ONE
    for j in range(n):
        out = c_mul(out, (a[0] + j, a[1]))
    return out


# -- dense polynomials with CNum coefficients, ascending degree --------------

def p_add(p: list[CNum], q: list[CNum]) -> list[CNum]:
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else C_ZERO
        b = q[i] if i < len(q) else C_ZERO
        out.append(c_add(a, b))
    return out


def p_scale(p: list[CNum], c: CNum) -> list[CNum]:
    return [c_mul(c, a) for a in p]


def p_mul(p: list[CNum], q: list[CNum]) -> list[CNum]:
    if not p or not q:
        return []
    out = [C_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = c_add(out[i + j], c_mul(a, b))
    return out


def p_linear_power(a0, a1, k: int) -> list[CNum]:
    """(a0 + a1*y)^k with rational a0, a1."""
    a0 = Fraction(a0)
    a1 = Fraction(a1)
    return [(comb(k, i) * a0 ** (k - i) * a1 ** i, Fraction(0)) for i in range(k + 1)]


# -- real-Fraction polynomials, ascending degree ------------------------------

def rp_add(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    n = max(len(p), len(q))
    return [
        (p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0))
        for i in range(n)
    ]


def rp_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def rp_scale(p: list[Fraction], s) -> list[Fraction]:
    s = Fraction(s)
    return [a * s for a in p]


def rp_diff(p: list[Fraction]) -> list[Fraction]:
    return [p[i] * i for i in range(1, len(p))]
