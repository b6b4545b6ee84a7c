"""Exact Gaussian-rational scalars and dense real-rational polynomials.

Scalars are ``(re, im)`` pairs of :class:`fractions.Fraction`; polynomials are
lists of Fractions in ascending degree, and a finished one is a tuple without
trailing zeros (:func:`rp_trim`), empty for the zero polynomial.  Exact
quantities stay in these representations so that realness and residual-zero
assertions are decided by identity, never by tolerance; floats enter only at
evaluation time.  (The Routh recurrence itself runs in Python integers over
one running denominator, see ``routh.routh_polynomial``.)
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite

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


def rp_trim(p) -> tuple:
    """``p`` without its trailing (highest-degree) zeros, as a tuple."""
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])
