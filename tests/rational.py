"""Fractions for the tests.  The package holds every exact rational as Python
integers: an index as (p, q, d), a polynomial as integer numerators over one
denominator, a rational as a (num, den) pair.  The tests keep
``fractions.Fraction`` as their independent reference, and these helpers
convert between the two, exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from rrspectra import _exact as ex
from rrspectra.routh import ComplexIndex, RouthPolynomial


def index(re, im=0) -> ComplexIndex:
    """The index re + i im, for exact rationals (Fractions or ints)."""
    re, im = Fraction(re), Fraction(im)
    d = math.lcm(re.denominator, im.denominator)
    p, q = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
    g = math.gcd(p, q, d)
    return ComplexIndex(p // g, q // g, d // g)


def re(a: ComplexIndex) -> Fraction:
    return Fraction(a.p, a.d)


def im(a: ComplexIndex) -> Fraction:
    return Fraction(a.q, a.d)


def coeffs(poly: RouthPolynomial) -> tuple:
    """The coefficients of ``poly`` as Fractions, ascending."""
    return tuple(Fraction(c, poly.den) for c in poly.num)


def integers(coeffs) -> list:
    """The least positive integer multiple of the rational ``coeffs``."""
    fracs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in fracs))
    return [int(c * den) for c in fracs]


def routh_record(order: int, alpha: ComplexIndex, coeffs) -> RouthPolynomial:
    """A :class:`RouthPolynomial` with the rational ``coeffs``."""
    coeffs = ex.rp_trim([Fraction(c) for c in coeffs])
    den = math.lcm(*(c.denominator for c in coeffs))
    return RouthPolynomial(order, alpha, tuple(int(c * den) for c in coeffs), den)


def pair(x):
    """The rational ``x`` as the package's (num, den), den > 0; None stays None."""
    return None if x is None else Fraction(x).as_integer_ratio()
