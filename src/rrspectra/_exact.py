"""Exact rationals and polynomials in Python integers.

An exact rational enters only from a float (a config value or a correctly
rounded root), as the integer pair of :func:`ratio`.  A polynomial is a list
of integer numerators in ascending degree over one positive denominator that
its owner keeps beside it; a finished one is a tuple without trailing zeros
(:func:`rp_trim`), empty for the zero polynomial.  Realness and
residual-zero assertions are then decided by integer identity, never by
tolerance.  A float leaves the exact layer only as one ``num / den`` true
division, which Python rounds correctly, so it is the double nearest the
exact rational.
"""

from __future__ import annotations

import sys

# The largest double, an integer.
DOUBLE_MAX = int(sys.float_info.max)


def ratio(x) -> tuple[int, int]:
    """(num, den), den > 0, with num / den equal to the finite float or int ``x``."""
    try:
        return x.as_integer_ratio()
    except (OverflowError, ValueError):
        raise ValueError("non-finite value %r" % x) from None


def rp_add(p: list, q: list) -> list:
    if len(p) < len(q):
        p, q = q, p
    return [a + q[i] if i < len(q) else a for i, a in enumerate(p)]


def rp_mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def rp_diff(p: list) -> list:
    return [p[i] * i for i in range(1, len(p))]


def rp_trim(p) -> tuple:
    """``p`` without its trailing (highest-degree) zeros, as a tuple."""
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])
