"""Adaptive quadrature: the independent brute-force reference that the exact
Cauchy-beta sums (normalization, orthogonality) are checked against.

It lives with the tests because the package computes no integral by
quadrature; scipy is a test dependency only.
"""

from __future__ import annotations

import math


class NotConverged(Exception):
    """The quadrature error estimate exceeds the requested tolerance."""


def adaptive_quadrature(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Integral of ``f`` over (a, b) with absolute error below ``tol``.

    Infinite limits are mapped to a finite interval by the tangent
    substitution x = tan(t) before handing off to adaptive Gauss-Kronrod.
    """
    from scipy.integrate import quad

    if math.isinf(a) or math.isinf(b):
        ta = math.atan(a) if not math.isinf(a) else math.copysign(math.pi / 2, a)
        tb = math.atan(b) if not math.isinf(b) else math.copysign(math.pi / 2, b)

        def g(t):
            x = math.tan(t)
            return f(x) * (1.0 + x * x)

        out = quad(g, ta, tb, epsabs=tol, epsrel=1.49e-12, limit=400, full_output=1)
    else:
        out = quad(f, a, b, epsabs=tol, epsrel=1.49e-12, limit=400, full_output=1)
    val, err = out[0], out[1]
    if err > max(tol, 1e-13 * abs(val)) * 10.0:
        raise NotConverged("quadrature error estimate %g exceeds tolerance %g" % (err, tol))
    return val
