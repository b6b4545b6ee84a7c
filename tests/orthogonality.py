"""Finite orthogonality of the Routh family: the generating weight, the
pinned weight index and the exact weighted inner product, which the tests
check against brute-force quadrature.

It lives with the tests because no command computes an inner product; the
package uses the same Cauchy-beta moment sum (``routh.cauchy_beta_ratio``)
only to normalize bound states.

The orthogonality weight for the family at index alpha is the generating
weight at index alpha* - 1, one unit *lower* than the family index (pinned
empirically, and by the Pearson equation of the canonical ODE).
"""

from __future__ import annotations

import math

import numpy as np

from rational import im, pair, re
from rrspectra import _exact as ex
from rrspectra.routh import ComplexIndex, cauchy_beta_ratio, log_cauchy_beta, routh_polynomial


class NonIntegrable(Exception):
    """The requested inner product does not converge."""


def weight_eval(w, eta):
    """Generating weight (1+eta^2)^Re(a) * exp(2 Im(a) atan eta); positive."""
    a = ComplexIndex.of(w)
    eta = np.asarray(eta, dtype=float)
    out = (1.0 + eta ** 2) ** float(re(a)) * np.exp(2.0 * float(im(a)) * np.arctan(eta))
    return float(out) if out.ndim == 0 else out


def pinned_weight_index(family_index) -> ComplexIndex:
    """Orthogonality weight index for the canonical family at ``family_index``."""
    return ComplexIndex.of(family_index).conjugate().shifted(-1)


def family_index_for_weight(w) -> ComplexIndex:
    """Inverse of :func:`pinned_weight_index`."""
    return ComplexIndex.of(w).conjugate().shifted(1)


def inner_product(n: int, m: int, w) -> float:
    """Weighted inner product of two canonical Routh polynomials.

    Integrates R_n R_m w over the real line for the family pinned to the
    weight ``w`` (family index = conj(weight index) + 1).  The integral is
    B(-Re w, Im w) times the exact ratio ``cauchy_beta_ratio``, so an
    orthogonal pair gives exactly 0.0 and only B is rounded.
    """
    w = ComplexIndex.of(w)
    if 2 * max(n, m) + 2 * re(w) >= -1:
        raise NonIntegrable(
            "orders (%d, %d) do not decay under weight index %s" % (n, m, w)
        )
    fam = family_index_for_weight(w)
    r_n, r_m = routh_polynomial(n, fam), routh_polynomial(m, fam)
    nu, q = -re(w), im(w)
    top, bottom = cauchy_beta_ratio(ex.rp_mul(r_n.num, r_m.num), pair(q), pair(nu))
    return math.exp(log_cauchy_beta(float(nu), float(q))) * (top / (bottom * r_n.den * r_m.den))
