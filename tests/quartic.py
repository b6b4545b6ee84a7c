"""The kappa = 1 quartic in closed form: the reference that the exact root
isolation of ``spectral.quartic_lambda_roots`` is checked against.

It lives with the tests because the package isolates the roots of every
quartic exactly and needs no special case for kappa = 1.
"""

from __future__ import annotations

import math

from rrspectra.geometry import PotentialSpec


def closed_form_lambda_kappa1(spec: PotentialSpec) -> tuple:
    """(c-root, d-root) of the collapsed kappa = 1 quartic, via the nested radical."""
    a1 = spec.h0.real + 1.0
    rad = math.sqrt(0.25 * a1 * a1 + 0.25 * spec.h0.imag ** 2)
    lam_r = math.sqrt(0.5 * a1 + rad)
    return lam_r, -lam_r
