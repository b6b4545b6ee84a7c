"""Sampled residual of the canonical equation: the float reference that the
closed forms, which solve the equation by construction, are checked against,
with the rational invariant I(eta; e) it needs.

It lives with the tests because the package decides the convention by
derivation (see ``rrspectra.spectral``) and samples no residual at run time.
"""

from __future__ import annotations

import numpy as np

from rrspectra.geometry import PotentialSpec
from rrspectra.spectral import EtaSolution


def bose_invariant_eval(spec: PotentialSpec, epsilon: float, eta):
    """The rational invariant I(eta; e) of the canonical equation, real for real eta.

    The singular-point strengths slide linearly with energy,
    h(e) = h0 - c*e and O0(e) = O00 + d*e, with (c, d) the tangent-polynomial
    coefficients.  The conjugate pairing of the +-i fractions keeps the value
    real on the real line.
    """
    eta = np.asarray(eta, dtype=float)
    h = spec.h0 - spec.energy_coupling * epsilon
    o0 = spec.o00 + spec.tp.d * epsilon
    denom = (1.0 + eta ** 2)
    # h/(eta+i)^2 + conj(h)/(eta-i)^2 = 2*Re[h*(eta-i)^2] / (1+eta^2)^2
    re_part = h.real * (eta ** 2 - 1.0) + 2.0 * h.imag * eta
    out = -0.25 * (2.0 * re_part / denom ** 2 - o0 / denom)
    return float(out) if out.ndim == 0 else out


def rcsle_residual(spec: PotentialSpec, epsilon: float, phi: EtaSolution, eta_samples) -> float:
    """max over samples of |Phi'' + I(eta; e) Phi| / (1 + |Phi|), with the
    exact second derivative ``phi.d2``."""
    etas = np.asarray(eta_samples, dtype=float)
    vals = np.asarray(phi(etas), dtype=float)
    second = np.asarray(phi.d2(etas), dtype=float)
    inv = bose_invariant_eval(spec, epsilon, etas)
    res = np.abs(second + inv * vals) / (1.0 + np.abs(vals))
    return float(np.max(res))
