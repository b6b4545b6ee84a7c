"""Sampled residual of the canonical equation: the float reference that the
closed forms, which solve the equation by construction, are checked against.

It lives with the tests because the package decides the convention by
derivation (see ``rrspectra.spectral``) and samples no residual at run time.
"""

from __future__ import annotations

import numpy as np

from rrspectra import geometry
from rrspectra.geometry import PotentialSpec
from rrspectra.spectral import EtaSolution


def rcsle_residual(spec: PotentialSpec, epsilon: float, phi: EtaSolution, eta_samples) -> float:
    """max over samples of |Phi'' + I(eta; e) Phi| / (1 + |Phi|), with the
    exact second derivative ``phi.d2``."""
    etas = np.asarray(eta_samples, dtype=float)
    vals = np.asarray(phi(etas), dtype=float)
    second = np.asarray(phi.d2(etas), dtype=float)
    inv = geometry.bose_invariant_eval(spec, epsilon, etas)
    res = np.abs(second + inv * vals) / (1.0 + np.abs(vals))
    return float(np.max(res))
