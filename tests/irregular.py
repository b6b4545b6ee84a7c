"""Positive even irregular solutions of symmetric members, on the oracle's
3-point scheme: O(h^2) accurate, and refused just under the analytic ground
level, above the discrete one.  The tests compare them with the closed-form
type-d seeds at the seeds' energies.

It lives with the tests because no command builds an irregular solution; a
Darboux partner is always seeded by a closed form.
"""

from __future__ import annotations

import math

import numpy as np

from rrspectra import geometry
from rrspectra.errors import PreconditionViolated
from rrspectra.geometry import PotentialSpec, VariableMap
from rrspectra.spectral import enumerate_bound_spectrum


def symmetric_irregular_solution(spec: PotentialSpec, epsilon: float, vmap: VariableMap) -> np.ndarray:
    """Positive even solution irregular at both ends, for a symmetric member.

    Runs the oracle's 3-point scheme from the left (psi_0 = 0, psi_1 = 1):
    the ratios r_i = psi_(i+1)/psi_i = h^2 (V_i - epsilon) + 2 - 1/r_(i-1)
    are h^2 times the LDL^T pivots of ``oracle._sturm_count``, so psi_a
    stays positive exactly when no discrete level lies below epsilon, and
    log psi_a sums log r_i.  Returns psi_a(x) + psi_a(-x), max-normalized on
    the map grid, accurate to O(h^2).  Requires Im(h0) = 0 and 0 > epsilon
    below the analytic ground level; an epsilon above the discrete ground
    level, which lies O(h^2) lower, raises :class:`PreconditionViolated`.
    """
    if spec.h0.imag != 0.0:
        raise PreconditionViolated("construction requires a symmetric potential")
    spectrum = enumerate_bound_spectrum(spec)
    if spectrum.states and epsilon >= spectrum.states[0].energy:
        raise PreconditionViolated(
            "energy %.6g is not below the ground level %.6g"
            % (epsilon, spectrum.states[0].energy)
        )
    if epsilon >= 0.0:
        raise PreconditionViolated("factorization energy must be negative")
    v = geometry.potential_of_eta(spec, vmap.eta_grid)
    h = vmap.x_grid[1] - vmap.x_grid[0]
    ratios = []
    r = math.inf
    for i, d in enumerate((h * h * (v[1:-1] - epsilon) + 2.0).tolist(), start=1):
        r = d - 1.0 / r
        if r <= 0.0:
            raise PreconditionViolated(
                "left-regular solution loses positivity at index %d" % (i + 1)
            )
        ratios.append(r)
    log_a = np.concatenate(([-math.inf, 0.0], np.cumsum(np.log(ratios))))
    log_d = np.logaddexp(log_a, log_a[::-1])
    return np.exp(log_d - np.max(log_d))
