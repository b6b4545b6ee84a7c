"""Positive even irregular solutions of symmetric members, on a 3-point
finite-difference scheme of the tests' own (the oracle solves Numerov's):
O(h^2) accurate, and refused just under the analytic ground level, above
the discrete one.  The tests compare them with the closed-form type-d seeds
at the seeds' energies.

It lives with the tests because no command builds an irregular solution; a
Darboux partner is always seeded by a closed form.
"""

from __future__ import annotations

import math

import numpy as np

from rrspectra import geometry
from rrspectra.geometry import PotentialSpec, TGrid
from rrspectra.spectral import enumerate_bound_spectrum


class PreconditionViolated(Exception):
    """The requested irregular solution does not exist for these inputs."""


def symmetric_irregular_solution(spec: PotentialSpec, epsilon: float, grid: TGrid) -> np.ndarray:
    """Positive even solution irregular at both ends, for a symmetric member,
    at the eta points of ``grid``.

    Solves -phi'' + (Q - epsilon W) phi = 0 in t, the Schroedinger equation
    with phi = W^(-1/4) psi (``geometry.weighted_scarf``), by the 3-point
    scheme from the left (phi_0 = 0, phi_1 = 1):
    the ratios r_i = phi_(i+1)/phi_i = h^2 (Q_i - epsilon W_i) + 2 - 1/r_(i-1)
    are h^2 times the LDL^T pivots of the 3-point matrix with phi = 0 at
    both end samples, so phi_a stays positive exactly when no level of that
    matrix lies below epsilon, and log phi_a sums log r_i.  Returns
    W^(1/4) (phi_a(t) + phi_a(-t)), max-normalized on the grid, accurate to
    O(h^2).  Requires Im(h0) = 0 and 0 > epsilon below the analytic ground
    level; an epsilon above the discrete ground level, which lies O(h^2)
    lower, raises :class:`PreconditionViolated`.
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
    q, w = np.array([geometry.weighted_scarf(spec)(t) for t in grid.ts]).T
    h = grid.dt
    ratios = []
    r = math.inf
    for i, d in enumerate((h * h * (q[1:-1] - epsilon * w[1:-1]) + 2.0).tolist(), start=1):
        r = d - 1.0 / r
        if r <= 0.0:
            raise PreconditionViolated(
                "left-regular solution loses positivity at index %d" % (i + 1)
            )
        ratios.append(r)
    log_a = np.concatenate(([-math.inf, 0.0], np.cumsum(np.log(ratios))))
    log_d = np.logaddexp(log_a, log_a[::-1]) + 0.25 * np.log(w)
    return np.exp(log_d - np.max(log_d))
