"""Single-step Darboux partners built on nodeless closed-form solutions.

The seed is a :class:`~rrspectra.spectral.ClosedForm`.  A strictly positive
solution ff at factorization energy e_f turns V into the partner
V - 2 (ln ff)'' which is isospectral except at e_f: a type-d seed inserts a
new level there, the ground state (type c) erases its own, as
:func:`partner_levels` states.  A seed is refused by its stored exact node
count before any grid is built, and again when its samples change sign.
All logarithmic derivatives are evaluated through closed forms in eta
chained through the analytic eta'(eta); finite differences appear only in
tests.  Positive even irregular solutions of symmetric members come from the
oracle's 3-point scheme: O(h^2) accurate, and refused just under the
analytic ground level, above the discrete one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import NodeDetected, PreconditionViolated
from .geometry import PotentialSpec, VariableMap
from .spectral import ClosedForm, EtaSolution, enumerate_bound_spectrum


_NODED = "factorization polynomial has real zeros"


def partner_levels(parent, seed) -> list:
    """The levels of the partner built on ``seed`` from the ``parent`` levels:
    a type-d seed inserts its energy, a bound-state (type-c) seed erases the
    ground level.  A seed whose polynomial has real zeros (by its stored exact
    count) raises :class:`NodeDetected`, before any grid is built for it."""
    if seed.nodes:
        raise NodeDetected(_NODED)
    return sorted([*parent, seed.energy]) if seed.kind == "d" else list(parent[1:])


class PartnerPotentialGrid(NamedTuple):
    x: np.ndarray
    v_parent: np.ndarray
    v_partner: np.ndarray


def _map_derivatives(tp, eta):
    """(f, f', f'') of f(eta) = eta' = (1+eta^2)/sqrt(a(eta^2+kappa))."""
    a, kap = tp.a, tp.kappa_plus
    sa = math.sqrt(a)
    e2 = eta ** 2
    root = np.sqrt(e2 + kap)
    f = (1.0 + e2) / (sa * root)
    fp = eta * (e2 + 2.0 * kap - 1.0) / (sa * root ** 3)
    fpp = ((2.0 - kap) * e2 + kap * (2.0 * kap - 1.0)) / (sa * root ** 5)
    return f, fp, fpp


def log_second_derivative(tp, phi: EtaSolution, eta):
    """(d^2/dx^2) ln[(eta')^(-1/2) * Phi(eta(x))] expressed through eta."""
    eta = np.asarray(eta, dtype=float)
    f, fp, fpp = _map_derivatives(tp, eta)
    l1, l2 = phi.log_parts(eta)
    return -0.5 * f * fpp + f * fp * l1 + f * f * (l2 - l1 * l1)


def partner_potential(spec: PotentialSpec, seed: ClosedForm, vmap: VariableMap) -> PartnerPotentialGrid:
    """V_hat = V - 2 (ln ff)'' on the map grid, with ff the closed-form ``seed``.

    A seed with real polynomial zeros (its stored ``nodes``), or whose
    samples change sign on the grid, raises :class:`NodeDetected`."""
    if seed.nodes:
        raise NodeDetected(_NODED)
    etas = vmap.eta_grid
    samples = seed.phi(etas)
    if np.min(samples) * np.max(samples) <= 0.0:
        raise NodeDetected("factorization function changes sign on the grid")
    v_parent = geometry.potential_of_eta(spec, etas)
    v_partner = v_parent - 2.0 * log_second_derivative(spec.tp, seed.phi, etas)
    return PartnerPotentialGrid(x=vmap.x_grid.copy(), v_parent=v_parent, v_partner=v_partner)


# ---------------------------------------------------------------------------
# positive even irregular solutions of symmetric members
# ---------------------------------------------------------------------------

def symmetric_irregular_solution(spec: PotentialSpec, epsilon: float, vmap: VariableMap) -> np.ndarray:
    """Positive even solution irregular at both ends, for a symmetric member.

    Runs the oracle's 3-point scheme from the left (psi_0 = 0, psi_1 = 1):
    the ratios r_i = psi_(i+1)/psi_i = h^2 (V_i - epsilon) + 2 - 1/r_(i-1)
    are h^2 times the LDL^T pivots of :func:`oracle._sturm_count`, so psi_a
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
