"""Single-step Darboux partners built on nodeless closed-form solutions.

The seed is a :class:`~rrspectra.spectral.ClosedForm`.  A strictly positive
solution ff at factorization energy e_f turns V into the partner
V - 2 (ln ff)'' which is isospectral except at e_f: a type-d seed inserts a
new level there, the ground state (type c) erases its own, as
:func:`partner_levels` states.  The gauge (1+eta^2)^p exp(q atan eta) of a
closed form is positive, so a seed is nodeless exactly when its polynomial
has no real root: its stored exact node count is the one refusal, made
before any grid is built.  All logarithmic derivatives are evaluated through
closed forms in eta chained through the analytic eta'(eta); finite
differences appear only in tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import NodeDetected
from .geometry import VariableMap
from .spectral import ClosedForm, EtaSolution, PotentialSpec


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
    with np.errstate(over="ignore"):
        root5 = root ** 5
    # root ** 5 overflows past |eta| ~ 4e61 (|x| ~ 142 for eta = sinh x); f'' is
    # then 0, its limit
    fpp = ((2.0 - kap) * e2 + kap * (2.0 * kap - 1.0)) / (sa * root5)
    return f, fp, fpp


def log_second_derivative(tp, phi: EtaSolution, eta):
    """(d^2/dx^2) ln[(eta')^(-1/2) * Phi(eta(x))] expressed through eta."""
    eta = np.asarray(eta, dtype=float)
    f, fp, fpp = _map_derivatives(tp, eta)
    l1, l2 = geometry.log_parts(phi, eta)
    return -0.5 * f * fpp + f * fp * l1 + f * f * (l2 - l1 * l1)


def partner_potential(spec: PotentialSpec, seed: ClosedForm, vmap: VariableMap) -> PartnerPotentialGrid:
    """V_hat = V - 2 (ln ff)'' on the map grid, with ff the closed-form ``seed``.

    A seed with real polynomial zeros (its stored ``nodes``) raises
    :class:`NodeDetected`.  Only log-derivatives of the seed are evaluated,
    never its values, which underflow to 0.0 in the tails of deep wells."""
    if seed.nodes:
        raise NodeDetected(_NODED)
    etas = vmap.eta_grid
    v_parent = geometry.potential_of_eta(spec, etas)
    v_partner = v_parent - 2.0 * log_second_derivative(spec.tp, seed.phi, etas)
    return PartnerPotentialGrid(x=vmap.x_grid.copy(), v_parent=v_parent, v_partner=v_partner)
