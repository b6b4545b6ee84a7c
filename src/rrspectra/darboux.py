"""Single-step Darboux partners built on nodeless closed-form solutions.

The seed is a :class:`~rrspectra.spectral.ClosedForm`.  A strictly positive
solution ff at factorization energy e_f turns V into the partner
V - 2 (ln ff)'' which is isospectral except at e_f: a type-d seed inserts a
new level there, the ground state (type c) erases its own, as
:func:`partner_levels` states.  The gauge (1+eta^2)^p exp(q atan eta) of a
closed form is positive, so a seed is nodeless exactly when its polynomial
has no real root: its stored exact node count is the one refusal, made
before any grid is built.

The partner is taken in Riccati form.  With w = ff'/ff, the equation
-ff'' + V ff = e_f ff reads w' = V - e_f - w^2, so

    V_hat = V - 2 w' = 2 e_f + 2 w^2 - V,

and only the first log-derivative w is evaluated, in closed form through
eta (:func:`geometry.log_derivative`).  The identity is exact here, not an
approximation: a closed form solves the canonical equation by construction,
and the Liouville transformation in the derived convention turns that into
-ff'' + V ff = e_f ff with the same V that :func:`geometry.potential_of_eta`
samples.  Finite differences appear only in tests.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import NodeDetected
from .geometry import VariableMap
from .spectral import ClosedForm, PotentialSpec


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


def partner_potential(spec: PotentialSpec, seed: ClosedForm, vmap: VariableMap) -> PartnerPotentialGrid:
    """V_hat = 2 e_s + 2 w^2 - V on the map grid, with w the log-derivative
    of the closed-form ``seed`` and e_s its energy.

    A seed with real polynomial zeros (its stored ``nodes``) raises
    :class:`NodeDetected`.  Only the log-derivative of the seed is evaluated,
    never its values, which underflow to 0.0 in the tails of deep wells."""
    if seed.nodes:
        raise NodeDetected(_NODED)
    etas = vmap.eta_grid
    v_parent = geometry.potential_of_eta(spec, etas)
    w = geometry.log_derivative(spec.tp, seed.phi, etas)
    v_partner = 2.0 * seed.energy + 2.0 * w * w - v_parent
    return PartnerPotentialGrid(x=vmap.x_grid.copy(), v_parent=v_parent, v_partner=v_partner)
