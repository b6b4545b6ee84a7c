"""Single-step Darboux partners built on nodeless closed-form solutions.

The seed is a :class:`~rrspectra.spectral.ClosedForm`.  A strictly positive
solution ff at factorization energy e_f turns V into the partner
V - 2 (ln ff)'' which is isospectral except at e_f: a type-d seed inserts a
new level there, the ground state (type c) erases its own, as
:func:`partner_levels` states.  The gauge (1+eta^2)^p exp(q atan eta) of a
closed form is positive, so a seed is nodeless exactly when its polynomial
has no real root: its node count, decided by theorem from the seed's order
and index (:attr:`~rrspectra.spectral.ClosedForm.nodes`), is the one
refusal, made before any grid is built.

The partner is taken in Riccati form.  With w = ff'/ff, the equation
-ff'' + V ff = e_f ff reads w' = V - e_f - w^2, so

    V_hat = V - 2 w' = 2 e_f + 2 w^2 - V,

and only the first log-derivative w is evaluated, in closed form through
eta (:func:`geometry.log_derivative`).  The identity is exact here, not an
approximation: a closed form solves the canonical equation by construction,
and the Liouville transformation in the derived convention turns that into
-ff'' + V ff = e_f ff with the same V that :func:`geometry.potential`
samples.  Finite differences appear only in tests.  The partner comes back
as two lists of floats at the given eta points, ready for the oracle: V and
w are sampled point by point, each closed form's coefficients taken once,
so an oracle grid refined by halving samples its new points alone.
"""

from __future__ import annotations

from . import geometry
from .errors import NodeDetected
from .spectral import ClosedForm, PotentialSpec


_NODED = "factorization polynomial has real zeros"


def partner_levels(parent, seed) -> list:
    """The levels of the partner built on ``seed`` from the ``parent`` levels:
    a type-d seed inserts its energy, a bound-state (type-c) seed erases the
    ground level.  A seed whose polynomial has real zeros (by its node count)
    raises :class:`NodeDetected`, before any grid is built for it."""
    if seed.nodes:
        raise NodeDetected(_NODED)
    return sorted([*parent, seed.energy]) if seed.kind == "d" else list(parent[1:])


def partner_potential(spec: PotentialSpec, seed: ClosedForm, etas) -> tuple:
    """(V, V_hat) at the floats ``etas``, with V_hat = 2 e_s + 2 w^2 - V, w
    the log-derivative of the closed-form ``seed`` and e_s its energy.

    A seed with real polynomial zeros (its ``nodes``) raises
    :class:`NodeDetected`.  Only the log-derivative of the seed is evaluated,
    never its values, which underflow to 0.0 in the tails of deep wells."""
    if seed.nodes:
        raise NodeDetected(_NODED)
    v_parent = geometry.on_grid(geometry.potential(spec), etas)
    w = geometry.on_grid(geometry.log_derivative(spec.kappa_plus, seed), etas)
    e_s = seed.energy
    return v_parent, [2.0 * e_s + 2.0 * wi * wi - vi for wi, vi in zip(w, v_parent)]
