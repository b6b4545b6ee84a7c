"""Single-step Darboux partners built from nodeless closed-form solutions.

A strictly positive solution ff at factorization energy e_f turns
V into the partner V - 2 (ln ff)'' which is isospectral except at e_f:
an irregular (type-d) seed inserts a new level there, the ground state
erases its own.  All logarithmic derivatives are evaluated through closed
forms in eta chained through the analytic eta'(eta); finite differences
appear only in tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import NodeDetected, PreconditionViolated
from .geometry import PotentialSpec, VariableMap
from .routh import real_root_count
from .spectral import AehSolution, BoundState, EtaSolution, enumerate_bound_spectrum


_NODED = "factorization polynomial has real zeros"


class FactorizationFunction(NamedTuple):
    """A closed-form solution used as a Darboux seed."""

    phi: EtaSolution
    energy: float
    source: object = None

    @classmethod
    def from_solution(cls, sol) -> "FactorizationFunction":
        """The seed ``sol``, rejected with :class:`NodeDetected` when its
        polynomial has real zeros (by its exact root count), before any grid
        is built for it."""
        if isinstance(sol, AehSolution):
            nodes = sol.root_count
        elif isinstance(sol, BoundState):
            nodes = sol.nodes
        else:
            raise TypeError("expected an AehSolution or BoundState")
        if nodes:
            raise NodeDetected(_NODED)
        return cls(phi=sol.phi, energy=sol.energy, source=sol)


class PartnerPotentialGrid(NamedTuple):
    x: np.ndarray
    v_parent: np.ndarray
    v_partner: np.ndarray
    energy_tag: float
    mode: str  # "insert" | "erase"


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


def partner_potential(spec: PotentialSpec, ff: FactorizationFunction, vmap: VariableMap) -> PartnerPotentialGrid:
    """V_hat = V - 2 (ln ff)'' on the map grid; requires a sign-definite ff."""
    poly = ff.phi.poly
    if poly.degree >= 1 and real_root_count(poly):
        raise NodeDetected(_NODED)
    etas = vmap.eta_grid
    samples = ff.phi(etas)
    if np.min(samples) * np.max(samples) <= 0.0:
        raise NodeDetected("factorization function changes sign on the grid")
    v_parent = geometry.potential_of_eta(spec, etas)
    v_partner = v_parent - 2.0 * log_second_derivative(spec.tp, ff.phi, etas)
    mode = "erase" if isinstance(ff.source, BoundState) else "insert"
    return PartnerPotentialGrid(
        x=vmap.x_grid.copy(),
        v_parent=v_parent,
        v_partner=v_partner,
        energy_tag=ff.energy,
        mode=mode,
    )


def write_partner_csv(grid: PartnerPotentialGrid, path) -> None:
    columns = (grid.x.tolist(), grid.v_parent.tolist(), grid.v_partner.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,V_parent,V_partner\n")
        fh.writelines("%.12g,%.12g,%.12g\n" % row for row in zip(*columns))


# ---------------------------------------------------------------------------
# positive even irregular solutions of symmetric members
# ---------------------------------------------------------------------------

def _propagate_log(v: np.ndarray, e: float, dx: float) -> np.ndarray:
    """Numerov sweep of y'' = (V-e) y from the left with growing initial data,
    carried in log form; raises if the propagated solution changes sign."""
    t = (dx * dx / 12.0) * (v - e)
    n = len(v)
    kappa = math.sqrt(max(-e, 1e-300))
    prev, cur = 1.0, math.exp(min(kappa * dx, 1.0))
    logs = np.empty(n)
    shift = 0.0
    logs[0] = 0.0
    logs[1] = math.log(cur) if cur > 0 else -math.inf
    for i in range(1, n - 1):
        nxt = ((2.0 + 10.0 * t[i]) * cur - (1.0 - t[i - 1]) * prev) / (1.0 - t[i + 1])
        if nxt <= 0.0:
            raise PreconditionViolated(
                "left-regular solution loses positivity at index %d" % (i + 1)
            )
        if nxt > 1e250:
            scale = nxt
            prev = cur / scale
            nxt = 1.0
            shift += math.log(scale)
        else:
            prev = cur
        cur = nxt
        logs[i + 1] = math.log(cur) + shift
    return logs


def symmetric_irregular_solution(spec: PotentialSpec, epsilon: float, vmap: VariableMap) -> np.ndarray:
    """Positive even solution irregular at both ends, for a symmetric member.

    Builds the solution regular at the left end by Numerov integration,
    verifies it stays positive, and symmetrizes: psi_d(x) = psi_a(x) +
    psi_a(-x).  Requires Im(h0) = 0 and a factorization energy strictly below
    the ground level.  Returns max-normalized samples on the map grid.
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
    dx = vmap.x_grid[1] - vmap.x_grid[0]
    log_a = _propagate_log(v, epsilon, dx)
    log_d = np.logaddexp(log_a, log_a[::-1])
    psi_d = np.exp(log_d - np.max(log_d))
    return psi_d
