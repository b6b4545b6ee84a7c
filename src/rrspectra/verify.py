"""Cross-checks between the closed-form machinery and the numeric oracle.

Shared by the command-line front end and the acceptance suite.  The bound
spectrum and Darboux partners share one grid rule, :func:`oracle_map`, one
oracle, :func:`oracle.lowest_levels`, and one comparison, which gives a
:class:`LevelCheck` per level and one pass rule.  The oracle sees the sampled
potential, a list of floats, and the map's spacing alone (no analytic
seeding), so the comparison stays independent of the result it checks.
Nothing here loads numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import geometry, oracle
from .geometry import VariableMap
from .spectral import PotentialSpec, enumerate_bound_spectrum


def oracle_map(spec: PotentialSpec, energies, x_max=None, n=None) -> VariableMap:
    """The variable map an oracle grid is sampled on; given x_max and n are kept.

    The half-width covers both the potential decay scale and the slowest
    bound-state tail exp(-kappa |x|) with kappa from the shallowest of
    ``energies``.  The point count keeps the spacing at 0.012 or finer and is
    at least 8192; above the floor it is odd (x_max past about 49.15).
    """
    if x_max is None:
        x_decay = geometry.choose_x_max(spec)
        if energies:
            kappa_min = math.sqrt(max(-max(energies), 1e-4))
            x_max = min(60.0, max(12.0, x_decay + 18.0 / kappa_min))
        else:
            x_max = min(60.0, max(12.0, 3.0 * x_decay))
    if n is None:
        n = max(8192, int(2 * x_max / 0.012) | 1)
    return VariableMap(spec.tp, x_max, n)


class LevelCheck(NamedTuple):
    """One level of an oracle check.  Level k of the oracle is the k-th
    lowest, so ``nodes_numeric`` is k; ``nodes_analytic`` is the closed
    form's exact node count, or None where it makes no claim."""
    n: int
    analytic: float
    numeric: float
    rel_delta: float
    nodes_analytic: int | None
    nodes_numeric: int


class LevelReport(NamedTuple):
    """One check passes when it found all ``n_expected`` levels, each within
    ``tol`` and with the node count its closed form claims."""
    levels: tuple
    n_expected: int
    tol: float

    @property
    def passed(self) -> bool:
        return len(self.levels) == self.n_expected and all(
            lv.rel_delta <= self.tol and lv.nodes_analytic in (None, lv.nodes_numeric)
            for lv in self.levels
        )


def _compare(values, dx, energies, nodes, tol) -> LevelReport:
    """The oracle levels of the samples ``values`` against the analytic
    ``energies`` and ``nodes``; ``rel_delta`` is relative to the oracle value."""
    estimates = oracle.lowest_levels(values, dx, len(energies))
    levels = tuple(
        LevelCheck(n=k, analytic=e, numeric=est.energy,
                   rel_delta=abs(e - est.energy) / abs(est.energy),
                   nodes_analytic=m, nodes_numeric=k)
        for k, (e, m, est) in enumerate(zip(energies, nodes, estimates))
    )
    return LevelReport(levels=levels, n_expected=len(energies), tol=tol)


def verify_spectrum(spec: PotentialSpec, tol: float = 1e-3, x_max=None, n=None) -> tuple:
    """(report, spectrum): the enumerated bound spectrum, and its levels and
    node counts against the finite-difference oracle.  A potential that
    cannot be sampled on the grid raises :class:`NonFiniteSamples`."""
    spectrum = enumerate_bound_spectrum(spec)
    if not spectrum.states:
        return LevelReport(levels=(), n_expected=0, tol=tol), spectrum
    vmap = oracle_map(spec, spectrum.energies, x_max, n)
    values = geometry.on_grid(geometry.potential(spec), vmap.eta_grid)
    report = _compare(values, vmap.dx, spectrum.energies, [s.nodes for s in spectrum.states], tol)
    return report, spectrum


def verify_partner_levels(vmap: VariableMap, v_partner, expected, tol: float = 1e-3) -> LevelReport:
    """Oracle spectrum of the partner potential ``v_partner``, sampled on
    ``vmap``, against an expected level list; the partner's node counts are
    not claimed."""
    return _compare(v_partner, vmap.dx, expected, [None] * len(expected), tol)
