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


_DECAY = 1e-12  # |V| at the ends of an oracle box, where its ends are transparent
_SPACING = 0.012  # widest oracle spacing ...
_DEPTH_SPACING = 0.1  # ... or h sqrt|V_min| at most, for deeper wells


def _points(x_max: float, h: float) -> int:
    """The smallest odd point count with spacing at most ``h`` on [-x_max, x_max]."""
    return max(65, (math.ceil(2.0 * x_max / h * (1.0 - 1e-12)) + 1) | 1)


def oracle_map(spec: PotentialSpec, sample, x_max=None, n=None) -> tuple:
    """(vmap, columns): the variable map an oracle grid is sampled on, and
    ``sample(vmap)``, the potentials on it as lists of floats.  A given x_max
    or n is kept.

    The oracle's ends are transparent, exact where V = 0, so the half-width
    is the potential's own decay scale: the smallest quarter with |V| < 1e-12
    at both ends (:func:`geometry.decay_x_max`).  The spacing is
    h = min(0.012, 0.1/sqrt|V_min|), V_min the deepest sample of the columns
    (for a partner, the deeper of V and V_hat), and n the smallest odd count
    at that spacing.  The columns are sampled at h = 0.012 first, and once
    more on the finer map where the well is deeper than 0.1^2/0.012^2.
    """
    if x_max is None:
        x_max = geometry.decay_x_max(spec, _DECAY)
    vmap = VariableMap(spec.tp, x_max, n or _points(x_max, _SPACING))
    columns = sample(vmap)
    if n is None:
        depth = -min((x for c in columns for x in c if math.isfinite(x)), default=0.0)
        if depth * _SPACING ** 2 > _DEPTH_SPACING ** 2:
            vmap = VariableMap(spec.tp, x_max, _points(x_max, _DEPTH_SPACING / math.sqrt(depth)))
            columns = sample(vmap)
    return vmap, columns


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
    v_of = geometry.potential(spec)
    vmap, (values,) = oracle_map(spec, lambda m: [geometry.on_grid(v_of, m.eta_grid)], x_max, n)
    report = _compare(values, vmap.dx, spectrum.energies, [s.nodes for s in spectrum.states], tol)
    return report, spectrum


def verify_partner_levels(vmap: VariableMap, v_partner, expected, tol: float = 1e-3) -> LevelReport:
    """Oracle spectrum of the partner potential ``v_partner``, sampled on
    ``vmap``, against an expected level list; the partner's node counts are
    not claimed."""
    return _compare(v_partner, vmap.dx, expected, [None] * len(expected), tol)
