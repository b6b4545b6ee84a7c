"""Cross-checks between the closed-form machinery and the numeric oracle.

Shared by the command-line front end and the acceptance suite.  The bound
spectrum and Darboux partners share one grid rule, :func:`oracle_map`, and
one oracle, :func:`oracle.lowest_levels`.  The oracle sees the sampled
potential array and the map's spacing alone (no analytic seeding), so the
comparison stays independent of the result it checks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import geometry, oracle
from .geometry import VariableMap
from .spectral import PotentialSpec, Spectrum, enumerate_bound_spectrum


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


class LevelComparison(NamedTuple):
    n: int
    analytic: float
    numeric: float
    rel_delta: float
    nodes_analytic: int
    nodes_numeric: int


class VerifyReport(NamedTuple):
    levels: tuple
    tol: float
    spectrum: Spectrum

    @property
    def passed(self) -> bool:
        return len(self.levels) == len(self.spectrum.states) and all(
            lv.rel_delta <= self.tol and lv.nodes_analytic == lv.nodes_numeric
            for lv in self.levels
        )

    def to_json_dict(self) -> dict:
        return {
            "tol": self.tol,
            "passed": self.passed,
            "levels": [lv._asdict() for lv in self.levels],
            "n_max_constructive": self.spectrum.n_max_constructive,
            "n_max_formula": self.spectrum.n_max_formula,
            "formula_consistent": self.spectrum.formula_consistent,
        }


def verify_spectrum(spec: PotentialSpec, tol: float = 1e-3, x_max=None, n=None) -> VerifyReport:
    """Analytic levels against the finite-difference oracle, level by level.

    Level k of the oracle is the k-th lowest, so its node count is k.  A
    potential that cannot be sampled on the grid raises :class:`NonFiniteSamples`."""
    spectrum = enumerate_bound_spectrum(spec)
    if not spectrum.states:
        return VerifyReport(levels=(), tol=tol, spectrum=spectrum)
    vmap = oracle_map(spec, spectrum.energies, x_max, n)
    values = geometry.potential_of_eta(spec, np.array(vmap.eta_grid))
    estimates = oracle.lowest_levels(values, vmap.dx, len(spectrum.states))
    levels = tuple(
        LevelComparison(n=s.n, analytic=s.energy, numeric=e.energy,
                        rel_delta=abs(s.energy - e.energy) / abs(e.energy),
                        nodes_analytic=s.nodes, nodes_numeric=k)
        for k, (s, e) in enumerate(zip(spectrum.states, estimates))
    )
    return VerifyReport(levels=levels, tol=tol, spectrum=spectrum)


class PartnerReport(NamedTuple):
    expected: tuple
    numeric: tuple
    rel_deltas: tuple
    tol: float

    @property
    def passed(self) -> bool:
        return len(self.numeric) == len(self.expected) and all(
            d <= self.tol for d in self.rel_deltas
        )

    def to_json_dict(self) -> dict:
        return {
            "tol": self.tol,
            "passed": self.passed,
            "levels": [
                {"expected": e, "numeric": v, "rel_delta": d}
                for e, v, d in zip(self.expected, self.numeric, self.rel_deltas)
            ],
        }


def verify_partner_levels(vmap: VariableMap, v_partner, expected, tol: float = 1e-3) -> PartnerReport:
    """Oracle spectrum of the partner potential ``v_partner``, sampled on
    ``vmap``, against an expected level list."""
    estimates = oracle.lowest_levels(v_partner, vmap.dx, len(expected))
    numeric = tuple(e.energy for e in estimates)
    deltas = tuple(abs(e - v) / abs(e) for e, v in zip(expected, numeric))
    return PartnerReport(expected=tuple(expected), numeric=numeric, rel_deltas=deltas, tol=tol)
