"""Cross-checks between the closed-form machinery and the numeric oracle.

Shared by the command-line front end and the acceptance suite.  Oracle grids
are always built from the sampled potential alone (no analytic seeding), so
the comparison stays independent of the result it checks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import geometry, oracle
from .errors import ConfigError, NonFiniteSamples
from .geometry import PotentialSpec, VariableMap
from .oracle import Grid1D
from .spectral import Spectrum, enumerate_bound_spectrum


def oracle_box(spec: PotentialSpec, energies=None, x_max=None, n=None) -> tuple:
    """Half-width and point count (x_max, n) of an oracle grid; given values are kept.

    The half-width covers both the potential decay scale and the slowest
    bound-state tail exp(-kappa |x|) with kappa from the shallowest level.
    The point count keeps the spacing at 0.012 or finer, odd, and at least 8192.
    """
    if x_max is None:
        x_decay = geometry.choose_x_max(spec, threshold=1e-3)
        if energies:
            kappa_min = math.sqrt(max(-max(energies), 1e-4))
            x_max = min(60.0, max(12.0, x_decay + 18.0 / kappa_min))
        else:
            x_max = min(60.0, max(12.0, 3.0 * x_decay))
    if n is None:
        n = max(8192, int(2 * x_max / 0.012) | 1)
    return x_max, n


def oracle_grid_for(spec: PotentialSpec, energies=None, x_max=None, n=None) -> tuple:
    """A (VariableMap, Grid1D) pair sized by :func:`oracle_box` for eigenvalue extraction."""
    x_max, n = oracle_box(spec, energies, x_max, n)
    vmap = VariableMap(spec.tp, x_max, n)
    values = geometry.potential_of_eta(spec, vmap.eta_grid)
    grid = Grid1D(x_min=-x_max, x_max=x_max, n=len(values), values=values)
    return vmap, grid


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
            "levels": [
                {
                    "n": lv.n,
                    "analytic": lv.analytic,
                    "numeric": lv.numeric,
                    "rel_delta": lv.rel_delta,
                    "nodes_analytic": lv.nodes_analytic,
                    "nodes_numeric": lv.nodes_numeric,
                }
                for lv in self.levels
            ],
            "n_max_constructive": self.spectrum.n_max_constructive,
            "n_max_formula": self.spectrum.n_max_formula,
            "formula_consistent": self.spectrum.formula_consistent,
        }


def verify_spectrum(spec: PotentialSpec, tol: float = 1e-3, x_max=None, n=None) -> VerifyReport:
    """Analytic levels against the finite-difference oracle, level by level.

    A potential that cannot be sampled on the grid (NaN or infinite values)
    is a :class:`ConfigError` when the caller chose the grid (``x_max`` or
    ``n``) and a :class:`NonFiniteSamples` numeric failure otherwise."""
    spectrum = enumerate_bound_spectrum(spec)
    if not spectrum.states:
        return VerifyReport(levels=(), tol=tol, spectrum=spectrum)
    _vmap, grid = oracle_grid_for(spec, spectrum.energies, x_max=x_max, n=n)
    try:
        estimates = oracle.lowest_levels(grid, count=len(spectrum.states))
    except NonFiniteSamples as exc:
        if x_max is None and n is None:
            raise
        raise ConfigError("grid x_max=%g, n=%d: %s" % (grid.x_max, grid.n, exc)) from exc
    levels = []
    for state, est in zip(spectrum.states, estimates):
        rel = abs(state.energy - est.energy) / abs(est.energy)
        levels.append(
            LevelComparison(
                n=state.n,
                analytic=state.energy,
                numeric=est.energy,
                rel_delta=rel,
                nodes_analytic=state.nodes,
                nodes_numeric=est.nodes,
            )
        )
    return VerifyReport(levels=tuple(levels), tol=tol, spectrum=spectrum)


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


def verify_partner_levels(partner_grid, expected, tol: float = 1e-3) -> PartnerReport:
    """Oracle spectrum of a partner potential against an expected level list."""
    grid = Grid1D(
        x_min=float(partner_grid.x[0]),
        x_max=float(partner_grid.x[-1]),
        n=len(partner_grid.x),
        values=np.asarray(partner_grid.v_partner, dtype=float),
    )
    estimates = oracle.lowest_levels(grid, count=len(expected))
    numeric = tuple(e.energy for e in estimates)
    deltas = tuple(
        abs(e - v) / abs(e) for e, v in zip(expected, numeric)
    )
    return PartnerReport(expected=tuple(expected), numeric=numeric, rel_deltas=deltas, tol=tol)
