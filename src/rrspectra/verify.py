"""Cross-checks between the closed-form machinery and the numeric oracle.

Shared by the command-line front end and the acceptance suite.  The bound
spectrum and Darboux partners share one grid rule, :func:`oracle_map`, one
oracle, :func:`oracle.lowest_levels`, and one comparison,
:func:`compare_levels`, which gives a :class:`LevelCheck` per level and one
pass rule.  A partner is given by its seed, the nodeless closed form it is
built on, and :func:`oracle_map` samples it on each rung.  The oracle sees
Q and W of :func:`geometry.weighted_scarf`, lists of floats, and the
spacing of the t grid alone (no analytic seeding), so the comparison stays
independent of the result it checks.  Nothing here loads numpy.

The oracle solves on a ladder of nested grids, coarse to fine, and stops at
the first rung on which every level is resolved: found, with an error
budget (its error estimate plus |Q| at the box ends) at most tol |E| / 10,
and an observed-order ratio (E_2h - E_4h) / (E_h - E_2h) in [14, 19.2],
around the 16 of Numerov's fourth-order scheme.
Rung 0 has at least 4 times the spacing of the cap (:func:`oracle_map`),
and each rung halves the spacing of the one before, so the grids a rung
solved are the next rung's 2:1 and 4:1 subsamples and each refinement
solves one new grid.  A given point count is the one rung; one too coarse
for Numerov's scheme raises StepFailure (see oracle.lowest_levels).
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from . import geometry, oracle
from .errors import GridTooLarge, NonFiniteSamples
from .spectral import MAX_COUNT, PotentialSpec, enumerate_bound_spectrum


_DECAY = 1e-12  # |V| at the ends of an oracle box, where its ends are transparent
_SPACING = 0.012  # widest oracle spacing ...
_DEPTH_SPACING = 0.1  # ... or h sqrt(depth) at most, for deeper wells
# Observed-order ratios, 16 (1 - 1/8) to 16 (1 + 1/5): on the deciding rungs
# of the 800 seeded oracle_verify commands of seeds 1-100 they are
# 16.01-18.20, of Gendenshtein (16.2, 0.7), (30.3, 0.7), 2.0001 and 2.00001
# 16.01-16.58, and of Milson 7.75+3i, kappa 0.05 and its m = 8 partner
# 16.09-16.21, at --tol 1e-4.
_BAND = (14.0, 19.2)


class Rung(NamedTuple):
    """One rung of the oracle's ladder: its :class:`geometry.TGrid`, W on it,
    the coupling the oracle solves (Q, or Q_hat for a partner), and a
    partner's (V, V_hat), or ()."""
    grid: geometry.TGrid
    weights: list
    coupling: list
    potentials: tuple


def _cap_intervals(t_max: float, rung=None) -> int:
    """The intervals on [-t_max, t_max] at spacing
    h = min(0.012, 0.1/sqrt(depth)), depth = -min(0, min Q/W) max W of the
    coupling of ``rung`` (0 for none)."""
    depth = 0.0
    if rung is not None:
        w = rung.weights
        depth = -min(0.0, min(map(operator.truediv, rung.coupling, w))) * max(w)
    h = _SPACING
    if depth * _SPACING ** 2 > _DEPTH_SPACING ** 2:
        h = _DEPTH_SPACING / math.sqrt(depth)
    return math.ceil(2.0 * t_max / h * (1.0 - 1e-12))


def _first_rung(cap: int) -> int:
    """Rung 0's intervals for a cap of ``cap`` intervals: a quarter of the
    cap rounded up to a multiple of 16, and at least 64."""
    return max(64, -(-cap // 16) * 4)


def _refuse_above_cap(intervals: int, cap: int) -> None:
    """Raise :class:`GridTooLarge` if the ladder from ``intervals`` to the cap
    ``cap`` has a rung above :data:`MAX_COUNT` points."""
    while intervals < cap:
        intervals *= 2
    if intervals + 1 > MAX_COUNT:
        raise GridTooLarge("the oracle grid needs %d points; the cap is %d"
                           % (intervals + 1, MAX_COUNT))


def oracle_map(spec: PotentialSpec, seed=None, x_max=None, n=None):
    """The :class:`Rung` records of the oracle's ladder, coarsest first.
    Every rung samples Q and W (:func:`geometry.weighted_scarf`) at its
    t points.  A nodeless closed-form ``seed`` (:class:`~spectral.ClosedForm`)
    makes the ladder that of its Darboux partner: each rung also samples
    (V, V_hat) at its t points (:func:`geometry.partner_potential`), all
    from sech t and tanh t, and the oracle solves the coupling
    Q_hat = Q + W (V_hat - V).  A given x_max is kept, and a given n is the
    one rung.  Samples that are NaN or infinite, and weights that are not
    positive, raise :class:`NonFiniteSamples`.

    The oracle's ends are transparent, exact where Q = 0 and W = 1, so the
    half-width is the potential's own decay scale: the smallest quarter with
    |V| < 1e-12 at both ends (:func:`geometry.decay_x_max`), and t_max its
    :func:`geometry.t_of_x`.  The cap, the last rung, is the first with a
    spacing of at most h = min(0.012, 0.1/sqrt(depth)), depth =
    -min(0, min Q/W) max W of the coupling on rung 0.  Rung 0 has about
    4 h, a quarter of the cap's intervals rounded up to a multiple of 16 (so
    4 divides the intervals of every rung) and at least 64.  It is sampled at
    4 x 0.012 first and, where that well is deeper than 0.1^2/0.012^2, once
    more on a finer grid.  Where a barrier, which the depth does not see,
    breaks Numerov's guard on its 4:1 subsample (:func:`oracle.keeps_guard`),
    rung 0 doubles until the guard holds there, and the cap is then at least
    4 times rung 0.  The cap is read on rung 0 as the oracle solves it, and
    not again.  Each later rung has 2n - 1 points at half the spacing,
    the points of the rung before as its even points, and samples all of
    them.  Where the cap is above 2^20 points, :class:`GridTooLarge` is
    raised before a finer grid is sampled.
    """
    if x_max is None:
        x_max = geometry.decay_x_max(spec, _DECAY)
    t_max = geometry.t_of_x(spec.kappa_plus, x_max)
    q_w = geometry.weighted_scarf(spec)

    def rung(points):
        grid = geometry.t_grid(x_max, t_max, points)
        q, w = map(list, zip(*map(q_w, grid.ts)))
        potentials = ()
        if seed is not None:
            potentials = v, v_hat = geometry.partner_potential(spec, seed, grid.ts)
            q = [a + b * (c - d) for a, b, c, d in zip(q, w, v_hat, v)]
        geometry.require_finite("potential", [q])
        if min(w) <= 0.0:  # kappa - 1 rounds to -1 for kappa below ~1.1e-16
            raise NonFiniteSamples("a weight sample is %g; Q/W is infinite there" % min(w))
        return Rung(grid, w, q, potentials)

    if n is not None:
        yield rung(n)
        return
    intervals = _first_rung(_cap_intervals(t_max))  # at 4 x 0.012
    current = rung(intervals + 1)
    cap = _cap_intervals(t_max, current)
    if _first_rung(cap) > intervals:  # a deep well
        intervals = _first_rung(cap)
        _refuse_above_cap(intervals, cap)
        current = rung(intervals + 1)
        cap = _cap_intervals(t_max, current)
    while not oracle.keeps_guard(current.coupling[::4], current.weights[::4],
                                 4 * current.grid.dt):  # a barrier
        intervals *= 2
        _refuse_above_cap(intervals, 4 * intervals)
        current = rung(intervals + 1)
        cap = max(4 * intervals, _cap_intervals(t_max, current))
    while True:
        yield current
        if intervals >= cap:
            return
        _refuse_above_cap(intervals, cap)
        intervals *= 2
        current = rung(intervals + 1)


class LevelCheck(NamedTuple):
    """One level of an oracle check: the oracle's level ``n``, counted from 0
    at the lowest.  ``error`` is the level's budget, the oracle's error
    estimate plus |V| at the box ends, and ``ratio`` its observed-order
    ratio."""
    n: int
    analytic: float
    numeric: float
    rel_delta: float
    error: float
    ratio: float


class LevelReport(NamedTuple):
    """One check passes when it found all ``n_expected`` levels, each within
    ``tol``.  ``grid`` is the :class:`geometry.TGrid` the levels were solved
    on, or None where there are none."""
    levels: tuple
    n_expected: int
    tol: float
    grid: geometry.TGrid | None

    @property
    def passed(self) -> bool:
        return len(self.levels) == self.n_expected and all(
            lv.rel_delta <= self.tol for lv in self.levels)

    @property
    def resolved(self) -> bool:
        """Whether every level was found, with a budget of at most tol |E| / 10
        and a ratio in the band: the ladder stops here."""
        return len(self.levels) == self.n_expected and all(
            lv.error <= 0.1 * self.tol * abs(lv.numeric) and _BAND[0] <= lv.ratio <= _BAND[1]
            for lv in self.levels
        )


def compare_levels(rungs, expected, tol: float) -> tuple:
    """(report, rung): the oracle levels of the coupling of each
    :class:`Rung` of ``rungs`` against the ``expected`` energies, on the
    first rung where they are resolved, else the last, and that rung;
    ``rel_delta`` is relative to the oracle value.  Each rung after the first
    hands the oracle the grids of the one before."""
    coarser = ()
    for rung in rungs:
        values = rung.coupling
        estimates, coarser = (oracle.lowest_levels(values, rung.weights, rung.grid.dt,
                                                   len(expected), coarser=coarser)
                              if expected else ((), ()))
        end = max(abs(values[0]), abs(values[-1]))
        levels = tuple(
            LevelCheck(n=k, analytic=e, numeric=est.energy,
                       rel_delta=abs(e - est.energy) / abs(est.energy),
                       error=est.error + end, ratio=est.ratio)
            for k, (e, est) in enumerate(zip(expected, estimates))
        )
        report = LevelReport(levels=levels, n_expected=len(expected), tol=tol, grid=rung.grid)
        if report.resolved:
            break
    return report, rung


def verify_spectrum(spec: PotentialSpec, tol: float, x_max=None, n=None) -> tuple:
    """(report, spectrum): the enumerated bound spectrum, and its levels
    against the finite-difference oracle.  An ``x_max`` that no t with a
    finite eta = sinh t reaches raises :class:`NonFiniteSamples`
    (:func:`geometry.t_of_x`)."""
    spectrum = enumerate_bound_spectrum(spec)
    if not spectrum.states:
        return LevelReport(levels=(), n_expected=0, tol=tol, grid=None), spectrum
    report, _ = compare_levels(oracle_map(spec, None, x_max, n), spectrum.energies, tol)
    return report, spectrum
