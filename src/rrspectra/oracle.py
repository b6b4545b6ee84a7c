"""Brute-force verification tool: a finite-difference bound-state
eigensolver in numpy (a sine-basis Rayleigh-Ritz solve certified by Sturm
counts).

Nothing in this module knows about the analytic machinery it is used to
check; it sees only sampled potentials.  Units are hbar = 2m = 1
so the eigenproblem reads -psi'' + V psi = e psi.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import InsufficientDecay, NonFiniteSamples


class _GridFields(NamedTuple):
    x_min: float
    x_max: float
    n: int
    values: np.ndarray


class Grid1D(_GridFields):
    """A uniform 1D grid carrying the values sampled on it."""

    __slots__ = ()

    def __new__(cls, x_min: float, x_max: float, n: int, values: np.ndarray):
        if n < 256:
            raise ValueError("grid needs at least 256 points")
        if not x_max > x_min:
            raise ValueError("empty grid range")
        if len(values) != n:
            raise ValueError("values length does not match n")
        return super().__new__(cls, x_min, x_max, n, values)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)


class EigenEstimate(NamedTuple):
    """One oracle level.  ``error`` is the gap between the one-step and two-step
    Richardson values, which estimates truncation, plus the propagated solver
    certificate (64 d_h + 20 d_2h + d_4h) / 45.  It does not see the roundoff
    of order 1e-16 / h^2 that dominates on very fine grids."""

    energy: float
    error: float


# ---------------------------------------------------------------------------
# finite-difference eigensolver
# ---------------------------------------------------------------------------

_BASIS_CEILING = 1024  # largest sine basis (an 8 MB matrix); bisection finishes the rest
_CERT_REL = 1e-11  # certified half-width relative to the level ...
_CERT_NORM = 4.0  # ... or in units of eps * ||H||, whichever is wider


def _sturm_count(v: np.ndarray, dx: float, sigma: float) -> int:
    """Number of eigenvalues below ``sigma`` of the 3-point Dirichlet
    Hamiltonian on the samples ``v``: the negative pivots of the LDL^T
    factorization of H - sigma (Kahan 1966).  Tiny pivots are replaced by
    -pivmin as in LAPACK stebz."""
    inv_h2 = 1.0 / (dx * dx)
    off2 = inv_h2 * inv_h2
    pivmin = off2 * sys.float_info.min
    count = 0
    q = math.inf
    for d in (v[1:-1] + (2.0 * inv_h2 - sigma)).tolist():
        q = d - off2 / q
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
    return count


def _sine_ritz_values(interior: np.ndarray, dx: float, m: int) -> np.ndarray:
    """Eigenvalues of the 3-point Dirichlet Hamiltonian compressed to its
    lowest ``m`` sine modes.

    In the orthonormal basis s_j(i) = sqrt(2/P) sin(pi i j / P), P = N + 1 for
    N interior samples, the kinetic part is diagonal, 4 sin^2(pi j / 2P) / h^2,
    and the sampled potential is (C_|j-k| - C_(j+k)) / P with
    C_l = sum_i V_i cos(pi i l / P), read off one real FFT.
    """
    from numpy.fft import rfft
    from numpy.lib.stride_tricks import sliding_window_view

    p = len(interior) + 1
    c = rfft(np.concatenate(([0.0], interior)), 2 * p).real
    c = np.concatenate((c, c[p - 1 : 0 : -1]))[: 2 * m + 1]  # C_l = C_(2P - l) for l > P
    # C_|j-k| is the reversed window view of (C_(m-1) .. C_1, C_0 .. C_(m-1)) and
    # C_(j+k) the window view of C_2 .. C_2m, so only their difference is m x m
    a = sliding_window_view(np.concatenate((c[m - 1 : 0 : -1], c[:m])), m)[::-1]
    a = a - sliding_window_view(c[2:], m)
    a /= p
    a.flat[:: m + 1] += (4.0 / (dx * dx)) * np.sin(np.arange(1, m + 1) * (math.pi / (2 * p))) ** 2
    return np.linalg.eigvalsh(a)


def _dirichlet_levels(v: np.ndarray, dx: float, count: int) -> tuple:
    """Lowest ``count`` eigenvalues of the 3-point Hamiltonian with psi = 0 at
    both ends of the samples ``v``, each with a certified bound on its error.

    The Ritz values theta_k of the lowest m sine modes (:func:`_sine_ritz_values`)
    are upper bounds on the levels lambda_k (Cauchy interlacing).  Each is
    certified from below by one Sturm count at sigma = theta_k - delta_k with
    delta_k = max(1e-11 |theta_k|, 4 eps ||H||): at most k eigenvalues below
    sigma proves lambda_k in [sigma, theta_k].  m counts the modes of
    wavenumber up to 2 sqrt(-V_min) + 8, m = L (2 sqrt(-V_min) + 8) / pi for
    box length L, and is capped at 1024.  A level the basis cannot resolve (a
    well too sharp for the sine modes, or too deep for the cap) fails its
    count and is found by Sturm bisection instead: a gallop down from sigma,
    bounded by the previous level's lower bound (V_min for the ground level),
    then halving down to the resolution of the count, 4 eps ||H||.

    Returns (levels, bounds) as arrays with |level - lambda_k| <= bound.
    """
    interior = v[1:-1]
    inv_h2 = 1.0 / (dx * dx)
    h_norm = 4.0 * inv_h2 + float(np.max(np.abs(interior)))
    v_min = float(np.min(interior))
    p = len(interior) + 1
    m = math.ceil(p * dx * (2.0 * math.sqrt(max(0.0, -v_min)) + 8.0) / math.pi)
    m = min(max(m, count), len(interior), _BASIS_CEILING)
    theta = _sine_ritz_values(interior, dx, m)[:count]
    levels = np.empty(count)
    bounds = np.empty(count)
    lower = v_min  # every level lies above V_min: the kinetic part is positive definite
    floor = _CERT_NORM * sys.float_info.epsilon * h_norm
    for k, t in enumerate(theta.tolist()):
        width = max(_CERT_REL * abs(t), floor)
        if _sturm_count(v, dx, t - width) <= k:
            levels[k], bounds[k] = t, width
            lower = t - width
            continue
        hi = t - width  # more than k levels lie below it
        step = 4.0 * width  # gallop down from the Ritz value, then bisect
        while hi - step > lower and _sturm_count(v, dx, hi - step) > k:
            hi -= step
            step *= 4.0
        lower = max(lower, hi - step)
        while hi - lower > 2.0 * floor:
            mid = 0.5 * (lower + hi)
            if _sturm_count(v, dx, mid) <= k:
                lower = mid
            else:
                hi = mid
        levels[k], bounds[k] = 0.5 * (lower + hi), 0.5 * (hi - lower)
    return levels, bounds


def lowest_levels(potential: Grid1D, count: int, *, require_decay: bool = True) -> list[EigenEstimate]:
    """Lowest ``count`` eigenvalues of -psi'' + V psi = e psi on the grid.

    The 3-point finite-difference Hamiltonian with Dirichlet ends is solved on
    the grid and on its 2:1 and 4:1 subsamples (see :func:`_dirichlet_levels`),
    and two Richardson steps cancel the h^2 and h^4 error terms:
    (64 E_h - 20 E_2h + E_4h) / 45.  So that all three grids share both end
    points, up to 3 end samples are dropped first to make n - 1 a multiple of 4.

    By default the potential must decay at both grid ends (|V| < 1e-2) and only
    negative energies are returned; ``require_decay=False`` lifts both
    restrictions (hard-wall box semantics), which the harmonic-oscillator
    calibration uses.  Samples that are NaN or infinite raise
    :class:`NonFiniteSamples`.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    v = np.asarray(potential.values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise NonFiniteSamples(
            "%d of %d potential samples are NaN or infinite" % (np.count_nonzero(~np.isfinite(v)), len(v))
        )
    if require_decay and (abs(v[0]) >= 1e-2 or abs(v[-1]) >= 1e-2):
        raise InsufficientDecay(
            "potential ends at (%.3g, %.3g); need |V| < 1e-2" % (v[0], v[-1])
        )
    extra = (len(v) - 1) % 4
    v = v[extra // 2 : len(v) - (extra - extra // 2)]
    count = min(count, (len(v) - 1) // 4 - 1)  # interior size of the 4h grid
    e_ceiling = -1e-14 if require_decay else float(min(v[0], v[-1]))
    dx = potential.dx
    kept = min(count, _sturm_count(v, dx, e_ceiling))  # so no level above it is solved
    if kept == 0:
        return []
    e_h, d_h = _dirichlet_levels(v, dx, kept)
    e_2h, d_2h = _dirichlet_levels(v[::2], 2.0 * dx, kept)
    e_4h, d_4h = _dirichlet_levels(v[::4], 4.0 * dx, kept)
    one_step = (4.0 * e_h - e_2h) / 3.0
    two_step = (64.0 * e_h - 20.0 * e_2h + e_4h) / 45.0
    cert = (64.0 * d_h + 20.0 * d_2h + d_4h) / 45.0
    return [
        EigenEstimate(energy=float(e), error=float(abs(e - e1) + d))
        for e, e1, d in zip(two_step, one_step, cert)
    ]
