"""Brute-force verification tools: a finite-difference bound-state
eigensolver, adaptive quadrature, and exact-ish sign-change counting.

Nothing in this module knows about the analytic machinery it is used to
check; it sees only sampled potentials and callables.  Units are hbar = 2m = 1
so the eigenproblem reads -psi'' + V psi = e psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousZero, InsufficientDecay, NotConverged


@dataclass(frozen=True)
class Grid1D:
    """A uniform 1D grid, optionally carrying sampled values."""

    x_min: float
    x_max: float
    n: int
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 256:
            raise ValueError("grid needs at least 256 points")
        if not self.x_max > self.x_min:
            raise ValueError("empty grid range")
        if self.values is not None and len(self.values) != self.n:
            raise ValueError("values length does not match n")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)


@dataclass(frozen=True)
class EigenEstimate:
    """One oracle level.  ``nodes`` is its index, which is the node count of
    its eigenfunction; ``error`` is the gap between the one-step and two-step
    Richardson values.  It estimates truncation only, not the roundoff of
    order 1e-16 / h^2 that dominates on very fine grids."""

    energy: float
    nodes: int
    error: float


# ---------------------------------------------------------------------------
# finite-difference eigensolver
# ---------------------------------------------------------------------------

def _dirichlet_levels(v: np.ndarray, dx: float, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the 3-point Hamiltonian with psi = 0 at
    both ends of the samples ``v``, by Sturm bisection (LAPACK stebz)."""
    from scipy.linalg import eigh_tridiagonal

    inv_h2 = 1.0 / (dx * dx)
    diag = 2.0 * inv_h2 + v[1:-1]
    off = np.full(len(diag) - 1, -inv_h2)
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, count - 1))


def lowest_levels(potential: Grid1D, count: int, *, require_decay: bool = True) -> list[EigenEstimate]:
    """Lowest ``count`` eigenvalues of -psi'' + V psi = e psi on the grid.

    The 3-point finite-difference Hamiltonian with Dirichlet ends is solved on
    the grid and on its 2:1 and 4:1 subsamples, and two Richardson steps
    cancel the h^2 and h^4 error terms: (64 E_h - 20 E_2h + E_4h) / 45.  So
    that all three grids share both end points, up to 3 end samples are
    dropped first to make n - 1 a multiple of 4.

    By default the potential must decay at both grid ends (|V| < 1e-2) and only
    negative energies are returned; ``require_decay=False`` lifts both
    restrictions (hard-wall box semantics), which the harmonic-oscillator
    calibration uses.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if potential.values is None:
        raise ValueError("potential grid carries no sampled values")
    v = np.asarray(potential.values, dtype=float)
    if require_decay and (abs(v[0]) >= 1e-2 or abs(v[-1]) >= 1e-2):
        raise InsufficientDecay(
            "potential ends at (%.3g, %.3g); need |V| < 1e-2" % (v[0], v[-1])
        )
    extra = (len(v) - 1) % 4
    v = v[extra // 2 : len(v) - (extra - extra // 2)]
    count = min(count, (len(v) - 1) // 4 - 1)  # interior size of the 4h grid
    e_ceiling = -1e-14 if require_decay else float(min(v[0], v[-1]))
    dx = potential.dx
    e_h = _dirichlet_levels(v, dx, count)
    kept = int(np.count_nonzero(e_h < e_ceiling))
    if kept == 0:
        return []
    e_h = e_h[:kept]
    e_2h = _dirichlet_levels(v[::2], 2.0 * dx, kept)
    e_4h = _dirichlet_levels(v[::4], 4.0 * dx, kept)
    one_step = (4.0 * e_h - e_2h) / 3.0
    two_step = (64.0 * e_h - 20.0 * e_2h + e_4h) / 45.0
    return [
        EigenEstimate(energy=float(e), nodes=k, error=float(abs(e - e1)))
        for k, (e, e1) in enumerate(zip(two_step, one_step))
    ]


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def adaptive_quadrature(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Integral of ``f`` over (a, b) with absolute error below ``tol``.

    Infinite limits are mapped to a finite interval by the tangent
    substitution x = tan(t) before handing off to adaptive Gauss-Kronrod.
    """
    from scipy.integrate import quad

    if math.isinf(a) or math.isinf(b):
        ta = math.atan(a) if not math.isinf(a) else math.copysign(math.pi / 2, a)
        tb = math.atan(b) if not math.isinf(b) else math.copysign(math.pi / 2, b)

        def g(t):
            x = math.tan(t)
            return f(x) * (1.0 + x * x)

        out = quad(g, ta, tb, epsabs=tol, epsrel=1.49e-12, limit=400, full_output=1)
    else:
        out = quad(f, a, b, epsabs=tol, epsrel=1.49e-12, limit=400, full_output=1)
    val, err = out[0], out[1]
    if err > max(tol, 1e-13 * abs(val)) * 10.0:
        raise NotConverged("quadrature error estimate %g exceeds tolerance %g" % (err, tol))
    return val


# ---------------------------------------------------------------------------
# sign changes
# ---------------------------------------------------------------------------

def count_sign_changes(f, xs, zero_tol: float = 1e-12) -> int:
    """Number of strict sign changes of ``f`` over the sample points ``xs``.

    A sample whose magnitude stays below ``zero_tol`` counts as a crossing
    only when its definite-signed neighbours disagree (a grazing near-zero
    between same-signed neighbours is excluded); two or more consecutive
    sub-tolerance samples are reported as :class:`AmbiguousZero`.  Each
    crossing between definite samples is located by local bisection, which
    confirms the bracket does not hide a sub-tolerance plateau.

    ``f`` is called once on the whole sample array when it accepts one and
    returns one value per sample; otherwise it is called per sample.
    """
    xs = np.asarray(xs, dtype=float)
    try:
        vals = np.asarray(f(xs), dtype=float)
    except (TypeError, ValueError):
        vals = None
    if vals is None or vals.shape != xs.shape:
        vals = np.asarray([f(x) for x in xs], dtype=float)
    tiny = np.abs(vals) <= zero_tol
    if np.any(tiny[1:] & tiny[:-1]):
        raise AmbiguousZero("|f| <= %g over an interval of samples" % zero_tol)

    definite = np.flatnonzero(~tiny)
    positive = vals[definite] > 0
    flips = np.flatnonzero(positive[1:] != positive[:-1])
    for i in flips:
        _locate_crossing(f, xs[definite[i]], xs[definite[i + 1]], zero_tol)
    return len(flips)


def _locate_crossing(f, a: float, b: float, zero_tol: float) -> float:
    """Bisect a sign-changing bracket down to the crossing point.

    Raises :class:`AmbiguousZero` when the bracket collapses onto a
    sub-tolerance plateau wider than the location resolution.
    """
    fa = f(a)
    plateau = 0
    for _ in range(80):
        if abs(b - a) <= 1e-13 * max(1.0, abs(a), abs(b)):
            break
        m = 0.5 * (a + b)
        fm = f(m)
        if abs(fm) <= zero_tol:
            plateau += 1
            if plateau >= 40:
                raise AmbiguousZero("|f| <= %g on a plateau near %.6g" % (zero_tol, m))
        if fa * fm < 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)
