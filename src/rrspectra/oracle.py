"""Brute-force verification tools: a Numerov bound-state eigensolver,
adaptive quadrature, and exact-ish sign-change counting.

Nothing in this module knows about the analytic machinery it is used to
check; it sees only sampled potentials and callables.  Units are hbar = 2m = 1
so the eigenproblem reads -psi'' + V psi = e psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import _kernels
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
    energy: float
    nodes: int
    bracket_width: float


# ---------------------------------------------------------------------------
# Numerov shooting
# ---------------------------------------------------------------------------

class _Shooter:
    """One potential, reusable sweep buffers, bidirectional matching."""

    def __init__(self, v: np.ndarray, dx: float):
        self.v = np.asarray(v, dtype=float)
        self.dx = dx
        self.n = len(v)
        self._buf_l = np.empty(self.n)
        self._buf_r = np.empty(self.n)

    def _t(self, e: float) -> np.ndarray:
        return (self.dx * self.dx / 12.0) * (self.v - e)

    def nodes(self, e: float) -> int:
        """Node count of the solution regular at the left end."""
        t = self._t(e)
        return _kernels.sweep(t, 0.0, 1e-8, self._buf_l)

    def match_index(self, e: float) -> int:
        """Grid index of the classical turning point nearest x = 0."""
        below = self.v - e < 0.0
        flips = np.nonzero(below[:-1] != below[1:])[0]
        mid = (self.n - 1) // 2
        if len(flips) == 0:
            return mid
        idx = flips[np.argmin(np.abs(flips - mid))]
        return int(min(max(idx, 2), self.n - 3))

    def mismatch(self, e: float, im: int) -> float:
        """Numerov-consistent matching defect at index ``im``.

        Left and right solutions are normalized to 1 at the matching point and
        plugged into the three-term recurrence there; the residue vanishes at
        an eigenvalue of the truncated problem.
        """
        t = self._t(e)
        _kernels.sweep(t[: im + 2], 0.0, 1e-8, self._buf_l)
        tr = t[im - 1 :][::-1].copy()
        _kernels.sweep(tr, 0.0, 1e-8, self._buf_r)
        nr = len(tr)
        psi_l_m = self._buf_l[im]
        psi_r_m = self._buf_r[nr - 2]
        if psi_l_m == 0.0 or psi_r_m == 0.0:
            return math.inf
        lm1 = self._buf_l[im - 1] / psi_l_m
        rp1 = self._buf_r[nr - 3] / psi_r_m
        return (1.0 - t[im + 1]) * rp1 + (1.0 - t[im - 1]) * lm1 - (2.0 + 10.0 * t[im])

    def wavefunction(self, e: float) -> np.ndarray:
        """Matched, max-normalized eigenfunction at (approximate) energy ``e``."""
        t = self._t(e)
        im = self.match_index(e)
        _kernels.sweep(t[: im + 2], 0.0, 1e-8, self._buf_l)
        tr = t[im - 1 :][::-1].copy()
        _kernels.sweep(tr, 0.0, 1e-8, self._buf_r)
        nr = len(tr)
        left = self._buf_l[: im + 1].copy()
        right = self._buf_r[:nr][::-1].copy()
        scale = left[im] / right[1]
        psi = np.concatenate([left, scale * right[2:]])
        m = np.max(np.abs(psi))
        return psi / m if m > 0 else psi


def numerov_spectrum(
    potential: Grid1D,
    count: int,
    tol: float = 1e-8,
    *,
    require_decay: bool = True,
    seeds=None,
    max_iter: int = 240,
) -> list[EigenEstimate]:
    """Lowest ``count`` eigenvalues of -psi'' + V psi = e psi on the grid.

    Bidirectional Numerov integration with node-count bracketing and bisection
    on the matching defect at the turning point nearest x = 0.  By default the
    potential must decay at both grid ends (|V| < 1e-2) and only negative
    energies are searched; ``require_decay=False`` lifts both restrictions
    (hard-wall box semantics), which the harmonic-oscillator calibration uses.

    ``seeds`` optionally provides starting energy brackets; every seed is
    still verified against the node counter, so a wrong seed cannot bias the
    result beyond costing time.
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
    shooter = _Shooter(v, potential.dx)
    e_floor = float(np.min(v))
    e_ceiling = -1e-14 if require_decay else float(min(v[0], v[-1]))
    if e_ceiling <= e_floor:
        return []

    n_cache: dict[float, int] = {}

    def nodes(e: float) -> int:
        if e not in n_cache:
            n_cache[e] = shooter.nodes(e)
        return n_cache[e]

    available = nodes(e_ceiling)
    results: list[EigenEstimate] = []
    lo_prev = e_floor
    for k in range(min(count, available)):
        lo, hi = None, None
        if seeds is not None and k < len(seeds):
            guess = float(seeds[k])
            width = max(abs(guess) * 0.05, 10 * tol)
            a, b = guess - width, guess + width
            a, b = max(a, e_floor), min(b, e_ceiling)
            if nodes(a) <= k < nodes(b):
                lo, hi = a, b
        if lo is None:
            lo, hi = lo_prev, e_ceiling
            if not (nodes(lo) <= k < nodes(hi)):
                lo, hi = e_floor, e_ceiling
        it = 0
        while nodes(hi) > k + 1 or nodes(lo) < k:
            mid = 0.5 * (lo + hi)
            if nodes(mid) <= k:
                lo = mid
            else:
                hi = mid
            it += 1
            if it > max_iter:
                raise NotConverged("node bracketing stalled at level %d" % k)
        # now nodes(lo) == k, nodes(hi) == k+1: exactly one eigenvalue inside
        coarse = max(tol * 64.0, abs(0.5 * (lo + hi)) * 1e-7)
        while hi - lo > coarse and it < max_iter:
            mid = 0.5 * (lo + hi)
            if nodes(mid) <= k:
                lo = mid
            else:
                hi = mid
            it += 1
        im = shooter.match_index(0.5 * (lo + hi))
        g_lo = shooter.mismatch(lo, im)
        g_hi = shooter.mismatch(hi, im)
        if math.isfinite(g_lo) and math.isfinite(g_hi) and g_lo * g_hi < 0:
            while hi - lo > tol and it < max_iter:
                mid = 0.5 * (lo + hi)
                g_mid = shooter.mismatch(mid, im)
                if not math.isfinite(g_mid):
                    break
                if g_mid * g_lo <= 0:
                    hi = mid
                else:
                    lo, g_lo = mid, g_mid
                it += 1
        while hi - lo > tol and it < max_iter:
            mid = 0.5 * (lo + hi)
            if nodes(mid) <= k:
                lo = mid
            else:
                hi = mid
            it += 1
        if hi - lo > tol:
            raise NotConverged("bisection for level %d stopped at width %g" % (k, hi - lo))
        results.append(EigenEstimate(energy=0.5 * (lo + hi), nodes=k, bracket_width=hi - lo))
        lo_prev = hi
    return results


def numerov_wavefunction(potential: Grid1D, energy: float) -> np.ndarray:
    """Matched eigenfunction samples for an already-located eigenvalue."""
    shooter = _Shooter(np.asarray(potential.values, dtype=float), potential.dx)
    return shooter.wavefunction(energy)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def adaptive_quadrature(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Integral of ``f`` over (a, b) with absolute error below ``tol``.

    Infinite limits are mapped to a finite interval by the tangent
    substitution x = tan(t) before handing off to adaptive Gauss-Kronrod.
    """
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
