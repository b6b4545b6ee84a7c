"""Brute-force verification tool: a finite-difference bound-state
eigensolver in plain Python (certified root finding on the tridiagonal
characteristic polynomial: Sturm counts, Newton and Laguerre steps).

Nothing in this module knows about the analytic machinery it is used to
check; it sees only a potential sampled on a uniform grid, as a sequence of
floats, and its spacing.  Units are hbar = 2m = 1 so the eigenproblem reads
-psi'' + V psi = e psi.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import InsufficientDecay, NonFiniteSamples


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

_CERT_REL = 1e-11  # certified half-width relative to the level ...
_CERT_NORM = 4.0  # ... or in units of eps * ||H||, whichever is wider
_NEWTON_STEPS = 4  # passes a level may take from its starting value before it falls back
_LAGUERRE_STEPS = 40  # passes of the fallback before it only bisects
_COARSEST = 512  # fewest interior samples of a grid that only supplies starting values


# The 3-point Hamiltonian on N interior samples is the tridiagonal matrix H
# with diagonal d_i = V_i + 2/h^2 and off-diagonal -1/h^2 (off2 = 1/h^4 is
# its square).  One pass of the pivot recurrence q_i = d_i - sigma - off2/q_(i-1)
# of the LDL^T factorization of H - sigma gives the Sturm count, the number
# of negative pivots, which is the number of levels below sigma (Kahan 1966).
# Tiny pivots are replaced by -pivmin as in LAPACK stebz.  The same pass
# differentiates the recurrence in sigma (Li & Zeng, SIAM J. Sci. Comput. 15,
# 1994): with p_i = off2/q_(i-1), u_i = q_i'/q_i = (p_i u_(i-1) - 1)/q_i and
# r_i = q_i''/q_i = p_i (r_(i-1) - 2 u_(i-1)^2)/q_i, and since
# det(H - sigma) = prod q_i = prod (lambda_j - sigma),
#     s = sum_j 1/(lambda_j - sigma) = -sum u_i,
#     t = sum_j 1/(lambda_j - sigma)^2 = sum (u_i^2 - r_i).


def _count(diag: list, off2: float, sigma: float) -> int:
    """The Sturm count of ``sigma``: the levels below it."""
    pivmin = off2 * sys.float_info.min
    count = 0
    q = math.inf
    for d in diag:
        q = d - sigma - off2 / q
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
    return count


def _newton_pass(diag: list, off2: float, sigma: float) -> tuple:
    """(count, s): the Sturm count of ``sigma`` and s = sum_j 1/(lambda_j - sigma)."""
    pivmin = off2 * sys.float_info.min
    count = 0
    q = math.inf
    u = s = 0.0
    for d in diag:
        p = off2 / q
        q = d - sigma - p
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
        u = (p * u - 1.0) / q
        s -= u
    return count, s


def _laguerre_pass(diag: list, off2: float, sigma: float) -> tuple:
    """(count, s, t): :func:`_newton_pass` and t = sum_j 1/(lambda_j - sigma)^2."""
    pivmin = off2 * sys.float_info.min
    count = 0
    q = math.inf
    u = r = s = t = 0.0
    for d in diag:
        p = off2 / q
        q = d - sigma - p
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
        r = p * (r - 2.0 * u * u) / q
        u = (p * u - 1.0) / q
        s -= u
        t += u * u - r
    return count, s, t


def _tridiagonal(v, dx: float) -> tuple:
    """(diag, off2) of the 3-point Hamiltonian with psi = 0 at both ends of ``v``."""
    inv_h2 = 1.0 / (dx * dx)
    return [x + 2.0 * inv_h2 for x in v[1:-1]], inv_h2 * inv_h2


def _sturm_count(v, dx: float, sigma: float) -> int:
    """Number of eigenvalues below ``sigma`` of the 3-point Dirichlet
    Hamiltonian on the samples ``v``."""
    return _count(*_tridiagonal(v, dx), sigma)


def _bracket(seen: list, k: int) -> tuple:
    """The tightest of the (sigma, count) pairs ``seen`` around level k: the
    highest with at most k levels below it, and the lowest with more."""
    return max(p for p in seen if p[1] <= k), min(p for p in seen if p[1] > k)


def _certified(diag, off2, k, x, floor, seen):
    """(x, w) if two Sturm counts show level k within w = max(1e-11 |x|,
    4 eps ||H||) of ``x``, else None; both counts join ``seen``."""
    w = max(_CERT_REL * abs(x), floor)
    below, above = _count(diag, off2, x - w), _count(diag, off2, x + w)
    seen += [(x - w, below), (x + w, above)]
    return (x, w) if below <= k < above else None


def _newton(diag, off2, k, x, found, floor, seen):
    """Level k by Newton's method on det(H - sigma) / prod_(j<k) (lambda_j - sigma),
    the levels ``found`` below it deflated, from the starting value ``x``:
    at most :data:`_NEWTON_STEPS` passes, then the certificate.  None if an
    iterate leaves the bracket of level k, the steps do not settle, or the
    certificate fails."""
    last = 0.0
    for _ in range(_NEWTON_STEPS):
        (lo, _), (hi, _) = _bracket(seen, k)
        if not lo < x < hi or found and x <= found[-1]:  # deflation needs x above them
            return None
        count, s = _newton_pass(diag, off2, x)
        seen.append((x, count))
        s -= sum(1.0 / (e - x) for e in found)
        step = 1.0 / s if s else math.nan
        x += step
        # done once the step, or the error c step^2 left after a step of
        # quadratic convergence (c = step / last^2 from the two latest steps),
        # is well inside the certificate
        step, w = abs(step), max(_CERT_REL * abs(x), floor)
        if step <= 0.5 * w or step * step * step <= 0.25 * w * last * last:
            return _certified(diag, off2, k, x, floor, seen)
        last = step
    return None


def _isolate(diag, off2, k, floor, seen):
    """Level k by Sturm bisection until it alone lies in the bracket, then
    Laguerre steps inside it, each safeguarded by the bracket; bisection
    alone finishes a level the steps do not certify."""
    n = len(diag)
    x = None
    laguerre = 0
    while True:
        (lo, c_lo), (hi, c_hi) = _bracket(seen, k)
        if hi - lo <= 2.0 * floor:
            return 0.5 * (lo + hi), 0.5 * (hi - lo)
        if x is None or not lo < x < hi:
            x, last = 0.5 * (lo + hi), 0.0
        if c_lo < k or c_hi > k + 1 or laguerre == _LAGUERRE_STEPS:
            seen.append((x, _count(diag, off2, x)))
            x = None
            continue
        laguerre += 1
        count, s, t = _laguerre_pass(diag, off2, x)
        seen.append((x, count))
        # Laguerre's step for a polynomial of degree n with real roots moves
        # monotonically to the nearest root on the chosen side: right from
        # below level k, left from above it
        root = math.sqrt(max(0.0, (n - 1) * (n * t - s * s)))
        denom = s + root if count <= k else s - root
        step = n / denom if denom else math.nan
        x += step
        # done once the step, or the error c step^3 left after a step of cubic
        # convergence (c = step / last^3), is well inside the certificate
        step, w = abs(step), max(_CERT_REL * abs(x), floor)
        if step <= 0.5 * w or step * step * step * step <= 0.25 * w * last * last * last:
            level = _certified(diag, off2, k, x, floor, seen)
            if level:
                return level
        last = step


def _dirichlet_levels(v, dx: float, count: int, starts=()) -> tuple:
    """Lowest ``count`` eigenvalues of the 3-point Hamiltonian with psi = 0 at
    both ends of the samples ``v``, each with a certified bound on its error.

    The levels are found in order.  Level k with a starting value ``starts[k]``
    (the prediction from a coarser grid) takes the fast path, :func:`_newton`;
    a level without one, or whose fast path fails, is found by
    :func:`_isolate`.  Either way its certificate is two Sturm counts with
    count(x - w) <= k < count(x + w), w = max(1e-11 |x|, 4 eps ||H||), or,
    where bisection finishes it, a bracket at the resolution of the count,
    4 eps ||H||.  Every count taken on the grid brackets the later levels,
    starting from V_min (the kinetic part is positive definite) and the
    Gershgorin bound 4/h^2 + V_max.

    Returns (levels, bounds) as lists with |level - lambda_k| <= bound.
    """
    diag, off2 = _tridiagonal(v, dx)
    interior = v[1:-1]
    floor = _CERT_NORM * sys.float_info.epsilon * (4.0 / (dx * dx) + max(map(abs, interior)))
    seen = [(min(interior), 0), (4.0 / (dx * dx) + max(interior), len(interior))]
    levels, bounds = [], []
    for k in range(count):
        level = None
        if k < len(starts):
            level = _newton(diag, off2, k, starts[k], levels, floor, seen)
        x, w = level or _isolate(diag, off2, k, floor, seen)
        levels.append(x)
        bounds.append(w)
    return levels, bounds


def lowest_levels(values, dx: float, count: int, *, require_decay: bool = True) -> list[EigenEstimate]:
    """Lowest ``count`` eigenvalues of -psi'' + V psi = e psi for the samples
    ``values`` of V on a uniform grid of spacing ``dx``.

    The 3-point finite-difference Hamiltonian with Dirichlet ends is solved on
    the grid and on its 2:1 and 4:1 subsamples (see :func:`_dirichlet_levels`),
    and two Richardson steps cancel the h^2 and h^4 error terms:
    (64 E_h - 20 E_2h + E_4h) / 45.  So that all three grids share both end
    points, up to 3 end samples are dropped first to make n - 1 a multiple of 4.
    The grids are solved coarse to fine, each level from the Richardson
    prediction of the two grids below it (E_2h + (E_2h - E_4h) / 4 for h).
    Coarser 2:1 subsamples, while they keep 512 interior samples and twice as
    many as there are levels, are solved first for starting values alone.

    By default the potential must decay at both grid ends (|V| < 1e-2) and only
    negative energies are returned; ``require_decay=False`` lifts both
    restrictions (hard-wall box semantics), which the harmonic-oscillator
    calibration uses.  Samples that are NaN or infinite raise
    :class:`NonFiniteSamples`.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    v = list(map(float, values))
    bad = len(v) - sum(map(math.isfinite, v))
    if bad:
        raise NonFiniteSamples("%d of %d potential samples are NaN or infinite" % (bad, len(v)))
    if require_decay and (abs(v[0]) >= 1e-2 or abs(v[-1]) >= 1e-2):
        raise InsufficientDecay(
            "potential ends at (%.3g, %.3g); need |V| < 1e-2" % (v[0], v[-1])
        )
    extra = (len(v) - 1) % 4
    v = v[extra // 2 : len(v) - (extra - extra // 2)]
    count = min(count, (len(v) - 1) // 4 - 1)  # interior size of the 4h grid
    e_ceiling = -1e-14 if require_decay else min(v[0], v[-1])
    kept = min(count, _sturm_count(v, dx, e_ceiling))  # so no level above it is solved
    if kept == 0:
        return []
    grids = [v, v[::2], v[::4]]
    while len(grids[-1]) // 2 - 1 >= max(_COARSEST, 2 * kept):
        grids.append(grids[-1][::2])
    solved = []  # (levels, bounds) of each grid, coarsest first
    for g in reversed(range(len(grids))):
        starts = ()
        if len(solved) > 1:
            starts = [a + (a - b) / 4.0 for a, b in zip(solved[-1][0], solved[-2][0])]
        solved.append(_dirichlet_levels(grids[g], dx * 2 ** g, kept, starts))
    (e_4h, d_4h), (e_2h, d_2h), (e_h, d_h) = solved[-3:]
    estimates = []
    for e1, e2, e4, c1, c2, c4 in zip(e_h, e_2h, e_4h, d_h, d_2h, d_4h):
        two_step = (64.0 * e1 - 20.0 * e2 + e4) / 45.0
        one_step = (4.0 * e1 - e2) / 3.0
        cert = (64.0 * c1 + 20.0 * c2 + c4) / 45.0
        estimates.append(EigenEstimate(energy=two_step, error=abs(two_step - one_step) + cert))
    return estimates
