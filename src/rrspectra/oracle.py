"""Brute-force verification tool: a bound-state eigensolver in plain Python
on Numerov's fourth-order scheme.  It finds roots of the determinant of the
tridiagonal Numerov matrix with one end condition, transparent ends, and one
iteration, Laguerre steps, and certifies each level by Sturm counts.

Nothing in this module knows about the analytic machinery it is used to
check; it sees only the samples of a potential Q and a positive weight W on
a uniform grid, as sequences of floats, and its spacing.  Units are
hbar = 2m = 1 so the eigenproblem reads -phi'' + Q phi = e W phi; with
W = 1 it is -psi'' + V psi = e psi.
"""

from __future__ import annotations

import math
import operator
import sys
from itertools import islice
from typing import NamedTuple

from .errors import InsufficientDecay, NonFiniteSamples, StepFailure


class EigenEstimate(NamedTuple):
    """One oracle level.  ``error`` is the gap between the one-step and two-step
    Richardson values, which estimates truncation, plus the propagated solver
    certificate (1024 d_h + 80 d_2h + d_4h) / 945.  It does not see the
    roundoff of order 1e-16 / h^2 that dominates on very fine grids.
    ``ratio`` is the observed-order ratio (E_2h - E_4h) / (E_h - E_2h), which
    tends to 16 where the h^4 expansion holds (Roache, J. Fluids Eng. 116,
    1994); it is infinite where E_h = E_2h."""

    energy: float
    error: float
    ratio: float


class Grid(NamedTuple):
    """One solved grid: its lowest levels, their certified bounds, and its
    Sturm count at the ceiling, the number of levels it has below it."""

    levels: list
    bounds: list
    top: int


_CERT_REL = 1e-11  # certified half-width relative to the level ...
_CERT_NORM = 4.0  # ... or in units of eps * ||T||, whichever is wider
_LAGUERRE_STEPS = 40  # Laguerre passes a level may take before it only bisects
_CEILING = -1e-14  # highest level solved with transparent ends: rho is not real at e >= 0
_GUARD = 0.5  # largest h^2 max_j(Q_j - bottom W_j) / 12 of a grid, so that w_j > 1/2


# Numerov's scheme (Numerov, MNRAS 84, 1924, 592) for -phi'' + (Q - e W) phi = 0
# on N interior samples, written in y_j = w_j phi_j with a_j = Q_j - sigma W_j
# and w_j = 1 - h^2 a_j/12, is the symmetric tridiagonal matrix T(sigma) with
# diagonal 2/h^2 + g_j(sigma), g_j = a_j/w_j, and off-diagonal -1/h^2
# (off2 = 1/h^4 is its square); a level is a sigma with T(sigma) singular.
# One pass of the pivot recurrence q_i = 2/h^2 + g_i - off2/q_(i-1) of the
# LDL^T factorization of T(sigma) gives the Sturm count, the number of
# negative pivots (Kahan 1966).  Tiny pivots are replaced by -pivmin as in
# LAPACK stebz.  g_j' = -W_j/w_j^2 < 0, so T(sigma) decreases in the Loewner
# order and the count, the number of levels below sigma, is monotone.  At
# the bottom, min(0, min_j Q_j/W_j), every a_j >= 0, so T is positive
# definite and counts 0 there; the grid guard h^2 max_j(Q_j - bottom W_j)/12
# < 1/2 keeps w_j > 1/2 for every sigma from the bottom to 0.
# The same pass differentiates the recurrence in sigma (Li & Zeng, SIAM J.
# Sci. Comput. 15, 1994): with p_i = off2/q_(i-1),
# u_i = q_i'/q_i = (p_i u_(i-1) + g_i')/q_i and
# r_i = q_i''/q_i = (p_i (r_(i-1) - 2 u_(i-1)^2) + g_i'')/q_i, where
# g' = -W/w^2 and g'' = (h^2/6) W^2/w^3, and since det T(sigma) = prod q_i,
#     s = -(ln det)' = -sum u_i,   t = -(ln det)'' = sum (u_i^2 - r_i).
#
# Transparent ends (Arnold, VLSI Design 6, 1998; Ehrhardt & Arnold, Riv. Mat.
# Univ. Parma, 2001) take the ghost value outside each end from the exact
# discrete solution where Q = 0 and W = 1.  There w is constant, so phi and y decay
# alike, g = -e with e = sigma/(1 + h^2 sigma/12), and y_(j-1) = rho y_j with
# rho + 1/rho = 2 - h^2 e and 0 < rho < 1, so the first and last diagonal
# entries gain end(sigma) = -rho(e)/h^2.  e increases with sigma and the end
# entries decrease with it, so T(sigma) still decreases in the Loewner order
# and the certificate below holds as it is.  Each pass carries the first end
# in its starting state, as a ghost step before step 0 with pivot
# q = -off2/end, u = -end'/end and r = 2 (end'/end)^2 - end''/end, which gives
# step 0 the entry 2/h^2 + g_0 + end and its derivatives; it peels the last
# step to add the second.  s and t then differentiate the determinant of the
# actual problem, which is not a polynomial in sigma.


def _ends(h2: float, sigma: float) -> tuple:
    """(end, end', end''): the term -rho/h^2 that a transparent end adds to its
    diagonal entry at ``sigma`` < 0, and its sigma-derivatives.  With
    e = sigma/(1 + h^2 sigma/12), s = -h^2 e/2 and D = sqrt(s (2+s)),
    rho = 1/(1 + s + D), in which nothing cancels as e -> 0-, and in e
    rho' = h^2 rho/(2D) and rho'' = h^4/(4 D^3); the chain rule takes
    e' = z^2 and e'' = -(h^2/6) z^3 with z = 1/(1 + h^2 sigma/12)."""
    z = 1.0 / (1.0 + h2 * sigma / 12.0)
    s = -0.5 * h2 * sigma * z
    root = math.sqrt(s * (2.0 + s))
    rho = 1.0 / (1.0 + s + root)
    d1, d2 = -0.5 * rho / root, -0.25 * h2 / (root * root * root)
    z2 = z * z
    return -rho / h2, d1 * z2, (d2 * z2 - d1 * h2 * z / 6.0) * z2


def _span(q, w) -> tuple:
    """(r_j = Q_j/W_j, bottom = min(0, min_j r_j), max_j(Q_j - bottom W_j))."""
    r = list(map(operator.truediv, q, w))
    low = min(0.0, min(r))
    return r, low, max(x - low * y for x, y in zip(q, w))


def keeps_guard(values, weights, dx: float) -> bool:
    """Whether the samples ``values`` of Q and ``weights`` of W at spacing
    ``dx`` keep the guard (:data:`_GUARD`), which :func:`lowest_levels` asks of
    each grid it solves."""
    return dx * dx / 12.0 * _span(values[1:-1], weights[1:-1])[2] < _GUARD


class _Hamiltonian:
    """Numerov's matrix on the interior samples ``q`` and ``w`` of Q and W
    (the end samples are ghosts), held for the passes as r_j = Q_j/W_j,
    d_j = (1 - c Q_j)/W_j and 1/W_j: g_j = (r_j - sigma)/(d_j + c sigma) and
    W_j/w_j = 1/(d_j + c sigma).  two = 2/h^2, c = h^2/12, off2 = 1/h^4,
    h2 = h^2, and the certificate's floor 4 eps ||T||, ||T|| at most
    4/h^2 + max |g_j| for sigma from the bottom to 0.  ``bottom`` and ``top``
    are the (sigma, count) pairs that bracket every level: none lies below
    min(0, min_j r_j), where every g_j >= 0, and ``top`` is the Sturm count
    at the ceiling.  A grid that breaks the guard (:data:`_GUARD`) raises
    :class:`StepFailure` before any count."""

    def __init__(self, q, w, dx: float):
        h2 = dx * dx
        c = h2 / 12.0
        q, w = q[1:-1], w[1:-1]
        self.r, low, span = _span(q, w)
        stiff = c * span
        if not stiff < _GUARD:
            raise StepFailure("a Numerov grid of spacing %.6g has h^2 max(Q - bottom W)/12 = %.3g;"
                              " it must be below %g" % (dx, stiff, _GUARD))
        self.d = [(1.0 - c * x) / y for x, y in zip(q, w)]
        self.iw = [1.0 / y for y in w]
        self.two = 2.0 / h2
        self.c = c
        self.off2 = 1.0 / (h2 * h2)
        self.h2 = h2
        g_max = max(span / (1.0 - stiff), -min(0.0, min(q)))  # and |a_j| <= -min Q where a_j < 0
        self.floor = _CERT_NORM * sys.float_info.epsilon * (4.0 / h2 + g_max)
        self.bottom = (low, 0)
        self.top = (_CEILING, _count(self, _CEILING))


def _count(ham: _Hamiltonian, sigma: float) -> int:
    """The Sturm count of ``sigma``: the levels below it."""
    end = _ends(ham.h2, sigma)[0]
    rs, ds, two, off2 = ham.r, ham.d, ham.two, ham.off2
    cs = ham.c * sigma
    pivmin = off2 * sys.float_info.min
    count = 0
    q = -off2 / end
    for x, y in zip(islice(rs, len(rs) - 1), ds):
        q = two + (x - sigma) / (y + cs) - off2 / q
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
    return count + (two + (rs[-1] - sigma) / (ds[-1] + cs) + end - off2 / q < pivmin)


def _laguerre_pass(ham: _Hamiltonian, sigma: float) -> tuple:
    """(count, s, t): the Sturm count of ``sigma``, s = -(ln det T(sigma))'
    and t = -(ln det T(sigma))''."""
    end, end1, end2 = _ends(ham.h2, sigma)
    rs, ds, iws, two, off2 = ham.r, ham.d, ham.iw, ham.two, ham.off2
    cs, c2 = ham.c * sigma, 2.0 * ham.c
    pivmin = off2 * sys.float_info.min
    count = 0
    # iq = 1/q, and a = r - u^2, so that s sums -u and t sums -a
    iq, u = -end / off2, -end1 / end
    uu = u * u
    a = uu - end2 / end
    s = t = 0.0
    for x, y, iy in zip(islice(rs, len(rs) - 1), ds, iws):
        iw = 1.0 / (y + cs)  # W/w
        p = off2 * iq
        q = two + (x - sigma) * iw - p
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
        iq = 1.0 / q
        g1 = iy * iw * iw  # -g' = W/w^2; g'' = 2c W^2/w^3
        a = (p * (a - uu) + c2 * iw * g1) * iq
        u = (p * u - g1) * iq
        uu = u * u
        a -= uu
        s += u
        t += a
    iw = 1.0 / (ds[-1] + cs)
    p = off2 * iq
    q = two + (rs[-1] - sigma) * iw + end - p
    if q < pivmin:
        count += 1
        if q > -pivmin:
            q = -pivmin
    g1 = iws[-1] * iw * iw
    r = (p * (a - uu) + c2 * iw * g1 + end2) / q
    u = (p * u - g1 + end1) / q
    return count, -s - u, u * u - r - t


def _bracket(seen: list, k: int) -> tuple:
    """The tightest of the (sigma, count) pairs ``seen`` around level k: the
    highest with at most k levels below it, and the lowest with more."""
    return max(p for p in seen if p[1] <= k), min(p for p in seen if p[1] > k)


def _certified(ham, k, x, seen):
    """(x, w) if Sturm counts show level k within w = max(1e-11 |x|,
    4 eps ||T||) of ``x``, else None.  A side of [x - w, x + w] that the
    bracket in ``seen`` already reaches is settled by it; the other takes a
    count at x - w or x + w, which joins ``seen``."""
    w = max(_CERT_REL * abs(x), ham.floor)
    (lo, _), (hi, _) = _bracket(seen, k)
    if not (x - w < hi and lo < x + w):  # also for a NaN x
        return None
    if lo < x - w:
        below = _count(ham, x - w)
        seen.append((x - w, below))
        if below > k:
            return None
    if hi > x + w:
        above = _count(ham, x + w)
        seen.append((x + w, above))
        if above <= k:
            return None
    return x, w


def _isolate(ham, k, seen, start, gap):
    """Level k by Laguerre steps inside the bracket of the counts ``seen``,
    each from a point whose count is k or k + 1, where level k is the
    nearest level on the side the step takes: from ``start`` at once, else,
    or once an iterate leaves the bracket or passes a neighbouring level,
    from the bracket's midpoint after Sturm bisection has isolated level k.
    A certificate that fails moves an end of the bracket just past the
    iterate, and the next step starts from that end.
    After :data:`_LAGUERRE_STEPS` passes bisection alone finishes the level.
    ``gap``, the distance from ``start`` to the nearest other level or
    threshold, scales the error left by the first step."""
    n = len(ham.r)
    x, last, passes, bisect = start, 0.0, 0, False
    while True:
        (lo, c_lo), (hi, c_hi) = _bracket(seen, k)
        if hi - lo <= 2.0 * ham.floor:
            return 0.5 * (lo + hi), 0.5 * (hi - lo)
        if x is None or not lo <= x <= hi:
            x, last, gap = 0.5 * (lo + hi), 0.0, 0.0
            bisect = c_lo < k or c_hi > k + 1
        if bisect or passes == _LAGUERRE_STEPS:
            seen.append((x, _count(ham, x)))
            x = None
            continue
        passes += 1
        count, s, t = _laguerre_pass(ham, x)
        seen.append((x, count))
        if not k <= count <= k + 1:
            x = None
            continue
        # Laguerre's step for a polynomial of degree n with real roots moves
        # monotonically to the nearest root on the chosen side: right from
        # below level k, left from above it.  det T(sigma) is a rational
        # function whose poles, at w_j = 0, the guard keeps far below V_min,
        # and the bracket catches a step that goes astray
        root = math.sqrt(max(0.0, (n - 1) * (n * t - s * s)))
        denom = s + root if count == k else s - root
        step = n / denom if denom else math.nan
        x += step
        # done once the step, or the error c step^3 left after a step of cubic
        # convergence, is well inside the certificate: c = step / last^3 from
        # the two latest steps, or 1 / gap^2 after the first from a start
        step, w = abs(step), max(_CERT_REL * abs(x), ham.floor)
        if step <= 0.5 * w or step ** 4 <= 0.25 * w * (last ** 3 if last else step * gap * gap):
            level = _certified(ham, k, x, seen)
            if level:
                return level
            (lo, _), (hi, _) = _bracket(seen, k)
            if lo - w <= x <= hi + w:
                # a count of the failed certificate moved an end of the bracket
                # just past x: step on from that end, next to the level
                x = min(max(x, lo), hi)
        last = step


def _levels(ham: _Hamiltonian, count: int, starts=()) -> tuple:
    """Lowest ``count`` levels of ``ham`` (at most its count at the ceiling),
    each with a certified bound on its error.

    The levels are found in order, each by :func:`_isolate`, from its
    starting value ``starts[k]`` (the prediction from coarser grids) where
    there is one.  Its certificate is count(a) <= k < count(b) for some a, b
    within w = max(1e-11 |x|, 4 eps ||T||) of x, or, where bisection
    finishes it, a bracket at the resolution of the count, 4 eps ||T||.
    Every count taken on the grid brackets the later levels, starting from
    the Hamiltonian's ``bottom`` and ``top``.

    Returns (levels, bounds) as lists with |level - lambda_k| <= bound.
    """
    seen = [ham.bottom, ham.top]
    levels, bounds = [], []
    for k in range(count):
        start, gap = None, 0.0
        if k < len(starts):
            start = starts[k]
            # the nearest of threshold and the neighbouring starting values
            gap = min(abs(y - start) for y in [0.0, *starts[max(k - 1, 0):k], *starts[k + 1:k + 2]])
        x, w = _isolate(ham, k, seen, start, gap)
        levels.append(x)
        bounds.append(w)
    return levels, bounds


def _predicted(solved: list) -> list:
    """Starting values for the next finer grid from the levels ``solved`` on
    the grids below it, coarsest first: the levels of the one grid below,
    E_2h + (E_2h - E_4h)/16 from two, and (1104 E_2h - 81 E_4h + E_8h)/1024,
    which also cancels the h^6 term, from three or more."""
    if len(solved) >= 3:
        return [(1104.0 * a - 81.0 * b + c) / 1024.0 for a, b, c in zip(*solved[:-4:-1])]
    if len(solved) == 2:
        return [a + (a - b) / 16.0 for a, b in zip(solved[1], solved[0])]
    return list(solved[0]) if solved else []


def lowest_levels(values, weights, dx: float, count: int, *, coarser: tuple = ()) -> tuple:
    """(estimates, grids): the lowest ``count`` eigenvalues of
    -phi'' + Q phi = e W phi for the samples ``values`` of Q and ``weights``
    of W > 0 (1 for -psi'' + V psi = e psi) on a uniform grid of spacing
    ``dx``, as :class:`EigenEstimate` records, and every grid solved for
    them, coarsest first, as :class:`Grid` records.

    The ends are transparent, exact where Q = 0 and W = 1 outside the grid,
    so the problem must decay at both (|Q| and |W - 1| below 1e-2, else
    :class:`InsufficientDecay`) and only levels below -1e-14 are returned.
    Samples that are NaN or infinite raise :class:`NonFiniteSamples`.

    Numerov's matrix is solved on the grid and on its 2:1 and 4:1
    subsamples, each level by Laguerre steps certified by Sturm counts (see
    :func:`_levels`), and two Richardson steps cancel the h^4 and h^6 error
    terms: (1024 E_h - 80 E_2h + E_4h) / 945.  Each of these three grids must
    keep the guard of :class:`_Hamiltonian`, so that Numerov's denominators
    w_j stay above 1/2; one that does not raises :class:`StepFailure`.  Every
    sample is solved; where n - 1 is not a multiple of 4 the subsamples end
    short of the last sample.  A level is returned only where all three
    grids have it below the ceiling, so one within the scheme's error of
    threshold on the finest grid alone is left out.  These three grids are
    the only ones solved, coarse to fine, each level from
    :func:`_predicted`, and each grid for as many of the ``count`` levels as
    it has below the ceiling.

    ``coarser``, the grids returned for the samples ``[::2]`` at spacing
    2 dx (n - 1 must then be a multiple of 4, so that they are the 2:1 and
    4:1 subsamples), are taken as solved: only the grid itself is solved,
    from their prediction, and the grids returned are theirs plus it.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    v, w = list(map(float, values)), list(map(float, weights))
    bad = 2 * len(v) - sum(map(math.isfinite, v + w))
    if bad:
        raise NonFiniteSamples("%d of %d samples of Q and W are NaN or infinite"
                               % (bad, 2 * len(v)))
    if max(abs(v[0]), abs(v[-1]), abs(w[0] - 1.0), abs(w[-1] - 1.0)) >= 1e-2:
        raise InsufficientDecay(
            "potential ends at (%.3g, %.3g) and weight at (%.3g, %.3g); need |Q| and |W - 1| < 1e-2"
            % (v[0], v[-1], w[0], w[-1])
        )
    if coarser and (len(v) - 1) % 4:
        raise ValueError("a refined grid needs n - 1 a multiple of 4")
    count = min(count, (len(v) - 1) // 4 - 1)  # interior size of the 4h grid
    if count < 1:
        return [], ()
    samples = [(v, w)] if coarser else [(v, w), (v[::2], w[::2]), (v[::4], w[::4])]
    grids = [_Hamiltonian(*g, dx * 2 ** i) for i, g in enumerate(samples)]
    if 0 in [ham.top[1] for ham in grids] + [g.top for g in coarser[-2:]]:
        return [], ()
    solved = list(coarser)
    for ham in reversed(grids):
        starts = _predicted([g.levels for g in solved])
        solved.append(Grid(*_levels(ham, min(count, ham.top[1]), starts), ham.top[1]))
    (e_4h, d_4h, _), (e_2h, d_2h, _), (e_h, d_h, _) = solved[-3:]
    estimates = []
    for e1, e2, e4, c1, c2, c4 in zip(e_h, e_2h, e_4h, d_h, d_2h, d_4h):
        two_step = (1024.0 * e1 - 80.0 * e2 + e4) / 945.0
        one_step = (16.0 * e1 - e2) / 15.0
        cert = (1024.0 * c1 + 80.0 * c2 + c4) / 945.0
        ratio = (e2 - e4) / (e1 - e2) if e1 != e2 else math.inf
        estimates.append(EigenEstimate(energy=two_step, error=abs(two_step - one_step) + cert,
                                       ratio=ratio))
    return estimates, tuple(solved)
