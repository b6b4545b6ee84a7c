"""The Liouville change of variable and the float evaluation of closed forms
on grids.

The potentials handled here live on the whole real line and come from a
rational canonical Sturm-Liouville form Phi'' + I(eta; e) Phi = 0 with two
complex-conjugate singular points +-i.  A second-order tangent polynomial
T(eta) with no real zeros fixes the monotone change of variable x <-> eta via
eta' = (1+eta^2)/sqrt(T), and the Liouville transformation then produces a
Schroedinger potential V(x) (units hbar = 2m = 1 throughout).

The symmetric tangent polynomial eta^2 + kappa generates the Milson family
(a leading coefficient other than 1 would only rescale length); kappa = 1 is
the Gendenshtein (Scarf II) limit where eta(x) = sinh x.  The functions here
take kappa as a float, ``spec.kappa_plus``.

The spec record and the closed-form record :class:`~spectral.ClosedForm`
come from :mod:`spectral`, which is exact; this module is where they meet
floats, in plain floats with :mod:`math` and without numpy.  A
:class:`VariableMap` holds the one uniform x grid (and its spacing ``dx``)
that every sampled list lives on, and the eta table on it, as lists of
floats.  The map's Newton inverse (:func:`_inverse`) and :func:`sampled`,
which samples eigenfunctions, work on floats.  :func:`liouville`,
:func:`potential` and :func:`log_derivative` return x, the potential and the
log-derivative of a closed form as functions of eta, with their constants
and coefficient lists taken once, and :func:`on_grid` samples such a
function on the eta table for :mod:`verify` and :mod:`darboux`, which feed
the oracle.  :func:`decay_x_max` is the one scan for where |V| has decayed,
which cuts every box: the ``spectrum`` grid and the oracle's.  The closed
forms built from arithmetic alone (:func:`eta_prime`, :func:`schwarzian_eval`
and the functions that :func:`potential` and :func:`log_derivative` return)
also take a numpy array through the same code, which the tests use.
"""

from __future__ import annotations

import math
import operator
import sys

from .errors import NonFiniteSamples, StepFailure
from .spectral import ClosedForm, PotentialSpec, linspace


# ---------------------------------------------------------------------------
# the Liouville map
# ---------------------------------------------------------------------------

def liouville(kappa: float):
    """Closed-form x(eta) = integral_0^eta sqrt(T(u))/(1+u^2) du, symmetric T,
    as a function of a float, its constants taken once.

    With T = u^2 + kappa, r = sqrt(eta^2 + kappa) and s = sqrt|kappa - 1|,

        x = asinh(eta/sqrt(kappa)) + s atan(s eta/r)     (kappa >= 1)

    For kappa < 1 the second term is -s atanh(s eta/r), which cancels most
    of the first when kappa is small.  The same value is summed instead from
    three terms of one sign (eta >= 0; the map is odd):

        x = log1p((1-s) eta/(r + s eta)) + (1-s) log((r + s eta)/sqrt(kappa))
            + (s/2) log1p(eta^2)

    ``r`` comes from ``hypot``, so huge |eta| does not overflow.
    """
    rk = math.sqrt(kappa)
    s = math.sqrt(abs(kappa - 1.0))
    asinh, atan, copysign, hypot, log1p = math.asinh, math.atan, math.copysign, math.hypot, math.log1p
    if kappa >= 1.0:
        def x_of(eta):
            # eta / r <= 1 first: s * eta overflows for eta near the double range
            return asinh(eta / rk) + s * atan(s * (eta / hypot(eta, rk)))
    else:
        one_minus_s = kappa / (1.0 + s)

        def x_of(eta):
            e = abs(eta)
            r = hypot(e, rk)
            # each log1p argument is rewritten to avoid cancellation and overflow
            return copysign(
                log1p(one_minus_s * e / (r + s * e))
                + one_minus_s * log1p(e * (e / (r + rk) + s) / rk)  # log((r + s e)/sqrt(kappa))
                + s * log1p(e * (e / (1.0 + hypot(1.0, e)))),  # log1p(e^2)/2
                eta,
            )
    return x_of


def eta_prime(kappa: float, eta):
    """Closed-form eta'(eta) = (1+eta^2)/sqrt(T(eta)), the slope of the map."""
    e2 = eta * eta
    return (1.0 + e2) / (e2 + kappa) ** 0.5


class VariableMap:
    """The monotone bijection x <-> eta generated by eta' = (1+eta^2)/sqrt(T).

    Anchored at eta(0) = 0.  x(eta) is the closed form :func:`liouville`
    and eta(x) its Newton inverse (:func:`_inverse`), defined on the whole
    line.  ``x_grid`` is the uniform grid of spacing ``dx`` from -x_max to
    x_max, :func:`spectral.linspace`, which is ``numpy.linspace`` bit for bit;
    ``eta_grid`` is the table of eta on it and must come out strictly
    increasing.  Both are lists of floats.  The tangent polynomial is
    symmetric, so the map is odd.  A map built from a ``coarse`` one, with
    2n - 1 points for its n on the same x_max, keeps its table as the even
    points (see :meth:`_eta_table`).  The tests check both directions against
    an independent ODE solve and quadrature.
    """

    def __init__(self, kappa: float, x_max: float, n_points: int, coarse=None):
        if x_max <= 0:
            raise ValueError("x_max must be positive")
        if n_points < 64:
            raise ValueError("need at least 64 grid points")
        if coarse is not None and (coarse.kappa, coarse.x_max, 2 * coarse.n_points - 1) != (
                kappa, float(x_max), n_points):
            raise ValueError("a refined map halves the spacing of its coarse map")
        self.kappa = kappa
        self.x_max = float(x_max)
        self.n_points = int(n_points)
        self.dx = (self.x_max + self.x_max) / (self.n_points - 1)
        self.x_grid = linspace(-self.x_max, self.x_max, self.n_points)
        self.eta_grid = self._eta_table(coarse)
        if not all(map(operator.lt, self.eta_grid, self.eta_grid[1:])):
            raise StepFailure("variable map table is not strictly increasing")

    def _eta_table(self, coarse) -> list:
        """eta on ``x_grid``: :func:`_inverse` on the upper half, from the
        middle point outward.  The map is odd, so a lower point is its negated
        upper mirror, moved by eta' times the rounding difference between its
        x and the mirror's negated x (zero for most points): the error of that
        first-order step is of the order of the square of an ulp.  Samples
        past the double range raise :class:`NonFiniteSamples` with their
        count.

        A map refined from a ``coarse`` one, at half its spacing, keeps its
        table as the even points: ``linspace(-X, X, 2n - 1)[::2]`` is
        ``linspace(-X, X, n)`` bit for bit, since the halved step is exact.
        Only the odd points are solved, by the same inverse and mirror step.
        """
        xs, n = self.x_grid, self.n_points
        rk = math.sqrt(self.kappa)
        hypot = math.hypot
        mid = n // 2
        etas = [None] * n  # None: eta overflows
        if coarse is None:
            start, stride, lower = mid, 1, range(mid)
        else:
            etas[::2] = coarse.eta_grid
            start, stride, lower = mid | 1, 2, range(1, mid, 2)
        upper = _inverse(self.kappa, xs[start::stride])
        etas[start:start + stride * len(upper):stride] = upper
        for i in lower:
            j = n - 1 - i
            eta = etas[j]
            if eta is not None:
                c = hypot(eta, 1.0)  # eta' = c^2 / hypot(eta, sqrt(kappa)) < inf
                etas[i] = (xs[i] + xs[j]) * (c * (c / hypot(eta, rk))) - eta
        bad = etas.count(None)
        if bad:
            raise NonFiniteSamples("%d of %d eta samples overflow the double range" % (bad, n))
        return etas


def _inverse(kappa: float, xs) -> list:
    """eta at the increasing points ``xs`` by Newton's method in s = asinh eta,
    up to the first point whose eta is past the double range (|s| > 710.47).

    The slope dx/ds = sqrt((eta^2+kappa)/(eta^2+1)) runs monotonically
    from sqrt(kappa) at s = 0 to 1 at infinity, so x(s) is concave on s > 0
    for kappa > 1 and convex for kappa < 1.  The first solve starts from
    s = x / sqrt(max(1, kappa)), which never overshoots the root, and
    the iterates approach it monotonically (for kappa < 1 after the first
    step).  Each later solve starts from the cubic extrapolation of the roots
    before it (from the last root while there are fewer than four).  A solve
    stops once a step is below 1e-14 relative to s, or once x(eta) is within
    four ulps of x (where |x| >> |s|, at kappa far above 1, a step below
    1e-14 s is below the rounding of x(eta) - x, and the steps would cycle),
    after one polishing step, and raises :class:`StepFailure` if neither
    happens.  An eta past the double range shows as ``OverflowError`` from
    ``math.sinh``, or as an s made infinite or NaN by an iterate that
    overflowed on the way; it and the points after it, where eta is larger
    still, are left out.
    """
    x_of = liouville(kappa)
    rk = math.sqrt(kappa)
    sinh, hypot, isfinite = math.sinh, math.hypot, math.isfinite
    four_ulps = 4.0 * sys.float_info.epsilon
    etas = []
    s1 = s2 = s3 = s4 = 0.0  # s1 is the last root, s4 the fourth last
    for k, x in enumerate(xs):
        if k >= 4:
            s = 4.0 * (s1 + s3) - 6.0 * s2 - s4
        elif k:
            s = s1
        else:
            s = x / math.sqrt(max(1.0, kappa))
        done = False
        try:
            for _ in range(60):
                eta = sinh(s)
                miss = x_of(eta) - x
                step = miss * hypot(eta, 1.0) / hypot(eta, rk)
                s -= step
                if done:
                    break
                done = abs(step) <= 1e-14 * abs(s) or abs(miss) <= four_ulps * abs(x)
            else:
                if isfinite(s):
                    raise StepFailure("variable-map inversion did not converge")
            if not isfinite(s):
                break  # an inf or NaN on the way
            etas.append(sinh(s))
        except OverflowError:
            break
        s4, s3, s2, s1 = s3, s2, s1, s
    return etas


# ---------------------------------------------------------------------------
# Schwarzian and the potential
# ---------------------------------------------------------------------------

def schwarzian_eval(kappa: float, eta):
    """Schwarzian derivative {eta, x} of the symmetric map, in closed form.

    {eta, x} -> -1/2 as |eta| -> infinity.  The closed form is cheap and
    exact; the generic definition applied to the numeric map is kept for
    cross-checking in tests.
    """
    e2 = eta * eta
    ratio = (1.0 + e2) / (e2 + kappa)
    bracket = -0.5 - (kappa + 1.0) / (1.0 + e2) + 2.5 * kappa / (e2 + kappa)
    return (1.0 - e2) / (e2 + kappa) - ratio * ratio * bracket


def potential(spec: PotentialSpec):
    """The Liouville potential (symmetric family) as a function of eta, a
    float or an array, its constants taken once:

        V = -(4 h0_re - 4 h0_im eta + eta^2 + 1) / (4T) - {eta, x}/2.
    """
    c_re, c_im = 4.0 * spec.h0.real, 4.0 * spec.h0.imag
    kap = spec.kappa_plus

    def v_of(eta):
        e2 = eta * eta
        num = c_re - c_im * eta + e2 + 1.0
        # num / (4T), divided by T first: 4T overflows before T does
        return -num / (e2 + kap) / 4.0 - 0.5 * schwarzian_eval(kap, eta)
    return v_of


def decay_x_max(spec: PotentialSpec, level: float) -> float:
    """The smallest quarter x with |V| below ``level`` at both ends: eta doubles
    from 1 until |V(+-eta)| < ``level``, then bisection finds where that
    starts to within 1e-4 of eta, and x(eta) is rounded up to a quarter."""
    v = potential(spec)

    def decayed(eta):
        return abs(v(eta)) < level and abs(v(-eta)) < level

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if decayed(hi):
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise StepFailure("potential does not decay below %g" % level)
    while hi - lo > 1e-4 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if decayed(mid) else (mid, hi)
    return float(math.ceil(liouville(spec.kappa_plus)(hi) * 4.0) / 4.0)


# ---------------------------------------------------------------------------
# closed forms on grids
# ---------------------------------------------------------------------------

def _descending(solution: ClosedForm, k: int) -> list:
    """Float coefficients of R^(k) for the polynomial R of ``solution``, highest
    degree first, as :func:`_horner` takes them, from the exact coefficients."""
    cs = list(enumerate(solution.poly.num))[::-1]
    den = solution.poly.den
    return [math.perm(j, k) * c / den for j, c in cs if j >= k] or [0.0]


def _horner(coeffs: list, eta):
    """The polynomial with descending float ``coeffs`` at a float or an array."""
    out = coeffs[0]
    for c in coeffs[1:]:
        out = out * eta + c
    return out


def log_derivative(kappa: float, solution: ClosedForm):
    """w = psi'/psi for psi = (eta')^(-1/2) Phi(eta(x)) as a function of eta,
    a float or an array, the coefficient lists of R and R' taken once:

        w = eta' [u + R'/R - (ln eta')'/2],

    with u = (2p*eta + q)/(1+eta^2) the log-derivative of the gauge and
    (ln eta')' = 2eta/(1+eta^2) - eta/(eta^2+kappa), both d/deta.  R' comes
    from the exact coefficients, never from finite differences.
    """
    r0, r1 = _descending(solution, 0), _descending(solution, 1)
    two_p, q = 2.0 * solution.power, solution.atan_coeff

    def w_of(eta):
        e2 = eta * eta
        u = (two_p * eta + q) / (1.0 + e2)
        dlog_slope = 2.0 * eta / (1.0 + e2) - eta / (e2 + kappa)
        return eta_prime(kappa, eta) * (u + _horner(r1, eta) / _horner(r0, eta) - 0.5 * dlog_slope)
    return w_of


def on_grid(f, etas) -> list:
    """``f`` at each float of ``etas``, as a list.  A sample whose float
    arithmetic overflows or divides by zero is NaN, as it would be in IEEE
    arithmetic, for the oracle or :func:`require_finite` to count."""
    out = []
    for eta in etas:
        try:
            out.append(f(eta))
        except ArithmeticError:
            out.append(math.nan)
    return out


def sampled(solutions, vmap: VariableMap) -> list:
    """psi = (eta')^(-1/2) Phi(eta(x)) of each closed form in ``solutions`` on
    the map grid, one list of floats per solution.

    Phi = scale * exp(p log(1+eta^2) + q atan eta) * R(eta), the gauge
    (1+eta^2)^p exp(q atan eta) taken as one exponential.  The logarithm, the
    arctangent and sqrt(eta') depend on eta alone, so they are taken once per
    point for all the solutions.  A sample whose float arithmetic overflows or
    divides by zero is NaN, as it would be in IEEE arithmetic, for
    :func:`require_finite` to count.
    """
    kappa, etas = vmap.kappa, vmap.eta_grid
    exp, sqrt, nan = math.exp, math.sqrt, math.nan
    logs = [math.log1p(e * e) for e in etas]
    atans = list(map(math.atan, etas))
    roots = [sqrt(eta_prime(kappa, e)) for e in etas]
    out = []
    for solution in solutions:
        coeffs = _descending(solution, 0)
        p, q, scale = solution.power, solution.atan_coeff, solution.scale
        psi = []
        for eta, lg, at, root in zip(etas, logs, atans, roots):
            try:
                psi.append(scale * exp(p * lg + q * at) * _horner(coeffs, eta) / root)
            except ArithmeticError:
                psi.append(nan)
        out.append(psi)
    return out


def require_finite(what: str, columns) -> None:
    """Raise :class:`NonFiniteSamples` unless every sample in the float
    sequences ``columns`` is finite."""
    total = sum(len(c) for c in columns)
    bad = total - sum(sum(map(math.isfinite, c)) for c in columns)
    if bad:
        raise NonFiniteSamples("%d of %d %s samples are NaN or infinite" % (bad, total, what))
