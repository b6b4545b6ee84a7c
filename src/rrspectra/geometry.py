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
floats, in plain floats with :mod:`math` and without numpy.  Every grid is
a :class:`TGrid`, uniform in t = asinh eta, where eta = sinh t and
x = X(t) (:func:`liouville`) are explicit, so no map is inverted.  In t the
Schroedinger equation is Scarf II with a weight, and
:func:`weighted_scarf` gives its coefficients for the oracle.
:func:`sampled` samples eigenfunctions at the eta points.
:func:`liouville`, :func:`potential` and :func:`log_derivative` return x,
the potential and the log-derivative of a closed form as functions of eta,
with their constants and coefficient lists taken once, and :func:`on_grid`
samples such a function, as :func:`partner_potential` does for a Darboux
partner.  :func:`decay_x_max` is the one scan for where |V| has decayed,
which cuts every box: the ``spectrum`` grid and the oracle's.  The closed
forms built from arithmetic alone (:func:`eta_prime`,
:func:`schwarzian_eval` and the functions that :func:`potential` and
:func:`log_derivative` return) also take a numpy array through the same
code, which the tests use.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

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


class TGrid(NamedTuple):
    """``n`` points t_j = ``linspace(-t_max, t_max, n)`` of t = asinh eta
    (:func:`spectral.linspace`), their spacing ``dt`` and eta_j = sinh t_j,
    as lists of floats; t_max is :func:`t_of_x` of ``x_max``."""

    x_max: float
    t_max: float
    n: int
    dt: float
    ts: list
    etas: list


def t_of_x(kappa: float, x: float) -> float:
    """The t > 0 with X(sinh t) = ``x`` > 0, by bisection on the explicit
    :func:`liouville` to adjacent doubles (the upper one).  An ``x`` past X
    at every t where sinh t and X are finite raises :class:`NonFiniteSamples`."""
    x_of = liouville(kappa)

    def x_at(t):
        try:
            return x_of(math.sinh(t))
        except OverflowError:  # eta past the double range
            return math.inf

    lo, hi = 0.0, 1.0
    while x_at(hi) < x:
        lo, hi = hi, 2.0 * hi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (lo, mid) if x_at(mid) >= x else (mid, hi)
        mid = 0.5 * (lo + hi)
    if x_at(hi) == math.inf:
        raise NonFiniteSamples("eta samples overflow the double range before x = %g" % x)
    return hi


def t_grid(x_max: float, t_max: float, n: int) -> TGrid:
    """The :class:`TGrid` of ``n`` points on [-t_max, t_max].  One that is not
    strictly increasing (t_max too small for ``n`` doubles) raises
    :class:`StepFailure`, and eta past the double range
    :class:`NonFiniteSamples`."""
    ts = linspace(-t_max, t_max, n)
    if not all(map(operator.lt, ts, ts[1:])):
        raise StepFailure("a t grid of %d points on [-%g, %g] is not strictly increasing"
                          % (n, t_max, t_max))
    try:
        etas = list(map(math.sinh, ts))
    except OverflowError:
        raise NonFiniteSamples("eta samples overflow the double range on [-%g, %g]"
                               % (t_max, t_max)) from None
    return TGrid(float(x_max), t_max, n, (t_max + t_max) / (n - 1), ts, etas)


def weighted_scarf(spec: PotentialSpec):
    """(Q, W) as a function of a float t: with x = X(t) and
    phi = X'^(-1/2) psi, -psi_xx + V psi = e psi reads -phi_tt + Q phi = e W phi,

        Q = W V - {X, t}/2 = -(Re h0 + 3/4 - Im h0 sinh t) sech^2 t,
        W = X'^2 = 1 + (kappa - 1) sech^2 t.

    So Q is the Gendenshtein (Scarf II) potential for every kappa, which
    enters through the weight alone; at kappa = 1, t = x and Q = V.  Both
    come from sech t and tanh t and never overflow while cosh t is finite.
    """
    c0, c1 = spec.h0.real + 0.75, spec.h0.imag
    k1 = spec.kappa_plus - 1.0
    cosh, tanh = math.cosh, math.tanh

    def q_w(t):
        s = 1.0 / cosh(t)
        return (c1 * tanh(t) - c0 * s) * s, 1.0 + k1 * s * s
    return q_w


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


def partner_potential(spec: PotentialSpec, seed: ClosedForm, etas) -> tuple:
    """(V, V_hat) at the floats ``etas``: V and its Darboux partner built on
    the nodeless closed-form ``seed`` at its energy e_s, as two lists.

    A strictly positive solution ff at e_s turns V into the partner
    V - 2 (ln ff)'', taken here in Riccati form.  With w = ff'/ff, the
    equation -ff'' + V ff = e_s ff reads w' = V - e_s - w^2, so

        V_hat = V - 2 w' = 2 e_s + 2 w^2 - V,

    and only the first log-derivative w is evaluated, in closed form through
    eta (:func:`log_derivative`), never the seed's values, which underflow to
    0.0 in the tails of deep wells.  The identity is exact here, not an
    approximation: a closed form solves the canonical equation by
    construction, and the Liouville transformation in the derived convention
    turns that into -ff'' + V ff = e_s ff with the same V that
    :func:`potential` samples.  Finite differences appear only in tests.
    The seed is nodeless: :func:`spectral.partner_levels` refuses one with
    nodes before any grid is sampled."""
    v_parent = on_grid(potential(spec), etas)
    w = on_grid(log_derivative(spec.kappa_plus, seed), etas)
    e_s = seed.energy
    return v_parent, [2.0 * e_s + 2.0 * wi * wi - vi for wi, vi in zip(w, v_parent)]


def sampled(kappa: float, solutions, etas) -> list:
    """psi = (eta')^(-1/2) Phi(eta) of each closed form in ``solutions`` at
    the floats ``etas``, one list of floats per solution.

    Phi = scale * exp(p log(1+eta^2) + q atan eta) * R(eta), the gauge
    (1+eta^2)^p exp(q atan eta) taken as one exponential.  The logarithm, the
    arctangent and sqrt(eta') depend on eta alone, so they are taken once per
    point for all the solutions.  A sample whose float arithmetic overflows or
    divides by zero is NaN, as it would be in IEEE arithmetic, for
    :func:`require_finite` to count.
    """
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
