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
x = X(t) (:func:`liouville`) are explicit, so no map is inverted.  Every
sampled column is read from t alone, through s = sech t and tau = tanh t,
which never overflow: 1 + eta^2 = cosh^2 t, atan eta = gd t, and the
weight W = X'^2 = 1 + (kappa - 1) s^2.  In t the Schroedinger equation is
Scarf II with that weight, and :func:`weighted_scarf` gives its
coefficients (Q, W) for the oracle; :func:`liouville_terms` gives the
potential V with W and W', :func:`sampled` the eigenfunctions and
:func:`partner_potential` a Darboux partner's (V, V_hat).  Only the x
column and :func:`t_of_x` evaluate :func:`liouville` at eta = sinh t, and
:func:`decay_x_max`, the one scan for where |V| has decayed, which cuts
every box (the ``spectrum`` grid and the oracle's), evaluates it once at
the t it finds.
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


def _bisect(holds) -> float:
    """The least double t > 0 from which ``holds``, false at 0, is true: t
    doubles from 1 until it holds, then bisection narrows to adjacent doubles
    and keeps the upper one."""
    lo, hi = 0.0, 1.0
    while not holds(hi):
        lo, hi = hi, 2.0 * hi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
        mid = 0.5 * (lo + hi)
    return hi


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

    t = _bisect(lambda t: x_at(t) >= x)
    if x_at(t) == math.inf:
        raise NonFiniteSamples("eta samples overflow the double range before x = %g" % x)
    return t


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


def liouville_terms(spec: PotentialSpec):
    """(s, tau, W, W', V) as a function of a float t, with s = sech t and
    tau = tanh t, the constants taken once: the weight W = X'^2 of
    :func:`weighted_scarf`, summed as tau^2 + kappa s^2, which keeps its
    precision and its sign where kappa is small, its t-derivative
    W' = -2 (kappa - 1) s^2 tau, and the potential, the Liouville identity
    Q = W V - {X, t}/2 solved for V,

        V = (Q + {X, t}/2)/W,   {X, t} = W''/(2W) - 5 W'^2/(8 W^2),

    with W'' = 2 (kappa - 1) s^2 (2 tau^2 - s^2).  Every term is a sech and
    tanh term, so nothing overflows while cosh t is finite."""
    c0, c1 = spec.h0.real + 0.75, spec.h0.imag
    kap = spec.kappa_plus
    k1 = kap - 1.0
    cosh, tanh = math.cosh, math.tanh

    def terms(t):
        s, tau = 1.0 / cosh(t), tanh(t)
        s2 = s * s
        w, dw = tau * tau + kap * s2, -2.0 * k1 * s2 * tau
        g = dw / w  # w > 0, and w * w may underflow to 0.0 for kappa below 1e-161
        schwarzian = k1 * s2 * (2.0 * tau * tau - s2) / w - 0.625 * g * g
        return s, tau, w, dw, ((c1 * tau - c0 * s) * s + 0.5 * schwarzian) / w
    return terms


def decay_x_max(spec: PotentialSpec, level: float) -> float:
    """The smallest quarter x with |V| below ``level`` at both ends: t doubles
    from 1 until |V(+-t)| < ``level``, bisection narrows where that starts
    to adjacent doubles of t, and X(t) is rounded up to a quarter.  A
    potential that has not decayed where cosh t is finite raises
    :class:`StepFailure`."""
    terms = liouville_terms(spec)

    def decayed(t):
        try:
            return abs(terms(t)[4]) < level and abs(terms(-t)[4]) < level
        except OverflowError:  # cosh t past the double range
            raise StepFailure("potential does not decay below %g" % level) from None

    x = liouville(spec.kappa_plus)(math.sinh(_bisect(decayed)))
    return float(math.ceil(x * 4.0) / 4.0)


# ---------------------------------------------------------------------------
# closed forms on grids
# ---------------------------------------------------------------------------

def _descending(solution: ClosedForm) -> list:
    """Float coefficients c_m, ..., c_0 of the polynomial R of ``solution``,
    highest degree first, from the exact coefficients.  Horner's rule in
    tau = tanh t with the powers of s = sech t folded in sums the homogeneous
    form R_hom(tau, s) = sum_j c_j tau^j s^(m-j) = R(sinh t)/cosh^m t, which
    is bounded by the sum of the |c_j|, and its tau-derivative is R'_hom =
    cosh^(1-m) t R'(sinh t)."""
    return [c / solution.poly.den for c in reversed(solution.poly.num)] or [0.0]


def partner_potential(spec: PotentialSpec, seed: ClosedForm, ts) -> tuple:
    """(V, V_hat) at the floats ``ts`` of t: V and its Darboux partner built
    on the nodeless closed-form ``seed`` at its energy e_s, as two lists.

    A strictly positive solution ff at e_s turns V into the partner
    V - 2 (ln ff)'', taken here in Riccati form.  With w = ff_x/ff, the
    equation -ff'' + V ff = e_s ff reads w' = V - e_s - w^2, so

        V_hat = V - 2 w' = 2 e_s + 2 w^2 - V,

    and only the first log-derivative w is evaluated, in closed form, never
    the seed's values, which underflow to 0.0 in the tails of deep wells.
    With ff = psi of :func:`sampled`, w = (d/dt ln ff)/sqrt(W) and

        d/dt ln ff = (2p - 1/2) tau + q s + W'/(4W) + R'_hom/R_hom,

    every term bounded on the whole line (:func:`_descending`).  The
    identity is exact here, not an approximation: a closed form solves the
    canonical equation by construction, and the Liouville transformation in
    the derived convention turns that into -ff'' + V ff = e_s ff with the V
    of :func:`liouville_terms`.  Finite differences appear only in tests.
    The seed is nodeless: :func:`spectral.partner_levels` refuses one with
    nodes before any grid is sampled."""
    terms = liouville_terms(spec)
    top, *rest = _descending(seed)
    b, q, two_e = 2.0 * seed.power - 0.5, seed.atan_coeff, 2.0 * seed.energy
    v_parent, v_partner = [], []
    for t in ts:
        s, tau, w, dw, v = terms(t)
        r, dr, power = top, 0.0, 1.0
        for c in rest:
            power *= s
            dr = dr * tau + r
            r = r * tau + c * power
        dlog = b * tau + q * s + 0.25 * dw / w + dr / r
        v_parent.append(v)
        v_partner.append(two_e + 2.0 * dlog * dlog / w - v)
    return v_parent, v_partner


def sampled(kappa: float, solutions, ts) -> list:
    """psi = (eta')^(-1/2) Phi(eta) of each closed form in ``solutions`` at
    the floats ``ts`` of t = asinh eta, one list of floats per solution.

    Phi = scale (1+eta^2)^p exp(q atan eta) R(eta), with 1 + eta^2 =
    cosh^2 t, atan eta = gd t, eta' = cosh t / sqrt(W) and, for R of degree
    m, R(sinh t) = cosh^m t R_hom(tau, s) (:func:`_descending`), so

        psi = scale exp((2p + m - 1/2) ln cosh t + q gd t) W^(1/4) R_hom,

    with s = sech t, tau = tanh t and W = tau^2 + kappa s^2.  R_hom is
    bounded, so only the exponential can overflow, and it does not for a
    bound state.  ln cosh t, gd t, s, tau and W^(1/4) depend on t alone, so
    they are taken once per point for all the solutions.  A sample whose
    float arithmetic overflows or divides by zero is NaN, as it would be in
    IEEE arithmetic, for :func:`require_finite` to count.
    """
    cosh, tanh, log, atan2, sqrt = math.cosh, math.tanh, math.log, math.atan2, math.sqrt
    points = []
    for t in ts:
        c, tau = cosh(t), tanh(t)
        s = 1.0 / c
        points.append((log(c), atan2(tau, s), sqrt(sqrt(tau * tau + kappa * s * s)), tau, s))
    exp, nan = math.exp, math.nan
    out = []
    for solution in solutions:
        top, *rest = _descending(solution)
        a = 2.0 * solution.power + len(rest) - 0.5  # 2p + m - 1/2
        q, scale = solution.atan_coeff, solution.scale
        psi = []
        for lc, gd, w4, tau, s in points:
            r, power = top, 1.0
            for c in rest:  # R_hom by Horner, inline: a call per sample costs a quarter more
                power *= s
                r = r * tau + c * power
            try:
                psi.append(scale * exp(a * lc + q * gd) * w4 * r)
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
