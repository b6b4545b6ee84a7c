"""The closed-form convention, proved in exact rationals.

With Phi = g*R and g = (1+eta^2)^p exp(q atan eta), Phi'' + I*Phi = 0 holds
identically exactly when the polynomial

    (1+eta^2)^2 (Phi'' + I*Phi)/g = (1+eta^2)^2 R'' + 2(2p*eta + q)(1+eta^2) R'
        + [(2p*eta + q)^2 + 2p - 2q*eta - 2p*eta^2 + (1+eta^2)^2 I] R

is zero.  Probes are rational points on the order-m quartic: lambda_R and
Im h0 are drawn, Re h0 is solved from the quartic (which is linear in it) and
e = -(lambda_R - m - 1/2)^2 / a.  The record of
:func:`rrspectra.spectral.pinned_convention` must make the polynomial zero;
moving Re h0 off the quartic, or changing any part of the record that the
probe can see, must not.  Every part is seen once m >= 2 and Im h0 != 0.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import rational  # noqa: E402
from rrspectra._exact import rp_add, rp_diff, rp_mul, rp_trim  # noqa: E402
from rrspectra.geometry import PotentialSpec, TangentPolySpec  # noqa: E402
from rrspectra.routh import ComplexIndex, routh_polynomial  # noqa: E402
from rrspectra.spectral import (  # noqa: E402
    aeh_solution,
    enumerate_bound_spectrum,
    gendenshtein_params,
    pinned_convention,
)

RECORDS = [{"sign": s, "conjugate": c, "shift": k}
           for s in (-1, 1) for c in (True, False) for k in (1, 0)]


def record_index(record, lam_r, lam_i) -> ComplexIndex:
    """-lambda, conjugated if the record says so, plus its shift."""
    return rational.index(-lam_r, lam_i if record["conjugate"] else -lam_i).shifted(record["shift"])


def reduced_residual(m, kappa, a, lam_r, im_h0, record, off_quartic=Fraction(0)) -> tuple:
    """The coefficients of the polynomial (1+eta^2)^2 (Phi'' + I*Phi)/g for
    the record's Phi, trailing zeros dropped."""
    lam_i = im_h0 / (2 * lam_r)
    half = m + Fraction(1, 2)
    re_h0 = ((kappa * lam_r ** 4 + (1 - kappa) * (2 * m + 1) * lam_r ** 3 - im_h0 ** 2 / 4)
             / lam_r ** 2 - 1 - (1 - kappa) * half ** 2 + off_quartic)
    e = -(lam_r - half) ** 2 / a
    # h(e) = h0 - c*e and O0(e) = 2 Re h0 + 1 + d*e, with c = a(1-kappa), d = 2a(1+kappa)
    h_re = re_h0 - a * (1 - kappa) * e
    o0 = 2 * re_h0 + 1 + 2 * a * (1 + kappa) * e
    inv = [(2 * h_re + o0) / 4, -im_h0, (o0 - 2 * h_re) / 4]  # (1+eta^2)^2 I
    p = (1 - lam_r) / 2
    q = record["sign"] * lam_i
    r = list(rational.coeffs(routh_polynomial(m, record_index(record, lam_r, lam_i))))
    d1 = rp_diff(r)
    one = [1, 0, 1]  # 1 + eta^2
    u = [q, 2 * p]  # 2p*eta + q
    bracket = rp_add(rp_add(rp_mul(u, u), [2 * p, -2 * q, -2 * p]), inv)
    out = rp_add(rp_mul(rp_mul(one, one), rp_diff(d1)), [2 * c for c in rp_mul(rp_mul(u, one), d1)])
    return rp_trim(rp_add(out, rp_mul(bracket, r)))


positive = st.fractions(min_value=Fraction(1, 20), max_value=5, max_denominator=24)


@st.composite
def probes(draw):
    """(m, kappa, a, lambda_R, Im h0), lambda_R of either kind."""
    m = draw(st.integers(0, 8))
    gap = draw(positive)
    lam_r = draw(st.sampled_from([m + Fraction(1, 2) + gap, -gap]))  # type c or type d
    im_h0 = draw(st.fractions(min_value=-10, max_value=10, max_denominator=24))
    return m, draw(positive), draw(positive), lam_r, im_h0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(probes())
@example((1, Fraction(2), Fraction(1), Fraction(13, 4), Fraction(1)))
@example((2, Fraction(1, 2), Fraction(3, 2), Fraction(23, 5), Fraction(1)))
@example((2, Fraction(3), Fraction(1), Fraction(-9, 4), Fraction(1)))
@example((8, Fraction(1, 20), Fraction(7, 3), Fraction(-9, 4), Fraction(1)))
@example((8, Fraction(1, 3), Fraction(2), Fraction(43, 4), Fraction(1)))
def test_pinned_record_solves_the_equation(probe):
    m, kappa, a, lam_r, im_h0 = probe
    pin = pinned_convention()
    assert reduced_residual(m, kappa, a, lam_r, im_h0, pin) == ()
    assert reduced_residual(m, kappa, a, lam_r, im_h0, pin, off_quartic=Fraction(1, 7)) != ()
    # at m = 0 the index is invisible (R = 1), at Im h0 = 0 so is lambda_I,
    # and at m = 1 a real index only scales R_1, which is then a multiple of eta
    visible = {"shift": m >= 2 or (m == 1 and im_h0 != 0),
               "conjugate": m >= 1 and im_h0 != 0,
               "sign": im_h0 != 0}
    for record in RECORDS:
        seen = any(visible[k] and record[k] != pin[k] for k in pin)
        assert (reduced_residual(m, kappa, a, lam_r, im_h0, record) == ()) is not seen, record


@pytest.mark.parametrize("spec", [
    gendenshtein_params(2.5, 0.5),
    PotentialSpec(h0=complex(7.75, 3.0), tp=TangentPolySpec(a=1.0, kappa_plus=2.0)),
], ids=["gendenshtein", "milson"])
def test_closed_form_follows_the_record(spec):
    # the index is formed exactly from the float lambda: for a type-d root,
    # 1 - lambda_R rounded in floating point would move it
    pin = pinned_convention()
    sols = [(s.n, s) for s in enumerate_bound_spectrum(spec).states]
    sols += [(m, aeh_solution(spec, "d", m)) for m in range(4)]
    for m, sol in sols:
        lam_r, lam_i = Fraction(sol.lam.real), Fraction(sol.lam.imag)
        assert sol.n == m and sol.poly.index == record_index(pin, lam_r, lam_i)
        assert (sol.power, sol.atan_coeff) == (float((1 - lam_r) / 2), float(pin["sign"] * lam_i))
