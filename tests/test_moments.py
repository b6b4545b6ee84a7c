"""Cauchy-beta moment sums against the Gaussian-integer sum in w = 1 + i eta.

``reference_ratio`` is the term-by-term evaluation of

    integral p(eta) (1+eta^2)^-nu exp(2q atan eta) deta / B(nu, q)

with p rewritten in w = 1 + i eta.  The weight is (1+i eta)^-alpha
(1-i eta)^-beta with alpha, beta = nu +- iq, and w^j multiplies Cauchy's
integral B(nu, q) by prod_{i=1..j} 2(alpha-i)/(2nu-1-i), so the sum runs in
Gaussian integers and its imaginary part must cancel.  It is kept here only
as an oracle for the package, which sums the real moments by their Pearson
recurrence (``routh.cauchy_beta_ratio``); the two must agree exactly.
"""

import math
import random
from fractions import Fraction
from math import comb

import pytest

import replay
from quadrature import adaptive_quadrature
from rational import pair
from rrspectra import _exact as ex
from rrspectra.cli import RunConfig
from rrspectra.routh import cauchy_beta_ratio, log_cauchy_beta
from rrspectra.spectral import enumerate_bound_spectrum, normalized


def reference_ratio(p: list, q: Fraction, nu: Fraction) -> Fraction:
    """The moment sum of the integer polynomial ``p`` (ascending), in w."""
    # p in w, with eta^k = i^k (1 - w)^k: Gaussian integers (re, im)
    in_w = []
    for j in range(len(p)):
        parts = [0, 0]
        for k in range(j, len(p)):
            parts[k % 2] += (-1) ** (j + k // 2) * comb(k, j) * p[k]
        in_w.append(parts)
    big_l = math.lcm(nu.denominator, q.denominator)
    a, c = int(nu * big_l), int(q * big_l)
    # S_j = in_w[j] + factor_(j+1) S_(j+1), as (re, im) over den
    re, im = in_w[-1] if in_w else (0, 0)
    den = 1
    for j in range(len(in_w) - 1, 0, -1):
        g_re, g_im, h = 2 * (a - j * big_l), 2 * c, 2 * a - (1 + j) * big_l
        den *= h
        d_re, d_im = in_w[j - 1]
        re, im = d_re * den + g_re * re - g_im * im, d_im * den + g_re * im + g_im * re
    assert im == 0
    return Fraction(re, den)


def package_ratio(p: list, q: Fraction, nu: Fraction) -> Fraction:
    return Fraction(*cauchy_beta_ratio(p, pair(q), pair(nu)))


class TestReference:
    """Brute-force quadrature pins the reference itself."""

    @pytest.mark.parametrize("p, q, nu", [
        ([1, 0, 1], Fraction(0), Fraction(5, 2)),
        ([0, 1], Fraction(7, 5), Fraction(13, 6)),
        ([3, -1, 2], Fraction(-2, 3), Fraction(11, 4)),
        ([1, 0, -5, 0, 1], Fraction(1, 7), Fraction(29, 9)),
    ])
    def test_matches_quadrature(self, p, q, nu):
        weight = math.exp(log_cauchy_beta(float(nu), float(q)))
        ref = adaptive_quadrature(
            lambda e: (sum(c * e ** k for k, c in enumerate(p))
                       * (1 + e * e) ** -float(nu) * math.exp(2 * float(q) * math.atan(e))),
            -math.inf, math.inf, tol=1e-11)
        assert abs(float(reference_ratio(p, q, nu)) * weight - ref) < 1e-8 * max(1.0, abs(ref))


def _draws(seed: int, count: int):
    """Seeded (p, q, nu): degrees 0-40, q zero or of either sign, and nu just
    above (deg + 1)/2 or far above it, over non-dyadic denominators."""
    rnd = random.Random(seed)
    for i in range(count):
        deg = i % 41
        p = [rnd.randint(-10 ** 6, 10 ** 6) for _ in range(deg + 1)]
        p[-1] = p[-1] or 1
        q = Fraction(0) if i % 5 == 0 else Fraction(rnd.randint(-400, 400), rnd.choice((3, 7, 15, 99, 1001)))
        least = Fraction(deg + 1, 2)
        nu = least + (Fraction(1, rnd.choice((3, 1013, 10 ** 9 + 7))) if i % 2
                      else Fraction(rnd.randint(1, 10 ** 4), rnd.choice((9, 37, 250))))
        yield p, q, nu


def test_recurrence_matches_the_gaussian_sum():
    for p, q, nu in _draws(47, 410):
        assert package_ratio(p, q, nu) == reference_ratio(p, q, nu), (len(p) - 1, q, nu)


def test_zero_polynomial_integrates_to_zero():
    assert package_ratio([], Fraction(1, 3), Fraction(5, 2)) == 0


def _cli_mix_states():
    """(spec, state) for every bound state of the replayed seed-1001
    ``cli_mix`` configs, Milson ones with kappa != 1 included."""
    out = []
    for cid, _argv, cfg in replay.commands():
        if cid.startswith("cli_mix-"):
            spec = RunConfig(cfg).spec
            out += [(spec, st) for st in enumerate_bound_spectrum(spec).states]
    return out


def test_one_moment_norm_equals_the_two_part_norm():
    # integral Phi^2 (eta^2 + kappa)/(1+eta^2)^2 over B(nu, q): one moment sum
    # against the weight at nu + 1 by the package, and m0 + (kappa - 1) F m1,
    # from the density's parts 1/(1+eta^2) and (kappa-1)/(1+eta^2)^2, by the
    # reference, with F = B(nu+1, q)/B(nu, q) = nu(2nu-1)/(2(nu^2+q^2))
    states = _cli_mix_states()
    assert any(spec.kappa_plus != 1.0 for spec, _st in states)
    for spec, st in states:
        nu, q = 1 - 2 * Fraction(st.power), Fraction(st.atan_coeff)
        kappa = Fraction(spec.kappa_plus)
        f = nu * (2 * nu - 1) / (2 * (nu * nu + q * q))
        square = ex.rp_mul(st.poly.num, st.poly.num)
        two_part = (reference_ratio(square, q, nu)
                    + (kappa - 1) * f * reference_ratio(square, q, nu + 1)) / st.poly.den ** 2
        k, kd = pair(kappa)
        one = f * package_ratio(ex.rp_mul(square, [k, 0, kd]), q, nu + 1) / (kd * st.poly.den ** 2)
        assert one == two_part, (spec, st.n)
        # and normalized rounds that one rational, as before
        norm2 = math.exp(log_cauchy_beta(float(nu), float(q))) * float(two_part)
        assert normalized(spec, st).scale == 1.0 / math.sqrt(norm2)
