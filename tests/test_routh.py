"""Polynomial-family tests: construction identities, ODEs, orthogonality, roots."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from rrspectra import _exact as ex
from rrspectra.errors import RootOverflow, ZeroPolynomial
from rrspectra.routh import (
    ComplexIndex,
    discriminant_order2,
    ode_residual,
    real_root_count,
    real_roots,
    routh_polynomial,
    theorem_root_count,
)

from orthogonality import NonIntegrable, inner_product, pinned_weight_index, weight_eval
from quadrature import adaptive_quadrature
from rational import coeffs, im, index, integers, pair, re
from residual import poly_eval, poly_mul, routh_rodrigues


def random_indices(rng, count):
    """Random rational complex indices with modest denominators."""
    out = []
    for _ in range(count):
        real = Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 9)))
        imag = Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 9)))
        out.append(index(real, imag))
    return out


# ---------------------------------------------------------------------------
# canonical construction and realness
# ---------------------------------------------------------------------------

class TestRouthCanonical:
    def test_order_zero(self):
        p = routh_polynomial(0, complex(1.3, -0.4))
        assert coeffs(p) == (Fraction(1),)

    def test_order_one_closed_form(self, rng):
        for a in random_indices(rng, 8):
            p = routh_polynomial(1, a)
            assert coeffs(p) == ex.rp_trim([-im(a), re(a)])

    def test_order_two_at_minus_three(self):
        p = routh_polynomial(2, -3)
        assert coeffs(p) == (Fraction(-1, 2), Fraction(0), Fraction(5, 2))
        assert_allclose(real_roots(p.num), [-1 / math.sqrt(5), 1 / math.sqrt(5)], rtol=1e-12)

    def test_realness_is_exact_for_random_indices(self, rng):
        # the recurrence runs in integers, so every coefficient is an exact rational
        for a in random_indices(rng, 50):
            for m in range(9):
                p = routh_polynomial(m, a)
                assert all(type(c) is int for c in p.num)
                assert type(p.den) is int and p.den > 0

    def test_degree_equals_order_generically(self, rng):
        for a in random_indices(rng, 20):
            # exclude the leading-coefficient zero set (m + 2aR - 1)_m = 0
            for m in range(1, 7):
                lead_zero = any(
                    Fraction(m + j) + 2 * re(a) - 1 == 0 for j in range(m)
                )
                p = routh_polynomial(m, a)
                if lead_zero:
                    assert len(p.num) - 1 < p.order
                else:
                    assert len(p.num) - 1 == p.order == m

    def test_degeneracy_reported_not_silent(self):
        # m=2 leading coefficient (2aR+1)(aR+1)/4 vanishes at aR = -1/2
        p = routh_polynomial(2, index(Fraction(-1, 2), 1))
        assert len(p.num) - 1 < p.order == 2



# ---------------------------------------------------------------------------
# Rodrigues generator
# ---------------------------------------------------------------------------

class TestRodrigues:
    def test_order_zero(self):
        assert coeffs(routh_rodrigues(0, complex(0.3, 1.0))) == (Fraction(1),)

    def test_order_one_closed_form(self, rng):
        for a in random_indices(rng, 8):
            p = routh_rodrigues(1, a)
            assert coeffs(p) == (2 * im(a), 2 * (re(a) + 1))

    def test_proportional_to_canonical_at_shifted_conjugate(self, rng):
        # Rodrigues(m, a) == 2^m m! * canonical(m, conj(a) + 1), exactly
        for a in random_indices(rng, 10):
            for m in range(4):
                rod = routh_rodrigues(m, a)
                can = routh_polynomial(m, a.conjugate().shifted(1))
                scale = Fraction(2 ** m * math.factorial(m))
                assert coeffs(rod) == tuple(scale * c for c in coeffs(can))
                assert rod.index == a.conjugate().shifted(1)


# ---------------------------------------------------------------------------
# hypergeometric form
# ---------------------------------------------------------------------------

_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))
_C_ZERO, _C_ONE = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))


def _c_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _c_scale(a, s):
    return (a[0] * s, a[1] * s)


def truncated_2f1(m: int, a: ComplexIndex) -> list:
    """Ascending eta-coefficients, in Gaussian rationals, of

        i^m (alpha)_m / m! * F(-m, m + 2aR - 1; alpha; (1 + i eta)/2)

    (the lower parameter sits one unit below the printed unshifted form,
    matching the canonical index normalization).  The j-th term carries
    (alpha)_m / (alpha)_j = (alpha + j)_(m-j), so no Pochhammer is divided by
    and integer indices in [1 - m, 0] need no special case.
    """
    out = [_C_ZERO] * (m + 1)
    for j in range(m + 1):
        term = _C_ONE
        for k in range(j):
            term = _c_scale(term, Fraction(k - m) * (m + 2 * re(a) - 1 + k) / (k + 1))
        for k in range(j, m):
            term = _c_mul(term, (re(a) + k, im(a)))
        # times i^m / m! and ((1 + i eta)/2)^j = 2^-j sum_k C(j, k) i^k eta^k
        term = _c_scale(_c_mul(term, _I_POWERS[m % 4]), Fraction(1, math.factorial(m) * 2 ** j))
        for k in range(j + 1):
            out[k] = _c_add(out[k], _c_scale(_c_mul(term, _I_POWERS[k % 4]), math.comb(j, k)))
    return out


class TestHypergeometric:
    # the truncated 2F1 form and the canonical construction, compared exactly

    def _assert_matches(self, m, a):
        cs = coeffs(routh_polynomial(m, a))
        cs += (Fraction(0),) * (m + 1 - len(cs))
        assert truncated_2f1(m, a) == [(c, Fraction(0)) for c in cs]

    def test_order_zero_constant(self):
        assert truncated_2f1(0, ComplexIndex.of(complex(0.2, 0.8))) == [_C_ONE]

    def test_matches_linear_case(self):
        # R_1^(-3)(eta) = -3 eta
        assert truncated_2f1(1, ComplexIndex.of(-3)) == [_C_ZERO, (Fraction(-3), Fraction(0))]

    def test_matches_canonical_for_random_inputs(self, rng):
        for a in random_indices(rng, 12):
            for m in range(8):
                self._assert_matches(m, a)

    def test_integer_indices_where_the_series_divides_by_zero(self):
        # (alpha)_j vanishes in the 2F1 denominators for alpha = 1 - m .. 0
        for m in range(1, 6):
            for k in range(m):
                self._assert_matches(m, ComplexIndex.of(-k))


# ---------------------------------------------------------------------------
# weight
# ---------------------------------------------------------------------------

class TestWeight:
    def test_real_index_at_origin(self):
        assert weight_eval(ComplexIndex.of(-2.7), 0.0) == 1.0

    def test_pure_imaginary_index(self):
        assert_allclose(weight_eval(ComplexIndex.of(1j), 1.0), math.exp(math.pi / 2), rtol=1e-14)

    def test_inverse_square(self):
        assert_allclose(weight_eval(ComplexIndex.of(-2), 1.0), 0.25, rtol=1e-14)

    def test_positive_everywhere(self, rng):
        w = ComplexIndex.of(complex(-3.3, 2.1))
        assert np.all(weight_eval(w, rng.normal(size=50) * 10) > 0)


# ---------------------------------------------------------------------------
# differential equation
# ---------------------------------------------------------------------------

class TestOdeResidual:
    def test_constant_solves(self):
        assert ode_residual(routh_polynomial(0, complex(2, 3))) == ()

    def test_linear_real_index(self):
        assert ode_residual(routh_polynomial(1, -3)) == ()

    def test_order_two_random_indices(self, rng):
        for a in random_indices(rng, 10):
            assert ode_residual(routh_polynomial(2, a)) == ()

    def test_all_orders_both_conventions(self, rng):
        for a in random_indices(rng, 6):
            for m in range(9):
                assert ode_residual(routh_polynomial(m, a)) == ()
                assert ode_residual(routh_rodrigues(m, a)) == ()


# ---------------------------------------------------------------------------
# inner products and the pinned weight
# ---------------------------------------------------------------------------

class TestInnerProduct:
    def test_plain_beta_integral(self):
        assert_allclose(inner_product(0, 0, ComplexIndex.of(-2)), math.pi / 2, atol=1e-10)

    def test_orthogonality_zero_two(self):
        # family index -4 pairs with weight index -5
        w = ComplexIndex.of(pinned_weight_index(-4))
        assert abs(inner_product(0, 2, w)) < 1e-9

    def test_odd_pair_symmetric_weight(self):
        assert abs(inner_product(0, 1, ComplexIndex.of(-3))) < 1e-10

    def test_precondition(self):
        with pytest.raises(NonIntegrable):
            inner_product(3, 3, ComplexIndex.of(-2))

    def test_orthogonality_battery(self):
        # orders <= 4 under the pinned weight, real and complex family indices:
        # off-diagonals are exact zeros, diagonals match brute-force quadrature
        for fam in (ComplexIndex.of(-4), ComplexIndex.of(complex(-4, 1.5))):
            w = ComplexIndex.of(pinned_weight_index(fam))
            for n in range(5):
                rn = coeffs(routh_polynomial(n, fam))
                ref = adaptive_quadrature(lambda e: poly_eval(rn, e) ** 2 * weight_eval(w, e),
                                          -np.inf, np.inf, tol=1e-10)
                assert ref > 0
                assert abs(inner_product(n, n, w) - ref) < 1e-9 * ref
                for m in range(n + 1, 5):
                    assert inner_product(n, m, w) == 0.0
                    assert inner_product(m, n, w) == 0.0


# ---------------------------------------------------------------------------
# roots and discriminants
# ---------------------------------------------------------------------------

class TestRealRoots:
    def test_quadratic_through_zero(self):
        assert_allclose(real_roots([-1, 0, 1]), [-1.0, 1.0], rtol=1e-14)

    def test_routh_order_two(self):
        r = real_roots(routh_polynomial(2, -3).num)
        assert_allclose(r, [-1 / math.sqrt(5), 1 / math.sqrt(5)], rtol=1e-12)

    def test_no_real_roots(self):
        assert real_roots([1, 0, 1]) == []

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            real_roots([0])

    def test_multiplicity(self):
        # (x-1)^2 * (x+2)
        r = real_roots([2, -3, 0, 1])
        assert_allclose(r, [-2.0, 1.0, 1.0], rtol=1e-10)


def _poly_from_roots(roots, lead=1):
    """Ascending integer coefficients of a positive multiple of lead * prod(x - r)."""
    p = [Fraction(lead)]
    for r in roots:
        r = Fraction(r)
        p = [(p[i - 1] if i else 0) - r * (p[i] if i < len(p) else 0) for i in range(len(p) + 1)]
    return integers(p)


def _root_corpus():
    """Seeded polynomials of every kind the package isolates roots of."""
    from rrspectra.geometry import PotentialSpec
    from rrspectra.spectral import _quartic_coeffs, aeh_solution, gendenshtein_params

    rng = np.random.default_rng(31)
    out = []
    for a in (1.2, 2.0, 2.7, 3.9, 4.5):
        for b in (0.0, 0.6, 1.7):
            spec = gendenshtein_params(a, b)
            out.extend(_quartic_coeffs(spec, m)[0] for m in range(6))
    for _ in range(6):
        h0 = complex(rng.uniform(3, 10), rng.uniform(0, 4))
        spec = PotentialSpec(h0=h0, kappa_plus=float(rng.uniform(0.5, 3)))
        out.extend(_quartic_coeffs(spec, m)[0] for m in range(6))
    # type-d Routh factors on a sub-grid of the 16x16 acceptance scan domain
    avals, bvals = np.linspace(2, 4, 16), np.linspace(0, 4, 16)
    for m in (2, 4):
        for a in avals[::5]:
            for b in bvals[::5]:
                out.append(aeh_solution(gendenshtein_params(float(a), float(b)), "d", m).poly.num)
    for _ in range(80):
        deg = int(rng.integers(1, 9))
        cs = [Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 20))) for _ in range(deg + 1)]
        out.append(cs[:-1] + [cs[-1] or Fraction(1)])
    for _ in range(30):
        deg = int(rng.integers(1, 8))
        out.append(list(rng.normal(size=deg + 1) * 10.0 ** rng.uniform(-3, 3, size=deg + 1)))
    for _ in range(30):
        roots = []
        for _ in range(int(rng.integers(1, 4))):
            r = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9)))
            roots += [r] * int(rng.integers(1, 4))
        p = _poly_from_roots(roots, lead=int(rng.integers(1, 5)))
        if rng.random() < 0.5:  # times a squared quadratic, real roots irrational
            q = [int(rng.integers(-5, 0)), int(rng.integers(-3, 4)), 1]
            p = list(poly_mul(poly_mul(p, q), q))
        out.append(p)
    return [ex.rp_trim(integers(cs)) for cs in out]


# exact rational roots on and around rounding ties, and on split points
_ROUNDING_CASES = [
    [-1, 0, 1],                                            # x^3 - x: every root on a split point
    [Fraction(1, 2), Fraction(1, 2), -3],                  # (x - 1/2)^2 (x + 3)
    [0, Fraction(1, 3)],                                   # root 1/3 next to the open end at 0
    [0, Fraction(1, 2 ** 60)],
    [Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 30)],  # closer than one ulp
    [Fraction(2 ** 53 + 1, 2 ** 53)],                      # halfway between doubles: ties to even
    [Fraction(2 ** 53 + 3, 2 ** 53)],                      # ... and a tie that rounds up
    # the first root splits (1, 1 + 2^-52] exactly on a tie; the second,
    # just above it on that open end, must round up
    [Fraction(2 ** 53 + 1, 2 ** 53), Fraction(2 ** 60 + 2 ** 7 + 1, 2 ** 60)],
]


class TestExactIsolation:
    def test_matches_sympy_bit_for_bit(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for p in _root_corpus():
            poly = sympy.Poly([sympy.Rational(c) for c in reversed(p)], x)
            expected = [float(r.evalf(25)) for r in poly.real_roots(multiple=True)]
            assert real_roots(p) == expected, p
            assert real_root_count(p) == len(expected)

    def test_interval_is_all_roots_restricted(self):
        # ends on exact integer roots, between roots, and unbounded: (lo, hi]
        # keeps the roots of the whole line that lie in it
        on_roots = 0
        for p in _root_corpus():
            every = real_roots(p)
            ints = [Fraction(r) for r in every if r == int(r)
                    and sum(c * Fraction(r) ** i for i, c in enumerate(p)) == 0]
            gaps = [(Fraction(r) + Fraction(s)) / 2 for r, s in zip(every, every[1:])
                    if s - r > 1e-9 * max(1.0, abs(r))]
            ends = [None] + sorted(set(ints))[:3] + gaps[:3]
            on_roots += len(set(ints))
            for lo in ends:
                for hi in ends:
                    expected = [r for r in every
                                if (lo is None or r > lo) and (hi is None or r <= hi)]
                    assert real_roots(p, lo=pair(lo), hi=pair(hi)) == expected, (p, lo, hi)
        assert on_roots > 20

    @pytest.mark.parametrize("roots", _ROUNDING_CASES)
    def test_rational_roots_correctly_rounded(self, roots):
        p = _poly_from_roots(roots)
        expected = sorted(float(Fraction(r)) for r in roots)
        assert real_roots(p) == expected
        assert real_root_count(p) == len(roots)

    def test_square_roots_correctly_rounded(self, rng):
        # math.sqrt is correctly rounded, so it is an independent reference
        for c in rng.integers(2, 10 ** 6, size=40):
            c = int(c)
            if math.isqrt(c) ** 2 == c:
                continue
            assert real_roots([-c, 0, 1]) == [-math.sqrt(c), math.sqrt(c)]
            assert real_roots([-c, 0, 4]) == [-math.sqrt(c) / 2, math.sqrt(c) / 2]

    def test_zero_and_constant_polynomials(self):
        with pytest.raises(ZeroPolynomial):
            real_root_count([])
        with pytest.raises(ZeroPolynomial):
            real_roots([0, 0])
        assert real_roots([-7]) == []
        assert real_root_count([5]) == 0

    def test_root_beyond_double_range_is_typed(self):
        # roots +-10^350: counted exactly, but no double holds them
        p = [-10 ** 700, 0, 1]
        assert real_root_count(p) == 2
        with pytest.raises(RootOverflow, match=r"2\^1162 < \|root\| <= 2\^1163 \(about 1e350\)"):
            real_roots(p)

    def test_huge_cauchy_bound_with_double_roots(self):
        # the Cauchy bound of (x - 1)(x^2 + 10^700) is far beyond the double
        # range, but its one real root is not
        p = poly_mul([-1, 1], [10 ** 700, 0, 1])
        assert real_roots(p) == [1.0]
        top = int(sys.float_info.max)
        assert real_roots([top, 1]) == [-sys.float_info.max]
        assert real_roots([-top, 1]) == [sys.float_info.max]
        for c in (top + 1, -top - 1):
            with pytest.raises(RootOverflow):
                real_roots([c, 1])

    def test_negative_root_that_rounds_to_zero_keeps_its_sign(self):
        # one real root near -1e-400, whose correctly rounded double is -0.0
        (r,) = real_roots([1, 10 ** 400, 0, 1])
        assert r == 0.0 and math.copysign(1, r) == -1
        # an exact zero is +0.0; +-half the least subnormal ties to a zero of its sign
        half = Fraction(5e-324) / 2
        for p, sign in (([0, 1, 0, 1], 1), ([half, 1], -1), ([-half, 1], 1)):
            (r,) = real_roots(integers(p))
            assert r == 0.0 and math.copysign(1, r) == sign, p
        assert real_roots(integers([3 * half, 1])) == [-1e-323]  # a tie to the even mantissa

    def test_counts_match_locations(self, rng):
        for _ in range(40):
            roots = [Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 7)))
                     for _ in range(int(rng.integers(1, 7)))]
            extra = [int(rng.integers(1, 9)), 0, 1]  # x^2 + k: no real roots
            p = poly_mul(_poly_from_roots(roots), extra)
            assert real_root_count(p) == len(real_roots(p)) == len(roots)


def _guess_modes():
    """Replacement float guesses: outside the interval, on its ends, a few
    doubles off the true root on either side, and NaN."""
    from rrspectra import routh

    true = routh._root_guess

    def off_by(n):
        def guess(f, lo, hi, s_hi):
            x = true(f, lo, hi, s_hi)
            for _ in range(abs(n)):
                x = math.nextafter(x, math.copysign(math.inf, n))
            return x
        return guess

    return {
        "far_left": lambda f, lo, hi, s_hi: -1e300,
        "far_right": lambda f, lo, hi, s_hi: 1e300,
        "nan": lambda f, lo, hi, s_hi: math.nan,
        "lo": lambda f, lo, hi, s_hi: lo[0] / lo[1],
        "hi": lambda f, lo, hi, s_hi: hi[0] / hi[1],
        "5_below": off_by(-5),
        "1000_above": off_by(1000),
    }


class TestRootGuess:
    """The float guess sets where the exact search starts, never its result."""

    @pytest.mark.parametrize("mode", sorted(_guess_modes()))
    def test_any_guess_gives_the_same_roots(self, monkeypatch, mode):
        from rrspectra import routh

        corpus = _root_corpus()
        # pinned to sympy, bit for bit, by test_matches_sympy_bit_for_bit
        expected = [real_roots(p) for p in corpus]
        monkeypatch.setattr(routh, "_root_guess", _guess_modes()[mode])
        assert [real_roots(p) for p in corpus] == expected
        for roots in _ROUNDING_CASES:
            assert real_roots(_poly_from_roots(roots)) == sorted(float(Fraction(r)) for r in roots)

    def test_guess_lands_next_to_the_root(self, monkeypatch):
        # on quartics and Routh factors the exact search should need only a
        # few midpoints: the guess is within two doubles of the answer
        from rrspectra import routh
        from rrspectra.spectral import _quartic_coeffs, aeh_solution, gendenshtein_params

        polys = []
        for a in (1.2, 2.7, 4.5):
            for b in (0.0, 1.7):
                spec = gendenshtein_params(a, b)
                polys += [_quartic_coeffs(spec, m)[0] for m in range(4)]
                polys += [aeh_solution(spec, "d", m).poly.num for m in (1, 3)]
        minus = [-1]
        polys += [poly_mul(minus, p) for p in polys]  # either sign of leading coefficient
        rounded, gaps = routh._rounded_root, []

        def recording(f, lo, hi):
            out = rounded(f, lo, hi)
            s_hi = routh._hom(f, *hi)
            if s_hi:
                guess = routh._root_guess(f, lo, hi, s_hi > 0)
                gaps.append(abs(routh._float_key(guess) - routh._float_key(out)))
            return out

        monkeypatch.setattr(routh, "_rounded_root", recording)
        for p in polys:
            real_roots(p)
        assert len(gaps) > 20 and max(gaps) <= 2


_POSITIVE = st.fractions(min_value=0, max_value=20, max_denominator=12).filter(lambda t: t > 0)


@st.composite
def _region_draw(draw, region):
    """(m, alpha) with m <= 20, Re alpha in about [-40, 4], in ``region``."""
    m = draw(st.integers(1 if region == "none" else 0, 20))
    if region == "m":  # m < 1 - aR
        re = 1 - m - draw(_POSITIVE)
    elif region == "none":  # 1 - aR <= m <= 1 - 2 aR
        re = 1 - m + draw(st.fractions(0, 1, max_denominator=12)) * (m - 1) / 2
    else:  # m + 2 aR - 1 > 0
        re = Fraction(1 - m, 2) + draw(_POSITIVE) / 5
    return m, index(re, draw(st.fractions(-15, 15, max_denominator=8)))


class TestTheoremRootCount:
    @pytest.mark.parametrize("region", ["m", "none", "m mod 2"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_exact_count_in_each_region(self, region, data):
        m, a = data.draw(_region_draw(region))
        claim = theorem_root_count(m, a)
        if region == "none":
            assert claim is None
        else:
            expected = m if region == "m" else m % 2
            assert claim == expected == real_root_count(routh_polynomial(m, a).num)

    def test_counts_bound_state_roots_and_abstains_on_the_boundary(self):
        # a bound-state index: m roots, where m mod 2 would be wrong
        assert theorem_root_count(2, -3) == real_root_count(routh_polynomial(2, -3).num) == 2
        for m in range(1, 9):  # on the boundary itself the degree drops
            assert theorem_root_count(m, index(Fraction(1 - m, 2), 1)) is None

    def test_type_d_seeds_are_decided(self):
        from rrspectra.geometry import PotentialSpec
        from rrspectra.spectral import aeh_solution, gendenshtein_params

        specs = [gendenshtein_params(a, b) for a in (1.2, 2.5, 4.1) for b in (0.0, 0.5, 3.0)]
        specs += [PotentialSpec(h0=complex(7.75, 3.0), kappa_plus=k)
                  for k in (0.5, 2.0)]
        for spec in specs:
            for m in range(1, 6):
                sol = aeh_solution(spec, "d", m)
                assert sol.nodes == real_root_count(sol.poly.num) == m % 2


def order2_discriminant(alpha) -> float:
    p = routh_polynomial(2, alpha)
    return discriminant_order2(p.num) / p.den ** 2


class TestDiscriminant:
    def test_real_index(self):
        assert_allclose(order2_discriminant(-3), 5.0, rtol=1e-14)

    def test_complex_index(self):
        assert_allclose(order2_discriminant(complex(1, 1)), -15 / 4, rtol=1e-14)

    def test_sign_depends_only_on_real_part(self, rng):
        for a in random_indices(rng, 20):
            if 2 * re(a) + 1 == 0:
                continue
            d = order2_discriminant(a)
            assert math.copysign(1, d) == math.copysign(1, -float(2 * re(a) + 1))

    def test_tabulated_form_disagrees_on_asymmetry(self):
        # the closed form quoted alongside the order-2 coefficient table in
        # earlier treatments of this family keeps an aI dependence that the
        # discriminant of the actual coefficients lacks
        def tabulated(ar, ai):
            return -0.25 * (ar + 3.0) * ((ar + 2.0) ** 2 - 0.5 * (3.0 * ar + 4.0) * ai ** 2)

        sym = order2_discriminant(complex(-4, 0))
        asym = order2_discriminant(complex(-4, 2))
        # closed form: delta = -(1/4)(2aR+1)[(aR+1)^2 + aI^2]
        assert_allclose(sym, asym + 0.25 * (2 * -4 + 1) * 4, rtol=1e-12)
        assert tabulated(-4.0, 0.0) != pytest.approx(tabulated(-4.0, 2.0))
