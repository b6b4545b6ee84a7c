"""The Routh recurrence against the explicit Gaussian-rational Jacobi sum.

``reference_jacobi`` is the term-by-term evaluation of

    2^-m * sum_k (beta+k)_{m-k} (alpha+m-k)_k / (k! (m-k)!) (y-1)^k (y+1)^{m-k}

in ``(Fraction, Fraction)`` pairs, and ``reference_routh`` turns it into
(-i)^m P_m^(alpha*, alpha)(i eta).  They are kept here only as an oracle for
the package, which builds R_m from its equation by an integer recurrence.
The package's integer numerators over one denominator, read as Fractions,
must equal the reference's coefficients one by one.
"""

import math
from fractions import Fraction
from math import comb, factorial

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import rational  # noqa: E402
from rational import coeffs, im, re  # noqa: E402
from rrspectra.routh import ComplexIndex, routh_polynomial  # noqa: E402


def _c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _rising(a, n):
    out = (Fraction(1), Fraction(0))
    for j in range(n):
        out = _c_mul(out, (a[0] + j, a[1]))
    return out


def reference_jacobi(m, beta, alpha):
    """Ascending (re, im) Fraction coefficients of the explicit double sum."""
    b, a = (re(beta), im(beta)), (re(alpha), im(alpha))
    total = [(Fraction(0), Fraction(0))] * (m + 1)
    for k in range(m + 1):
        coef = _c_mul(_rising((b[0] + k, b[1]), m - k), _rising((a[0] + m - k, a[1]), k))
        scale = Fraction(1, 2 ** m * factorial(k) * factorial(m - k))
        # (y-1)^k (y+1)^(m-k), expanded by convolving two binomial rows
        term = [Fraction(0)] * (m + 1)
        for i in range(k + 1):
            for j in range(m - k + 1):
                term[i + j] += comb(k, i) * (-1) ** (k - i) * comb(m - k, j)
        total = [(t[0] + c * coef[0] * scale, t[1] + c * coef[1] * scale)
                 for t, c in zip(total, term)]
    return total


def reference_routh(m, alpha):
    """Real coefficients of (-i)^m P_m^(alpha*, alpha)(i eta), trailing zeros dropped."""
    i_powers = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    out = []
    for j, c in enumerate(reference_jacobi(m, alpha.conjugate(), alpha)):
        real, imag = _c_mul(i_powers[(j - m) % 4], c)
        assert imag == 0
        out.append(real)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _random_index(rng):
    parts = [Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 9))) for _ in range(2)]
    return rational.index(*parts)


class TestReferenceJacobi:
    """Known values pin the reference itself."""

    def test_order_zero_is_one(self, rng):
        for _ in range(5):
            b, a = _random_index(rng), _random_index(rng)
            assert reference_jacobi(0, b, a) == [(Fraction(1), Fraction(0))]

    def test_order_one_hand_expansion(self, rng):
        # ((a + b) y + b - a) / 2, coefficient for coefficient
        for _ in range(10):
            b, a = _random_index(rng), _random_index(rng)
            assert reference_jacobi(1, b, a) == [
                ((re(b) - re(a)) / 2, (im(b) - im(a)) / 2),
                ((re(a) + re(b)) / 2, (im(a) + im(b)) / 2),
            ]

    def test_index_one_one_is_legendre(self):
        one = ComplexIndex.of(1)
        assert reference_jacobi(2, one, one) == [
            (Fraction(-1, 2), Fraction(0)),
            (Fraction(0), Fraction(0)),
            (Fraction(3, 2), Fraction(0)),
        ]


small = st.fractions(min_value=-40, max_value=40, max_denominator=12)
# doubles become dyadic rationals with denominators up to about 2^60
dyadic = st.builds(lambda n, e: Fraction(n, 2 ** e),
                   st.integers(-(2 ** 66), 2 ** 66), st.integers(50, 62))
from_float = st.floats(-60, 60, allow_nan=False).map(Fraction)
part = st.one_of(small, dyadic, from_float)
index = st.builds(rational.index, part, part)
order = st.integers(0, 8)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(order, index)
def test_routh_pairs_match_reference(m, alpha):
    assert coeffs(routh_polynomial(m, alpha)) == reference_routh(m, alpha)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m - 1))), part)
def test_degenerate_indices_stay_degenerate(mj, imag):
    # the leading coefficient carries (m + 2 aR - 1)_m, so 2 aR = 1 - m - j kills it
    m, j = mj
    alpha = rational.index(Fraction(1 - m - j, 2), imag)
    p = routh_polynomial(m, alpha)
    assert len(p.num) - 1 < p.order
    assert coeffs(p) == reference_routh(m, alpha)


@pytest.mark.parametrize("m", [16, 31, 60])
@pytest.mark.parametrize("kind", ["c", "d"])
def test_high_orders_match_reference(m, kind):
    # the index 1 - conj(lambda) of a float lambda, as spectral.aeh_solution
    # takes it: a bound state has lambda_R > m + 1/2, so 2 aR < 1 - 2m, and a
    # type-d seed lambda_R < 0, so aR > 1
    if kind == "c":
        lam = complex(m + 0.5 + math.sqrt(2.0), -7.0 * math.sqrt(3.0))
    else:
        lam = complex(-math.sqrt(5.0) - m / 3.0, 0.7 * math.sqrt(3.0))
    alpha = ComplexIndex.of(-lam.conjugate()).shifted(1)
    assert (2 * re(alpha) < 1 - 2 * m) if kind == "c" else (re(alpha) > 1)
    assert coeffs(routh_polynomial(m, alpha)) == reference_routh(m, alpha)
