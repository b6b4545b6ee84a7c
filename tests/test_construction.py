"""The integer Jacobi construction against the explicit Gaussian-rational sum.

``reference_jacobi`` is the term-by-term evaluation of

    2^-m * sum_k (beta+k)_{m-k} (alpha+m-k)_k / (k! (m-k)!) (y-1)^k (y+1)^{m-k}

in ``(Fraction, Fraction)`` pairs, kept here only as an oracle for the
package's single-division integer evaluation.  Fractions are canonical, so
the two must agree coefficient for coefficient, not just in value.
"""

from fractions import Fraction
from math import comb, factorial

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rrspectra.routh import ComplexIndex, _jacobi_coeffs_cached, routh_polynomial  # noqa: E402


def _c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _rising(a, n):
    out = (Fraction(1), Fraction(0))
    for j in range(n):
        out = _c_mul(out, (a[0] + j, a[1]))
    return out


def reference_jacobi(m, beta, alpha):
    """Ascending (re, im) Fraction coefficients of the explicit double sum."""
    b, a = (beta.re, beta.im), (alpha.re, alpha.im)
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
        re, im = _c_mul(i_powers[(j - m) % 4], c)
        assert im == 0
        out.append(re)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


small = st.fractions(min_value=-40, max_value=40, max_denominator=12)
# doubles become dyadic rationals with denominators up to about 2^60
dyadic = st.builds(lambda n, e: Fraction(n, 2 ** e),
                   st.integers(-(2 ** 66), 2 ** 66), st.integers(50, 62))
from_float = st.floats(-60, 60, allow_nan=False).map(Fraction)
part = st.one_of(small, dyadic, from_float)
index = st.builds(ComplexIndex, part, part)
order = st.integers(0, 8)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(order, index, index)
def test_general_pairs_match_reference(m, beta, alpha):
    assert list(_jacobi_coeffs_cached(m, beta, alpha)) == reference_jacobi(m, beta, alpha)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(order, index)
def test_routh_pairs_match_reference(m, alpha):
    assert routh_polynomial(m, alpha).poly.coeffs == reference_routh(m, alpha)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m - 1))), part)
def test_degenerate_indices_stay_degenerate(mj, im):
    # the leading coefficient carries (m + 2 aR - 1)_m, so 2 aR = 1 - m - j kills it
    m, j = mj
    alpha = ComplexIndex(Fraction(1 - m - j, 2), im)
    p = routh_polynomial(m, alpha)
    assert p.poly.degree < p.order
    assert p.poly.coeffs == reference_routh(m, alpha)
