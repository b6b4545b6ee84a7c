"""Spectral-chain tests: branch, quartic, enumeration, eigenfunctions, identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rrspectra.cli import _spectrum_record
from rrspectra.errors import NoSuchRoot
from rrspectra.geometry import PotentialSpec, sampled
from rrspectra.routh import ComplexIndex, real_root_count, real_roots, routh_polynomial
from rrspectra.spectral import (
    _quartic_coeffs,
    aeh_solution,
    enumerate_bound_spectrum,
    gendenshtein_params,
    linspace,
    nodeless_scan,
    normalized,
    pinned_convention,
    quartic_lambda_roots,
    quartic_residual_scale,
    stevenson_identity_check,
)

from quadrature import NotConverged, adaptive_quadrature
from quartic import closed_form_lambda_kappa1
from rational import coeffs, routh_record
from residual import phi_value, poly_mul, rcsle_residual


class TestQuartic:
    def test_gendenshtein_reduces_to_biquadratic(self, gspec):
        lam_c, lam_d = (quartic_lambda_roots(gspec, 0, kind) for kind in "cd")
        assert_allclose(lam_d + lam_c, [-3.0, 3.0], rtol=1e-12)
        a1 = gspec.h0.real + 1.0
        lam2 = 0.5 * a1 + math.sqrt(0.25 * a1 ** 2 + 0.25 * gspec.h0.imag ** 2)
        assert_allclose(lam_c[0] ** 2, lam2, rtol=1e-12)

    def test_symmetric_degenerate_case(self):
        # L^4 - 9 L^2: the double root at the branch point L = 0 is neither kind
        spec = PotentialSpec(h0=8.0, kappa_plus=1.0)
        assert quartic_lambda_roots(spec, 0, "c") == [3.0]
        assert quartic_lambda_roots(spec, 0, "d") == [-3.0]

    def test_residual_scale(self, milson_spec):
        for m in range(3):
            for kind in "cd":
                for r in quartic_lambda_roots(milson_spec, m, kind):
                    assert quartic_residual_scale(milson_spec, m, r) < 1e-10

    def test_kappa_to_one_continuity(self, gspec):
        lam_c, lam_d = closed_form_lambda_kappa1(gspec)
        for kap in (1.0 - 1e-8, 1.0 + 1e-8):
            spec = PotentialSpec(h0=gspec.h0, kappa_plus=kap)
            (c,) = quartic_lambda_roots(spec, 0, "c")
            assert abs(c - lam_c) < 1e-6
            assert abs(quartic_lambda_roots(spec, 0, "d")[0] - lam_d) < 1e-6

    # h0 and kappa where orders 1-3 have two positive quartic roots below m + 1/2
    THREE_POSITIVE = PotentialSpec(h0=complex(12.084706575734842, 0.0013390748054407224),
                                   kappa_plus=47.9484157411458)

    def test_classification(self, milson_spec):
        # each kind takes the roots of the whole line that lie in its interval
        for spec in (milson_spec, self.THREE_POSITIVE):
            for m in range(5):
                every = real_roots(_quartic_coeffs(spec, m)[0])
                assert quartic_lambda_roots(spec, m, "c") == [r for r in every if r > m + 0.5]
                assert quartic_lambda_roots(spec, m, "d") == [r for r in every if r < -1e-12]
        assert [sum(r > 0 for r in real_roots(_quartic_coeffs(self.THREE_POSITIVE, m)[0]))
                for m in (1, 2, 3)] == [3, 3, 3]

    def test_one_admissible_root_exactly_when_q_at_mu_is_negative(self, rng):
        found = set()
        for _ in range(400):
            m = int(rng.integers(0, 9))
            spec = PotentialSpec(h0=complex(rng.uniform(-0.9, 40), rng.uniform(-10, 10)),
                                 kappa_plus=float(np.exp(rng.uniform(-3.5, 5.7))))
            mu, kap = Fraction(2 * m + 1, 2), Fraction(spec.kappa_plus)
            big_h, c = Fraction(spec.h0.real) + 1, Fraction(spec.h0.imag) ** 2 / 4

            def q(lam):  # the quartic as the proof writes it
                return lam ** 4 - (1 - kap) * lam ** 2 * (lam - mu) ** 2 - big_h * lam ** 2 - c

            lam = Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 9)))
            num, den = _quartic_coeffs(spec, m)
            assert den > 0 and sum(Fraction(k, den) * lam ** i for i, k in enumerate(num)) == q(lam)
            roots = quartic_lambda_roots(spec, m, "c")
            assert len(roots) == (q(mu) < 0), (spec, m)
            found.add(len(roots))
        assert found == {0, 1}

class TestLocatedRoots:
    """Only the roots a solution takes are located (``routh._rounded_root``)."""

    @pytest.fixture()
    def located(self, monkeypatch):
        from rrspectra import routh

        out, rounded = [], routh._rounded_root

        def recording(f, lo, hi):
            out.append(rounded(f, lo, hi))
            return out[-1]

        monkeypatch.setattr(routh, "_rounded_root", recording)
        return out

    @pytest.mark.parametrize("case", ["gendenshtein", "milson", "three_positive"])
    def test_walk_locates_one_root_per_state(self, located, gspec, milson_spec, case):
        spec = {"gendenshtein": gspec, "milson": milson_spec,
                "three_positive": TestQuartic.THREE_POSITIVE}[case]
        s = enumerate_bound_spectrum(spec)
        assert located == [state.lam.real for state in s.states]
        del located[:]
        # the order that ends the walk, with no bound state, locates nothing
        assert quartic_lambda_roots(spec, len(s.states), "c") == [] and located == []

    @pytest.mark.parametrize("m", [0, 1, 2, 4])
    def test_type_d_locates_no_positive_root(self, located, gspec, milson_spec, m):
        for spec in (gspec, milson_spec, TestQuartic.THREE_POSITIVE):
            del located[:]
            sol = aeh_solution(spec, "d", m)
            assert located and all(r < 0 for r in located)
            assert sol.lam.real == located[0]


class TestEnumeration:
    def test_gendenshtein_levels(self, gspec):
        s = enumerate_bound_spectrum(gspec)
        assert_allclose(s.energies, [-6.25, -2.25, -0.25], rtol=1e-12)

    def test_empty_below_half(self):
        # lambda0_R = 0.4 < 1/2 supports nothing
        lam0 = 0.4
        spec = PotentialSpec(h0=lam0 ** 2 - 1, kappa_plus=1.0)
        s = enumerate_bound_spectrum(spec)
        assert s.n_max_constructive == 0 and not s.states

    def test_integer_lambda0_flags_formula(self, gspec):
        s = enumerate_bound_spectrum(gspec)  # lambda0_R = 3.0 exactly
        assert s.n_max_constructive == 3
        assert s.n_max_formula == 3
        assert not s.formula_consistent

    @pytest.mark.parametrize("a_g, consistent", [(2.8, False), (3.6, False), (2.3, True), (3.3, True)])
    def test_formula_consistent_iff_fraction_above_half(self, a_g, consistent):
        # order n is admissible exactly when n + 1/2 < Re lambda0 = a + 1/2,
        # so floor(Re lambda0) + 1 overcounts when frac(Re lambda0) <= 1/2
        spec = gendenshtein_params(a_g, 0.5)
        s = enumerate_bound_spectrum(spec)
        assert s.n_max_constructive == math.ceil(spec.lambda0.real - 0.5)
        assert s.formula_consistent is consistent

    def test_energy_ordering(self, milson_spec):
        s = enumerate_bound_spectrum(milson_spec)
        es = s.energies
        assert all(a < b for a, b in zip(es, es[1:])) and all(e < 0 for e in es)

    def test_bound_count_matches_admissibility(self):
        # Gendenshtein: lambda is order-independent so the count is countable directly
        for a_g in (0.3, 1.2, 2.5, 3.7):
            spec = gendenshtein_params(a_g, 0.4)
            expected = len([n for n in range(20) if a_g + 0.5 > n + 0.5])
            assert enumerate_bound_spectrum(spec).n_max_constructive == expected

    def test_json_shape(self, gspec):
        d = _spectrum_record(enumerate_bound_spectrum(gspec))
        assert [s["nodes"] for s in d["states"]] == [0, 1, 2]
        assert set(d) >= {"states", "n_max_constructive", "n_max_formula", "formula_consistent"}


class TestConventionPinning:
    def test_record(self):
        # derived, not searched: tests/test_convention.py proves this record
        assert pinned_convention() == {"sign": -1, "conjugate": True, "shift": 1}


class TestEigenfunctions:
    def test_ground_state_closed_form(self, gspectrum, gmap):
        # psi_0 proportional to cosh(x)^-a * exp(-b*atan(sinh x))
        xs = np.array(gmap.ts[::128])  # t = x at kappa = 1
        psi = sampled(1.0, [gspectrum.states[0]], gmap.etas)[0][::128]
        ref = np.cosh(xs) ** -2.5 * np.exp(-0.5 * np.arctan(np.sinh(xs)))
        ratio = psi / ref
        assert np.max(np.abs(ratio / ratio[len(ratio) // 2] - 1.0)) < 1e-9

    def test_node_counts(self, gspectrum):
        for n in range(3):
            st = gspectrum.states[n]
            assert st.nodes == n
            assert len(real_roots(st.poly.num)) == n

    def test_orthonormality(self, gspec):
        states = [normalized(gspec, st) for st in enumerate_bound_spectrum(gspec).states]
        kappa = gspec.kappa_plus

        def overlap(i, j):
            fi, fj = states[i], states[j]
            return adaptive_quadrature(
                lambda e: (phi_value(fi, e) * phi_value(fj, e)
                           * (e * e + kappa) / (1 + e * e) ** 2),
                -np.inf, np.inf, tol=1e-10,
            )

        for i in range(3):
            for j in range(i, 3):
                expect = 1.0 if i == j else 0.0
                assert abs(overlap(i, j) - expect) < 1e-8

    def test_admissibility_invariant(self, gspectrum):
        for n in range(3):
            st = gspectrum.states[n]
            assert st.lam.real > n + 0.5

    def test_missing_level(self, gspec, gspectrum):
        # Re lambda0 = 3: three levels, and no admissible root at order 3
        assert len(gspectrum.states) == 3
        with pytest.raises(NoSuchRoot):
            aeh_solution(gspec, "c", 3)


class TestNormalization:
    """Closed-form (Cauchy beta) normalization against brute-force quadrature."""

    CORPUS = [
        gendenshtein_params(2.5, 0.5),
        gendenshtein_params(3.3, 1.2),
        gendenshtein_params(9.7, 3.0),
        gendenshtein_params(12.3, 0.0),
        PotentialSpec(h0=complex(7.75, 3.0), kappa_plus=0.52),
        PotentialSpec(h0=complex(7.75, 3.0), kappa_plus=2.9),
    ]

    @pytest.mark.parametrize("spec", CORPUS, ids=lambda s: "h0=%g%+gi,kappa=%g" % (
        s.h0.real, s.h0.imag, s.kappa_plus))
    def test_matches_quadrature(self, spec):
        kappa = spec.kappa_plus
        checked = 0
        for st in enumerate_bound_spectrum(spec).states:
            st = normalized(spec, st)
            try:
                norm2 = adaptive_quadrature(
                    lambda e: phi_value(st, e) ** 2 * (e * e + kappa) / (1 + e * e) ** 2,
                    -np.inf, np.inf, tol=1e-10,
                )
            except NotConverged:
                continue
            assert abs(norm2 - 1.0) < 1e-9, (st.n, norm2)
            checked += 1
        assert checked >= 3


class TestResidualOracle:
    def test_exact_ground_state(self, gspec):
        s = enumerate_bound_spectrum(gspec)
        st = s.states[0]
        res = rcsle_residual(gspec, st.energy, st, np.linspace(-8, 8, 41))
        assert res < 1e-10

    def test_perturbation_detected(self, gspec):
        s = enumerate_bound_spectrum(gspec)
        st = s.states[0]
        bad = st._replace(poly=routh_record(
            st.n, st.poly.index, poly_mul(coeffs(st.poly), [1, Fraction(0.01)])))
        res = rcsle_residual(gspec, st.energy, bad, np.linspace(-8, 8, 41))
        assert res > 1e-4

    def test_zero_function_degenerate(self, gspec):
        st = enumerate_bound_spectrum(gspec).states[0]
        zero = st._replace(poly=st.poly._replace(num=()))
        assert rcsle_residual(gspec, -1.0, zero, [0.0, 1.0]) == 0.0


class TestAehSolutions:
    def test_basic_seed_is_nodeless(self, gspec):
        sol = aeh_solution(gspec, "d", 0)
        assert sol.nodes == 0 and len(sol.poly.num) - 1 == 0

    def test_gendenshtein_type_d_energies(self):
        for a_g, b_g in ((2.5, 0.5), (1.3, 0.9), (3.1, 0.0)):
            spec = gendenshtein_params(a_g, b_g)
            for m in range(3):
                sol = aeh_solution(spec, "d", m)
                assert_allclose(sol.energy, -((a_g + m + 1) ** 2), rtol=1e-10)

    def test_type_d_below_ground(self, gspec, milson_spec):
        for spec in (gspec, milson_spec):
            ground = enumerate_bound_spectrum(spec).energies[0]
            for m in range(3):
                assert aeh_solution(spec, "d", m).energy < ground

    def test_order_two_small_asymmetry_nodeless(self):
        sol = aeh_solution(gendenshtein_params(2.5, 0.3), "d", 2)
        assert sol.nodes == real_root_count(sol.poly.num) == 0

    def test_no_such_root(self, gspec):
        with pytest.raises(NoSuchRoot):
            aeh_solution(gspec, "c", 9)

    def test_residual_gate_for_both_kinds(self, gspec, milson_spec):
        # the sampled float cross-check of the derived convention: every bound
        # state and every type-d solution up to order 4, on the samples of the
        # former run-time gate
        etas = np.linspace(-8.0, 8.0, 33)
        for spec in (gspec, milson_spec):
            sols = list(enumerate_bound_spectrum(spec).states)
            sols += [aeh_solution(spec, "d", m) for m in range(5)]
            assert len(sols) >= 8
            for sol in sols:
                res = rcsle_residual(spec, sol.energy, sol, etas)
                assert res < 1e-9, (sol, res)


class TestNamedPotentials:
    def test_gendenshtein_symmetric(self):
        spec = gendenshtein_params(2.5, 0.0)
        assert_allclose([spec.lambda0.real, spec.h0.real, spec.h0.imag], [3.0, 8.0, 0.0], atol=1e-13)

    def test_asymmetry_strength(self, rng):
        for _ in range(10):
            a_g = float(rng.uniform(0.5, 4))
            b_g = float(rng.normal())
            spec = gendenshtein_params(a_g, b_g)
            assert_allclose(spec.h0.imag, (2 * a_g + 1) * b_g, rtol=1e-12)

    def test_nested_radical_round_trip(self, rng):
        for _ in range(10):
            a_g = float(rng.uniform(0.5, 4))
            b_g = float(rng.normal())
            spec = gendenshtein_params(a_g, b_g)
            lam_c, _ = closed_form_lambda_kappa1(spec)
            assert_allclose(lam_c, a_g + 0.5, rtol=1e-12)


class TestStevensonIdentity:
    def test_order_zero_trivial(self, gspectrum):
        assert stevenson_identity_check(gspectrum.states[0]) == 0.0

    def test_order_one_reference_case(self, gspectrum):
        # lambda = 3 + 0.5i at every level for this member
        assert stevenson_identity_check(gspectrum.states[1]) == 0.0

    def test_order_two_random_members(self, rng):
        for _ in range(5):
            a_g = float(rng.uniform(2.2, 4.0))
            b_g = float(rng.normal() * 0.8)
            spectrum = enumerate_bound_spectrum(gendenshtein_params(a_g, b_g))
            assert stevenson_identity_check(spectrum.states[2]) == 0.0

    def test_milson_levels(self, milson_spectrum):
        for n in range(3):
            assert stevenson_identity_check(milson_spectrum.states[n]) == 0.0

    def test_wrong_index_is_detected(self, gspectrum):
        # R_n at the unshifted index -conj(lambda) breaks the identity
        for n in (1, 2):
            st = gspectrum.states[n]
            unshifted = routh_polynomial(n, ComplexIndex.of(-st.lam.conjugate()))
            assert stevenson_identity_check(st._replace(poly=unshifted)) > 1e-3


class TestNodelessScan:
    def test_symmetric_row_always_nodeless(self):
        cells = nodeless_scan((1.0, 3.0), (0.0, 0.0), 2, na=5, nb=2)
        assert all(c.empirical_nodeless for c in cells)

    def test_internal_consistency_and_threshold_boundary(self):
        cells = nodeless_scan((2.0, 3.0), (0.0, 5.0), 2, na=3, nb=6)
        assert all(c.consistent for c in cells if c.consistent is not None)
        # the quoted threshold b^2 < (2a+5)^2/(6a+11) splits the b-range,
        # while the empirical map and the discriminant stay nodeless
        assert any(not c.threshold_prediction for c in cells)
        assert all(c.discriminant_prediction == c.empirical_nodeless for c in cells)

    def test_builds_one_routh_polynomial_per_cell(self, monkeypatch):
        # the discriminant reads the cell's order-2 polynomial; nothing builds it again
        from rrspectra import routh, spectral

        real = routh.routh_polynomial
        calls = []

        def counting(m, alpha):
            calls.append(m)
            return real(m, alpha)

        monkeypatch.setattr(routh, "routh_polynomial", counting)
        monkeypatch.setattr(spectral, "routh_polynomial", counting)
        cells = nodeless_scan((2.0, 3.0), (0.0, 5.0), 2, na=5, nb=5)
        assert all(c.discriminant_prediction is not None for c in cells)
        assert calls == [2] * 25

    def test_axes_are_linspace_bit_for_bit(self, rng):
        # two points, a degenerate range, negative starts, and steps that
        # underflow to zero (numpy's denormal path)
        cases = [(2.0, 3.0, 2), (1.5, 1.5, 7), (-3.0, -3.0, 2), (-0.0, 0.0, 3), (-4.25, 2.5, 16),
                 (-1e-3, 0.0, 5), (0.0, 5e-324, 4), (-5e-324, 5e-324, 3), (2, 4, 16)]
        for _ in range(500):
            start = float(rng.uniform(-50.0, 50.0))
            stop = start + float(rng.choice([0.0, rng.uniform(0.0, 1e-9), rng.uniform(0.0, 60.0)]))
            cases.append((start, stop, int(rng.integers(2, 65))))
        for start, stop, num in cases:
            got = np.array(linspace(start, stop, num))
            assert got.tobytes() == np.linspace(start, stop, num).tobytes(), (start, stop, num)


class TestStevensonDegenerate:
    def test_degenerate_parameter_path(self):
        # 2(lambda_R - n) > 1 for every admissible root, so no Pochhammer in
        # it can vanish; an inadmissible request surfaces as NoSuchRoot
        spec = gendenshtein_params(0.3, 0.0)
        with pytest.raises(NoSuchRoot):
            stevenson_identity_check(aeh_solution(spec, "c", 3))
