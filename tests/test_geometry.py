"""Geometry tests: tangent polynomials, Bose invariant, the map, Schwarzian, potential."""

import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rrspectra import geometry
from rrspectra.errors import NonFiniteSamples
from rrspectra.geometry import (
    PotentialSpec,
    TangentPolySpec,
    VariableMap,
    log_derivative,
    potential,
    sampled,
    schwarzian_eval,
    tangent_eval,
)
from rrspectra.spectral import aeh_solution

from residual import bose_invariant_eval, energy_slope, eta_of_x


class TestTangentPoly:
    def test_basic_values(self):
        assert tangent_eval(TangentPolySpec(1.0, 1.0), 0.0) == 1.0
        assert tangent_eval(TangentPolySpec(1.0, 2.0), 1.0) == 3.0

    def test_negative_discriminant_enforced(self):
        for kappa in (0.0, -1.0):
            with pytest.raises(ValueError):
                TangentPolySpec(a=1.0, kappa_plus=kappa)

    def test_leading_coefficient_consistency(self):
        # general form [c(eta-i)^2 + c(eta+i)^2 + d(eta^2+1)]/4, with c the
        # (real) energy coupling: its leading coefficient (2c + d)/4 is a
        spec = PotentialSpec(h0=7.75, tp=TangentPolySpec(a=1.5, kappa_plus=2.0))
        c, d = spec.energy_coupling, energy_slope(spec.tp)
        assert_allclose((2 * c + d) / 4.0, spec.tp.a, rtol=1e-14)
        for eta in (-2.0, 0.0, 0.7):
            direct = (2 * c * (eta ** 2 - 1) + d * (eta ** 2 + 1)) / 4
            assert_allclose(tangent_eval(spec.tp, eta), direct, rtol=1e-14)


class TestPotentialSpec:
    def test_decay_constraint_baked_in(self, gspec):
        assert_allclose(gspec.o00, 2 * gspec.h0.real + 1)

    def test_branch_invariant(self):
        with pytest.raises(ValueError):
            PotentialSpec(h0=-5.0, tp=TangentPolySpec(1.0, 1.0))


class TestBoseInvariant:
    def test_value_at_origin(self, gspec):
        # at eta=0 the fractions collapse: I(0) = (2 Re h(e) + O0(e))/4
        for eps in (0.0, -1.0, -6.25):
            h = gspec.h0 - gspec.energy_coupling * eps
            o0 = gspec.o00 + energy_slope(gspec.tp) * eps
            assert_allclose(bose_invariant_eval(gspec, eps, 0.0), (2 * h.real + o0) / 4.0, rtol=1e-14)

    def test_matches_complex_fraction_form(self, milson_spec, rng):
        # independent evaluation straight from the +-i pole expansion
        c = milson_spec.energy_coupling
        for _ in range(20):
            eta = float(rng.normal() * 3)
            eps = float(-rng.uniform(0, 5))
            h = milson_spec.h0 - c * eps
            o0 = milson_spec.o00 + energy_slope(milson_spec.tp) * eps
            direct = -0.25 * (
                h / (eta + 1j) ** 2 + h.conjugate() / (eta - 1j) ** 2 - o0 / (eta ** 2 + 1)
            )
            assert abs(direct.imag) < 1e-12
            assert_allclose(bose_invariant_eval(milson_spec, eps, eta), direct.real, rtol=1e-12)

    def test_real_for_random_inputs(self, gspec, rng):
        vals = bose_invariant_eval(gspec, -2.0, rng.normal(size=20) * 4)
        assert np.all(np.isfinite(vals))


class TestVariableMap:
    def test_kappa_one_is_sinh(self):
        vm = VariableMap(TangentPolySpec(1.0, 1.0), 6.0, 512)
        xs = np.linspace(-6, 6, 121)
        assert np.max(np.abs([eta_of_x(vm.tp, x) for x in xs] - np.sinh(xs))) < 1e-9

    def test_anchor_and_oddness(self):
        vm = VariableMap(TangentPolySpec(1.0, 2.0), 8.0, 256)
        assert eta_of_x(vm.tp, 0.0) == 0.0
        xs = np.linspace(0.1, 8.0, 40)
        assert max(abs(eta_of_x(vm.tp, -x) + eta_of_x(vm.tp, x)) for x in xs) < 1e-10

    def test_round_trip_inversion(self):
        vm = VariableMap(TangentPolySpec(2.0, 3.0), 10.0, 256)
        sub = vm.x_grid[::16]
        back = np.array([geometry.liouville(vm.tp)(eta_of_x(vm.tp, x)) for x in sub])
        assert np.max(np.abs(back - sub)) < 1e-10

    def test_monotone_table(self):
        vm = VariableMap(TangentPolySpec(1.0, 2.0), 12.0, 512)
        assert np.all(np.diff(vm.eta_grid) > 0)

    def test_spacing(self):
        # the oracle's grid step: the width over n - 1, as the map's x grid has it
        vm = VariableMap(TangentPolySpec(1.0, 2.0), 12.3, 1001)
        assert vm.dx == (vm.x_max - -vm.x_max) / (vm.n_points - 1)
        assert_allclose(np.diff(vm.x_grid), vm.dx, rtol=1e-12)

    @pytest.mark.parametrize("a", [1.0, 2.0])
    @pytest.mark.parametrize("kappa", [0.01, 0.55, 1.0, 2.7, 30.0])
    def test_matches_independent_solve(self, a, kappa):
        # eta(x) from a DOP853 solve of eta' = (1+eta^2)/sqrt(T), x(eta) by quadrature
        from scipy.integrate import quad, solve_ivp

        tp = TangentPolySpec(a, kappa)
        vm = VariableMap(tp, 12.0, 1025)
        sol = solve_ivp(
            lambda _x, y: [(1.0 + y[0] ** 2) / math.sqrt(a * (y[0] ** 2 + kappa))],
            (0.0, 12.0), [0.0], method="DOP853", rtol=1e-13, atol=1e-14, dense_output=True,
        )
        half = vm.x_grid[512:]
        ref = sol.sol(half)[0]
        assert np.max(np.abs(vm.eta_grid[512:] - ref) / np.maximum(1.0, ref)) < 1e-11
        x_of = geometry.liouville(tp)
        for eta in (0.3, 1.0, 4.0, 50.0, 3e3):
            val, _err = quad(lambda u: math.sqrt(a * (u * u + kappa)) / (1.0 + u * u), 0.0, eta,
                             epsabs=1e-13, epsrel=1e-13, limit=200)
            assert abs(x_of(eta) - val) < 1e-11 * max(1.0, val)
            assert x_of(-eta) == -x_of(eta)

    @pytest.mark.parametrize("kappa", [0.55, 1.0, 2.7])
    def test_huge_eta_stays_finite(self, kappa):
        x_of = geometry.liouville(TangentPolySpec(1.0, kappa))
        x = x_of(1e200)
        assert math.isfinite(x) and x > x_of(1e100) > 0

    @pytest.mark.parametrize("kappa", [0.55, 1.0, 2.7])
    def test_eta_past_the_double_range_is_non_finite(self, kappa):
        # eta = sinh s overflows past |s| = 710.47, where s = x for kappa = 1
        with pytest.raises(NonFiniteSamples, match="overflow"):
            VariableMap(TangentPolySpec(1.0, kappa), 780.19, 4641)
        vm = VariableMap(TangentPolySpec(1.0, 1.0), 710.0, 257)
        assert np.all(np.isfinite(vm.eta_grid)) and vm.eta_grid[-1] > 1e308

    @pytest.mark.parametrize("n", [1025, 4097, 16385])
    @pytest.mark.parametrize("kappa", [1e5, 1e6, 1e7])
    def test_large_kappa_inverse_converges(self, kappa, n):
        # on the oracle's box |x| >> |s|, so a step of 1e-14 s is below the
        # rounding of x(eta) - x; the solve stops within a few ulps of x
        spec = PotentialSpec(complex(5.0, 2.0), TangentPolySpec(1.0, kappa))
        vm = VariableMap(spec.tp, geometry.decay_x_max(spec, 1e-12), n)
        x_of = geometry.liouville(spec.tp)
        eps = sys.float_info.epsilon
        for x, eta in zip(vm.x_grid, vm.eta_grid):
            assert abs(x_of(eta) - x) <= 4 * eps * abs(x), x

    @pytest.mark.parametrize("x_max, n", [(12.0, 8192), (23.25, 8192), (60.0, 10001),
                                          (31.7, 5283), (7.25, 4096), (400.0, 4096)])
    def test_grid_is_linspace_bit_for_bit(self, x_max, n):
        vm = VariableMap(TangentPolySpec(1.0, 1.0), x_max, n)
        assert vm.x_grid == np.linspace(-x_max, x_max, n).tolist()

    @pytest.mark.parametrize("kappa", [0.05, 0.55, 1.0, 2.7, 20.0])
    def test_table_matches_pointwise_inverse(self, kappa):
        # the table starts each solve from its neighbours and takes the lower
        # half from its upper mirror; a single point starts from its own guess.
        # They agree within 8 roundings of s = asinh eta (at most 4.6 seen);
        # without the correction for the rounding of a lower x, 11 to 84
        vm = VariableMap(TangentPolySpec(1.5, kappa), 60.0, 10001)
        assert isinstance(vm.eta_grid, list) and isinstance(vm.x_grid, list)
        eps = sys.float_info.epsilon
        for x, eta in zip(vm.x_grid, vm.eta_grid):
            s = math.asinh(eta_of_x(vm.tp, x))
            assert abs(math.asinh(eta) - s) <= 8 * eps * max(1.0, abs(s)), x
        for i in range(vm.n_points // 2):
            j = vm.n_points - 1 - i
            if vm.x_grid[i] == -vm.x_grid[j]:
                assert vm.eta_grid[i] == -vm.eta_grid[j]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            VariableMap(TangentPolySpec(1.0, 1.0), 5.0, 32)
        with pytest.raises(ValueError):
            VariableMap(TangentPolySpec(1.0, 1.0), -1.0, 128)


class TestSchwarzian:
    def test_kappa_one_origin(self):
        assert_allclose(schwarzian_eval(TangentPolySpec(1.0, 1.0), 0.0), 1.0, rtol=1e-14)

    def test_asymptotic_limit(self):
        for a in (1.0, 2.5):
            tp = TangentPolySpec(a, 1.7)
            assert_allclose(a * schwarzian_eval(tp, 1e6), -0.5, atol=1e-9)

    def test_against_finite_difference_definition(self):
        # {eta,x} = (eta''/eta')' - (eta''/eta')^2/2, via the numeric map
        tp = TangentPolySpec(1.0, 2.0)
        vm = VariableMap(tp, 8.0, 1024)
        h = 1e-3

        def schwarzian_fd(x):
            e = [eta_of_x(vm.tp, t) for t in (x - 2 * h, x - h, x, x + h, x + 2 * h)]
            d1 = (e[3] - e[1]) / (2 * h)
            d2 = (e[3] - 2 * e[2] + e[1]) / h ** 2
            d3 = (e[4] - 2 * e[3] + 2 * e[1] - e[0]) / (2 * h ** 3)
            return d3 / d1 - 1.5 * (d2 / d1) ** 2

        xs = [geometry.liouville(vm.tp)(e) for e in (-5.0, -2.0, -0.5, 0.0, 1.0, 3.0, 5.0)]
        worst = max(
            abs(schwarzian_fd(x) - schwarzian_eval(tp, eta_of_x(vm.tp, x))) for x in xs
        )
        assert worst < 1e-6


class TestPotential:
    def test_gendenshtein_closed_form(self, gspec, gmap):
        a_g, b_g = 2.5, 0.5
        xs = np.linspace(-6, 6, 61)
        expected = (b_g ** 2 - a_g * (a_g + 1)) / np.cosh(xs) ** 2 + (
            2 * a_g + 1
        ) * b_g * np.sinh(xs) / np.cosh(xs) ** 2
        v = potential(gspec)(np.array([eta_of_x(gmap.tp, x) for x in xs]))
        assert np.max(np.abs(v - expected)) < 1e-9

    def test_symmetric_is_even(self):
        spec = PotentialSpec(h0=8.0, tp=TangentPolySpec(1.0, 2.0))
        vm = VariableMap(spec.tp, 10.0, 512)
        xs = np.linspace(0.0, 10.0, 64)
        v_pos = potential(spec)(np.array([eta_of_x(vm.tp, x) for x in xs]))
        v_neg = potential(spec)(np.array([eta_of_x(vm.tp, -x) for x in xs]))
        assert np.max(np.abs(v_pos - v_neg)) < 1e-10

    @pytest.mark.parametrize("a, kappa", [(1.0, 1.0), (4.0, 2.0)])
    def test_decays_where_four_t_overflows(self, a, kappa):
        # 4a(eta^2 + kappa) overflows once eta^2 > ~4.5e307/a, while eta^2
        # itself does not; V must still be ~Im(h0)/(a eta), not 1/(4a)
        spec = PotentialSpec(h0=complex(7.75, 3.0), tp=TangentPolySpec(a, kappa))
        for eta in (5e153, 5.4e153, 1e154):
            assert abs(potential(spec)(eta)) < 1e-12
            assert abs(potential(spec)(-eta)) < 1e-12



class TestFloatsAndArrays:
    ETAS = [-3e100, -2e5, -2.5, -0.3, 0.0, 0.7, 4.0, 1e6, 1e100]

    def test_closed_forms_take_a_float_or_an_array(self, gspec, milson_spec):
        # the arithmetic closed forms run the same code on both; only sqrt
        # (numpy's sqrt against the float power 0.5) may round differently
        for spec in (gspec, milson_spec):
            etas = np.array(self.ETAS)
            assert potential(spec)(etas).tolist() == [potential(spec)(e) for e in self.ETAS]
            assert schwarzian_eval(spec.tp, etas).tolist() == [schwarzian_eval(spec.tp, e) for e in self.ETAS]
            seed = aeh_solution(spec, "d", 2)
            assert_allclose(log_derivative(spec.tp, seed)(etas),
                            [log_derivative(spec.tp, seed)(e) for e in self.ETAS], rtol=1e-15)

    def test_float_overflow_samples_nan(self, gspec):
        # in plain floats exp and ** raise OverflowError where numpy gave inf;
        # past |x| ~ 355 eta^2 is inf and psi is inf/inf: every such sample
        # is NaN for require_finite to count, never an exception
        vm = VariableMap(gspec.tp, 400.0, 801)
        seed = aeh_solution(gspec, "d", 0)  # p > 0: the gauge itself overflows far out
        (psi,) = sampled([seed], vm)
        bad = [x for x, v in zip(vm.x_grid, psi) if not math.isfinite(v)]
        assert bad and all(math.isnan(v) for v in psi if not math.isfinite(v))
        assert min(abs(x) for x in bad) > 100.0
        with pytest.raises(NonFiniteSamples, match="of 801 psi samples are NaN or infinite"):
            geometry.require_finite("psi", [psi])
