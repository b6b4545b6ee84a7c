"""Geometry tests: tangent polynomials, Bose invariant, the map, Schwarzian, potential."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rrspectra import geometry
from rrspectra.errors import NonFiniteSamples, OutOfGrid
from rrspectra.geometry import (
    PotentialSpec,
    TangentPolySpec,
    VariableMap,
    choose_x_max,
    potential_of_eta,
    schwarzian_eval,
    tangent_eval,
)

from residual import bose_invariant_eval, energy_slope


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
        assert np.max(np.abs(vm.eta_of_x(xs) - np.sinh(xs))) < 1e-9

    def test_anchor_and_oddness(self):
        vm = VariableMap(TangentPolySpec(1.0, 2.0), 8.0, 256)
        assert vm.eta_of_x(0.0) == 0.0
        xs = np.linspace(0.1, 8.0, 40)
        assert np.max(np.abs(vm.eta_of_x(-xs) + vm.eta_of_x(xs))) < 1e-10

    def test_round_trip_inversion(self):
        vm = VariableMap(TangentPolySpec(2.0, 3.0), 10.0, 256)
        sub = vm.x_grid[::16]
        back = np.array([geometry.liouville_x(vm.tp, e) for e in vm.eta_of_x(sub)])
        assert np.max(np.abs(back - sub)) < 1e-10

    def test_monotone_table(self):
        vm = VariableMap(TangentPolySpec(1.0, 2.0), 12.0, 512)
        assert np.all(np.diff(vm.eta_grid) > 0)

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
        for eta in (0.3, 1.0, 4.0, 50.0, 3e3):
            val, _err = quad(lambda u: math.sqrt(a * (u * u + kappa)) / (1.0 + u * u), 0.0, eta,
                             epsabs=1e-13, epsrel=1e-13, limit=200)
            assert abs(geometry.liouville_x(vm.tp, eta) - val) < 1e-11 * max(1.0, val)
            assert geometry.liouville_x(vm.tp, -eta) == -geometry.liouville_x(vm.tp, eta)

    @pytest.mark.parametrize("kappa", [0.55, 1.0, 2.7])
    def test_huge_eta_stays_finite(self, kappa):
        vm = VariableMap(TangentPolySpec(1.0, kappa), 5.0, 128)
        x = geometry.liouville_x(vm.tp, 1e200)
        assert math.isfinite(x) and x > geometry.liouville_x(vm.tp, 1e100) > 0

    @pytest.mark.parametrize("kappa", [0.55, 1.0, 2.7])
    def test_eta_past_the_double_range_is_non_finite(self, kappa):
        # eta = sinh s overflows past |s| = 710.47, where s = x for kappa = 1
        with pytest.raises(NonFiniteSamples, match="overflow"):
            VariableMap(TangentPolySpec(1.0, kappa), 780.19, 4641)
        vm = VariableMap(TangentPolySpec(1.0, 1.0), 710.0, 257)
        assert np.all(np.isfinite(vm.eta_grid)) and vm.eta_grid[-1] > 1e308

    def test_out_of_grid(self):
        vm = VariableMap(TangentPolySpec(1.0, 1.0), 5.0, 128)
        with pytest.raises(OutOfGrid):
            vm.eta_of_x(5.5)

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
            e = vm.eta_of_x(np.array([x - 2 * h, x - h, x, x + h, x + 2 * h]))
            d1 = (e[3] - e[1]) / (2 * h)
            d2 = (e[3] - 2 * e[2] + e[1]) / h ** 2
            d3 = (e[4] - 2 * e[3] + 2 * e[1] - e[0]) / (2 * h ** 3)
            return d3 / d1 - 1.5 * (d2 / d1) ** 2

        xs = [geometry.liouville_x(vm.tp, e) for e in (-5.0, -2.0, -0.5, 0.0, 1.0, 3.0, 5.0)]
        worst = max(
            abs(schwarzian_fd(x) - schwarzian_eval(tp, vm.eta_of_x(x))) for x in xs
        )
        assert worst < 1e-6


class TestPotential:
    def test_gendenshtein_closed_form(self, gspec, gmap):
        a_g, b_g = 2.5, 0.5
        xs = np.linspace(-6, 6, 61)
        expected = (b_g ** 2 - a_g * (a_g + 1)) / np.cosh(xs) ** 2 + (
            2 * a_g + 1
        ) * b_g * np.sinh(xs) / np.cosh(xs) ** 2
        v = potential_of_eta(gspec, gmap.eta_of_x(xs))
        assert np.max(np.abs(v - expected)) < 1e-9

    def test_symmetric_is_even(self):
        spec = PotentialSpec(h0=8.0, tp=TangentPolySpec(1.0, 2.0))
        vm = VariableMap(spec.tp, 10.0, 512)
        xs = np.linspace(0.0, 10.0, 64)
        v_pos = potential_of_eta(spec, vm.eta_of_x(xs))
        v_neg = potential_of_eta(spec, vm.eta_of_x(-xs))
        assert np.max(np.abs(v_pos - v_neg)) < 1e-10

    def test_decay_at_chosen_x_max(self, milson_spec):
        x_max = choose_x_max(milson_spec)
        vm = VariableMap(milson_spec.tp, x_max, 256)
        assert abs(potential_of_eta(milson_spec, vm.eta_of_x(x_max))) < 1e-3
        assert abs(potential_of_eta(milson_spec, vm.eta_of_x(-x_max))) < 1e-3

    @pytest.mark.parametrize("a, kappa", [(1.0, 1.0), (4.0, 2.0)])
    def test_decays_where_four_t_overflows(self, a, kappa):
        # 4a(eta^2 + kappa) overflows once eta^2 > ~4.5e307/a, while eta^2
        # itself does not; V must still be ~Im(h0)/(a eta), not 1/(4a)
        spec = PotentialSpec(h0=complex(7.75, 3.0), tp=TangentPolySpec(a, kappa))
        for eta in (5e153, 5.4e153, 1e154):
            assert abs(potential_of_eta(spec, eta)) < 1e-12
            assert abs(potential_of_eta(spec, -eta)) < 1e-12

    def test_out_of_grid_error(self, gspec, gmap):
        with pytest.raises(OutOfGrid):
            potential_of_eta(gspec, gmap.eta_of_x(gmap.x_max + 1.0))

