"""Geometry tests: the tangent polynomial, Bose invariant, the map, Schwarzian,
potential, and the forms in t against their references in eta."""

import ast
import glob
import math
import os
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rrspectra import geometry
from rrspectra.errors import NonFiniteSamples, StepFailure
from rrspectra.geometry import PotentialSpec, partner_potential, sampled, t_grid, t_of_x
from rrspectra.spectral import aeh_solution, enumerate_bound_spectrum, normalized

from residual import (
    bose_invariant_eval,
    constant_term,
    energy_slope,
    eta_of_x,
    eta_prime,
    phi_value,
    potential_eta,
    potential_t,
    schwarzian_eta,
)


class TestTangentPoly:
    def test_basic_values(self):
        # eta' = (1 + eta^2) / sqrt(eta^2 + kappa)
        assert eta_prime(1.0, 0.0) == 1.0
        assert eta_prime(2.0, 1.0) == 2.0 / 3.0 ** 0.5

    def test_negative_discriminant_enforced(self):
        for kappa in (0.0, -1.0):
            with pytest.raises(ValueError):
                PotentialSpec(h0=7.75, kappa_plus=kappa)

    def test_leading_coefficient_consistency(self):
        # general form [c(eta-i)^2 + c(eta+i)^2 + d(eta^2+1)]/4, with c the
        # (real) energy coupling: it is T = eta^2 + kappa, leading coefficient 1
        spec = PotentialSpec(h0=7.75, kappa_plus=2.0)
        c, d = 1.0 - spec.kappa_plus, energy_slope(spec.kappa_plus)
        assert_allclose((2 * c + d) / 4.0, 1.0, rtol=1e-14)
        for eta in (-2.0, 0.0, 0.7):
            direct = (2 * c * (eta ** 2 - 1) + d * (eta ** 2 + 1)) / 4
            assert_allclose(eta * eta + spec.kappa_plus, direct, rtol=1e-14)


class TestPotentialSpec:
    def test_decay_constraint_baked_in(self, gspec, milson_spec):
        # O00 = 2 Re h0 + 1 is the one constant term for which eta^2 I(eta; 0)
        # tends to the 1/4 that the Schwarzian term of V cancels, so the
        # potential, which takes no O00, decays at both ends
        for spec in (gspec, milson_spec):
            for eta in (-1e6, 1e6):
                assert_allclose(eta * eta * bose_invariant_eval(spec, 0.0, eta), 0.25, rtol=1e-4)
                assert abs(potential_t(spec, [math.asinh(eta)])[0]) < 1e-5  # V ~ Im(h0)/eta

    def test_branch_invariant(self):
        with pytest.raises(ValueError):
            PotentialSpec(h0=-5.0, kappa_plus=1.0)


class TestBoseInvariant:
    def test_value_at_origin(self, gspec):
        # at eta=0 the fractions collapse: I(0) = (2 Re h(e) + O0(e))/4
        for eps in (0.0, -1.0, -6.25):
            h = gspec.h0 - (1.0 - gspec.kappa_plus) * eps
            o0 = constant_term(gspec) + energy_slope(gspec.kappa_plus) * eps
            assert_allclose(bose_invariant_eval(gspec, eps, 0.0), (2 * h.real + o0) / 4.0, rtol=1e-14)

    def test_matches_complex_fraction_form(self, milson_spec, rng):
        # independent evaluation straight from the +-i pole expansion
        c = 1.0 - milson_spec.kappa_plus
        for _ in range(20):
            eta = float(rng.normal() * 3)
            eps = float(-rng.uniform(0, 5))
            h = milson_spec.h0 - c * eps
            o0 = constant_term(milson_spec) + energy_slope(milson_spec.kappa_plus) * eps
            direct = -0.25 * (
                h / (eta + 1j) ** 2 + h.conjugate() / (eta - 1j) ** 2 - o0 / (eta ** 2 + 1)
            )
            assert abs(direct.imag) < 1e-12
            assert_allclose(bose_invariant_eval(milson_spec, eps, eta), direct.real, rtol=1e-12)

    def test_real_for_random_inputs(self, gspec, rng):
        vals = bose_invariant_eval(gspec, -2.0, rng.normal(size=20) * 4)
        assert np.all(np.isfinite(vals))


class TestTGrid:
    def test_kappa_one_is_sinh(self):
        xs = np.linspace(-6, 6, 121)
        assert np.max(np.abs([eta_of_x(1.0, x) for x in xs] - np.sinh(xs))) < 1e-9

    @pytest.mark.parametrize("kappa", [0.01, 0.55, 1.0, 3.0, 1e5, 1e7])
    def test_round_trip_inversion(self, kappa):
        # the bisection ends at adjacent doubles of t, where X(t) brackets x
        x_of = geometry.liouville(kappa)
        for x in np.linspace(0.01, 40.0, 41).tolist() + [1e-300, 700.0]:
            t = t_of_x(kappa, x)
            assert x_of(np.nextafter(t, 0.0)) < x <= x_of(t)
            assert abs(x_of(t) - x) <= 8 * sys.float_info.epsilon * x * max(1.0, t)

    def test_monotone_grid(self):
        grid = t_grid(12.0, t_of_x(2.0, 12.0), 512)
        xs = list(map(geometry.liouville(2.0), grid.ts))
        assert np.all(np.diff(grid.ts) > 0) and np.all(np.diff(xs) > 0)
        assert xs[0] == -xs[-1] and xs[-2] < 12.0 <= xs[-1]

    def test_spacing(self):
        # the oracle's grid step: the width over n - 1, as the t grid has it
        grid = t_grid(12.3, t_of_x(2.0, 12.3), 1001)
        assert grid.dt == (grid.t_max - -grid.t_max) / (grid.n - 1)
        assert_allclose(np.diff(grid.ts), grid.dt, rtol=1e-12)

    @pytest.mark.parametrize("kappa", [0.01, 0.55, 1.0, 2.7, 30.0])
    def test_matches_independent_solve(self, kappa):
        # eta(x) from a DOP853 solve of eta' = (1+eta^2)/sqrt(T), x(eta) by quadrature
        from scipy.integrate import quad, solve_ivp

        sol = solve_ivp(
            lambda _x, y: [(1.0 + y[0] ** 2) / math.sqrt(y[0] ** 2 + kappa)],
            (0.0, 12.0), [0.0], method="DOP853", rtol=1e-13, atol=1e-14, dense_output=True,
        )
        half = np.linspace(0.0, 12.0, 513)
        ref = sol.sol(half)[0]
        etas = np.array([eta_of_x(kappa, x) for x in half])
        assert np.max(np.abs(etas - ref) / np.maximum(1.0, ref)) < 1e-11
        x_of = geometry.liouville(kappa)
        for eta in (0.3, 1.0, 4.0, 50.0, 3e3):
            val, _err = quad(lambda u: math.sqrt(u * u + kappa) / (1.0 + u * u), 0.0, eta,
                             epsabs=1e-13, epsrel=1e-13, limit=200)
            t = math.asinh(eta)
            assert abs(x_of(t) - val) < 1e-11 * max(1.0, val)
            assert x_of(-t) == -x_of(t)

    @pytest.mark.parametrize("kappa", [0.55, 1.0, 2.7])
    def test_huge_eta_stays_finite(self, kappa):
        x_of = geometry.liouville(kappa)
        x = x_of(math.asinh(1e200))
        assert math.isfinite(x) and x > x_of(math.asinh(1e100)) > 0

    @pytest.mark.parametrize("kappa", [0.55, 1.0, 2.7])
    def test_eta_past_the_double_range_is_non_finite(self, kappa):
        # eta = sinh t overflows past |t| = 710.47, where t = x for kappa = 1
        with pytest.raises(NonFiniteSamples, match="eta samples overflow"):
            t_of_x(kappa, 780.19)
        with pytest.raises(OverflowError):
            geometry.liouville(kappa)(711.0)
        grid = t_grid(710.0, t_of_x(1.0, 710.0), 257)
        xs = list(map(geometry.liouville(1.0), grid.ts))
        assert np.all(np.isfinite(xs)) and math.sinh(grid.t_max) > 1e308

    def test_grid_too_narrow_for_doubles(self):
        # 257 points on [-5e-324, 5e-324] round to three doubles
        with pytest.raises(StepFailure, match="not strictly increasing"):
            t_grid(5e-324, t_of_x(1.0, 5e-324), 257)

    @pytest.mark.parametrize("x_max, n", [(12.0, 8192), (23.25, 8192), (60.0, 10001),
                                          (31.7, 5283), (7.25, 4096), (400.0, 4096)])
    def test_grid_is_linspace_bit_for_bit(self, x_max, n):
        grid = t_grid(x_max, t_of_x(1.0, x_max), n)
        assert grid.ts == np.linspace(-grid.t_max, grid.t_max, n).tolist()
        # a refined grid keeps this one's points as its even points
        assert t_grid(x_max, grid.t_max, 2 * n - 1).ts[::2] == grid.ts


def test_sinh_is_named_in_liouville_alone():
    # eta = sinh t is formed in one place, the x column's map; every sampled
    # column is read from sech t and tanh t, which do not overflow
    where = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(geometry.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.name if isinstance(node, ast.alias) else None)
                if name == "sinh":
                    where.append((os.path.basename(path), getattr(top, "name", None)))
    assert where and set(where) == {("geometry.py", "liouville")}, where


class TestWeightedScarf:
    """-psi_xx + V psi = e psi in t = asinh eta is -phi_tt + Q phi = e W phi."""

    @pytest.mark.parametrize("h0", [complex(7.75, 3.0), complex(0.5, 7.5), complex(-0.84, 0.0)])
    @pytest.mark.parametrize("kappa", [0.05, 0.3, 1.0, 2.0, 20.0])
    def test_liouville_identity(self, kappa, h0):
        # Q = W V - {X, t}/2, with the chain rule for the Schwarzian of
        # sinh t = eta(X(t)): {X, t} = -W {eta, x} + 1 - (3/2) tanh^2 t, and V
        # and {eta, x} from their references in eta
        spec = PotentialSpec(h0=h0, kappa_plus=kappa)
        ts = np.linspace(-40.0, 40.0, 4001)
        etas = np.sinh(ts)
        q, w = np.array([geometry.weighted_scarf(spec)(t) for t in ts.tolist()]).T
        wv = w * potential_eta(spec, etas)
        schwarzian_t = -w * schwarzian_eta(kappa, etas) + 1.0 - 1.5 * np.tanh(ts) ** 2
        assert_allclose(w, (etas * etas + kappa) / (etas * etas + 1.0), rtol=1e-14)
        scale = np.abs(wv) + np.abs(schwarzian_t) + 1.0
        assert np.max(np.abs(wv - 0.5 * schwarzian_t - q) / scale) < 1e-14

    def test_kappa_one_is_the_potential(self, gspec):
        # at kappa = 1, t = x, W = 1 and Q is the Gendenshtein closed form
        a_g, b_g = 2.5, 0.5
        for t in np.linspace(-30.0, 30.0, 61).tolist():
            q, w = geometry.weighted_scarf(gspec)(t)
            expected = ((b_g ** 2 - a_g * (a_g + 1)) + (2 * a_g + 1) * b_g * math.sinh(t)) / math.cosh(t) ** 2
            assert w == 1.0 and q == pytest.approx(expected, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("kappa", [0.05, 1.0, 20.0])
    def test_bounded_to_the_double_range(self, kappa):
        # sech t and tanh t alone: nothing overflows while cosh t is finite
        q_w = geometry.weighted_scarf(PotentialSpec(h0=complex(7.75, 3.0), kappa_plus=kappa))
        for t in (-710.0, -400.0, 400.0, 710.0):
            q, w = q_w(t)
            assert abs(q) < 1e-150 and w == 1.0


class TestSchwarzian:
    def test_kappa_one_origin(self):
        assert_allclose(schwarzian_eta(1.0, 0.0), 1.0, rtol=1e-14)

    def test_asymptotic_limit(self):
        assert_allclose(schwarzian_eta(1.7, 1e6), -0.5, atol=1e-9)

    def test_against_finite_difference_definition(self):
        # {eta,x} = (eta''/eta')' - (eta''/eta')^2/2, via the numeric map
        h = 1e-3

        def schwarzian_fd(x):
            e = [eta_of_x(2.0, t) for t in (x - 2 * h, x - h, x, x + h, x + 2 * h)]
            d1 = (e[3] - e[1]) / (2 * h)
            d2 = (e[3] - 2 * e[2] + e[1]) / h ** 2
            d3 = (e[4] - 2 * e[3] + 2 * e[1] - e[0]) / (2 * h ** 3)
            return d3 / d1 - 1.5 * (d2 / d1) ** 2

        x_of = geometry.liouville(2.0)
        xs = [x_of(math.asinh(e)) for e in (-5.0, -2.0, -0.5, 0.0, 1.0, 3.0, 5.0)]
        worst = max(abs(schwarzian_fd(x) - schwarzian_eta(2.0, eta_of_x(2.0, x))) for x in xs)
        assert worst < 1e-6


class TestPotential:
    """V in t (``geometry.liouville_terms``)."""

    def test_gendenshtein_closed_form(self, gspec):
        a_g, b_g = 2.5, 0.5
        xs = np.linspace(-6, 6, 61)  # t = x at kappa = 1
        expected = (b_g ** 2 - a_g * (a_g + 1)) / np.cosh(xs) ** 2 + (
            2 * a_g + 1
        ) * b_g * np.sinh(xs) / np.cosh(xs) ** 2
        assert np.max(np.abs(potential_t(gspec, xs) - expected)) < 1e-13

    def test_symmetric_is_even(self):
        spec = PotentialSpec(h0=8.0, kappa_plus=2.0)
        ts = np.linspace(0.0, 10.0, 64)
        assert potential_t(spec, ts).tolist() == potential_t(spec, -ts).tolist()

    @pytest.mark.parametrize("h0", [complex(7.75, 3.0), complex(0.5, 7.5), complex(-0.84, 0.0)])
    @pytest.mark.parametrize("kappa", [1e-12, 0.05, 1.0, 2.0, 20.0, 1e8])
    def test_matches_the_eta_reference(self, kappa, h0):
        # the form in eta at 80 digits: in doubles its terms cancel, to about
        # 1/4 each in the tails and to 1/kappa^2 near t = 0 for small kappa;
        # V in t carries the roundoff of terms of size sech^2 t, 2.4e-14 of
        # them at kappa 1e8
        mpmath = pytest.importorskip("mpmath")
        spec = PotentialSpec(h0=h0, kappa_plus=kappa)
        ts = np.linspace(-40.0, 40.0, 161)
        with mpmath.workdps(80):
            ref = np.array([float(potential_eta(spec, mpmath.sinh(t))) for t in ts.tolist()])
        scale = np.abs(ref) + np.cosh(ts) ** -2
        assert np.max(np.abs(potential_t(spec, ts) - ref) / scale) < 1e-13

    @pytest.mark.parametrize("kappa", [1e-30, 1.0, 2.0, 1e10])
    def test_decays_where_eta_squared_overflows(self, kappa):
        # eta^2 overflows past t ~ 355, and 4T before it; V in t is
        # ~ 2 Im(h0) e^-|t| out to where cosh t overflows
        spec = PotentialSpec(h0=complex(7.75, 3.0), kappa_plus=kappa)
        ts = [354.0, 355.0, 400.0, 700.0, 710.0]
        for v in potential_t(spec, ts + [-t for t in ts]):
            assert math.isfinite(v) and abs(v) < 1e-150


class TestSamplesInT:
    """psi in t against its reference in eta, psi = Phi(eta)/sqrt(eta'), and
    the samples in t where eta^2 or the gauge overflows (the partner's
    (V, V_hat) against differences of ln psi: tests/test_partner.py)."""

    @pytest.mark.parametrize("h0, kappa", [(complex(7.75, 3.0), 0.05), (complex(7.75, 3.0), 2.0),
                                           (complex(10.84, 2.0), 1.0)])
    def test_psi_matches_phi_over_the_root_slope(self, h0, kappa):
        spec = PotentialSpec(h0=h0, kappa_plus=kappa)
        states = [normalized(spec, s) for s in enumerate_bound_spectrum(spec).states]
        ts = np.linspace(-12.0, 12.0, 97).tolist()
        for state, psi in zip(states, sampled(kappa, states, ts)):
            ref = [phi_value(state, e) / math.sqrt(eta_prime(kappa, e)) for e in np.sinh(ts)]
            assert np.max(np.abs(np.array(psi) - ref)) < 1e-13 * np.max(np.abs(ref)), state.n

    def test_partner_finite_where_eta_overflows(self, gspec):
        ts = [-700.0, -400.0, 0.0, 400.0, 700.0]
        v, v_hat = partner_potential(gspec, aeh_solution(gspec, "d", 0), ts)
        assert all(math.isfinite(x) for x in v + v_hat)
        assert abs(v_hat[0]) < 1e-150 and abs(v_hat[-1]) < 1e-150

    def test_float_overflow_samples_nan(self, gspec):
        # in plain floats exp raises OverflowError where numpy gave inf; for
        # p > 0 the gauge cosh^(2p - 1/2) t overflows past |t| ~ 204, and every
        # such sample is NaN for require_finite to count, never an exception
        grid = t_grid(400.0, t_of_x(gspec.kappa_plus, 400.0), 801)
        seed = aeh_solution(gspec, "d", 0)  # p = 2
        (psi,) = sampled(gspec.kappa_plus, [seed], grid.ts)
        bad = [x for x, v in zip(grid.ts, psi) if not math.isfinite(v)]  # x = t at kappa = 1
        assert bad and all(math.isnan(v) for v in psi if not math.isfinite(v))
        assert min(abs(x) for x in bad) > 200.0
        with pytest.raises(NonFiniteSamples, match="of 801 psi samples are NaN or infinite"):
            geometry.require_finite("psi", [psi])

    def test_bound_states_finite_to_the_double_range(self, gspec, gspectrum):
        # psi decays like cosh^(2p + m - 1/2) t with 2p + m - 1/2 < 0, -1/2
        # for the top state: it stays finite out to where sinh t overflows
        grid = t_grid(700.0, t_of_x(gspec.kappa_plus, 700.0), 1001)
        psis = sampled(1.0, [normalized(gspec, s) for s in gspectrum.states], grid.ts)
        geometry.require_finite("psi", psis)
        assert all(abs(psi[0]) < 1e-150 and abs(psi[-1]) < 1e-150 for psi in psis)
