"""Oracle tests: calibration, cross-checks, grid consistency, backend parity."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rrspectra import _kernels
from rrspectra._kernels import numerov_py
from rrspectra.errors import AmbiguousZero, InsufficientDecay
from rrspectra.oracle import (
    Grid1D,
    adaptive_quadrature,
    count_sign_changes,
    numerov_spectrum,
)
from rrspectra.spectral import assemble_eigenfunction, gendenshtein_params
from rrspectra.verify import oracle_grid_for


def harmonic_grid(n=8192):
    xs = np.linspace(-10, 10, n)
    return Grid1D(-10.0, 10.0, n, xs ** 2)


class TestNumerov:
    def test_harmonic_calibration(self):
        est = numerov_spectrum(harmonic_grid(), 6, tol=1e-9, require_decay=False)
        assert_allclose([e.energy for e in est], [2 * n + 1 for n in range(6)], atol=1e-6)

    def test_node_monotonicity(self):
        est = numerov_spectrum(harmonic_grid(), 6, tol=1e-9, require_decay=False)
        assert [e.nodes for e in est] == list(range(6))

    def test_gendenshtein_cross_check(self, gspec):
        _vmap, grid = oracle_grid_for(gspec, [-6.25, -2.25, -0.25])
        est = numerov_spectrum(grid, 3, tol=1e-8)
        for e, expected in zip(est, (-6.25, -2.25, -0.25)):
            assert abs(e.energy - expected) / abs(expected) < 1e-4

    def test_bracket_width_below_tolerance(self):
        est = numerov_spectrum(harmonic_grid(4096), 2, tol=1e-7, require_decay=False)
        assert all(e.bracket_width <= 1e-7 for e in est)

    def test_grid_halving_consistency(self, gspec):
        _m1, g1 = oracle_grid_for(gspec, [-6.25, -0.25], n=4096)
        _m2, g2 = oracle_grid_for(gspec, [-6.25, -0.25], n=8192)
        e1 = numerov_spectrum(g1, 3, tol=1e-8)
        e2 = numerov_spectrum(g2, 3, tol=1e-8)
        for a, b in zip(e1, e2):
            assert abs(a.energy - b.energy) < 1e-7

    def test_insufficient_decay_rejected(self):
        with pytest.raises(InsufficientDecay):
            numerov_spectrum(harmonic_grid(), 2, tol=1e-8)

    def test_seeded_matches_coarse_scan(self, gspec):
        _vmap, grid = oracle_grid_for(gspec, [-6.25, -2.25, -0.25])
        unseeded = numerov_spectrum(grid, 3, tol=1e-9)
        seeded = numerov_spectrum(grid, 3, tol=1e-9, seeds=[-6.25, -2.25, -0.25])
        for a, b in zip(unseeded, seeded):
            assert abs(a.energy - b.energy) < 1e-8

    def test_wrong_seed_still_converges(self, gspec):
        _vmap, grid = oracle_grid_for(gspec, [-6.25, -2.25, -0.25])
        est = numerov_spectrum(grid, 3, tol=1e-8, seeds=[-9.0, -1.0, -0.6])
        assert_allclose([e.energy for e in est], [-6.25, -2.25, -0.25], rtol=1e-5)

    def test_fewer_states_than_requested(self):
        spec = gendenshtein_params(0.8, 0.0)  # single level at -0.64
        _vmap, grid = oracle_grid_for(spec, [-0.64])
        est = numerov_spectrum(grid, 5, tol=1e-8)
        assert len(est) == 1
        assert abs(est[0].energy + 0.64) < 1e-4


class TestQuadrature:
    def test_lorentzian(self):
        assert_allclose(
            adaptive_quadrature(lambda x: 1 / (1 + x * x), -np.inf, np.inf, tol=1e-10),
            math.pi, atol=1e-10,
        )

    def test_beta_integral_family(self):
        # int (1+x^2)^-k dx = sqrt(pi) Gamma(k-1/2)/Gamma(k)
        for k in (2, 3, 4):
            exact = math.sqrt(math.pi) * math.gamma(k - 0.5) / math.gamma(k)
            val = adaptive_quadrature(lambda x, k=k: (1 + x * x) ** -k, -np.inf, np.inf, tol=1e-10)
            assert abs(val - exact) < 1e-10

    def test_odd_integrand_vanishes(self):
        val = adaptive_quadrature(
            lambda x: x * math.exp(-x * x), -np.inf, np.inf, tol=1e-12
        )
        assert abs(val) < 1e-12

    def test_finite_interval(self):
        assert_allclose(adaptive_quadrature(math.sin, 0.0, math.pi, tol=1e-12), 2.0, atol=1e-12)


class TestSignChanges:
    def test_sine(self):
        assert count_sign_changes(math.sin, np.linspace(0, 10, 301)) == 3

    def test_second_excited_state(self, gspec, gmap):
        st = assemble_eigenfunction(gspec, 2, gmap)
        assert count_sign_changes(st.phi, np.linspace(-12, 12, 501)) == 2

    def test_strictly_positive(self):
        assert count_sign_changes(lambda x: 1.0 + x * x, np.linspace(-5, 5, 101)) == 0

    def test_grazing_not_counted(self):
        assert count_sign_changes(lambda x: x * x, np.linspace(-1, 1, 41)) == 0

    @pytest.mark.parametrize("make", [
        lambda gspec, gmap: assemble_eigenfunction(gspec, 2, gmap).phi,
        lambda gspec, gmap: (lambda x: (x - 1.0) * (x + 2.5) * (x - 3.25)),
        lambda gspec, gmap: np.cos,
    ])
    def test_array_and_scalar_callables_agree(self, gspec, gmap, make):
        f = make(gspec, gmap)
        xs = np.linspace(-12, 12, 501)

        def scalar_only(x):
            return f(float(x))  # float() rejects arrays, forcing per-sample calls

        assert count_sign_changes(f, xs) == count_sign_changes(scalar_only, xs)

    def test_ambiguous_zero_interval(self):
        def flat(x):
            return 0.0 if 2.0 < x < 4.0 else 1.0

        with pytest.raises(AmbiguousZero):
            count_sign_changes(flat, np.linspace(0, 6, 61))


class TestKernelBackends:
    def test_fallback_matches_active_backend(self):
        rng = np.random.default_rng(7)
        t = rng.normal(size=512) * 1e-4
        out_a = np.empty(512)
        out_b = np.empty(512)
        nodes_a = _kernels.sweep(t, 0.0, 1e-8, out_a)
        nodes_b = numerov_py.sweep(t, 0.0, 1e-8, out_b)
        assert nodes_a == nodes_b
        assert_allclose(out_a, out_b, rtol=1e-15, atol=0)

    def test_backend_reported(self):
        assert _kernels.BACKEND in ("compiled", "python")
