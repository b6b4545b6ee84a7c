"""Oracle tests: calibration, cross-checks, grid consistency, error estimates."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rrspectra.errors import AmbiguousZero, InsufficientDecay
from rrspectra.oracle import (
    Grid1D,
    adaptive_quadrature,
    count_sign_changes,
    lowest_levels,
)
from rrspectra.spectral import assemble_eigenfunction, gendenshtein_params
from rrspectra.verify import oracle_grid_for, verify_spectrum


def harmonic_grid(n=8192):
    xs = np.linspace(-10, 10, n)
    return Grid1D(-10.0, 10.0, n, xs ** 2)


class TestNumerov:
    """``lowest_levels``; the class keeps the name of the shooting oracle it replaced."""

    def test_harmonic_calibration(self):
        est = lowest_levels(harmonic_grid(), 6, require_decay=False)
        assert_allclose([e.energy for e in est], [2 * n + 1 for n in range(6)], atol=1e-6)

    def test_node_monotonicity(self):
        est = lowest_levels(harmonic_grid(), 6, require_decay=False)
        assert [e.nodes for e in est] == list(range(6))

    @pytest.mark.parametrize("n", [2049, 2048, 2047])
    def test_error_bounds_true_error(self, n):
        # n = 2049 keeps every sample, 2048 drops one and 2047 (3 mod 4) two;
        # one Richardson step would miss the 1e-9 bound by about 50x
        est = lowest_levels(harmonic_grid(n), 6, require_decay=False)
        assert_allclose([e.energy for e in est], [2 * k + 1 for k in range(6)], atol=1e-9, rtol=0)
        for k, e in enumerate(est):
            assert abs(e.energy - (2 * k + 1)) <= e.error < 1e-7

    def test_gendenshtein_cross_check(self, gspec):
        _vmap, grid = oracle_grid_for(gspec, [-6.25, -2.25, -0.25])
        est = lowest_levels(grid, 3)
        for e, expected in zip(est, (-6.25, -2.25, -0.25)):
            assert abs(e.energy - expected) / abs(expected) < 1e-4

    def test_grid_halving_consistency(self, gspec):
        _m1, g1 = oracle_grid_for(gspec, [-6.25, -0.25], n=4096)
        _m2, g2 = oracle_grid_for(gspec, [-6.25, -0.25], n=8192)
        e1 = lowest_levels(g1, 3)
        e2 = lowest_levels(g2, 3)
        for a, b in zip(e1, e2):
            assert abs(a.energy - b.energy) < 1e-7

    def test_insufficient_decay_rejected(self):
        with pytest.raises(InsufficientDecay):
            lowest_levels(harmonic_grid(), 2)

    def test_fewer_states_than_requested(self):
        spec = gendenshtein_params(0.8, 0.0)  # single level at -0.64
        _vmap, grid = oracle_grid_for(spec, [-0.64])
        est = lowest_levels(grid, 5)
        assert len(est) == 1
        assert abs(est[0].energy + 0.64) < 1e-4


class TestVerifyReport:
    def test_missing_level_fails(self):
        # the x_max = 7 box is too small for the shallow level at -0.01
        rep = verify_spectrum(gendenshtein_params(2.1, 0.0), x_max=7.0, n=2049)
        assert len(rep.spectrum.states) == 3 and len(rep.levels) == 2
        assert all(lv.rel_delta <= rep.tol for lv in rep.levels)
        assert not rep.passed


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
