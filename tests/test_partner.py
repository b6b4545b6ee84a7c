"""Darboux-partner tests: insertion, erasure, seed validation, symmetric seeds,
shape invariance."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rrspectra import geometry
from rrspectra.errors import NodeDetected
from rrspectra.routh import real_root_count
from rrspectra.geometry import PotentialSpec, partner_potential, t_grid, t_of_x
from rrspectra.spectral import (
    aeh_solution,
    enumerate_bound_spectrum,
    gendenshtein_params,
    normalized,
    partner_levels,
)
from rrspectra.verify import compare_levels, oracle_map

from irregular import PreconditionViolated, symmetric_irregular_solution
from residual import eta_of_x, eta_prime, phi_value, potential_t


def grid_of(kappa, x_max, n):
    """The t grid of ``n`` points out to the t of ``x_max``."""
    return t_grid(x_max, t_of_x(kappa, x_max), n)


def partner_rung(spec, seed, grid):
    """The one oracle rung on ``grid`` of the partner built on ``seed``."""
    return next(oracle_map(spec, seed, grid.x_max, grid.n))


@pytest.fixture(scope="module")
def insertion_setup():
    # the cap of the ladder the partner command samples the type-d m=0 partner on
    spec = gendenshtein_params(1.5, 0.4)
    seed = aeh_solution(spec, "d", 0)
    *_, rung = oracle_map(spec, seed)
    return spec, rung.grid


class TestPartnerPotential:
    def test_state_insertion(self, insertion_setup):
        spec, grid = insertion_setup
        seed = aeh_solution(spec, "d", 0)
        # parent levels -(1.5-n)^2 for n=0,1 plus the inserted -(1.5+1)^2
        rung = partner_rung(spec, seed, grid)
        rep = compare_levels([rung], [-6.25, -2.25, -0.25], tol=1e-3)[0]
        assert rep.passed, rep.levels

    def test_ground_state_erasure(self, insertion_setup):
        spec, grid = insertion_setup
        # the normalized bound state, and the same type-c seed unnormalized
        for psi0 in (normalized(spec, enumerate_bound_spectrum(spec).states[0]),
                     aeh_solution(spec, "c", 0)):
            rep = compare_levels([partner_rung(spec, psi0, grid)], [-0.25], tol=1e-3)[0]
            assert rep.passed, rep.levels

    def test_ground_state_erasure_on_a_deep_well(self):
        # the nodeless ground state underflows to 0.0 far out on a wide grid;
        # only its exact node count may refuse it
        spec = gendenshtein_params(16.2, 0.7)
        spectrum = enumerate_bound_spectrum(spec)
        grid = grid_of(spec.kappa_plus, 60.0, 10001)
        seed = normalized(spec, spectrum.states[0])
        assert seed.nodes == 0 and any(phi_value(seed, math.sinh(t)) == 0.0 for t in grid.ts)
        _, v_partner = partner_potential(spec, seed, grid.ts)
        assert np.all(np.isfinite(v_partner))

    @pytest.mark.parametrize("h0, kappa, m", [
        (gendenshtein_params(1.5, 0.4).h0, 1.0, 0),  # the insertion above
        (complex(7.75, 3.0), 0.3, 0), (complex(7.75, 3.0), 2.0, 0), (complex(7.75, 3.0), 2.0, 2),
    ])
    def test_log_derivative_matches_finite_differences(self, h0, kappa, m):
        # centred differences of ln ff in x = X(t), from Phi and eta' in
        # eta: w^2 against (V + V_hat)/2 - e_s, and (ln ff)'' = w' against
        # (V - V_hat)/2, the Riccati identity the partner is built on
        spec = PotentialSpec(h0=h0, kappa_plus=kappa)
        seed = aeh_solution(spec, "d", m)
        h = 3e-4

        def ln_ff(x):
            eta = eta_of_x(kappa, x)
            return -0.5 * np.log(eta_prime(kappa, eta)) + np.log(phi_value(seed, eta))

        ts = np.linspace(-5.0, 5.0, 21)
        xs = list(map(geometry.liouville(kappa), ts.tolist()))
        fd1 = np.array([(ln_ff(x + h) - ln_ff(x - h)) / (2 * h) for x in xs])
        fd2 = np.array([(ln_ff(x + h) - 2 * ln_ff(x) + ln_ff(x - h)) / h ** 2 for x in xs])
        v, v_hat = map(np.array, partner_potential(spec, seed, ts.tolist()))
        w2, riccati = 0.5 * (v + v_hat) - seed.energy, 0.5 * (v - v_hat)
        assert np.max(np.abs(fd1 * fd1 - w2)) < 1e-6 * np.max(w2)
        assert np.max(np.abs(fd2 - riccati)) < 1e-6 * np.max(np.abs(riccati))

    def test_partner_decays_like_parent(self, insertion_setup):
        spec, grid = insertion_setup
        seed = aeh_solution(spec, "d", 0)
        _, v_partner = partner_potential(spec, seed, grid.ts)
        assert abs(v_partner[0]) < 1e-2 and abs(v_partner[-1]) < 1e-2

    def test_far_field_decays(self):
        # d/dt ln ff tends to +-(2p - 1/2) far out, so that
        # V_hat = 2 e_s + 2 w^2 - V cancels to 0 at both ends
        spec = gendenshtein_params(1.7193, 2.1470)
        grid = grid_of(spec.kappa_plus, 200.0, 4097)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow anywhere in the partner
            _, v_partner = partner_potential(spec, aeh_solution(spec, "d", 0), grid.ts)
        assert np.all(np.isfinite(v_partner))
        assert abs(v_partner[0]) < 1e-12 and abs(v_partner[-1]) < 1e-12


class TestPartnerLevels:
    PARENT = [-2.25, -0.25]

    def test_type_d_seed_inserts_its_energy(self):
        spec = gendenshtein_params(1.5, 0.4)
        for m, inserted in ((0, -6.25), (2, -20.25)):
            seed = aeh_solution(spec, "d", m)
            levels = partner_levels(self.PARENT, seed)
            assert levels == sorted(self.PARENT + [seed.energy])
            assert levels[0] == pytest.approx(inserted, rel=1e-12)

    def test_bound_state_seed_erases_the_ground_level(self):
        spec = gendenshtein_params(1.5, 0.4)
        for seed in (enumerate_bound_spectrum(spec).states[0], aeh_solution(spec, "c", 0)):
            assert partner_levels(self.PARENT, seed) == [-0.25]

    def test_noded_seed_rejected(self):
        spec = gendenshtein_params(1.5, 0.4)
        with pytest.raises(NodeDetected, match="real zeros"):
            partner_levels(self.PARENT, aeh_solution(spec, "d", 1))
        with pytest.raises(NodeDetected):
            partner_levels(self.PARENT, enumerate_bound_spectrum(spec).states[1])


@pytest.fixture(scope="module")
def sym_setup():
    spec = PotentialSpec(h0=8.0, kappa_plus=2.0)
    grid = grid_of(spec.kappa_plus, 16.0, 4096)
    ground = enumerate_bound_spectrum(spec).energies[0]
    return spec, grid, ground


class TestSymmetricIrregular:
    def test_positive_below_ground(self, sym_setup):
        spec, grid, ground = sym_setup
        psi = symmetric_irregular_solution(spec, ground - 1.0, grid)
        assert psi.min() > 0.0

    def test_even_by_construction(self, sym_setup):
        spec, grid, ground = sym_setup
        psi = symmetric_irregular_solution(spec, ground - 1.0, grid)
        assert np.max(np.abs(psi - psi[::-1])) < 1e-9

    def test_positive_exactly_when_no_discrete_level_below(self, sym_setup):
        # the ratios psi_(i+1)/psi_i are h^2 times the LDL^T pivots of
        # irregular.py's own 3-point matrix in t (not the oracle's Numerov
        # matrix) with phi = 0 at both end samples, so a solution exists
        # exactly when the pencil (T, W) has no level below epsilon, counted
        # here by LAPACK on W^(-1/2) T W^(-1/2); the discrete ground level
        # lies O(h^2) below the analytic one
        eigvalsh_tridiagonal = pytest.importorskip("scipy.linalg").eigvalsh_tridiagonal
        spec, grid, ground = sym_setup
        q, w = np.array([geometry.weighted_scarf(spec)(t) for t in grid.ts[1:-1]]).T
        h2 = grid.dt * grid.dt
        iw = 1.0 / np.sqrt(w)
        diag, off = (q + 2.0 / h2) / w, -iw[1:] * iw[:-1] / h2
        outcomes = set()
        for k in range(10):
            eps = ground - 10.0 ** -k
            below = len(eigvalsh_tridiagonal(diag, off, select="v", select_range=(-np.inf, eps)))
            try:
                psi = symmetric_irregular_solution(spec, eps, grid)
            except PreconditionViolated:
                assert below > 0, k
                outcomes.add("refused")
            else:
                assert below == 0 and psi.min() > 0.0, k
                outcomes.add("built")
        assert outcomes == {"built", "refused"}

    def test_rejects_energy_above_ground(self, sym_setup):
        spec, grid, ground = sym_setup
        with pytest.raises(PreconditionViolated):
            symmetric_irregular_solution(spec, ground + 0.1, grid)

    def test_rejects_asymmetric_potential(self, gspec):
        with pytest.raises(PreconditionViolated):
            symmetric_irregular_solution(gspec, -20.0, grid_of(gspec.kappa_plus, 16.0, 4096))

    def test_even_order_type_d_seeds_nodeless(self):
        # symmetric members: even-order irregular seeds below ground stay
        # nodeless; for kappa > 1 the quartic loses its negative root beyond
        # a finite order, so existence is checked per case
        from rrspectra.errors import NoSuchRoot

        found = 0
        for kappa, h0 in ((1.0, 8.0), (2.0, 8.0), (1.5, 5.0)):
            spec = PotentialSpec(h0=h0, kappa_plus=kappa)
            ground = enumerate_bound_spectrum(spec).energies[0]
            for m in (2, 4):
                try:
                    sol = aeh_solution(spec, "d", m)
                except NoSuchRoot:
                    continue
                found += 1
                assert sol.energy < ground
                assert sol.nodes == real_root_count(sol.poly.num) == 0
        assert found >= 4


class TestShapeInvariance:
    """At kappa = 1 both single-step partners stay in the Gendenshtein (Scarf
    II) family, a shifted by one; at kappa != 1 they leave it."""

    TS = np.arcsinh(np.linspace(-50.0, 50.0, 271)).tolist()

    @staticmethod
    def shifted(a, b, seed, shift):
        spec = gendenshtein_params(a, b)
        spectrum = enumerate_bound_spectrum(spec)
        seed = spectrum.states[0] if seed == "ground" else aeh_solution(spec, "d", 0)
        _, v_hat = partner_potential(spec, seed, TestShapeInvariance.TS)
        target = gendenshtein_params(a + shift, b)
        v_target = potential_t(target, TestShapeInvariance.TS)
        scale = max(1.0, max(map(abs, v_target)))
        assert max(abs(x - y) for x, y in zip(v_hat, v_target)) <= 1e-14 * scale
        # and the partner's levels are the shifted potential's
        assert partner_levels(spectrum.energies, seed) == pytest.approx(
            enumerate_bound_spectrum(target).energies, rel=1e-12, abs=1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(a=st.floats(1.05, 12.0), b=st.floats(0.0, 3.0))
    def test_ground_state_erasure_lowers_a(self, a, b):
        self.shifted(a, b, "ground", -1.0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(a=st.floats(0.2, 12.0), b=st.floats(0.0, 3.0))
    def test_constant_type_d_seed_raises_a(self, a, b):
        # the paper's AEH solution of the constant polynomial
        self.shifted(a, b, "d", 1.0)

    @pytest.mark.parametrize("kappa, scarf", [(1.0, True), (0.3, False), (2.0, False)])
    def test_partner_leaves_the_family_away_from_kappa_one(self, kappa, scarf):
        # in t = asinh eta a Scarf II coupling is Q cosh^2 t = c0 + c1 sinh t;
        # the m = 0 partner's Q_hat = Q + W (V_hat - V) is of that form at
        # kappa = 1 alone (the fit misses by 13 at kappa 0.3 and 6 at kappa 2
        # on t in [-10, 10], and by 1.4e-6, its roundoff times cosh^2 10, at 1)
        spec = PotentialSpec(h0=gendenshtein_params(2.5, 0.5).h0, kappa_plus=kappa)
        ts = np.linspace(-10.0, 10.0, 201)
        seed = aeh_solution(spec, "d", 0)
        v, v_hat = partner_potential(spec, seed, ts.tolist())
        q, w = np.array([geometry.weighted_scarf(spec)(t) for t in ts.tolist()]).T
        y = (q + w * (np.array(v_hat) - np.array(v))) * np.cosh(ts) ** 2
        basis = np.stack([np.ones_like(ts), np.sinh(ts)], axis=1)
        coeffs = np.linalg.lstsq(basis, y, rcond=None)[0]
        miss = np.max(np.abs(basis @ coeffs - y))
        assert (miss < 1e-4) if scarf else (miss > 1.0)
