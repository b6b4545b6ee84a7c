"""Darboux-partner tests: insertion, erasure, seed validation, symmetric seeds."""

import warnings

import numpy as np
import pytest

from rrspectra import geometry
from rrspectra.darboux import partner_levels, partner_potential
from rrspectra.errors import NodeDetected
from rrspectra.routh import real_root_count
from rrspectra.geometry import PotentialSpec, VariableMap
from rrspectra.spectral import (
    aeh_solution,
    bound_state,
    enumerate_bound_spectrum,
    gendenshtein_params,
    normalized,
)
from rrspectra.verify import oracle_map, verify_partner_levels

from irregular import PreconditionViolated, symmetric_irregular_solution
from residual import eta_of_x, phi_value


@pytest.fixture(scope="module")
def insertion_setup():
    # the cap of the ladder the partner command samples the type-d m=0 partner on
    spec = gendenshtein_params(1.5, 0.4)
    seed = aeh_solution(spec, "d", 0)
    *_, (vmap, _) = oracle_map(spec, lambda etas: partner_potential(spec, seed, etas))
    return spec, vmap


class TestPartnerPotential:
    def test_state_insertion(self, insertion_setup):
        spec, vmap = insertion_setup
        seed = aeh_solution(spec, "d", 0)
        _, v_partner = partner_potential(spec, seed, vmap.eta_grid)
        # parent levels -(1.5-n)^2 for n=0,1 plus the inserted -(1.5+1)^2
        rep = verify_partner_levels([(vmap, [v_partner])], [-6.25, -2.25, -0.25], tol=1e-3)[0]
        assert rep.passed, rep.levels

    def test_ground_state_erasure(self, insertion_setup):
        spec, vmap = insertion_setup
        # the normalized bound state, and the same type-c seed unnormalized
        for psi0 in (normalized(spec, bound_state(enumerate_bound_spectrum(spec), 0)),
                     aeh_solution(spec, "c", 0)):
            _, v_partner = partner_potential(spec, psi0, vmap.eta_grid)
            rep = verify_partner_levels([(vmap, [v_partner])], [-0.25], tol=1e-3)[0]
            assert rep.passed, rep.levels

    def test_planted_node_rejected(self, insertion_setup):
        # a real polynomial of odd order has a real zero
        spec, vmap = insertion_setup
        seed = aeh_solution(spec, "d", 1)
        assert seed.nodes == 1
        with pytest.raises(NodeDetected, match="real zeros"):
            partner_potential(spec, seed, vmap.eta_grid)

    def test_ground_state_erasure_on_a_deep_well(self):
        # the nodeless ground state underflows to 0.0 far out on a wide grid;
        # only its exact node count may refuse it
        spec = gendenshtein_params(16.2, 0.7)
        spectrum = enumerate_bound_spectrum(spec)
        vmap = VariableMap(spec.kappa_plus, 60.0, 10001)
        seed = normalized(spec, bound_state(spectrum, 0))
        assert seed.nodes == 0 and any(phi_value(seed, e) == 0.0 for e in vmap.eta_grid)
        _, v_partner = partner_potential(spec, seed, vmap.eta_grid)
        assert np.all(np.isfinite(v_partner))

    def test_log_derivative_matches_finite_differences(self, insertion_setup):
        # w against a centred difference of ln ff, and the difference (ln ff)''
        # against V - e_s - w^2: the Riccati identity the partner is built on
        spec, vmap = insertion_setup
        seed = aeh_solution(spec, "d", 0)
        h = 1e-3

        def ln_ff(x):
            eta = eta_of_x(vmap.kappa, x)
            slope = geometry.eta_prime(spec.kappa_plus, eta)
            return -0.5 * np.log(slope) + np.log(phi_value(seed, eta))

        xs = np.linspace(-6, 6, 25)
        etas = np.array([eta_of_x(vmap.kappa, x) for x in xs])
        fd1 = np.array([(ln_ff(x + h) - ln_ff(x - h)) / (2 * h) for x in xs])
        fd2 = np.array([(ln_ff(x + h) - 2 * ln_ff(x) + ln_ff(x - h)) / h ** 2 for x in xs])
        w = geometry.log_derivative(spec.kappa_plus, seed)(etas)
        assert np.max(np.abs(fd1 - w)) < 1e-6
        riccati = geometry.potential(spec)(etas) - seed.energy - w * w
        assert np.max(np.abs(fd2 - riccati)) < 1e-6

    def test_partner_decays_like_parent(self, insertion_setup):
        spec, vmap = insertion_setup
        seed = aeh_solution(spec, "d", 0)
        _, v_partner = partner_potential(spec, seed, vmap.eta_grid)
        assert abs(v_partner[0]) < 1e-2 and abs(v_partner[-1]) < 1e-2

    def test_far_field_decays(self):
        # eta' ~ |eta| and the bracket of w ~ 1/|eta| must both stay finite
        # far out, so that V_hat = 2 e_s + 2 w^2 - V cancels to 0 at both ends
        spec = gendenshtein_params(1.7193, 2.1470)
        vmap = VariableMap(spec.kappa_plus, 200.0, 4097)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow anywhere in the partner
            _, v_partner = partner_potential(spec, aeh_solution(spec, "d", 0), vmap.eta_grid)
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
        for seed in (bound_state(enumerate_bound_spectrum(spec), 0), aeh_solution(spec, "c", 0)):
            assert partner_levels(self.PARENT, seed) == [-0.25]

    def test_noded_seed_rejected(self):
        spec = gendenshtein_params(1.5, 0.4)
        with pytest.raises(NodeDetected, match="real zeros"):
            partner_levels(self.PARENT, aeh_solution(spec, "d", 1))
        with pytest.raises(NodeDetected):
            partner_levels(self.PARENT, bound_state(enumerate_bound_spectrum(spec), 1))


@pytest.fixture(scope="module")
def sym_setup():
    spec = PotentialSpec(h0=8.0, kappa_plus=2.0)
    vmap = VariableMap(spec.kappa_plus, 16.0, 4096)
    ground = enumerate_bound_spectrum(spec).energies[0]
    return spec, vmap, ground


class TestSymmetricIrregular:
    def test_positive_below_ground(self, sym_setup):
        spec, vmap, ground = sym_setup
        psi = symmetric_irregular_solution(spec, ground - 1.0, vmap)
        assert psi.min() > 0.0

    def test_even_by_construction(self, sym_setup):
        spec, vmap, ground = sym_setup
        psi = symmetric_irregular_solution(spec, ground - 1.0, vmap)
        assert np.max(np.abs(psi - psi[::-1])) < 1e-9

    def test_positive_exactly_when_no_discrete_level_below(self, sym_setup):
        # the ratios psi_(i+1)/psi_i are h^2 times the LDL^T pivots of
        # irregular.py's own 3-point Hamiltonian (not the oracle's Numerov
        # matrix) with psi = 0 at both end samples, so a solution
        # exists exactly when it has no level below epsilon, counted here by
        # LAPACK; the discrete ground level lies O(h^2) below the analytic one
        eigvalsh_tridiagonal = pytest.importorskip("scipy.linalg").eigvalsh_tridiagonal
        spec, vmap, ground = sym_setup
        v = geometry.potential(spec)(np.array(vmap.eta_grid))
        dx = vmap.dx
        outcomes = set()
        for k in range(10):
            eps = ground - 10.0 ** -k
            below = len(eigvalsh_tridiagonal(v[1:-1] + 2.0 / (dx * dx), np.full(len(v) - 3, -1.0 / (dx * dx)),
                                             select="v", select_range=(-np.inf, eps)))
            try:
                psi = symmetric_irregular_solution(spec, eps, vmap)
            except PreconditionViolated:
                assert below > 0, k
                outcomes.add("refused")
            else:
                assert below == 0 and psi.min() > 0.0, k
                outcomes.add("built")
        assert outcomes == {"built", "refused"}

    def test_rejects_energy_above_ground(self, sym_setup):
        spec, vmap, ground = sym_setup
        with pytest.raises(PreconditionViolated):
            symmetric_irregular_solution(spec, ground + 0.1, vmap)

    def test_rejects_asymmetric_potential(self, gspec, sym_setup):
        _spec, vmap, _ground = sym_setup
        vmap_g = VariableMap(gspec.kappa_plus, 16.0, 4096)
        with pytest.raises(PreconditionViolated):
            symmetric_irregular_solution(gspec, -20.0, vmap_g)

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
