"""Darboux-partner tests: insertion, erasure, seed validation, symmetric seeds."""

import numpy as np
import pytest

from rrspectra import geometry, oracle
from rrspectra.darboux import (
    FactorizationFunction,
    log_second_derivative,
    partner_potential,
    symmetric_irregular_solution,
    write_partner_csv,
)
from rrspectra.errors import NodeDetected, PreconditionViolated
from rrspectra.geometry import PotentialSpec, TangentPolySpec, VariableMap
from rrspectra.routh import RealPolynomial
from rrspectra.spectral import (
    EtaSolution,
    aeh_solution,
    assemble_eigenfunction,
    enumerate_bound_spectrum,
    gendenshtein_params,
)
from rrspectra.verify import oracle_grid_for, verify_partner_levels


@pytest.fixture(scope="module")
def insertion_setup():
    spec = gendenshtein_params(1.5, 0.4)
    vmap, _grid = oracle_grid_for(spec, [-6.25, -2.25, -0.25])
    return spec, vmap


class TestPartnerPotential:
    def test_state_insertion(self, insertion_setup):
        spec, vmap = insertion_setup
        seed = aeh_solution(spec, "d", 0, vmap)
        grid = partner_potential(spec, FactorizationFunction.from_solution(seed), vmap)
        # parent levels -(1.5-n)^2 for n=0,1 plus the inserted -(1.5+1)^2
        rep = verify_partner_levels(grid, [-6.25, -2.25, -0.25], tol=1e-3)
        assert rep.passed, rep.rel_deltas
        assert grid.mode == "insert"

    def test_ground_state_erasure(self, insertion_setup):
        spec, vmap = insertion_setup
        # the normalized bound state, and the same type-c seed unnormalized
        for psi0 in (assemble_eigenfunction(spec, 0, vmap), aeh_solution(spec, "c", 0)):
            grid = partner_potential(spec, FactorizationFunction.from_solution(psi0), vmap)
            rep = verify_partner_levels(grid, [-0.25], tol=1e-3)
            assert rep.passed, rep.rel_deltas
            assert grid.mode == "erase"

    def test_planted_node_rejected(self, insertion_setup):
        spec, vmap = insertion_setup
        noded = EtaSolution(-1.0, 0.0, RealPolynomial.from_coeffs([-1, 0, 1]))
        ff = FactorizationFunction(phi=noded, energy=-9.0)
        with pytest.raises(NodeDetected):
            partner_potential(spec, ff, vmap)

    def test_log_derivative_matches_finite_differences(self, insertion_setup):
        spec, vmap = insertion_setup
        seed = aeh_solution(spec, "d", 0, vmap)
        h = 1e-3

        def ln_ff(x):
            eta = vmap.eta_of_x(x)
            return -0.5 * np.log(vmap.deriv(eta)) + np.log(seed.phi(eta))

        xs = np.linspace(-6, 6, 25)
        fd = np.array([(ln_ff(x + h) - 2 * ln_ff(x) + ln_ff(x - h)) / h ** 2 for x in xs])
        closed = log_second_derivative(spec.tp, seed.phi, vmap.eta_of_x(xs))
        assert np.max(np.abs(fd - closed)) < 1e-6

    def test_partner_decays_like_parent(self, insertion_setup):
        spec, vmap = insertion_setup
        seed = aeh_solution(spec, "d", 0, vmap)
        grid = partner_potential(spec, FactorizationFunction.from_solution(seed), vmap)
        assert abs(grid.v_partner[0]) < 1e-2 and abs(grid.v_partner[-1]) < 1e-2

    def test_csv_dump(self, insertion_setup, tmp_path):
        spec, vmap = insertion_setup
        seed = aeh_solution(spec, "d", 0, vmap)
        grid = partner_potential(spec, FactorizationFunction.from_solution(seed), vmap)
        path = tmp_path / "partner.csv"
        write_partner_csv(grid, path)
        header = path.read_text().splitlines()[0]
        assert header == "x,V_parent,V_partner"


@pytest.fixture(scope="module")
def sym_setup():
    spec = PotentialSpec(h0=8.0, tp=TangentPolySpec(1.0, 2.0))
    vmap = VariableMap(spec.tp, 16.0, 4096)
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
        # the ratios psi_(i+1)/psi_i are h^2 times the oracle's LDL^T pivots,
        # so a solution exists exactly when the Sturm count at epsilon is 0;
        # the discrete ground level lies O(h^2) below the analytic one
        spec, vmap, ground = sym_setup
        v = geometry.potential_of_eta(spec, vmap.eta_grid)
        dx = vmap.x_grid[1] - vmap.x_grid[0]
        outcomes = set()
        for k in range(10):
            eps = ground - 10.0 ** -k
            below = oracle._sturm_count(v, dx, eps)
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
        vmap_g = VariableMap(gspec.tp, 16.0, 4096)
        with pytest.raises(PreconditionViolated):
            symmetric_irregular_solution(gspec, -20.0, vmap_g)

    def test_even_order_type_d_seeds_nodeless(self):
        # symmetric members: even-order irregular seeds below ground stay
        # nodeless; for kappa > 1 the quartic loses its negative root beyond
        # a finite order, so existence is checked per case
        from rrspectra.errors import NoSuchRoot

        found = 0
        for kappa, h0 in ((1.0, 8.0), (2.0, 8.0), (1.5, 5.0)):
            spec = PotentialSpec(h0=h0, tp=TangentPolySpec(1.0, kappa))
            ground = enumerate_bound_spectrum(spec).energies[0]
            for m in (2, 4):
                try:
                    sol = aeh_solution(spec, "d", m)
                except NoSuchRoot:
                    continue
                found += 1
                assert sol.energy < ground
                assert sol.nodeless
        assert found >= 4
