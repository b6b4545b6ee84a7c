"""Oracle tests: calibration, cross-checks, grid consistency, error estimates."""

import functools
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rrspectra import darboux, geometry, oracle, spectral, verify
from rrspectra.errors import InsufficientDecay, NonFiniteSamples
from rrspectra.geometry import PotentialSpec, TangentPolySpec
from rrspectra.oracle import lowest_levels
from rrspectra.spectral import Spectrum, gendenshtein_params
from rrspectra.verify import oracle_map, verify_spectrum

from quadrature import adaptive_quadrature


def harmonic_grid(n=8192):
    """(V, dx) for V = x^2 on n points over [-10, 10]."""
    return np.linspace(-10, 10, n) ** 2, 20.0 / (n - 1)


def oracle_grid(spec, energies, n=None):
    """(V, dx): the potential of ``spec`` sampled on the map that ``verify`` sizes for it."""
    vmap = oracle_map(spec, energies, n=n)
    return geometry.potential_of_eta(spec, np.array(vmap.eta_grid)), vmap.dx


class TestNumerov:
    """``lowest_levels``; the class keeps the name of the shooting oracle it replaced."""

    def test_harmonic_calibration(self):
        est = lowest_levels(*harmonic_grid(), 6, require_decay=False)
        assert_allclose([e.energy for e in est], [2 * n + 1 for n in range(6)], atol=1e-6)

    @pytest.mark.parametrize("n", [2049, 2048, 2047])
    def test_error_bounds_true_error(self, n):
        # n = 2049 keeps every sample, 2048 drops one and 2047 (3 mod 4) two;
        # one Richardson step would miss the 1e-9 bound by about 50x
        est = lowest_levels(*harmonic_grid(n), 6, require_decay=False)
        assert_allclose([e.energy for e in est], [2 * k + 1 for k in range(6)], atol=1e-9, rtol=0)
        for k, e in enumerate(est):
            assert abs(e.energy - (2 * k + 1)) <= e.error < 1e-7

    def test_gendenshtein_cross_check(self, gspec):
        grid = oracle_grid(gspec, [-6.25, -2.25, -0.25])
        est = lowest_levels(*grid, 3)
        for e, expected in zip(est, (-6.25, -2.25, -0.25)):
            assert abs(e.energy - expected) / abs(expected) < 1e-4

    def test_grid_halving_consistency(self, gspec):
        g1 = oracle_grid(gspec, [-6.25, -0.25], n=4096)
        g2 = oracle_grid(gspec, [-6.25, -0.25], n=8192)
        # a user's point count is kept as given, however small
        assert oracle_map(gspec, [-6.25], n=300).n_points == 300
        e1 = lowest_levels(*g1, 3)
        e2 = lowest_levels(*g2, 3)
        for a, b in zip(e1, e2):
            assert abs(a.energy - b.energy) < 1e-7

    def test_insufficient_decay_rejected(self):
        with pytest.raises(InsufficientDecay):
            lowest_levels(*harmonic_grid(), 2)

    def test_fewer_states_than_requested(self):
        spec = gendenshtein_params(0.8, 0.0)  # single level at -0.64
        grid = oracle_grid(spec, [-0.64])
        est = lowest_levels(*grid, 5)
        assert len(est) == 1
        assert abs(est[0].energy + 0.64) < 1e-4


def lapack_levels(v, dx, count):
    """The independent reference: LAPACK Sturm bisection on the same matrix."""
    eigh_tridiagonal = pytest.importorskip("scipy.linalg").eigh_tridiagonal
    inv_h2 = 1.0 / (dx * dx)
    diag = 2.0 * inv_h2 + v[1:-1]
    off = np.full(len(diag) - 1, -inv_h2)
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, count - 1))


def milson(h0, kappa):
    return PotentialSpec(h0=h0, tp=TangentPolySpec(a=1.0, kappa_plus=kappa))


def oracle_samples(spec):
    spectrum = spectral.enumerate_bound_spectrum(spec)
    return (*oracle_grid(spec, spectrum.energies), len(spectrum.states))


def partner_samples(spec):
    """The type-d m=0 partner of ``spec`` on its oracle grid, as ``partner`` builds it."""
    seed = spectral.aeh_solution(spec, "d", 0)
    expected = darboux.partner_levels(spectral.enumerate_bound_spectrum(spec).energies, seed)
    vmap = oracle_map(spec, expected)
    _, v_partner = darboux.partner_potential(spec, seed, vmap)
    return np.asarray(v_partner), vmap.dx, len(expected)


def harmonic_samples(n):
    return (*harmonic_grid(n), 6)


RITZ_CASES = {
    "harmonic-2047": lambda: harmonic_samples(2047),
    "harmonic-2048": lambda: harmonic_samples(2048),
    "harmonic-2049": lambda: harmonic_samples(2049),
    "gendenshtein-2.5-0.5": lambda: oracle_samples(gendenshtein_params(2.5, 0.5)),
    "gendenshtein-2.05-0": lambda: oracle_samples(gendenshtein_params(2.05, 0.0)),
    # deep wells: 17 and 31 levels
    "gendenshtein-16.2-0.7": lambda: oracle_samples(gendenshtein_params(16.2, 0.7)),
    "gendenshtein-30.3-0.7": lambda: oracle_samples(gendenshtein_params(30.3, 0.7)),
    # kappa = 0.05 gives a well about 0.1 wide that the coarse grids do not
    # resolve, so their levels are poor starting values for the finer grids
    "milson-kappa-0.05": lambda: oracle_samples(milson(complex(7.75, 3.0), 0.05)),
    "milson-kappa-20": lambda: oracle_samples(milson(complex(7.75, 3.0), 20.0)),
    "partner-7104": lambda: partner_samples(milson(complex(6.8592, 2.3552), 0.6319)),
}


@functools.lru_cache(maxsize=None)
def ritz_case(name):
    return RITZ_CASES[name]()


@functools.lru_cache(maxsize=None)
def chain_case(name):
    """{step: (v, dx, count, starts, levels, bounds)}: each grid that
    ``lowest_levels`` solves for the case ``name``, by its spacing in units
    of the case's own."""
    v, dx, count = ritz_case(name)
    solved = {}
    solve = oracle._dirichlet_levels

    def record(v_g, dx_g, count_g, starts=()):
        levels, bounds = solve(v_g, dx_g, count_g, starts)
        solved[round(dx_g / dx)] = (np.asarray(v_g), dx_g, count_g, starts, levels, bounds)
        return levels, bounds

    oracle._dirichlet_levels = record
    try:
        estimates = lowest_levels(v, dx, count, require_decay=not name.startswith("harmonic"))
    finally:
        oracle._dirichlet_levels = solve
    return estimates, solved


class PassCounter:
    """Counts the pivot passes of the oracle by kind while installed."""

    def __init__(self, monkeypatch):
        self.calls = {"_count": 0, "_newton_pass": 0, "_laguerre_pass": 0}
        for name in self.calls:
            monkeypatch.setattr(oracle, name, self._counted(name, getattr(oracle, name)))

    def _counted(self, name, f):
        def counted(*args):
            self.calls[name] += 1
            return f(*args)
        return counted


def h_norm(v, dx):
    return 4.0 / (dx * dx) + np.max(np.abs(v[1:-1]))


def agreement_tol(v, dx, ref):
    return np.maximum(1e-10 * np.abs(ref), 8.0 * sys.float_info.epsilon * h_norm(v, dx))


def assert_matches_lapack(v, dx, count, levels, bounds):
    ref = lapack_levels(v, dx, count)
    gap = np.abs(np.asarray(levels) - ref)
    assert len(levels) == count and np.all(gap <= agreement_tol(v, dx, ref))
    # the certificate covers the gap, up to the reference's own roundoff
    assert np.all(gap <= np.asarray(bounds) + 2.0 * sys.float_info.epsilon * h_norm(v, dx))


class TestSineRitz:
    """``_dirichlet_levels`` against LAPACK on the h, 2h and 4h grids; the
    class keeps the name of the sine-basis Ritz solve it replaced."""

    @pytest.mark.parametrize("step", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(RITZ_CASES))
    def test_matches_lapack(self, name, step):
        # each grid as lowest_levels solves it, from the coarser grids' levels
        v, dx, count, starts, levels, bounds = chain_case(name)[1][step]
        assert_matches_lapack(v, dx, count, levels, bounds)

    @pytest.mark.parametrize("step", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(RITZ_CASES))
    def test_fallback_alone_matches_lapack(self, monkeypatch, name, step):
        # no starting values: every level by bisection and Laguerre steps
        v, dx, count = ritz_case(name)
        v, dx = v[::step], step * dx
        passes = PassCounter(monkeypatch)
        levels, bounds = oracle._dirichlet_levels(v.tolist(), dx, count)
        assert passes.calls["_newton_pass"] == 0
        assert_matches_lapack(v, dx, count, levels, bounds)

    @pytest.mark.parametrize("name", sorted(RITZ_CASES))
    def test_fast_path_costs_few_passes(self, monkeypatch, name):
        # every level reached from its starting value takes at most 4 Newton
        # passes and then exactly two certifying counts
        passes = PassCounter(monkeypatch)
        costs = []
        newton = oracle._newton

        def costed(*args):
            before = dict(passes.calls)
            level = newton(*args)
            if level:
                costs.append({k: passes.calls[k] - before[k] for k in before})
            return level

        monkeypatch.setattr(oracle, "_newton", costed)
        v, dx, count = ritz_case(name)
        lowest_levels(v, dx, count, require_decay=not name.startswith("harmonic"))
        assert costs
        for cost in costs:
            assert cost == {"_count": 2, "_newton_pass": cost["_newton_pass"], "_laguerre_pass": 0}
            assert 1 <= cost["_newton_pass"] <= 4

    def test_error_adds_propagated_certificate(self):
        est, solved = chain_case("harmonic-2049")
        (e1, d1), (e2, d2), (e4, d4) = (
            (np.asarray(solved[s][4]), np.asarray(solved[s][5])) for s in (1, 2, 4)
        )
        truncation = np.abs((64 * e1 - 20 * e2 + e4) / 45 - (4 * e1 - e2) / 3)
        cert = (64 * d1 + 20 * d2 + d4) / 45
        assert_allclose([e.error for e in est], truncation + cert, rtol=1e-12)
        assert np.all(cert > 0)

    def test_sturm_count(self):
        v, dx, count = ritz_case("harmonic-2049")
        ref = lapack_levels(v, dx, count)
        for k in range(count):
            assert oracle._sturm_count(v, dx, ref[k] - 1e-6) == k
            assert oracle._sturm_count(v, dx, ref[k] + 1e-6) == k + 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        values = np.linspace(-10, 10, 1025) ** 2
        values[700] = bad
        with pytest.raises(NonFiniteSamples):
            lowest_levels(values, 20.0 / 1024, 2, require_decay=False)


# name: (levels the oracle finds, analytic node counts, passed); the
# analytic levels are ANALYTIC
ANALYTIC = [-4.0, -1.0]
LEVEL_CASES = {
    "all found": ([-4.0, -1.0], [0, 1], True),
    "short list": ([-4.0], [0, 1], False),
    "beyond tol": ([-4.0, -1.01], [0, 1], False),
    "wrong nodes": ([-4.0, -1.0], [0, 2], False),
    "no node claim": ([-4.0, -1.0], [None, None], True),
}


class TestLevelReport:
    def test_missing_level_fails(self):
        # the x_max = 7 box is too small for the shallow level at -0.01
        rep, spectrum = verify_spectrum(gendenshtein_params(2.1, 0.0), x_max=7.0, n=2049)
        assert len(spectrum.states) == 3 and len(rep.levels) == 2
        assert all(lv.rel_delta <= rep.tol for lv in rep.levels)
        assert not rep.passed

    @pytest.mark.parametrize("check, case", [
        *(("spectrum", case) for case in LEVEL_CASES),
        # a partner claims no node counts
        ("partner", "short list"), ("partner", "beyond tol"), ("partner", "no node claim"),
    ])
    def test_one_pass_rule(self, monkeypatch, check, case):
        found, nodes, passed = LEVEL_CASES[case]
        monkeypatch.setattr(verify.oracle, "lowest_levels", lambda values, dx, count: [
            oracle.EigenEstimate(energy=e, error=0.0) for e in found[:count]])
        spec = gendenshtein_params(2.5, 0.5)
        if check == "spectrum":
            states = tuple(SimpleNamespace(energy=e, nodes=m) for e, m in zip(ANALYTIC, nodes))
            monkeypatch.setattr(verify, "enumerate_bound_spectrum",
                                lambda spec: Spectrum(states=states, n_max_formula=1))
            rep, _ = verify_spectrum(spec, tol=1e-3)
        else:
            vmap = oracle_map(spec, ANALYTIC)
            rep = verify.verify_partner_levels(vmap, np.zeros(vmap.n_points), ANALYTIC, tol=1e-3)
        assert rep.passed is passed
        assert (rep.n_expected, rep.tol) == (2, 1e-3)
        assert [lv.n for lv in rep.levels] == [lv.nodes_numeric for lv in rep.levels] == \
            list(range(len(found)))
        claims = nodes if check == "spectrum" else [None, None]
        for lv, e, v, m in zip(rep.levels, ANALYTIC, found, claims):
            assert (lv.analytic, lv.numeric, lv.nodes_analytic) == (e, v, m)
            assert lv.rel_delta == abs(e - v) / abs(v)


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
