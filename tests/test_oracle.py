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
from rrspectra.geometry import PotentialSpec
from rrspectra.oracle import lowest_levels
from rrspectra.spectral import Spectrum, gendenshtein_params
from rrspectra.verify import oracle_map, verify_spectrum

from quadrature import adaptive_quadrature


NU = 3.3  # the Poschl-Teller depth: levels -(NU - n)^2 for n < NU
PT_LEVELS = [-(NU - n) ** 2 for n in range(4)]


def pt_grid(n=8192, x_max=20.0):
    """(V, dx) for the Poschl-Teller well V = -NU (NU + 1) sech^2 x (Poschl &
    Teller, Z. Phys. 83, 1933) on n points over [-x_max, x_max]."""
    return -NU * (NU + 1) / np.cosh(np.linspace(-x_max, x_max, n)) ** 2, 2.0 * x_max / (n - 1)


def potential_columns(spec):
    """The column sampler ``verify`` hands to ``oracle_map``: V of ``spec``."""
    return lambda etas: [geometry.on_grid(geometry.potential(spec), etas)]


def oracle_grid(spec, n=None):
    """(V, dx): the potential of ``spec`` sampled on the cap of the ladder
    that ``verify`` sizes for it, or on ``n`` points."""
    *_, (vmap, (v,)) = oracle_map(spec, potential_columns(spec), n=n)
    return np.asarray(v), vmap.dx


class TestNumerov:
    """``lowest_levels``; the class keeps the name of the shooting oracle it replaced."""

    def test_poschl_teller_calibration(self):
        # six asked for, and the well has four
        est, _ = lowest_levels(*pt_grid(), 6)
        assert_allclose([e.energy for e in est], PT_LEVELS, atol=1e-6)

    @pytest.mark.parametrize("n", [4097, 4096, 4095])
    def test_error_bounds_true_error(self, n):
        # n = 4097 keeps every sample, 4096 drops one and 4095 (3 mod 4) two;
        # one Richardson step would miss the 1e-9 bound by about 80x
        est, _ = lowest_levels(*pt_grid(n), 4)
        assert_allclose([e.energy for e in est], PT_LEVELS, atol=1e-9, rtol=0)
        for e, exact in zip(est, PT_LEVELS):
            assert abs(e.energy - exact) <= e.error < 1e-7

    def test_gendenshtein_cross_check(self, gspec):
        grid = oracle_grid(gspec)
        est, _ = lowest_levels(*grid, 3)
        for e, expected in zip(est, (-6.25, -2.25, -0.25)):
            assert abs(e.energy - expected) / abs(expected) < 1e-4

    def test_grid_halving_consistency(self, gspec):
        g1 = oracle_grid(gspec, n=4096)
        g2 = oracle_grid(gspec, n=8192)
        # a user's point count is kept as given, however small
        [(vmap, _)] = oracle_map(gspec, potential_columns(gspec), n=300)
        assert vmap.n_points == 300
        e1, _ = lowest_levels(*g1, 3)
        e2, _ = lowest_levels(*g2, 3)
        for a, b in zip(e1, e2):
            assert abs(a.energy - b.energy) < 1e-7

    @pytest.mark.parametrize("a, b", [(2.02, 0.0), (2.05, 0.0), (2.05, 0.7), (4.007, 1.3),
                                      (16.2, 0.7)])
    def test_every_level_within_its_error(self, a, b):
        # near-threshold levels (-4e-4 to -2.5e-3, and -4.9e-5) and a deep
        # well: each closed-form level is found, within the oracle's estimate
        spec = gendenshtein_params(a, b)
        exact = spectral.enumerate_bound_spectrum(spec).energies
        est, _ = lowest_levels(*oracle_grid(spec), len(exact))
        assert len(est) == len(exact)
        for e, x in zip(est, exact):
            assert abs(e.energy - x) <= e.error

    def test_insufficient_decay_rejected(self):
        # |V| is about 1 at x = +-2
        with pytest.raises(InsufficientDecay):
            lowest_levels(*pt_grid(1025, x_max=2.0), 2)

    def test_fewer_states_than_requested(self):
        spec = gendenshtein_params(0.8, 0.0)  # single level at -0.64
        grid = oracle_grid(spec)
        est, _ = lowest_levels(*grid, 5)
        assert len(est) == 1
        assert abs(est[0].energy + 0.64) < 1e-4


def lapack_levels(diag, off2, count, end=0.0, first=0):
    """The independent reference: levels ``first`` to ``count - 1`` by LAPACK
    Sturm bisection on the oracle's matrix, with ``end`` added to its first
    and last diagonal entries."""
    eigh_tridiagonal = pytest.importorskip("scipy.linalg").eigh_tridiagonal
    diag = np.array(diag)
    diag[[0, -1]] += end
    off = np.full(len(diag) - 1, -math.sqrt(off2))
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(first, count - 1))


def transparent_end(h2, e):
    """-r/h^2 for the decaying exterior solution psi_(j-1) = r psi_j of the
    3-point scheme at energy e < 0: r + 1/r = 2 - h^2 e, 0 < r < 1."""
    s = -0.5 * h2 * e
    return -1.0 / (h2 * (1.0 + s + math.sqrt(s * (2.0 + s))))


def frozen_level(ham, e, k):
    """lambda_k(H(e)): level k of the Hamiltonian with its ends frozen at e."""
    return lapack_levels(ham.diag, ham.off2, k + 1, transparent_end(ham.h2, e), first=k)[0]


def milson(h0, kappa):
    return PotentialSpec(h0=h0, kappa_plus=kappa)


def oracle_samples(spec):
    spectrum = spectral.enumerate_bound_spectrum(spec)
    return (*oracle_grid(spec), len(spectrum.states))


def partner_samples(spec):
    """The type-d m=0 partner of ``spec`` on its oracle grid, as ``partner`` builds it."""
    seed = spectral.aeh_solution(spec, "d", 0)
    expected = darboux.partner_levels(spectral.enumerate_bound_spectrum(spec).energies, seed)
    *_, (vmap, (_, v_partner)) = oracle_map(
        spec, lambda etas: darboux.partner_potential(spec, seed, etas))
    return np.asarray(v_partner), vmap.dx, len(expected)


def pt_samples(n):
    return (*pt_grid(n), len(PT_LEVELS))


RITZ_CASES = {
    "poschl-teller-4095": lambda: pt_samples(4095),
    "poschl-teller-4096": lambda: pt_samples(4096),
    "poschl-teller-4097": lambda: pt_samples(4097),
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


# total pivot passes of ``lowest_levels`` on each case, as the oracle this one
# replaced took them (Newton steps from each starting value, Laguerre steps
# only after bisection)
PASS_BUDGET = {
    "poschl-teller-4095": 65,
    "poschl-teller-4096": 64,
    "poschl-teller-4097": 61,
    "gendenshtein-2.5-0.5": 64,
    "gendenshtein-2.05-0": 49,
    "gendenshtein-16.2-0.7": 539,
    "gendenshtein-30.3-0.7": 1143,
    "milson-kappa-0.05": 112,
    "milson-kappa-20": 48,
    "partner-7104": 103,
}


@functools.lru_cache(maxsize=None)
def ritz_case(name):
    return RITZ_CASES[name]()


@functools.lru_cache(maxsize=None)
def chain_case(name):
    """(estimates, {step: (ham, count, starts, levels, bounds)}): each grid
    that ``lowest_levels`` solves for the case ``name``, by its spacing in
    units of the case's own."""
    v, dx, count = ritz_case(name)
    solved = {}
    solve = oracle._levels

    def record(ham, count_g, starts=()):
        levels, bounds = solve(ham, count_g, starts)
        solved[round(1.0 / (dx * math.sqrt(math.sqrt(ham.off2))))] = (
            ham, count_g, starts, levels, bounds)
        return levels, bounds

    oracle._levels = record
    try:
        estimates, _ = lowest_levels(v, dx, count)
    finally:
        oracle._levels = solve
    return estimates, solved


class PassCounter:
    """Counts the pivot passes of the oracle by kind while installed."""

    def __init__(self, monkeypatch):
        self.calls = {"_count": 0, "_laguerre_pass": 0}
        for name in self.calls:
            monkeypatch.setattr(oracle, name, self._counted(name, getattr(oracle, name)))

    def _counted(self, name, f):
        def counted(*args):
            self.calls[name] += 1
            return f(*args)
        return counted


def h_norm(ham):
    """Gershgorin's bound on ||H||."""
    return max(map(abs, ham.diag)) + 2.0 * math.sqrt(ham.off2)


def agreement_tol(ham, ref):
    return np.maximum(1e-10 * np.abs(ref), 8.0 * sys.float_info.epsilon * h_norm(ham))


def assert_certified(ham, count, levels, bounds):
    """The levels of ``ham`` against LAPACK on the same matrix: with its ends
    frozen at a returned e, level k of H(e) is e; and
    f(sigma) = lambda_k(H(sigma)) - sigma, which decreases, changes sign
    within the certificate of e."""
    assert len(levels) == count
    roundoff = 2.0 * sys.float_info.epsilon * h_norm(ham)  # the reference's own
    for k, (e, w) in enumerate(zip(levels, bounds)):
        assert abs(frozen_level(ham, e, k) - e) <= agreement_tol(ham, e)
        lo, hi = e - w - roundoff, min(e + w + roundoff, oracle._CEILING)
        assert frozen_level(ham, lo, k) - lo >= -roundoff
        assert frozen_level(ham, hi, k) - hi <= roundoff


class TestSineRitz:
    """``_levels`` against LAPACK on the h, 2h and 4h grids; the class keeps
    the name of the sine-basis Ritz solve it replaced."""

    @pytest.mark.parametrize("step", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(RITZ_CASES))
    def test_matches_lapack(self, name, step):
        # each grid as lowest_levels solves it, from the coarser grids' levels
        ham, count, _, levels, bounds = chain_case(name)[1][step]
        assert_certified(ham, count, levels, bounds)

    @pytest.mark.parametrize("step", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(RITZ_CASES))
    def test_fallback_alone_matches_lapack(self, name, step):
        # no starting values: every level by bisection and Laguerre steps
        v, dx, count = ritz_case(name)
        ham = oracle._Hamiltonian(v[::step].tolist(), step * dx)
        count = min(count, ham.top[1])
        levels, bounds = oracle._levels(ham, count)
        assert_certified(ham, count, levels, bounds)

    @pytest.mark.parametrize("name", sorted(RITZ_CASES))
    def test_passes_within_budget(self, monkeypatch, name):
        # no more pivot passes than the oracle this one replaced took, which
        # tried Newton steps from each starting value and Laguerre steps only
        # after bisection
        passes = PassCounter(monkeypatch)
        lowest_levels(*ritz_case(name))
        assert sum(passes.calls.values()) <= PASS_BUDGET[name]

    @pytest.mark.parametrize("name", ["gendenshtein-2.5-0.5", "gendenshtein-2.05-0",
                                      "milson-kappa-20", "partner-7104"])
    def test_started_levels_cost_few_passes(self, monkeypatch, name):
        # on these wells every level with a starting value takes at most 3
        # Laguerre passes and at most two counts; the deep wells take up to
        # 11 passes from a poor start and are held to PASS_BUDGET alone
        passes = PassCounter(monkeypatch)
        costs = []
        isolate = oracle._isolate

        def costed(ham, k, seen, start, gap):
            before = dict(passes.calls)
            level = isolate(ham, k, seen, start, gap)
            if start is not None:
                costs.append({k: passes.calls[k] - before[k] for k in before})
            return level

        monkeypatch.setattr(oracle, "_isolate", costed)
        lowest_levels(*ritz_case(name))
        assert costs
        for cost in costs:
            assert 1 <= cost["_laguerre_pass"] <= 3 and cost["_count"] <= 2

    def test_error_adds_propagated_certificate(self):
        est, solved = chain_case("poschl-teller-4097")
        (e1, d1), (e2, d2), (e4, d4) = (
            (np.asarray(solved[s][3]), np.asarray(solved[s][4])) for s in (1, 2, 4)
        )
        truncation = np.abs((64 * e1 - 20 * e2 + e4) / 45 - (4 * e1 - e2) / 3)
        cert = (64 * d1 + 20 * d2 + d4) / 45
        assert_allclose([e.error for e in est], truncation + cert, rtol=1e-12)
        assert np.all(cert > 0)

    def test_sturm_count(self):
        # the count steps from k to k + 1 across level k, the e with
        # lambda_k(H(e)) = e, found here by Brent's method on LAPACK's levels
        brentq = pytest.importorskip("scipy.optimize").brentq
        v, dx, count = ritz_case("poschl-teller-4097")
        ham = oracle._Hamiltonian(v.tolist(), dx)
        for k in range(count):
            e = brentq(lambda x: frozen_level(ham, x, k) - x, ham.bottom[0], oracle._CEILING,
                       xtol=1e-12)
            assert oracle._count(ham, e - 1e-6) == k
            assert oracle._count(ham, e + 1e-6) == k + 1

    @pytest.mark.parametrize("sigma", [-3.0, -0.3, -1e-2, -1e-4])
    def test_pass_derivatives(self, sigma):
        # s and t, ends included, against central differences of
        # ln |det(H(sigma) - sigma)|, summed over the pivots of H(sigma) - sigma
        # with both end entries in the matrix
        v, dx, _ = ritz_case("gendenshtein-2.05-0")
        ham = oracle._Hamiltonian(v[::4].tolist(), 4 * dx)

        def ln_det(x):
            diag = list(ham.diag)
            diag[0] += transparent_end(ham.h2, x)
            diag[-1] += transparent_end(ham.h2, x)
            q, total = math.inf, 0.0
            for d in diag:
                q = d - x - ham.off2 / q
                total += math.log(abs(q))
            return total

        d = 1e-3 * abs(sigma)  # the nearest root or threshold is at least |sigma| away
        plus, mid, minus = ln_det(sigma + d), ln_det(sigma), ln_det(sigma - d)
        _, s, t = oracle._laguerre_pass(ham, sigma)
        assert s == pytest.approx(-(plus - minus) / (2 * d), rel=1e-5)
        # the second difference divides the roundoff of ln det by d^2, about
        # 1e-3 of t at this step; ten times the step keeps it near 1e-5
        d *= 10.0
        plus, minus = ln_det(sigma + d), ln_det(sigma - d)
        assert t == pytest.approx(-(plus - 2 * mid + minus) / (d * d), rel=1e-3)

    @pytest.mark.parametrize("name", ["gendenshtein-2.05-0", "partner-7104"])
    def test_transparent_count(self, name):
        # the count at sigma is the number of levels of H(sigma) below sigma
        v, dx, _ = ritz_case(name)
        ham = oracle._Hamiltonian(v.tolist(), dx)
        for sigma in np.linspace(ham.bottom[0], -1e-3, 41).tolist() + [-1e-9, oracle._CEILING]:
            below = lapack_levels(ham.diag, ham.off2, ham.top[1] + 1, transparent_end(ham.h2, sigma))
            assert oracle._count(ham, sigma) == np.sum(below < sigma)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        values, dx = pt_grid(1025)
        values[700] = bad
        with pytest.raises(NonFiniteSamples):
            lowest_levels(values, dx, 2)


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
        # the x_max = 4.5 box cuts off the well's tails (|V| ~ 7e-4 at its
        # ends), and the level at -1e-6 is no longer bound in what is left
        rep, spectrum = verify_spectrum(gendenshtein_params(2.001, 0.0), x_max=4.5, n=2049)
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
        # resolved levels, so the ladder stops at its first rung
        monkeypatch.setattr(verify.oracle, "lowest_levels", lambda values, dx, count, coarser: ([
            oracle.EigenEstimate(energy=e, error=0.0, ratio=4.0) for e in found[:count]], ()))
        spec = gendenshtein_params(2.5, 0.5)
        if check == "spectrum":
            states = tuple(SimpleNamespace(energy=e, nodes=m) for e, m in zip(ANALYTIC, nodes))
            monkeypatch.setattr(verify, "enumerate_bound_spectrum",
                                lambda spec: Spectrum(states=states, n_max_formula=1))
            rep, _ = verify_spectrum(spec, tol=1e-3)
        else:
            vmap, _ = next(oracle_map(spec, potential_columns(spec)))
            rep, _, _ = verify.verify_partner_levels([(vmap, [np.zeros(vmap.n_points)])],
                                                     ANALYTIC, tol=1e-3)
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
