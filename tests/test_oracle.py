"""Oracle tests: calibration, cross-checks, grid consistency, error estimates."""

import functools
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rrspectra import darboux, oracle, spectral, verify
from rrspectra.errors import InsufficientDecay, NonFiniteSamples, StepFailure
from rrspectra.geometry import PotentialSpec
from rrspectra.oracle import lowest_levels
from rrspectra.spectral import Spectrum, gendenshtein_params
from rrspectra.verify import oracle_map, verify_spectrum

from quadrature import adaptive_quadrature


NU = 3.3  # the Poschl-Teller depth: levels -(NU - n)^2 for n < NU
PT_LEVELS = [-(NU - n) ** 2 for n in range(4)]


def pt_grid(n=8192, x_max=20.0):
    """(V, W, dx) for the Poschl-Teller well V = -NU (NU + 1) sech^2 x (Poschl
    & Teller, Z. Phys. 83, 1933) on n points over [-x_max, x_max], W = 1."""
    return (-NU * (NU + 1) / np.cosh(np.linspace(-x_max, x_max, n)) ** 2, np.ones(n),
            2.0 * x_max / (n - 1))


def oracle_grid(spec, n=None):
    """(Q, W, dt): the coupling and weight of ``spec`` in t = asinh eta,
    sampled on the cap of the ladder that ``verify`` sizes for it, or on
    ``n`` points."""
    *_, rung = oracle_map(spec, n=n)
    return np.asarray(rung.coupling), np.asarray(rung.weights), rung.grid.dt


class TestNumerov:
    """``lowest_levels``; the class keeps the name of the shooting oracle it replaced."""

    def test_poschl_teller_calibration(self):
        # six asked for, and the well has four
        est, _ = lowest_levels(*pt_grid(), 6)
        assert_allclose([e.energy for e in est], PT_LEVELS, atol=1e-6)

    @pytest.mark.parametrize("n", [4097, 4096, 4095])
    def test_error_bounds_true_error(self, n):
        # n = 4097 keeps every sample, 4096 drops one and 4095 (3 mod 4) two;
        # the finest grid alone would miss the 1e-11 bound by about 1000x
        est, _ = lowest_levels(*pt_grid(n), 4)
        assert_allclose([e.energy for e in est], PT_LEVELS, atol=1e-11, rtol=0)
        for e, exact in zip(est, PT_LEVELS):
            assert abs(e.energy - exact) <= e.error < 1e-9

    def test_gendenshtein_cross_check(self, gspec):
        grid = oracle_grid(gspec)
        est, _ = lowest_levels(*grid, 3)
        for e, expected in zip(est, (-6.25, -2.25, -0.25)):
            assert abs(e.energy - expected) / abs(expected) < 1e-4

    def test_grid_halving_consistency(self, gspec):
        g1 = oracle_grid(gspec, n=4096)
        g2 = oracle_grid(gspec, n=8192)
        # a user's point count is kept as given, however small
        [rung] = oracle_map(gspec, n=300)
        assert rung.grid.n == 300
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

    def test_deep_well_solves_the_three_grids_alone(self, monkeypatch):
        # a Poschl-Teller well of depth 6,480 on 16,385 points: a fresh call
        # solves the 4h, 2h and h grids and no coarser one
        nu = 80.0
        x = np.linspace(-20.0, 20.0, 16385)
        sizes = []
        solve = oracle._levels

        def recorded(ham, count, starts=()):
            sizes.append(len(ham.r))
            return solve(ham, count, starts)

        monkeypatch.setattr(oracle, "_levels", recorded)
        est, _ = lowest_levels(-nu * (nu + 1) / np.cosh(x) ** 2, np.ones(len(x)), 40.0 / 16384, 4)
        assert sizes == [4095, 8191, 16383]
        assert_allclose([e.energy for e in est], [-(nu - n) ** 2 for n in range(4)], atol=1e-9, rtol=0)

    def test_coarse_grid_breaks_the_guard(self):
        # the same well on 1,025 points has h^2 (V_max - V_min)/12 = 0.82 on
        # the grid itself, so Numerov's w_j could reach 0 above V_min
        nu = 80.0
        x = np.linspace(-20.0, 20.0, 1025)
        with pytest.raises(StepFailure, match="must be below 0.5"):
            lowest_levels(-nu * (nu + 1) / np.cosh(x) ** 2, np.ones(1025), 40.0 / 1024, 4)

    def test_weight_breaks_the_guard(self):
        # a well of depth 30 at t = 5, where W is about 1, and W = 20 at t = 0,
        # where Q is about 0: at spacing 0.2, h^2 (-min Q)/12 = 0.1, but
        # a_j = Q_j - sigma W_j reaches about 600 at t = 0 for sigma at the
        # bottom, so h^2 max_j(Q_j - bottom W_j)/12 = 1.99
        t = np.linspace(-20.0, 20.0, 201)
        q, w = -30.0 / np.cosh(t - 5.0) ** 2, 1.0 + 19.0 / np.cosh(t) ** 2
        ham = oracle._Hamiltonian(q.tolist(), np.ones(201).tolist(), 0.2)
        assert ham.bottom[0] == min(q[1:-1])
        with pytest.raises(StepFailure, match="= 1.99; it must be below 0.5"):
            oracle._Hamiltonian(q.tolist(), w.tolist(), 0.2)

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


def lapack_levels(diag, off2, count, first=0):
    """The independent reference: levels ``first`` to ``count - 1`` by LAPACK
    Sturm bisection on the tridiagonal matrix with diagonal ``diag`` and
    off-diagonal -sqrt(off2)."""
    eigh_tridiagonal = pytest.importorskip("scipy.linalg").eigh_tridiagonal
    off = np.full(len(diag) - 1, -math.sqrt(off2))
    return eigh_tridiagonal(np.asarray(diag), off, eigvals_only=True, select="i",
                            select_range=(first, count - 1))


def transparent_end(h2, sigma):
    """-r/h^2 for the decaying exterior solution y_(j-1) = r y_j of Numerov's
    scheme where V = 0: there g = -e with e = sigma/(1 + h^2 sigma/12), and
    r + 1/r = 2 - h^2 e, 0 < r < 1."""
    s = -0.5 * h2 * sigma / (1.0 + h2 * sigma / 12.0)
    return -1.0 / (h2 * (1.0 + s + math.sqrt(s * (2.0 + s))))


def numerov_diagonal(ham, sigma):
    """The diagonal of Numerov's matrix T(sigma) of ``ham``,
    2/h^2 + a_j/(1 - h^2 a_j/12) with a_j = Q_j - sigma W_j, with the
    transparent end term added to its first and last entries; its
    off-diagonal is -sqrt(ham.off2)."""
    f = (np.array(ham.r) - sigma) / np.array(ham.iw)
    diag = 2.0 / ham.h2 + f / (1.0 - ham.h2 * f / 12.0)
    diag[[0, -1]] += transparent_end(ham.h2, sigma)
    return diag


def matrix_level(ham, sigma, k):
    """lambda_k(T(sigma)): level k of Numerov's matrix at sigma.  It decreases
    in sigma, and the oracle's level k is the sigma where it is 0."""
    return lapack_levels(numerov_diagonal(ham, sigma), ham.off2, k + 1, first=k)[0]


def milson(h0, kappa):
    return PotentialSpec(h0=h0, kappa_plus=kappa)


def oracle_samples(spec):
    spectrum = spectral.enumerate_bound_spectrum(spec)
    return (*oracle_grid(spec), len(spectrum.states))


def partner_samples(spec):
    """The type-d m=0 partner of ``spec`` on its oracle grid, as ``partner`` builds it."""
    seed = spectral.aeh_solution(spec, "d", 0)
    expected = darboux.partner_levels(spectral.enumerate_bound_spectrum(spec).energies, seed)
    *_, rung = oracle_map(spec, lambda etas: darboux.partner_potential(spec, seed, etas))
    return np.asarray(rung.coupling), np.asarray(rung.weights), rung.grid.dt, len(expected)


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
    # weights far from 1: W = 1 + (kappa - 1) sech^2 t runs from kappa to 1
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
    q, w, dx, count = ritz_case(name)
    solved = {}
    solve = oracle._levels

    def record(ham, count_g, starts=()):
        levels, bounds = solve(ham, count_g, starts)
        solved[round(1.0 / (dx * math.sqrt(math.sqrt(ham.off2))))] = (
            ham, count_g, starts, levels, bounds)
        return levels, bounds

    oracle._levels = record
    try:
        estimates, _ = lowest_levels(q, w, dx, count)
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
    """Gershgorin's bound on ||T(sigma)|| for sigma in [V_min, 0): each g_j is
    largest at V_min and smallest at the ceiling."""
    diag = np.concatenate([numerov_diagonal(ham, ham.bottom[0]), numerov_diagonal(ham, oracle._CEILING)])
    return np.max(np.abs(diag)) + 2.0 * math.sqrt(ham.off2)


def agreement_tol(ham, ref):
    return np.maximum(1e-10 * np.abs(ref), 8.0 * sys.float_info.epsilon * h_norm(ham))


def assert_certified(ham, count, levels, bounds):
    """The levels of ``ham`` against LAPACK on the same matrix: Numerov's
    matrix at a returned e has level k within roundoff of 0, and
    f(sigma) = lambda_k(T(sigma)), which decreases, changes sign within the
    certificate of e."""
    assert len(levels) == count
    roundoff = 2.0 * sys.float_info.epsilon * h_norm(ham)  # the reference's own
    for k, (e, w) in enumerate(zip(levels, bounds)):
        assert abs(matrix_level(ham, e, k)) <= agreement_tol(ham, e)
        lo, hi = e - w - roundoff, min(e + w + roundoff, oracle._CEILING)
        assert matrix_level(ham, lo, k) >= -roundoff
        assert matrix_level(ham, hi, k) <= roundoff


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
        q, w, dx, count = ritz_case(name)
        ham = oracle._Hamiltonian(q[::step].tolist(), w[::step].tolist(), step * dx)
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

    @pytest.mark.parametrize("offset", [0.3, -0.3, 0.05])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_failed_certificate_steps_on(self, monkeypatch, k, offset):
        # a gap far too wide stops the iteration after its first step, before
        # the level is within its certificate, so the certificate fails; the
        # next step starts from the count that failed it, next to the level,
        # not from a bisected midpoint (5 to 7 passes)
        q, w, dx, _ = ritz_case("poschl-teller-4097")
        ham = oracle._Hamiltonian(q.tolist(), w.tolist(), dx)
        levels, bounds = oracle._levels(ham, k + 1)
        passes = PassCounter(monkeypatch)
        x, w = oracle._isolate(ham, k, [ham.bottom, ham.top], levels[k] + offset, 1e12)
        assert abs(x - levels[k]) <= w + bounds[k]
        assert passes.calls["_laguerre_pass"] <= 4 and passes.calls["_count"] <= 4

    def test_error_adds_propagated_certificate(self):
        est, solved = chain_case("poschl-teller-4097")
        (e1, d1), (e2, d2), (e4, d4) = (
            (np.asarray(solved[s][3]), np.asarray(solved[s][4])) for s in (1, 2, 4)
        )
        truncation = np.abs((1024 * e1 - 80 * e2 + e4) / 945 - (16 * e1 - e2) / 15)
        cert = (1024 * d1 + 80 * d2 + d4) / 945
        assert_allclose([e.error for e in est], truncation + cert, rtol=1e-12)
        assert np.all(cert > 0)

    @pytest.mark.parametrize("name", ["poschl-teller-4097", "milson-kappa-0.05",
                                      "milson-kappa-20"])
    def test_sturm_count(self, name):
        # the count steps from k to k + 1 across level k, the e with
        # lambda_k(T(e)) = 0, found here by Brent's method on LAPACK's levels
        brentq = pytest.importorskip("scipy.optimize").brentq
        q, w, dx, count = ritz_case(name)
        ham = oracle._Hamiltonian(q.tolist(), w.tolist(), dx)
        for k in range(min(count, ham.top[1])):
            e = brentq(lambda x: matrix_level(ham, x, k), ham.bottom[0], oracle._CEILING,
                       xtol=1e-12)
            assert oracle._count(ham, e - 1e-6) == k
            assert oracle._count(ham, e + 1e-6) == k + 1

    @pytest.mark.parametrize("name, sigma", [
        *(("gendenshtein-2.05-0", sigma) for sigma in (-3.0, -0.3, -1e-2, -1e-4)),
        # levels -41.7, -4.61 and -0.298, and -0.471, -0.274 and -0.0724
        *(("milson-kappa-0.05", sigma) for sigma in (-20.0, -2.0, -1e-2, -1e-4)),
        *(("milson-kappa-20", sigma) for sigma in (-3.0, -0.2, -1e-2, -1e-4)),
    ])
    def test_pass_derivatives(self, name, sigma):
        # s and t, ends included, against central differences of
        # ln |det T(sigma)|, summed over the pivots of Numerov's matrix with
        # both end entries in it
        q, w, dx, _ = ritz_case(name)
        ham = oracle._Hamiltonian(q[::4].tolist(), w[::4].tolist(), 4 * dx)

        def ln_det(x):
            q, total = math.inf, 0.0
            for d in numerov_diagonal(ham, x).tolist():
                q = d - ham.off2 / q
                total += math.log(abs(q))
            return total

        d = 1e-3 * abs(sigma)  # the nearest root or threshold is at least 40 d away
        plus, mid, minus = ln_det(sigma + d), ln_det(sigma), ln_det(sigma - d)
        _, s, t = oracle._laguerre_pass(ham, sigma)
        assert s == pytest.approx(-(plus - minus) / (2 * d), rel=1e-5)
        # the second difference divides the roundoff of ln det by d^2, about
        # 1e-3 of t at this step; ten times the step keeps it near 1e-5
        d *= 10.0
        plus, minus = ln_det(sigma + d), ln_det(sigma - d)
        assert t == pytest.approx(-(plus - 2 * mid + minus) / (d * d), rel=1e-3)

    @pytest.mark.parametrize("name", ["gendenshtein-2.05-0", "partner-7104", "milson-kappa-0.05",
                                      "milson-kappa-20"])
    def test_transparent_count(self, name):
        # the count at sigma is the number of negative levels of T(sigma)
        q, w, dx, _ = ritz_case(name)
        ham = oracle._Hamiltonian(q.tolist(), w.tolist(), dx)
        for sigma in np.linspace(ham.bottom[0], -1e-3, 41).tolist() + [-1e-9, oracle._CEILING]:
            levels = lapack_levels(numerov_diagonal(ham, sigma), ham.off2, ham.top[1] + 1)
            assert oracle._count(ham, sigma) == np.sum(levels < 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        values, weights, dx = pt_grid(1025)
        values[700] = bad
        with pytest.raises(NonFiniteSamples, match="^1 of 2050 samples of Q and W"):
            lowest_levels(values, weights, dx, 2)
        values[700] = 0.0
        weights[300] = bad
        with pytest.raises(NonFiniteSamples, match="^1 of 2050 samples of Q and W"):
            lowest_levels(values, weights, dx, 2)


# name: (levels the oracle finds, analytic node counts, passed); the
# analytic levels are ANALYTIC, and the pass rule reads no node count
ANALYTIC = [-4.0, -1.0]
LEVEL_CASES = {
    "all found": ([-4.0, -1.0], [0, 1], True),
    "short list": ([-4.0], [0, 1], False),
    "beyond tol": ([-4.0, -1.01], [0, 1], False),
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
        ("partner", "short list"), ("partner", "beyond tol"), ("partner", "no node claim"),
    ])
    def test_one_pass_rule(self, monkeypatch, check, case):
        found, nodes, passed = LEVEL_CASES[case]
        # resolved levels, so the ladder stops at its first rung
        monkeypatch.setattr(verify.oracle, "lowest_levels", lambda values, weights, dx, count,
                            coarser: ([
            oracle.EigenEstimate(energy=e, error=0.0, ratio=16.0) for e in found[:count]], ()))
        spec = gendenshtein_params(2.5, 0.5)
        if check == "spectrum":
            states = tuple(SimpleNamespace(energy=e, nodes=m) for e, m in zip(ANALYTIC, nodes))
            monkeypatch.setattr(verify, "enumerate_bound_spectrum",
                                lambda spec: Spectrum(states=states, n_max_formula=1))
            rep, _ = verify_spectrum(spec, tol=1e-3)
        else:
            rep, _ = verify.compare_levels([next(oracle_map(spec))], ANALYTIC, tol=1e-3)
        assert rep.passed is passed
        assert (rep.n_expected, rep.tol) == (2, 1e-3)
        assert [lv.n for lv in rep.levels] == list(range(len(found)))
        for lv, e, v in zip(rep.levels, ANALYTIC, found):
            assert (lv.analytic, lv.numeric) == (e, v)
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
