"""Acceptance suite: one test per criterion, each printing its own PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np

from rrspectra.darboux import partner_potential
from rrspectra.geometry import PotentialSpec, sampled, t_grid, t_of_x
from rrspectra.routh import ComplexIndex, ode_residual, real_root_count, routh_polynomial
from rrspectra.spectral import (
    aeh_solution,
    enumerate_bound_spectrum,
    gendenshtein_params,
    nodeless_scan,
    quartic_lambda_roots,
    stevenson_identity_check,
)
from rrspectra.verify import compare_levels, oracle_map, verify_spectrum

from irregular import symmetric_irregular_solution
from orthogonality import inner_product, pinned_weight_index
from quartic import closed_form_lambda_kappa1
from rational import coeffs, index
from residual import routh_rodrigues


def report(num, name, passed, detail=""):
    line = "ACCEPTANCE %02d %-38s %s" % (num, name, "PASS" if passed else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line)
    assert passed, line


_cache = {}


def gendenshtein_report():
    """(report, spectrum) of ``verify_spectrum``, computed once."""
    if "gen" not in _cache:
        spec = gendenshtein_params(3.3, 0.7)
        _cache["gen"] = verify_spectrum(spec, tol=1e-4)
    return _cache["gen"]


def milson_report():
    if "milson" not in _cache:
        spec = PotentialSpec(h0=complex(7.75, 3.0), kappa_plus=2.0)
        _cache["milson"] = verify_spectrum(spec, tol=1e-3)
    return _cache["milson"]


def test_criterion_1_gendenshtein_spectrum():
    t0 = time.monotonic()
    rep, spectrum = gendenshtein_report()
    elapsed = time.monotonic() - t0
    analytic = [s.energy for s in spectrum.states]
    expected = [-((3.3 - n) ** 2) for n in range(4)]
    closed_ok = np.allclose(analytic, expected, rtol=1e-12)
    worst = max(lv.rel_delta for lv in rep.levels)
    report(
        1,
        "Gendenshtein spectrum vs oracle @1e-4",
        closed_ok and rep.passed and elapsed < 10.0,
        "worst rel %.2e, %.1fs" % (worst, elapsed),
    )


def test_criterion_2_milson_spectrum():
    t0 = time.monotonic()
    rep, _ = milson_report()
    elapsed = time.monotonic() - t0
    worst = max(lv.rel_delta for lv in rep.levels)
    report(
        2,
        "Milson quartic spectrum vs oracle @1e-3",
        rep.passed and len(rep.levels) == 3 and elapsed < 30.0,
        "worst rel %.2e, %.1fs" % (worst, elapsed),
    )


def test_criterion_3_kappa_limit():
    spec1 = gendenshtein_params(3.3, 0.7)
    lam_c, lam_d = closed_form_lambda_kappa1(spec1)
    worst = 0.0
    for kap in (1.0 - 1e-8, 1.0 + 1e-8):
        spec = PotentialSpec(h0=spec1.h0, kappa_plus=kap)
        for m in range(3):
            (c,) = quartic_lambda_roots(spec, m, "c")
            worst = max(worst, abs(c - lam_c))
            worst = max(worst, abs(quartic_lambda_roots(spec, m, "d")[0] - lam_d))
    report(3, "kappa->1 limit vs closed forms @1e-6", worst < 1e-6, "worst %.2e" % worst)


def test_criterion_4_polynomial_identity_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(41)
    failures = []
    indices = []
    for _ in range(50):
        re = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 8)))
        im = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 8)))
        indices.append(index(re, im))
    for a in indices:
        for m in range(7):
            # realness is exact by construction (raises otherwise)
            can = routh_polynomial(m, a)
            rod = routh_rodrigues(m, a)
            if ode_residual(can) != () or ode_residual(rod) != ():
                failures.append("ode m=%d a=%s" % (m, a))
            shifted = routh_polynomial(m, a.conjugate().shifted(1))
            scale = Fraction(2 ** m * math.factorial(m))
            if coeffs(rod) != tuple(scale * c for c in coeffs(shifted)):
                failures.append("rodrigues m=%d a=%s" % (m, a))
    stev_worst = 0.0
    for _ in range(12):
        a_g = float(rng.uniform(6.0, 9.0))
        b_g = float(rng.normal())
        spectrum = enumerate_bound_spectrum(gendenshtein_params(a_g, b_g))
        for n in range(7):
            dev = stevenson_identity_check(spectrum.states[n])
            stev_worst = max(stev_worst, dev)
    if stev_worst != 0.0:
        failures.append("stevenson %.2e" % stev_worst)
    elapsed = time.monotonic() - t0
    report(
        4,
        "polynomial identity suite (m<=6, 50 idx)",
        not failures and elapsed < 20.0,
        "stevenson %.1e, %.1fs%s" % (stev_worst, elapsed, "; " + "; ".join(failures[:3]) if failures else ""),
    )


def test_criterion_5_orthogonality():
    worst = 0.0
    for fam in (ComplexIndex.of(-4), ComplexIndex.of(complex(-4, 1.0)), ComplexIndex.of(-5)):
        w = pinned_weight_index(fam)
        norms = [math.sqrt(inner_product(n, n, w)) for n in range(5)]
        for n in range(5):
            for m in range(n + 1, 5):
                worst = max(worst, abs(inner_product(n, m, w)) / (norms[n] * norms[m]))
    report(5, "orthogonality off-diagonals @1e-9", worst < 1e-9, "worst %.2e" % worst)


def test_criterion_6_node_counts():
    # each state's real zeros by exact count, against its index and
    # the theorem count the outputs report
    details = []
    for _, spectrum in (gendenshtein_report(), milson_report()):
        for s in spectrum.states:
            count = real_root_count(s.poly.num)
            if not count == s.n == s.nodes:
                details.append("n=%d: %d real zeros, %s by theorem" % (s.n, count, s.nodes))
    report(6, "node counts equal level index", not details, "; ".join(details))


def test_criterion_7_darboux_insertion():
    t0 = time.monotonic()
    spec = gendenshtein_params(2.5, 0.5)
    seed = aeh_solution(spec, "d", 0)
    rungs = oracle_map(spec, lambda etas: partner_potential(spec, seed, etas), 46.0, 8192)
    expected = [-12.25, -6.25, -2.25, -0.25]
    rep = compare_levels(rungs, expected, tol=1e-3)[0]
    elapsed = time.monotonic() - t0
    report(
        7,
        "Darboux insertion -(a+1)^2 @1e-3",
        rep.passed and elapsed < 30.0,
        "worst rel %.2e, %.1fs" % (max(lv.rel_delta for lv in rep.levels), elapsed),
    )


def test_criterion_8_nodeless_adjudication():
    cells = nodeless_scan((2.0, 4.0), (0.0, 4.0), 2, na=16, nb=16)
    filled = [c for c in cells if c.empirical_nodeless is not None]
    consistent = all(c.consistent for c in filled)
    thresh_agree = sum(1 for c in filled if c.threshold_prediction == c.empirical_nodeless)
    disc_agree = sum(1 for c in filled if c.discriminant_prediction == c.empirical_nodeless)
    report(
        8,
        "16x16 nodelessness scan internal consistency",
        len(filled) == 256 and consistent,
        "threshold agrees %d/256, discriminant agrees %d/256" % (thresh_agree, disc_agree),
    )


def test_criterion_9_symmetric_positivity():
    worst_min = math.inf
    worst_even = 0.0
    cases = (
        PotentialSpec(h0=8.0, kappa_plus=2.0),
        PotentialSpec(h0=5.0, kappa_plus=1.5),
        PotentialSpec(h0=11.0, kappa_plus=3.0),
    )
    for spec in cases:
        grid = t_grid(16.0, t_of_x(spec.kappa_plus, 16.0), 4096)
        ground = enumerate_bound_spectrum(spec).energies[0]
        psi = symmetric_irregular_solution(spec, ground - 1.0, grid)
        worst_min = min(worst_min, float(psi.min()))
        worst_even = max(worst_even, float(np.max(np.abs(psi - psi[::-1]))))
    # at a type-d energy the even irregular solution is the closed-form seed
    # phi/sqrt(eta'), so its error must fall at the order of the scheme
    worst_ratio = math.inf
    for h0, kap, m in ((8.0, 2.0, 0), (8.0, 2.0, 2), (5.0, 1.5, 2), (8.0, 1.0, 2)):
        spec = PotentialSpec(h0=h0, kappa_plus=kap)
        errs = []
        for n_points in (1025, 2049, 4097):
            grid = t_grid(16.0, t_of_x(spec.kappa_plus, 16.0), n_points)
            seed = aeh_solution(spec, "d", m)
            closed = np.array(sampled(spec.kappa_plus, [seed], grid.etas)[0])
            psi = symmetric_irregular_solution(spec, seed.energy, grid)
            errs.append(float(np.max(np.abs(psi - closed / np.max(closed)))))
        worst_ratio = min(worst_ratio, errs[0] / errs[1], errs[1] / errs[2])
    report(
        9,
        "symmetric irregular positivity/evenness",
        worst_min > 0.0 and worst_even < 1e-9 and worst_ratio >= 3.5,
        "min %.1e, evenness dev %.1e, seed error ratio per halving %.1f"
        % (worst_min, worst_even, worst_ratio),
    )


def test_criterion_10_bound_count_edge():
    spec = gendenshtein_params(2.5, 0.5)  # Re lambda0 = 3.0 exactly
    s = enumerate_bound_spectrum(spec)
    flagged = not s.formula_consistent
    report(
        10,
        "integer-lambda0 count discrepancy flagged",
        s.n_max_constructive == 3 and s.n_max_formula == 3 and flagged,
        "constructive %d, formula max index %d" % (s.n_max_constructive, s.n_max_formula),
    )
