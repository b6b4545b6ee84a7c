"""The oracle's ladder of nested grids: nesting, one new grid per rung, the
stop rule, the cap and the point cap."""

import json

import pytest

from rrspectra import cli, darboux, geometry, oracle, spectral, verify
from rrspectra.errors import GridTooLarge
from rrspectra.geometry import PotentialSpec
from rrspectra.spectral import gendenshtein_params


def potential_columns(spec, scale=1.0):
    v_of = geometry.potential(spec)
    return lambda etas: [[scale * v for v in geometry.on_grid(v_of, etas)]]


def partner_columns(spec):
    seed = spectral.aeh_solution(spec, "d", 0)
    return lambda etas: darboux.partner_potential(spec, seed, etas)


GEN = gendenshtein_params(2.5, 0.5)
MILSON = PotentialSpec(h0=complex(7.75, 3.0), kappa_plus=2.0)


def spacing_rule(columns):
    """Spacing h = min(0.012, 0.1/sqrt|V_min|) of the samples ``columns``."""
    depth = -min(min(c) for c in columns)
    return min(0.012, 0.1 / depth ** 0.5) if depth > 0 else 0.012


class LevelsCounter:
    """Counts the grids the oracle solves while installed, by interior size."""

    def __init__(self, monkeypatch):
        self.sizes = []
        solve = oracle._levels

        def counted(ham, count, starts=()):
            self.sizes.append(len(ham.v))
            return solve(ham, count, starts)

        monkeypatch.setattr(oracle, "_levels", counted)


@pytest.mark.parametrize("spec, sample", [
    (GEN, potential_columns(GEN)),
    (MILSON, partner_columns(MILSON)),
    (gendenshtein_params(16.2, 0.7), potential_columns(gendenshtein_params(16.2, 0.7))),
])
def test_rungs_nest_bit_for_bit(spec, sample):
    rungs = list(verify.oracle_map(spec, sample))
    assert len(rungs) == 3  # rung 0 has 4 times the cap's spacing
    for (coarse, c_cols), (fine, f_cols) in zip(rungs, rungs[1:]):
        assert fine.n_points == 2 * coarse.n_points - 1 and fine.x_max == coarse.x_max
        assert fine.x_grid[::2] == coarse.x_grid and fine.eta_grid[::2] == coarse.eta_grid
        assert [c[::2] for c in f_cols] == list(c_cols)
        # the odd points as a map built from scratch has them, to rounding
        fresh = geometry.VariableMap(spec.kappa_plus, fine.x_max, fine.n_points)
        assert fine.x_grid == fresh.x_grid
        assert all(abs(a - b) <= 1e-14 * max(1.0, abs(b))
                   for a, b in zip(fine.eta_grid, fresh.eta_grid))
    for vmap, columns in rungs:
        assert (vmap.n_points - 1) % 4 == 0 and all(len(c) == vmap.n_points for c in columns)
    # the cap is the first rung at the spacing rule of its own samples
    for vmap, columns in rungs[:-1]:
        assert vmap.dx > spacing_rule(columns)
    vmap, columns = rungs[-1]
    assert vmap.dx <= spacing_rule(columns)


def test_refinement_solves_one_new_grid(monkeypatch):
    (map0, (v0,)), (map1, (v1,)), _ = verify.oracle_map(GEN, potential_columns(GEN))
    est0, grids = oracle.lowest_levels(v0, map0.dx, 3)
    solved = LevelsCounter(monkeypatch)
    est1, grids1 = oracle.lowest_levels(v1, map1.dx, 3, coarser=grids)
    assert solved.sizes == [map1.n_points - 2]
    assert grids1[:-1] == grids and len(grids1) == len(grids) + 1
    # the same levels as a solve from scratch, within the estimates
    scratch, _ = oracle.lowest_levels(v1, map1.dx, 3)
    for a, b in zip(est1, scratch):
        assert abs(a.energy - b.energy) <= a.error and a.ratio == pytest.approx(b.ratio, rel=1e-6)
    # the observed order of the finer rung is still near 16
    assert all(verify._BAND[0] <= e.ratio <= verify._BAND[1] for e in est0 + est1)


def test_refinement_needs_nested_counts():
    vmap, (v,) = next(verify.oracle_map(GEN, potential_columns(GEN)))
    _, grids = oracle.lowest_levels(v, vmap.dx, 3)
    with pytest.raises(ValueError, match="multiple of 4"):
        oracle.lowest_levels(v[:-1], vmap.dx, 3, coarser=grids)


def doctored(monkeypatch, change):
    """Install a wrapper of the oracle that passes the estimates of rung 0,
    the one solved without coarser grids, through ``change``."""
    solve = oracle.lowest_levels

    def wrapper(values, dx, count, coarser=()):
        estimates, grids = solve(values, dx, count, coarser=coarser)
        return (estimates if coarser else change(estimates)), grids

    monkeypatch.setattr(verify.oracle, "lowest_levels", wrapper)


def rung_points(spec, sample):
    return [vmap.n_points for vmap, _ in verify.oracle_map(spec, sample)]


def test_resolved_levels_stop_at_rung_0():
    report, spectrum = verify.verify_spectrum(GEN, tol=1e-3)
    assert report.passed and report.resolved
    assert report.grid[1] == rung_points(GEN, potential_columns(GEN))[0]
    for lv in report.levels:
        assert lv.error <= 1e-4 * abs(lv.numeric) and verify._BAND[0] <= lv.ratio <= verify._BAND[1]


@pytest.mark.parametrize("change", [
    lambda est: [est[0]._replace(error=1e-3 * abs(est[0].energy)), *est[1:]],  # over budget
    lambda est: [*est[:-1], est[-1]._replace(ratio=25.0)],  # pre-asymptotic
    lambda est: [*est[:-1], est[-1]._replace(ratio=10.0)],
    lambda est: est[:-1],  # a level missing
])
def test_unresolved_level_refines(monkeypatch, change):
    doctored(monkeypatch, change)
    report, _ = verify.verify_spectrum(GEN, tol=1e-3)
    assert report.passed and report.resolved
    assert report.grid[1] == rung_points(GEN, potential_columns(GEN))[1]


def test_unresolved_at_the_cap_keeps_the_pass_rule(monkeypatch):
    # a level unresolved on every rung is decided on the cap by rel_delta
    solve = oracle.lowest_levels

    def wrapper(values, dx, count, coarser=()):
        estimates, grids = solve(values, dx, count, coarser=coarser)
        return [e._replace(ratio=25.0) for e in estimates], grids

    monkeypatch.setattr(verify.oracle, "lowest_levels", wrapper)
    report, _ = verify.verify_spectrum(GEN, tol=1e-3)
    assert report.passed and not report.resolved
    assert report.grid[1] == rung_points(GEN, potential_columns(GEN))[-1]


def test_zero_tolerance_climbs_to_the_cap(monkeypatch):
    # no level is resolved at tol 0, so every rung is solved and the cap decides
    calls = []
    solve = oracle.lowest_levels

    def wrapper(values, dx, count, coarser=()):
        calls.append(len(values))
        return solve(values, dx, count, coarser=coarser)

    monkeypatch.setattr(verify.oracle, "lowest_levels", wrapper)
    report, _ = verify.verify_spectrum(GEN, tol=0.0)
    points = rung_points(GEN, potential_columns(GEN))
    assert calls == points and len(points) == 3
    assert report.grid[1] == points[-1] and not report.passed


@pytest.mark.parametrize("n, interiors", [
    (3001, [749, 1499, 2999]),
    # n - 1 not a multiple of 4: every sample is solved, and the subsamples end short
    (4096, [1022, 2046, 4094]),
], ids=["n-3001", "n-4096"])
def test_given_count_is_the_one_rung(monkeypatch, n, interiors):
    solved = LevelsCounter(monkeypatch)
    report, _ = verify.verify_spectrum(GEN, tol=1e-3, n=n)
    assert report.passed and report.grid[1] == n
    assert solved.sizes == interiors  # the interiors of the 4h, 2h and h grids


def test_point_cap_refuses_before_the_map_is_built(monkeypatch):
    # V scaled a billion times asks for a spacing of 3e-6, past 2^20 points
    built = []
    new_map = geometry.VariableMap

    def recording(kappa, x_max, n_points, coarse=None):
        built.append(n_points)
        return new_map(kappa, x_max, n_points, coarse)

    monkeypatch.setattr(verify, "VariableMap", recording)
    with pytest.raises(GridTooLarge, match="the cap is 1048576"):
        list(verify.oracle_map(GEN, potential_columns(GEN, scale=1e9)))
    assert len(built) == 1 and built[0] < 2000  # rung 0's first sampling alone


def test_point_cap_is_a_numeric_failure(tmp_path, monkeypatch, capsys):
    potential = geometry.potential
    monkeypatch.setattr(geometry, "potential",
                        lambda spec: lambda eta: 1e9 * potential(spec)(eta))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"potential": {"gendenshtein": {"a": 2.5, "b": 0.5}}}))
    out = tmp_path / "o"
    assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: GridTooLarge: ")
    assert not list(out.iterdir())
    assert verify.MAX_COUNT == spectral.MAX_COUNT == 2 ** 20


def spec_of(potential):
    (family, p), = potential.items()
    if family == "gendenshtein":
        return gendenshtein_params(p["a"], p["b"])
    return PotentialSpec(h0=complex(p["h0_re"], p["h0_im"]), kappa_plus=p["kappa_plus"])


@pytest.mark.parametrize("potential, below_cap", [
    ({"gendenshtein": {"a": 16.2, "b": 0.7}}, True),
    ({"gendenshtein": {"a": 30.3, "b": 0.7}}, True),
    ({"milson": {"h0_re": 5.3528, "h0_im": 0.6011, "kappa_plus": 1.6258}}, True),
    # the levels -1e-8 and -1e-10: no budget reaches tol |E| / 10 = 1e-13 and
    # 1e-15, so the cap decides them on rel_delta
    ({"gendenshtein": {"a": 2.0001, "b": 0.0}}, False),
    ({"gendenshtein": {"a": 2.00001, "b": 0.0}}, False),
])
def test_hard_cases_pass_at_tight_tolerance(tmp_path, potential, below_cap):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"potential": potential}))
    out = tmp_path / "o"
    assert cli.main(["verify", "--config", str(path), "--out", str(out), "--tol", "1e-4"]) == 0
    record = json.loads((out / "verify.json").read_text())
    spec = spec_of(potential)
    cap = rung_points(spec, potential_columns(spec))[-1]
    assert record["passed"] and (record["grid"]["n"] < cap) is below_cap


@pytest.mark.parametrize("command, a, b, points, levels", [
    ("partner", 3.423291803814652, 1.774752457668995, 1293, 5),
    ("partner", 2.1628039666893044, 0.6031795824151853, 1233, 4),
    ("verify", 4.271301390682268, 1.2017990803136551, 1293, 5),
])
def test_shallow_and_partner_levels_stop_at_rung_0(tmp_path, command, a, b, points, levels):
    # oracle_verify benchmark configs (seed 1001 #1 and #5, seed 4242 #0) whose
    # levels a second-order scheme resolved only on rung 1 or at the cap
    config = {"potential": {"gendenshtein": {"a": a, "b": b}}}
    if command == "partner":
        config["partner"] = {"kind": "d", "m": 0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    record = json.loads((out / ("verify.json" if command == "verify" else "partner_verify.json"))
                        .read_text())
    spec = gendenshtein_params(a, b)
    sample = potential_columns(spec) if command == "verify" else partner_columns(spec)
    assert record["passed"] and len(record["levels"]) == levels
    assert record["grid"]["n"] == points == rung_points(spec, sample)[0]
