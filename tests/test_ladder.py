"""The oracle's ladder of nested grids: nesting, one new grid per rung, the
stop rule, the cap and the point cap."""

import json

import numpy as np
import pytest

import replay
from rrspectra import cli, geometry, oracle, spectral, verify
from rrspectra.errors import GridTooLarge
from rrspectra.geometry import PotentialSpec
from rrspectra.spectral import gendenshtein_params


def type_d_seed(spec):
    return spectral.aeh_solution(spec, "d", 0)


GEN = gendenshtein_params(2.5, 0.5)
MILSON = PotentialSpec(h0=complex(7.75, 3.0), kappa_plus=2.0)


def spacing_rule(rung):
    """Spacing h = min(0.012, 0.1/sqrt(depth)) of the samples of ``rung``,
    depth = -min(0, min Q/W) max W of the coupling the oracle solves."""
    w = np.array(rung.weights)
    depth = -min(0.0, np.min(np.array(rung.coupling) / w)) * np.max(w)
    return min(0.012, 0.1 / depth ** 0.5) if depth > 0 else 0.012


class LevelsCounter:
    """Counts the grids the oracle solves while installed, by interior size."""

    def __init__(self, monkeypatch):
        self.sizes = []
        solve = oracle._levels

        def counted(ham, count, starts=()):
            self.sizes.append(len(ham.r))
            return solve(ham, count, starts)

        monkeypatch.setattr(oracle, "_levels", counted)


class SweepCounter:
    """Records the interior size of each grid the oracle sweeps while
    installed, per kind of sweep: a Laguerre pass or a Sturm count."""

    def __init__(self, monkeypatch):
        self.sizes = {"_laguerre_pass": [], "_count": []}
        for name, sizes in self.sizes.items():
            def counted(ham, sigma, sweep=getattr(oracle, name), sizes=sizes):
                sizes.append(len(ham.r))
                return sweep(ham, sigma)

            monkeypatch.setattr(oracle, name, counted)


@pytest.mark.parametrize("spec, seed", [
    (GEN, None),
    (MILSON, type_d_seed(MILSON)),
    (gendenshtein_params(16.2, 0.7), None),
])
def test_rungs_nest_bit_for_bit(spec, seed):
    rungs = list(verify.oracle_map(spec, seed))
    assert len(rungs) == 3  # rung 0 has 4 times the cap's spacing
    for coarse, fine in zip(rungs, rungs[1:]):
        assert fine.grid.n == 2 * coarse.grid.n - 1
        assert (fine.grid.x_max, fine.grid.t_max) == (coarse.grid.x_max, coarse.grid.t_max)
        # each rung samples all its points; the even ones are the rung before's
        assert fine.grid.ts[::2] == coarse.grid.ts
        assert fine.weights[::2] == coarse.weights
        assert fine.coupling[::2] == coarse.coupling
        assert [c[::2] for c in fine.potentials] == list(coarse.potentials)
    for rung in rungs:
        assert (rung.grid.n - 1) % 4 == 0
        assert all(len(c) == rung.grid.n for c in [rung.weights, rung.coupling, *rung.potentials])
        assert len(rung.potentials) == (0 if seed is None else 2)
    # the cap is the first rung at the spacing rule of rung 0's samples
    for rung in rungs[:-1]:
        assert rung.grid.dt > spacing_rule(rungs[0])
    assert rungs[-1].grid.dt <= spacing_rule(rungs[0])


def test_partner_coupling_is_shifted_by_the_weight():
    # Q_hat = Q + W (V_hat - V): the partner's V_hat in t, for the oracle
    *_, rung = verify.oracle_map(MILSON, type_d_seed(MILSON))
    q_hat, w, (v, v_hat) = rung.coupling, rung.weights, rung.potentials
    q, w_parent = map(list, zip(*map(geometry.weighted_scarf(MILSON), rung.grid.ts)))
    assert w == w_parent
    assert q_hat == [a + b * (c - d) for a, b, c, d in zip(q, w, v_hat, v)]


def test_refinement_solves_one_new_grid(monkeypatch):
    rung0, rung1, _ = verify.oracle_map(GEN)
    q0, q1 = rung0.coupling, rung1.coupling
    est0, grids = oracle.lowest_levels(q0, rung0.weights, rung0.grid.dt, 3)
    solved = LevelsCounter(monkeypatch)
    est1, grids1 = oracle.lowest_levels(q1, rung1.weights, rung1.grid.dt, 3, coarser=grids)
    assert solved.sizes == [rung1.grid.n - 2]
    assert grids1[:-1] == grids and len(grids1) == len(grids) + 1
    # the same levels as a solve from scratch, within the estimates
    scratch, _ = oracle.lowest_levels(q1, rung1.weights, rung1.grid.dt, 3)
    for a, b in zip(est1, scratch):
        assert abs(a.energy - b.energy) <= a.error and a.ratio == pytest.approx(b.ratio, rel=1e-6)
    # the observed order of the finer rung is still near 16
    assert all(verify._BAND[0] <= e.ratio <= verify._BAND[1] for e in est0 + est1)


def test_refinement_needs_nested_counts():
    rung = next(verify.oracle_map(GEN))
    q, w = rung.coupling, rung.weights
    _, grids = oracle.lowest_levels(q, w, rung.grid.dt, 3)
    with pytest.raises(ValueError, match="multiple of 4"):
        oracle.lowest_levels(q[:-1], w[:-1], rung.grid.dt, 3, coarser=grids)


def doctored(monkeypatch, change):
    """Install a wrapper of the oracle that passes the estimates of rung 0,
    the one solved without coarser grids, through ``change``."""
    solve = oracle.lowest_levels

    def wrapper(values, weights, dx, count, coarser=()):
        estimates, grids = solve(values, weights, dx, count, coarser=coarser)
        return (estimates if coarser else change(estimates)), grids

    monkeypatch.setattr(verify.oracle, "lowest_levels", wrapper)


def rung_points(spec, seed=None):
    return [rung.grid.n for rung in verify.oracle_map(spec, seed)]


def test_resolved_levels_stop_at_rung_0():
    report, spectrum = verify.verify_spectrum(GEN, tol=1e-3)
    assert report.passed and report.resolved
    assert report.grid.n == rung_points(GEN)[0]
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
    assert report.grid.n == rung_points(GEN)[1]


def test_unresolved_at_the_cap_keeps_the_pass_rule(monkeypatch):
    # a level unresolved on every rung is decided on the cap by rel_delta
    solve = oracle.lowest_levels

    def wrapper(values, weights, dx, count, coarser=()):
        estimates, grids = solve(values, weights, dx, count, coarser=coarser)
        return [e._replace(ratio=25.0) for e in estimates], grids

    monkeypatch.setattr(verify.oracle, "lowest_levels", wrapper)
    report, _ = verify.verify_spectrum(GEN, tol=1e-3)
    assert report.passed and not report.resolved
    assert report.grid.n == rung_points(GEN)[-1]


@pytest.mark.parametrize("spec, cap_points", [
    (GEN, 4929),
    # finer rungs sample this well a little deeper (caps of 7,726 to 7,732
    # intervals), so the cap is read on rung 0 alone
    (PotentialSpec(h0=complex(7.75, 3.0), kappa_plus=0.05), 7729),
], ids=["gendenshtein-2.5", "milson-kappa-0.05"])
def test_zero_tolerance_climbs_to_the_cap(monkeypatch, spec, cap_points):
    # no level is resolved at tol 0, so every rung is solved and the cap decides
    calls = []
    solve = oracle.lowest_levels

    def wrapper(values, weights, dx, count, coarser=()):
        calls.append(len(values))
        return solve(values, weights, dx, count, coarser=coarser)

    monkeypatch.setattr(verify.oracle, "lowest_levels", wrapper)
    report, _ = verify.verify_spectrum(spec, tol=0.0)
    points = rung_points(spec)
    assert calls == points and len(points) == 3
    assert report.grid.n == points[-1] == cap_points and not report.passed


@pytest.mark.parametrize("n, interiors", [
    (3001, [749, 1499, 2999]),
    # n - 1 not a multiple of 4: every sample is solved, and the subsamples end short
    (4096, [1022, 2046, 4094]),
], ids=["n-3001", "n-4096"])
def test_given_count_is_the_one_rung(monkeypatch, n, interiors):
    solved = LevelsCounter(monkeypatch)
    report, _ = verify.verify_spectrum(GEN, tol=1e-3, n=n)
    assert report.passed and report.grid.n == n
    assert solved.sizes == interiors  # the interiors of the 4h, 2h and h grids


def scaled_scarf(monkeypatch, scale):
    """Install Q scaled ``scale`` times in place of the closed form."""
    weighted_scarf = geometry.weighted_scarf

    def scaled(spec):
        q_w = weighted_scarf(spec)

        def q_w_scaled(t):
            q, w = q_w(t)
            return scale * q, w
        return q_w_scaled

    monkeypatch.setattr(geometry, "weighted_scarf", scaled)


def test_point_cap_refuses_before_the_grid_is_sampled(monkeypatch):
    # Q scaled a billion times asks for a spacing of 3e-6, past 2^20 points
    built = []
    new_grid = geometry.t_grid

    def recording(x_max, t_max, n):
        built.append(n)
        return new_grid(x_max, t_max, n)

    monkeypatch.setattr(geometry, "t_grid", recording)
    scaled_scarf(monkeypatch, 1e9)
    with pytest.raises(GridTooLarge, match="the cap is 1048576"):
        list(verify.oracle_map(GEN))
    assert len(built) == 1 and built[0] < 2000  # rung 0's first sampling alone


def test_point_cap_is_a_numeric_failure(tmp_path, monkeypatch, capsys):
    scaled_scarf(monkeypatch, 1e9)
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


@pytest.mark.parametrize("command, config, decided", [
    ("verify", {"potential": {"gendenshtein": {"a": 16.2, "b": 0.7}}}, "below cap"),
    ("verify", {"potential": {"gendenshtein": {"a": 30.3, "b": 0.7}}}, "below cap"),
    ("verify", {"potential": {"milson": {"h0_re": 5.3528, "h0_im": 0.6011, "kappa_plus": 1.6258}}},
     "below cap"),
    # the levels -1e-8 and -1e-10: no budget reaches tol |E| / 10 = 1e-13 and
    # 1e-15, so the cap decides them on rel_delta
    ("verify", {"potential": {"gendenshtein": {"a": 2.0001, "b": 0.0}}}, "cap"),
    ("verify", {"potential": {"gendenshtein": {"a": 2.00001, "b": 0.0}}}, "cap"),
    # a well about 0.1 wide in x is about 0.3 wide in t: resolved on rung 0,
    # where the x grid's cap of 6,081 points left ratios of 1015, -38 and -46
    ("verify", {"potential": {"milson": {"h0_re": 7.75, "h0_im": 3.0, "kappa_plus": 0.05}}},
     "rung 0"),
    # the type-d m = 8 partner inserts a level at -1.1e5
    ("partner", {"potential": {"milson": {"h0_re": 0.5, "h0_im": 7.5, "kappa_plus": 0.05}},
                 "partner": {"kind": "d", "m": 8}}, "rung 0"),
], ids=["gendenshtein-16.2", "gendenshtein-30.3", "milson-near-threshold", "gendenshtein-2.0001",
        "gendenshtein-2.00001", "milson-kappa-0.05", "milson-kappa-0.05-partner-m8"])
def test_hard_cases_pass_at_tight_tolerance(tmp_path, command, config, decided):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(path), "--out", str(out), "--tol", "1e-4"]) == 0
    record = json.loads((out / ("verify.json" if command == "verify" else "partner_verify.json"))
                        .read_text())
    spec = spec_of(config["potential"])
    seed = None
    if command == "partner":
        seed = spectral.aeh_solution(spec, "d", config["partner"]["m"])
    assert record["passed"]
    rungs = verify.oracle_map(spec, seed)
    if decided == "rung 0":
        assert record["grid"]["n"] == next(rungs).grid.n
    else:
        assert (record["grid"]["n"] == [rung.grid.n for rung in rungs][-1]) is (decided == "cap")
    if decided != "cap":
        assert all(verify._BAND[0] <= lv["ratio"] <= verify._BAND[1] for lv in record["levels"])


def test_erasure_partner_cap_reads_the_partner_coupling(tmp_path):
    # the type-c partner of Gendenshtein (16.2, 0.7) erases the ground level
    # at -262.44: its coupling Q_hat is shallower than the parent's Q, and rung 0
    # and the cap come from Q_hat alone
    spec = gendenshtein_params(16.2, 0.7)
    seed = spectral.enumerate_bound_spectrum(spec).states[0]
    rungs = list(verify.oracle_map(spec, seed))
    rung0 = rungs[0]
    cap = verify._cap_intervals(rung0.grid.t_max, rung0)
    parent_cap = verify._cap_intervals(rung0.grid.t_max, next(verify.oracle_map(spec)))
    assert cap < parent_cap
    assert rung0.grid.n == verify._first_rung(cap) + 1 == 2473
    assert rungs[-1].grid.n == 9889
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"potential": {"gendenshtein": {"a": 16.2, "b": 0.7}},
                                "partner": {"kind": "c", "m": 0}}))
    out = tmp_path / "o"
    assert cli.main(["partner", "--config", str(path), "--out", str(out)]) == 0
    record = json.loads((out / "partner_verify.json").read_text())
    assert record["passed"] and record["grid"]["n"] == rungs[1].grid.n == 4945


@pytest.mark.parametrize("command, b, points", [
    ("verify", 13, 2737), ("verify", 20, 2777), ("verify", 50, 5713), ("partner", 20, 2777),
])
def test_barrier_refines_rung_0_to_the_guard(tmp_path, command, b, points):
    # the depth the cap reads does not see the b^2 sech^2 t barrier, which
    # breaks Numerov's guard on the 4:1 subsample of a rung 0 at 4 times the
    # cap's spacing; rung 0 is doubled until the guard holds there, and stays
    # a quarter of the cap
    config = {"potential": {"gendenshtein": {"a": 2.5, "b": b}}}
    if command == "partner":
        config["partner"] = {"kind": "d", "m": 0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    record = json.loads((out / ("verify.json" if command == "verify" else "partner_verify.json"))
                        .read_text())
    assert record["passed"] and record["grid"]["n"] == points
    assert all(verify._BAND[0] <= lv["ratio"] <= verify._BAND[1] for lv in record["levels"])
    spec = gendenshtein_params(2.5, b)
    rung0, *_, cap = verify.oracle_map(spec, None if command == "verify" else type_d_seed(spec))
    q, w, dt = rung0.coupling, rung0.weights, rung0.grid.dt
    assert rung0.grid.n == points and cap.grid.n - 1 == 4 * (points - 1)
    assert rung0.grid.n > verify._first_rung(verify._cap_intervals(rung0.grid.t_max, rung0)) + 1
    assert oracle.keeps_guard(q[::4], w[::4], 4 * dt)
    assert not oracle.keeps_guard(q[::8], w[::8], 8 * dt)  # half rung 0's intervals


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
    seed = None if command == "verify" else type_d_seed(spec)
    assert record["passed"] and len(record["levels"]) == levels
    assert record["grid"]["n"] == points == rung_points(spec, seed)[0]


# (sweeps, interior points swept) of the eight seed-1001 oracle_verify
# benchmark commands.  A change that raises them on purpose updates them here
# and says why.
ORACLE_WORK = {"_laguerre_pass": (191, 98017), "_count": (214, 143684)}


def test_benchmark_oracle_work_stays_at_its_ceiling(tmp_path, monkeypatch):
    # interpreter start takes most of a benchmark command, so the oracle's
    # work is guarded by counts, on the commands tests/replay.py runs
    commands = [c for c in replay.commands() if c[0].startswith("oracle_verify-")]
    assert len(commands) == 8
    swept = SweepCounter(monkeypatch)
    for cid, argv, cfg in commands:
        path = tmp_path / (cid + ".json")
        path.write_text(json.dumps(cfg))
        out = tmp_path / cid
        assert cli.main([argv[0], "--config", str(path), "--out", str(out), *argv[1:]]) == 0
    work = {name: (len(sizes), sum(sizes)) for name, sizes in swept.sizes.items()}
    for name, (sweeps, points) in ORACLE_WORK.items():
        assert work[name][0] <= sweeps and work[name][1] <= points, work
