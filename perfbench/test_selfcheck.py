"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench -q

The first group needs no program run.  The last group runs a few real
``spectra`` commands (about 10 s) so the checks are shown to accept genuine
outputs before they are shown to reject doctored ones.
"""

import json
import os
import subprocess
import sys

import pytest

import checks
import layertrace
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GEN = {"potential": {"gendenshtein": {"a": 2.5, "b": 0.5}}}


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.CYCLES))
def test_same_seed_gives_byte_identical_config_files(tmp_path, workload):
    dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        runner = run.Runner(ROOT, str(d), workload, seed)
        for i in range(12):
            runner.config(i)
    names = sorted(os.listdir(dirs[0]))
    assert len(names) == 12
    same = [(dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names]
    other = [(dirs[0] / n).read_bytes() == (dirs[2] / n).read_bytes() for n in names]
    assert all(same)
    assert not any(other)


def test_every_prefix_of_draws_spreads_evenly():
    lo, hi = workloads.GENDENSHTEIN["a"]
    draws = [workloads.make_config("cli_mix", 3, i)[1]["potential"] for i in range(64)]
    u = [(p["gendenshtein"]["a"] - lo) / (hi - lo) for p in draws if "gendenshtein" in p]
    for n in (4, 8, 16, 32):
        s = sorted(u[:n])
        gaps = [y - x for x, y in zip(s, s[1:])] + [1.0 - s[-1] + s[0]]
        assert max(gaps) < 2.0 / n  # uniform draws leave gaps near ln(n) / n


def test_run_length_is_a_fixed_number_of_cycles():
    for workload in workloads.CYCLES:
        assert workloads.cycles_for(workload, 24) >= 2
        assert workloads.cycles_for(workload, 0.1) == 1
        assert workloads.cycles_for(workload, 48) in (2 * workloads.cycles_for(workload, 24) + d
                                                      for d in (-1, 0, 1))


def test_setup_samples_span_the_run():
    assert run.setup_slots(12) == [0, 6, 12]
    assert run.setup_slots(1)[0] == 0 and run.setup_slots(1)[-1] == 1
    assert len(run.setup_slots(8)) == run.SETUP_REPS


# ---------------------------------------------------------------------------
# doctored outputs are failures
# ---------------------------------------------------------------------------

def _write(path, payload):
    path.write_text(json.dumps(payload))


def _fake_spectrum(out, energies):
    out.mkdir()
    states = [{"n": i, "energy": e, "lambda": [0.0, 0.0], "nodes": i} for i, e in enumerate(energies)]
    _write(out / "spectrum.json", {"states": states, "n_max_constructive": len(states),
                                   "n_max_formula": len(states), "notes": []})
    rows = ["x," + ",".join("psi_%d" % i for i in range(len(states)))]
    rows += [",".join(["0"] * (len(states) + 1))] * checks.DEFAULT_GRID_POINTS
    (out / "eigenfunctions.csv").write_text("\n".join(rows) + "\n")
    _write(out / "report.json", {"command": "spectrum", "passed": True,
                                 "outputs": ["eigenfunctions.csv", "spectrum.json"]})


def _fake_verify(out, energies):
    out.mkdir()
    levels = [{"n": i, "analytic": e, "numeric": e * (1 + 1e-8), "rel_delta": 1e-8,
               "nodes_analytic": i, "nodes_numeric": i} for i, e in enumerate(energies)]
    _write(out / "verify.json", {"tol": 1e-3, "passed": True, "levels": levels,
                                 "n_max_constructive": 3, "n_max_formula": 3})
    _write(out / "report.json", {"command": "verify", "passed": True, "outputs": ["verify.json"]})


class _Exit:
    def __init__(self, code):
        self.exit_code = code
        self.stderr = "numeric failure: NotConverged: x\n" if code else ""


def test_closed_form_spectrum_passes_and_wrong_energy_fails(tmp_path):
    _fake_spectrum(tmp_path / "good", [-6.25, -2.25, -0.25])
    assert checks.check_outputs("spectrum", GEN, str(tmp_path / "good")) == []
    _fake_spectrum(tmp_path / "bad", [-6.25, -2.25, -0.2500001])
    problems = checks.check_outputs("spectrum", GEN, str(tmp_path / "bad"))
    assert any("level 2 energy" in p for p in problems)


def test_missing_verify_level_is_counted_failed_and_silently_wrong(tmp_path):
    _fake_verify(tmp_path / "good", [-6.25, -2.25, -0.25])
    _fake_verify(tmp_path / "short", [-6.25, -2.25])  # passed: true, one level short
    tally = run.Tally()
    assert tally.record("verify", GEN, str(tmp_path / "good"), _Exit(0), "t")
    assert not tally.record("verify", GEN, str(tmp_path / "short"), _Exit(0), "t")
    assert (tally.attempted, tally.failed, tally.silently_wrong) == (2, 1, 1)
    assert "lists 2 levels" in tally.reasons[0]


def test_nonzero_exit_is_a_failure_but_not_a_wrong_output(tmp_path):
    _fake_verify(tmp_path / "out", [-6.25, -2.25, -0.25])
    tally = run.Tally()
    assert not tally.record("verify", GEN, str(tmp_path / "out"), _Exit(3), "t")
    assert (tally.failed, tally.silently_wrong) == (1, 0)


def test_gendenshtein_levels_follow_closed_form():
    assert checks.gendenshtein_levels(2.5) == [-6.25, -2.25, -0.25]
    assert len(checks.gendenshtein_levels(1.2)) == 2


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(30)]
    pct, value = run.tail_percentile(samples)
    assert value == 19.0 and sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (pytest.approx(200 / 3), 2.0)


# ---------------------------------------------------------------------------
# genuine outputs (runs the real command line)
# ---------------------------------------------------------------------------

def _spectra(tmp_path, command, cfg, traced=False):
    cfg_path = tmp_path / ("%s.json" % command)
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / ("out-%s" % command)
    args = [command, "--config", str(cfg_path), "--out", str(out), "--workers", "1"]
    spans = tmp_path / "spans.json"
    if traced:
        argv = [sys.executable, "-X", "importtime", os.path.join(run.HERE, "layertrace.py"), str(spans)]
    else:
        argv = [sys.executable, "-m", "rrspectra.cli"]
    proc = subprocess.run(argv + args, env=run.child_env(ROOT), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return out, spans, proc.stderr


def test_real_verify_passes_then_fails_without_a_level(tmp_path):
    out, _spans, _err = _spectra(tmp_path, "verify", GEN)
    assert checks.check_outputs("verify", GEN, str(out)) == []
    payload = json.loads((out / "verify.json").read_text())
    payload["levels"].pop()
    (out / "verify.json").write_text(json.dumps(payload))
    assert any("lists 2 levels" in p for p in checks.check_outputs("verify", GEN, str(out)))


def test_traced_spectrum_records_layers(tmp_path):
    out, spans, stderr = _spectra(tmp_path, "spectrum", GEN, traced=True)
    assert checks.check_outputs("spectrum", GEN, str(out)) == []
    totals = layertrace.LayerTotals()
    totals.add(json.loads(spans.read_text()), stderr, run.bytes_in(str(out)))
    m = totals.metrics()
    assert m["spectral.enumerate_bound_spectrum_s"] > 0
    assert m["spectral.enumerate_bound_spectrum.calls"] >= 2  # cmd_spectrum and assemble
    assert m["routh.real_roots.calls"] >= 3
    assert m["import.numpy_s"] > 0 and m["import.sympy_s"] > 0
    assert m["oracle.numerov_spectrum.calls"] == 0
    assert m["cli.bytes_written"] == run.bytes_in(str(out))
    assert m["cli.self_s"] > 0
