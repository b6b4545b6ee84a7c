"""End-to-end command tests: outputs, exit codes, determinism."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import rrspectra
from rrspectra import cli, geometry, spectral, verify
from rrspectra.cli import main

from rational import coeffs, routh_record
from residual import potential_t, poly_mul


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def assert_one_config_error(err):
    """``err`` is exactly one line, the config error for a user x_max of 800,
    past X at every t where sinh t is finite: no warning is printed before
    it."""
    lines = err.splitlines()
    assert len(lines) == 1 and err.endswith("\n"), err
    assert lines[0] == ("config error: grid x_max=800.0, n=None: "
                        "eta samples overflow the double range before x = 800"), err


def assert_finite_csv(path, columns):
    """The CSV at ``path`` has a header of ``columns`` columns and only finite
    numbers below it."""
    header, *rows = path.read_text().splitlines()
    assert len(header.split(",")) == columns and rows
    values = [float(v) for row in rows for v in row.split(",")]
    assert all(map(math.isfinite, values)) and len(values) == columns * len(rows)


GEN = {"potential": {"gendenshtein": {"a": 2.5, "b": 0.5}}}
MILSON = {"potential": {"milson": {"h0_re": 7.75, "h0_im": 3.0, "kappa_plus": 2.0}}}
# a grid on which this potential has not decayed at x = +-3
NARROW = {"potential": {"gendenshtein": {"a": 3.3, "b": 0.7}}, "grid": {"x_max": 3.0, "n": 1024},
          "partner": {"kind": "d", "m": 0}}


class TestSpectrumCommand:
    def test_gendenshtein_levels(self, tmp_path):
        cfg = write_config(tmp_path, GEN)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "spectrum.json").read_text())
        energies = [s["energy"] for s in payload["states"]]
        assert energies == pytest.approx([-6.25, -2.25, -0.25], rel=1e-12)
        header = (out / "eigenfunctions.csv").read_text().splitlines()[0]
        assert header == "x,psi_0,psi_1,psi_2"

    def test_milson_states_from_quartic(self, tmp_path):
        cfg = write_config(tmp_path, MILSON)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "spectrum.json").read_text())
        assert len(payload["states"]) == 3

    def test_empty_spectrum_is_success(self, tmp_path):
        cfg = write_config(
            tmp_path, {"potential": {"milson": {"h0_re": -0.84, "h0_im": 0.0, "kappa_plus": 1.0}}}
        )
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "spectrum.json").read_text())
        assert payload["states"] == []

    @pytest.mark.parametrize("a_g", [2.02, 3.004])
    def test_near_threshold_gendenshtein(self, tmp_path, a_g):
        cfg = write_config(tmp_path, {"potential": {"gendenshtein": {"a": a_g, "b": 0.0}}})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "spectrum.json").read_text())
        energies = [s["energy"] for s in payload["states"]]
        assert energies == pytest.approx([-((a_g - n) ** 2) for n in range(int(a_g) + 1)], rel=1e-12)

    def test_near_threshold_milson(self, tmp_path):
        cfg = write_config(tmp_path, {"potential": {"milson": {
            "h0_re": 5.3528, "h0_im": 0.6011, "kappa_plus": 1.6258}}})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        assert len(json.loads((out / "spectrum.json").read_text())["states"]) == 3

    @pytest.mark.parametrize("payload", [MILSON, GEN], ids=["milson", "gendenshtein"])
    def test_default_box_is_the_decay_scan(self, tmp_path, payload):
        # without a grid block: 4,096 points out to 1 past the smallest
        # quarter where |V| < 1e-3 at both ends; a config x_max is kept as given
        spec = cli.RunConfig(payload).spec
        x_max = geometry.decay_x_max(spec, 1e-3) + 1.0
        t_end = geometry.t_of_x(spec.kappa_plus, x_max - 1.0)
        assert max(map(abs, potential_t(spec, [-t_end, t_end]))) < 1e-3
        for grid, half_width in (({}, x_max), ({"grid": {"x_max": 12.0}}, 12.0)):
            cfg = write_config(tmp_path, {**payload, **grid})
            out = tmp_path / str(half_width)
            assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
            xs = [float(row.partition(",")[0])
                  for row in (out / "eigenfunctions.csv").read_text().splitlines()[1:]]
            assert len(xs) == 4096 and (xs[0], xs[-1]) == (-half_width, half_width)
            # x = X(t) on a uniform t grid: X' = sqrt(W) runs from
            # sqrt(kappa) at the well to 1 in the tails, so steps are uniform
            # only at kappa = 1 (to the %.12g rounding of x)
            steps = np.diff(xs)
            assert steps.max() / steps.min() == pytest.approx(spec.kappa_plus ** 0.5, rel=1e-3)

    def test_wide_user_grid_passes(self, tmp_path):
        # past |x| ~ 355 eta^2 overflows, but psi is sampled from sech t and
        # tanh t, and underflows towards 0.0 there
        cfg = write_config(tmp_path, {**GEN, "grid": {"x_max": 400.0}})
        out = tmp_path / "o"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        assert_finite_csv(out / "eigenfunctions.csv", 4)

    def test_unrepresentable_user_grid_is_config_error(self, tmp_path, capsys):
        # past |x| ~ 710 eta = sinh t overflows; nothing may be written,
        # spectrum.json included
        cfg = write_config(tmp_path, {**GEN, "grid": {"x_max": 800.0}})
        out = tmp_path / "o"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        assert_one_config_error(capsys.readouterr().err)
        assert os.listdir(out) == []

    def test_non_finite_default_grid_is_numeric_failure(self, tmp_path, monkeypatch, capsys):
        real = geometry.sampled

        def overflowing(kappa, states, ts):
            psis = real(kappa, states, ts)
            psis[-1][-1] = np.nan
            return psis

        monkeypatch.setattr(geometry, "sampled", overflowing)
        cfg = write_config(tmp_path, GEN)
        out = tmp_path / "o"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 3
        assert "NonFiniteSamples" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path, {
            **GEN, "partner": {"kind": "d", "m": 0},
            "scan": {"a_range": [2.0, 3.0], "b_range": [0.0, 1.0], "na": 3, "nb": 3, "m": 2},
        })
        for command in ("spectrum", "verify", "scan-nodeless", "partner", "identities"):
            out1, out2 = tmp_path / command / "a", tmp_path / command / "b"
            assert main([command, "--config", cfg, "--out", str(out1)]) == 0
            assert main([command, "--config", cfg, "--out", str(out2)]) == 0
            names = sorted(os.listdir(out1))
            assert names == sorted(os.listdir(out2)) and "report.json" in names
            for name in names:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (command, name)


class TestVerifyCommand:
    def test_gendenshtein_battery(self, tmp_path):
        cfg = write_config(tmp_path, GEN)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--tol", "1e-4"]) == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["passed"] and len(payload["levels"]) == 3

    def test_milson_battery(self, tmp_path):
        cfg = write_config(tmp_path, MILSON)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--tol", "1e-3"]) == 0

    def test_corrupted_constant_term(self, tmp_path, capsys):
        # O00 = 2 Re h0 + 1 is derived, not configured: even its one right
        # value (16.5 here) is an unknown key
        for o00 in (3.0, 16.5):
            cfg = write_config(
                tmp_path, {"potential": {"gendenshtein": {"a": 2.5, "b": 0.5, "O00": o00}}}
            )
            out = tmp_path / "o"
            assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "config error: unknown gendenshtein key 'O00' (accepted: a, b)\n")
            assert not out.exists()

    def test_failure_exit_code_on_impossible_tolerance(self, tmp_path):
        cfg = write_config(tmp_path, GEN)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--tol", "1e-13"]) == 1
        payload = json.loads((out / "verify.json").read_text())
        assert not payload["passed"]

    def test_missing_level_fails(self, tmp_path):
        # the x_max = 4.5 box cuts off the well's tails (|V| ~ 7e-4 at its
        # ends), and the level at -1e-6 is no longer bound in what is left
        cfg = write_config(
            tmp_path,
            {"potential": {"gendenshtein": {"a": 2.001, "b": 0.0}}, "grid": {"x_max": 4.5, "n": 2049}},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        payload = json.loads((out / "verify.json").read_text())
        assert not payload["passed"] and len(payload["levels"]) == 2

    @pytest.mark.parametrize("potential, order, levels", [
        # both levels, -9.7e-11 and -4.2e-11, are above the cut: none is checked
        ({"milson": {"h0_re": 5.0, "h0_im": 2.0, "kappa_plus": 1e11}}, 0, 0),
        # the order-2 level at -1e-12 is cut, and levels 0 and 1 are checked
        ({"gendenshtein": {"a": 2.000001, "b": 0.0}}, 2, 2),
    ], ids=["milson-kappa-1e11", "gendenshtein-2.000001"])
    def test_threshold_cut_is_noted(self, tmp_path, potential, order, levels):
        # a level dropped by the threshold cut passes unchecked, so the
        # files that pass say which order was cut
        note = ["order %d: |e| < 1e-10 treated as threshold, not bound" % order]
        cfg = write_config(tmp_path, {"potential": potential, "partner": {"kind": "d", "m": 0}})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        record = json.loads((out / "verify.json").read_text())
        assert record["notes"] == note and len(record["levels"]) == levels
        if "gendenshtein" in potential:
            assert main(["partner", "--config", cfg, "--out", str(out)]) == 0
            record = json.loads((out / "partner_verify.json").read_text())
            assert record["notes"] == note and len(record["levels"]) == levels + 1

    def test_grid_where_four_t_overflows_passes(self, tmp_path):
        # near |x| = 355, 4(eta^2 + 1) overflows while eta^2 does not; the
        # potential must still decay there instead of ending at 1/4
        cfg = write_config(tmp_path, {**GEN, "grid": {"x_max": 355.3, "n": 40001}})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "verify.json").read_text())["passed"] is True

    def test_wide_user_grid_passes(self, tmp_path):
        # past |x| ~ 355 eta^2 overflows, but the oracle samples Q and W in
        # t, from sech t and tanh t, which stay finite
        cfg = write_config(tmp_path, {**GEN, "grid": {"x_max": 400.0}})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        record = json.loads((out / "verify.json").read_text())
        assert record["passed"] and record["grid"]["t_max"] == 400.0
        assert max(lv["rel_delta"] for lv in record["levels"]) < 1e-8


class TestScanCommand:
    def test_small_scan(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "potential": {"gendenshtein": {"a": 2.5, "b": 0.5}},
                "scan": {"a_range": [2.0, 3.0], "b_range": [0.0, 2.0], "na": 3, "nb": 3, "m": 2},
            },
        )
        out = tmp_path / "out"
        assert main(["scan-nodeless", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0] == "a,b,empirical_nodeless,threshold_prediction,discriminant_prediction,consistent"
        assert len(lines) == 10
        summary = json.loads((out / "scan_summary.json").read_text())
        assert summary["internally_consistent"]

    def test_symmetric_row_nodeless(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "potential": {"gendenshtein": {"a": 2.5, "b": 0.0}},
                "scan": {"a_range": [1.0, 3.0], "b_range": [0.0, 0.0], "na": 4, "nb": 2, "m": 2},
            },
        )
        out = tmp_path / "out"
        assert main(["scan-nodeless", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "scan.csv").read_text().splitlines()[1:]
        assert all(r.split(",")[2] == "true" for r in rows)

    def test_huge_a_discriminant_sign_is_exact(self, tmp_path):
        # at a ~ 1e120 the order-2 discriminant is beyond the double range,
        # so its sign is read off the exact rational
        cfg = write_config(tmp_path, {
            "potential": {"gendenshtein": {"a": 2.5, "b": 0.5}},
            "scan": {"a_range": [1e120, 2e120], "b_range": [0, 1], "na": 2, "nb": 2, "m": 2},
        })
        out = tmp_path / "out"
        assert main(["scan-nodeless", "--config", cfg, "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "scan.csv").read_text().splitlines()[1:]]
        assert len(rows) == 4 and all(r[4] == "true" for r in rows)

    def test_coarse_grid_within_budget(self, tmp_path):
        import time

        cfg = write_config(
            tmp_path,
            {
                "potential": {"gendenshtein": {"a": 2.5, "b": 0.5}},
                "scan": {"a_range": [2.0, 4.0], "b_range": [0.0, 3.0], "na": 8, "nb": 8, "m": 2},
            },
        )
        t0 = time.monotonic()
        assert main(["scan-nodeless", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert time.monotonic() - t0 < 30.0

    SCAN_2X2 = {
        "potential": {"gendenshtein": {"a": 2.5, "b": 0.5}},
        "scan": {"a_range": [2.0, 3.0], "b_range": [0.0, 1.0], "na": 2, "nb": 2, "m": 2},
    }

    def test_workers_give_identical_output(self, tmp_path):
        cfg = write_config(tmp_path, self.SCAN_2X2)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["scan-nodeless", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["scan-nodeless", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
        assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()

    @pytest.mark.parametrize("cpus, pool_size", [(8, 4), (3, 3), (None, None)])
    def test_pool_never_outgrows_cells_or_cpus(self, tmp_path, monkeypatch, cpus, pool_size):
        # the real pool forks max_workers processes at once; this one maps serially
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = write_config(tmp_path, self.SCAN_2X2)
        out = str(tmp_path / "o")
        assert main(["scan-nodeless", "--config", cfg, "--out", out, "--workers", "100000"]) == 0
        assert sizes == ([] if pool_size is None else [pool_size])

    def test_inconsistent_cell_fails_the_scan(self, tmp_path, monkeypatch):
        # a theorem count that contradicts every exact count is a failed check
        monkeypatch.setattr(spectral, "theorem_root_count", lambda m, index: m + 1)
        cfg = write_config(tmp_path, self.SCAN_2X2)
        out = tmp_path / "o"
        assert main(["scan-nodeless", "--config", cfg, "--out", str(out)]) == 1
        assert json.loads((out / "scan_summary.json").read_text())["internally_consistent"] is False
        assert json.loads((out / "report.json").read_text())["passed"] is False

    @pytest.mark.parametrize("key, value", [
        ("a_range", [3.0, 2.0]), ("a_range", [2.0, 2.0]), ("a_range", [2.0]),
        ("b_range", [1.0, 0.0]), ("b_range", [0.0, 1.0, 2.0]), ("b_range", "01"),
    ])
    def test_malformed_range(self, tmp_path, capsys, key, value):
        # out of order, the wrong length or not a list: one message, naming
        # the block and the key as every other config message does
        scan = {"a_range": [2.0, 3.0], "b_range": [0.0, 1.0], "m": 2, key: value}
        cfg = write_config(tmp_path, {"potential": {"gendenshtein": {"a": 2.5, "b": 0.5}},
                                      "scan": scan})
        out = tmp_path / "o"
        assert main(["scan-nodeless", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: malformed scan '%s'\n" % key
        assert os.listdir(out) == []

    def test_odd_order_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "potential": {"gendenshtein": {"a": 2.5, "b": 0.5}},
                "scan": {"a_range": [2.0, 3.0], "b_range": [0.0, 1.0], "m": 3},
            },
        )
        assert main(["scan-nodeless", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestPartnerCommand:
    def test_insertion(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"potential": {"gendenshtein": {"a": 1.5, "b": 0.4}}, "partner": {"kind": "d", "m": 0}},
        )
        out = tmp_path / "out"
        assert main(["partner", "--config", cfg, "--out", str(out), "--tol", "1e-3"]) == 0
        payload = json.loads((out / "partner_verify.json").read_text())
        assert payload["passed"]
        assert payload["levels"][0]["expected"] == pytest.approx(-6.25)
        # the one rel_delta rule of verify.json: relative to the oracle value
        assert [lv["n"] for lv in payload["levels"]] == [0, 1, 2]
        for lv in payload["levels"]:
            assert lv["rel_delta"] == abs(lv["expected"] - lv["numeric"]) / abs(lv["numeric"])
        header = (out / "partner.csv").read_text().splitlines()[0]
        assert header == "x,V_parent,V_partner"

    def test_csv_dump(self, tmp_path, monkeypatch):
        # partner.csv appears only when complete, like every other output:
        # written to a temporary file, then moved into place
        moved = []
        replace = os.replace

        def recording(src, dst):
            moved.append(os.path.basename(dst))
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", recording)
        self.test_insertion(tmp_path)
        assert moved == ["partner.csv", "partner_verify.json", "report.json"]
        out = tmp_path / "out"
        assert sorted(os.listdir(out)) == ["partner.csv", "partner_verify.json", "report.json"]
        rows = (out / "partner.csv").read_text().splitlines()[1:]
        # one row per point of the rung of the oracle's ladder the levels
        # were decided on, the grid that partner_verify.json records
        spec = spectral.gendenshtein_params(1.5, 0.4)
        seed = spectral.aeh_solution(spec, "d", 0)
        rungs = verify.oracle_map(spec, seed)
        _, rung = verify.compare_levels(rungs, [-6.25, -2.25, -0.25], 1e-3)
        grid = json.loads((out / "partner_verify.json").read_text())["grid"]
        assert grid == {"x_max": rung.grid.x_max, "t_max": rung.grid.t_max, "n": rung.grid.n,
                        "dt": rung.grid.dt}
        assert len(rows) == rung.grid.n and all(len(r.split(",")) == 3 for r in rows)
        # x = X(t) at the grid's t, which is x itself at kappa = 1
        xs = [float(r.split(",")[0]) for r in rows]
        assert xs == [float("%.12g" % t) for t in rung.grid.ts]
        assert xs[0] == -rung.grid.x_max

    def test_erasure(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"potential": {"gendenshtein": {"a": 1.5, "b": 0.4}}, "partner": {"kind": "c", "m": 0}},
        )
        out = tmp_path / "out"
        assert main(["partner", "--config", cfg, "--out", str(out), "--tol", "1e-3"]) == 0
        payload = json.loads((out / "partner_verify.json").read_text())
        assert [lv["expected"] for lv in payload["levels"]] == pytest.approx([-0.25])

    def test_erasure_on_a_deep_well_is_not_refused(self, tmp_path):
        # the nodeless ground state underflows to 0.0 on about a fifth of the
        # grid; the oracle, not a refusal, decides the command
        cfg = write_config(tmp_path, {"potential": {"gendenshtein": {"a": 16.2, "b": 0.7}},
                                      "partner": {"kind": "c", "m": 0}})
        out = tmp_path / "out"
        assert main(["partner", "--config", cfg, "--out", str(out)]) in (0, 1)
        payload = json.loads((out / "partner_verify.json").read_text())
        assert len(payload["levels"]) == 16

    def test_erasure_builds_no_default_map(self, tmp_path, monkeypatch):
        def no_map(config):
            raise AssertionError("type-c partner needs no eigenfunction map")

        monkeypatch.setattr(cli, "_default_map", no_map)
        self.test_erasure(tmp_path)

    def test_grid_too_coarse_for_deep_partner_is_config_error(self, tmp_path, capsys):
        # the order-8 type-d seed is a valid closed form (e about -1.1e5), but
        # its partner's well is too deep for a grid of 8,193 points: the 4:1
        # subsample has h^2 (V_max - V_min)/12 = 0.99, past Numerov's guard
        cfg = write_config(tmp_path, {
            "potential": {"milson": {"h0_re": 0.5, "h0_im": 7.5, "kappa_plus": 0.05}},
            "partner": {"kind": "d", "m": 8}, "grid": {"n": 8193},
        })
        out = tmp_path / "o"
        assert main(["partner", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid x_max=None, n=8193: a Numerov grid of spacing ")
        assert err.endswith("; it must be below 0.5\n") and err.count("\n") == 1
        assert os.listdir(out) == []

    def test_unrepresentable_user_grid_is_config_error(self, tmp_path, capsys):
        # past |x| ~ 710 eta = sinh t overflows before any potential is
        # sampled; nothing may be written
        cfg = write_config(tmp_path, {**GEN, "grid": {"x_max": 800.0},
                                      "partner": {"kind": "d", "m": 0}})
        out = tmp_path / "o"
        assert main(["partner", "--config", cfg, "--out", str(out)]) == 2
        assert_one_config_error(capsys.readouterr().err)
        assert os.listdir(out) == []

    @pytest.mark.parametrize("kind", ["x", "C", 0, None, ["d"]])
    def test_unknown_kind_is_config_error(self, tmp_path, capsys, kind):
        cfg = write_config(tmp_path, {**GEN, "partner": {"kind": kind, "m": 0}})
        out = tmp_path / "o"
        assert main(["partner", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: partner 'kind' must be 'c' or 'd'\n"
        assert os.listdir(out) == []

    @pytest.mark.parametrize("kind", ["c", "d"])
    def test_user_grid_past_eta_squared_passes(self, tmp_path, kind):
        # past |x| ~ 355 eta^2 overflows, but V and V_hat are sampled from
        # sech t and tanh t and decay to 0.0 there
        cfg = write_config(tmp_path, {**GEN, "grid": {"x_max": 400.0},
                                      "partner": {"kind": kind, "m": 0}})
        out = tmp_path / "o"
        assert main(["partner", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "partner_verify.json").read_text())["passed"] is True
        assert_finite_csv(out / "partner.csv", 3)

    @pytest.mark.parametrize("x_max", [240.0, 300.0])
    def test_wide_user_grid_passes(self, tmp_path, x_max):
        # |eta|^3 overflows past |x| ~ 237; the partner needs only the seed's
        # first log-derivative w, which stays finite out to |x| ~ 355
        cfg = write_config(tmp_path, {**GEN, "grid": {"x_max": x_max, "n": 20001},
                                      "partner": {"kind": "d", "m": 0}})
        out = tmp_path / "o"
        assert main(["partner", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "partner_verify.json").read_text())["passed"] is True

    def test_noded_seed_fails_cleanly(self, tmp_path):
        # odd-order type-d polynomials always carry a real zero
        cfg = write_config(
            tmp_path,
            {"potential": {"gendenshtein": {"a": 2.5, "b": 0.5}}, "partner": {"kind": "d", "m": 1}},
        )
        out = tmp_path / "o"
        assert main(["partner", "--config", cfg, "--out", str(out)]) == 3
        assert os.listdir(out) == []

    def test_erasure_without_a_bound_state_fails_cleanly(self, tmp_path, capsys):
        # Re sqrt(h0 + 1) = 0.32 < 1/2: no bound state, so no ground level to erase
        cfg = write_config(tmp_path, {
            "potential": {"milson": {"h0_re": -0.9, "h0_im": 0.0, "kappa_plus": 2.0}},
            "partner": {"kind": "c", "m": 0}})
        out = tmp_path / "o"
        assert main(["partner", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: NoSuchRoot: no bound state with index 0\n")
        assert os.listdir(out) == []

    def test_excited_erasure_is_refused_before_the_spectrum(self, tmp_path, monkeypatch, capsys):
        def no_spectrum(spec):
            raise AssertionError("the partner block is checked before any level is solved")

        monkeypatch.setattr(spectral, "enumerate_bound_spectrum", no_spectrum)
        cfg = write_config(tmp_path, {**GEN, "partner": {"kind": "c", "m": 1}})
        out = tmp_path / "o"
        assert main(["partner", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: type-c partner supports only m=0 (ground-state erasure)\n"
        assert os.listdir(out) == []

    def test_noded_seed_builds_no_grid(self, tmp_path, monkeypatch, capsys):
        def no_map(*args):
            raise AssertionError("a noded seed is rejected before any grid is built")

        # the partner grid is the oracle grid that verify sizes and builds
        monkeypatch.setattr(geometry, "t_grid", no_map)
        self.test_noded_seed_fails_cleanly(tmp_path)
        err = capsys.readouterr().err
        assert "NodeDetected: factorization polynomial has real zeros" in err


class TestIdentitiesCommand:
    def test_gendenshtein(self, tmp_path):
        cfg = write_config(tmp_path, GEN)
        out = tmp_path / "out"
        assert main(["identities", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "identities.json").read_text())
        assert payload["passed"]
        assert all(v == 0.0 for v in payload["stevenson_max_dev"].values())

    @pytest.mark.parametrize("potential, states", [
        (GEN["potential"], 3),
        ({"milson": {"h0_re": 7.75, "h0_im": 3.0, "kappa_plus": 0.05}}, 3),
        ({"milson": {"h0_re": -0.9, "h0_im": 0.0, "kappa_plus": 1.0}}, 0),  # Re lambda0 < 1/2
    ])
    def test_payload_keys(self, tmp_path, potential, states):
        # the key set changes only on purpose: the benchmark's checks read
        # quartic_residuals, polynomial_ode_residuals_zero and passed
        cfg = write_config(tmp_path, {"potential": potential})
        out = tmp_path / "out"
        assert main(["identities", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "identities.json").read_text())
        assert set(payload) == {"stevenson_max_dev", "quartic_residuals",
                                "polynomial_ode_residuals_zero", "passed"}
        assert set(payload["stevenson_max_dev"]) == {"n=%d" % n for n in range(states)}
        assert set(payload["quartic_residuals"]) == {"m=%d" % n for n in range(states)}

    def test_milson_with_quartic_worst_residual(self, tmp_path):
        # the worst residual here is a quartic one; its pass flag must serialize
        cfg = write_config(tmp_path, {"potential": {"milson": {
            "h0_re": 4.649385948785598, "h0_im": 1.6067793586662167,
            "kappa_plus": 2.570091264090443}}})
        out = tmp_path / "out"
        assert main(["identities", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "identities.json").read_text())
        assert payload["passed"] is True

    @pytest.mark.parametrize("kappa", [1e8, 1e10])
    def test_large_kappa_roots_pass_at_zero_tol(self, tmp_path, kappa):
        # the quartic's terms grow like kappa |lambda|^4, so only a residual
        # relative to them leaves a correctly rounded root a few ulps here
        cfg = write_config(tmp_path, {"potential": {"milson": {
            "h0_re": 7.75, "h0_im": 3.0, "kappa_plus": kappa}}})
        out = tmp_path / "out"
        assert main(["identities", "--tol", "0", "--config", cfg, "--out", str(out)]) == 0
        residuals = json.loads((out / "identities.json").read_text())["quartic_residuals"]
        assert len(residuals) == 3 and max(residuals.values()) < 1e-15

    def test_isolates_roots_of_quartics_alone(self, tmp_path, monkeypatch):
        # node counts are theorems, so only the quartic roots of the levels
        # (orders 0..4) and of the type-d seed are isolated; the Stevenson
        # check reads the enumerated states and solves no level again
        from rrspectra import routh

        real = routh._square_free_factors
        calls = []

        def counting(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(routh, "_square_free_factors", counting)
        cfg = write_config(tmp_path, {"potential": {"gendenshtein": {"a": 3.3, "b": 0.7}},
                                      "partner": {"kind": "d", "m": 0}})
        counts = {}
        for command in ("spectrum", "identities", "verify", "partner"):
            calls.clear()
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
            counts[command] = len(calls)
        assert counts == {"spectrum": 5, "identities": 5, "verify": 5, "partner": 6}

    def test_builds_one_routh_polynomial_per_state(self, tmp_path, monkeypatch):
        # the ODE claim is decided on the enumerated states' own polynomials,
        # so identities builds no polynomial the spectrum did not
        from rrspectra import routh

        assert not hasattr(routh, "routh_rodrigues")
        real = routh.routh_polynomial
        calls = []

        def counting(m, alpha):
            calls.append(m)
            return real(m, alpha)

        monkeypatch.setattr(routh, "routh_polynomial", counting)
        monkeypatch.setattr(spectral, "routh_polynomial", counting)
        # seed-1001 cli_mix command 1
        cfg = write_config(tmp_path, {"potential": {"gendenshtein": {
            "a": 3.319211616860758, "b": 1.0848804275477275}}})
        out = tmp_path / "out"
        assert main(["identities", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "identities.json").read_text())
        assert payload["polynomial_ode_residuals_zero"] is True
        assert len(payload["quartic_residuals"]) == 4
        assert calls == [0, 1, 2, 3]

    def test_doctored_state_fails_the_ode_claim(self, tmp_path, monkeypatch):
        # state 5's polynomial no longer solves the equation: the ODE claim
        # and that state's Stevenson identity both fail, the others hold
        real = spectral.enumerate_bound_spectrum

        def doctored(spec):
            spectrum = real(spec)
            states = list(spectrum.states)
            st = states[5]
            states[5] = st._replace(poly=routh_record(
                st.n, st.poly.index, poly_mul(coeffs(st.poly), [1, Fraction(0.01)])))
            return spectrum._replace(states=tuple(states))

        cfg = write_config(tmp_path, {"potential": {"gendenshtein": {"a": 6.5, "b": 0.5}}})
        assert main(["identities", "--config", cfg, "--out", str(tmp_path / "clean")]) == 0
        monkeypatch.setattr(spectral, "enumerate_bound_spectrum", doctored)
        out = tmp_path / "out"
        assert main(["identities", "--config", cfg, "--out", str(out)]) == 1
        payload = json.loads((out / "identities.json").read_text())
        assert payload["polynomial_ode_residuals_zero"] is False
        assert payload["passed"] is False
        stevenson = payload["stevenson_max_dev"]
        assert stevenson.pop("n=5") > 0.0
        assert set(stevenson.values()) == {0.0}

    def test_misnormalized_state_fails_the_stevenson_claim(self, tmp_path, monkeypatch):
        # a multiple of the true polynomial keeps its ODE residual zero, and
        # its Stevenson deviation (4.4e-16) is far below any tolerance; the
        # identity is decided exactly, so it fails all the same
        real = spectral.enumerate_bound_spectrum

        def doctored(spec):
            spectrum = real(spec)
            states = list(spectrum.states)
            st = states[1]
            states[1] = st._replace(poly=routh_record(
                st.n, st.poly.index, [c * (1 + Fraction(1, 2 ** 50)) for c in coeffs(st.poly)]))
            return spectrum._replace(states=tuple(states))

        monkeypatch.setattr(spectral, "enumerate_bound_spectrum", doctored)
        cfg = write_config(tmp_path, GEN)
        out = tmp_path / "out"
        assert main(["identities", "--config", cfg, "--out", str(out)]) == 1
        payload = json.loads((out / "identities.json").read_text())
        assert payload["polynomial_ode_residuals_zero"] is True
        assert 0.0 < payload["stevenson_max_dev"]["n=1"] < 1e-15
        assert payload["passed"] is False

    def test_stevenson_on_every_state(self, tmp_path):
        cfg = write_config(tmp_path, {"potential": {"gendenshtein": {"a": 16.2, "b": 0.7}}})
        out = tmp_path / "out"
        assert main(["identities", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "identities.json").read_text())
        assert payload["stevenson_max_dev"] == {"n=%d" % n: 0.0 for n in range(17)}
        assert len(payload["quartic_residuals"]) == 17

    def test_branch_point_at_minus_one(self, tmp_path):
        # h0 + 1 - c e vanishes at e = -1 here; the one level lies above it,
        # where lambda_R > 1/2
        cfg = write_config(tmp_path, {"potential": {"milson": {
            "h0_re": 0.0, "h0_im": 0.0, "kappa_plus": 2.0}}})
        out = tmp_path / "out"
        assert main(["identities", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "identities.json").read_text())
        assert list(payload["stevenson_max_dev"]) == ["n=0"]
        assert payload["passed"] is True


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert main(["spectrum", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_two_potential_blocks(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"potential": {"gendenshtein": {"a": 1.0}, "milson": {"h0_re": 3.0, "kappa_plus": 1.0}}},
        )
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_bad_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"potential": \n  {"gendenshtein": }}')
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        # JSON reads 1e400 as inf
        ("spectrum", '{"potential": {"gendenshtein": {"a": 2.5}}, "grid": {"x_max": 1e400}}'),
        ("verify", '{"potential": {"gendenshtein": {"a": 2.5}}, "grid": {"x_max": 1e400}}'),
        ("spectrum", '{"potential": {"gendenshtein": {"a": 1e400}}}'),
        ("verify", '{"potential": {"milson": {"h0_re": 7.75, "kappa_plus": 1e400}}}'),
        ("spectrum", '{"potential": {"gendenshtein": {"a": 2.5}}, "grid": {"n": 1e400}}'),
        ("verify", '{"potential": {"gendenshtein": {"a": 2.5}}, "grid": {"n": "abc"}}'),
        ("spectrum", '{"potential": {"gendenshtein": {"a": 2.5}}, "grid": {"x_max": "abc"}}'),
        ("partner", '{"potential": {"gendenshtein": {"a": 2.5}}, "partner": {"m": 1e400}}'),
        ("spectrum", '{"potential": {"gendenshtein": {"a": 2.5}}, "grid": {"n": 300.7}}'),
        # counts above 2^20 are refused before anything is allocated
        ("spectrum", '{"potential": {"gendenshtein": {"a": 2.5}}, "grid": {"n": 1e30}}'),
        ("verify", '{"potential": {"gendenshtein": {"a": 2.5}}, "grid": {"n": 1e30}}'),
        ("spectrum", '{"potential": {"gendenshtein": {"a": 2.5}}, "grid": {"n": 1048577}}'),
        ("verify", '{"potential": {"gendenshtein": {"a": 2.5}}, "grid": {"n": 1048577}}'),
        ("scan-nodeless", '{"potential": {"gendenshtein": {"a": 2.5}}, "scan": '
                          '{"a_range": [2, 3], "b_range": [0, 1], "na": 1e30}}'),
        ("scan-nodeless", '{"potential": {"gendenshtein": {"a": 2.5}}, "scan": '
                          '{"a_range": [2, 3], "b_range": [0, 1], "na": 1024, "nb": 1025}}'),
        # a scan axis needs both of its end points
        ("scan-nodeless", '{"potential": {"gendenshtein": {"a": 2.5}}, "scan": '
                          '{"a_range": [2, 3], "b_range": [0, 1], "na": 1}}'),
        ("scan-nodeless", '{"potential": {"gendenshtein": {"a": 2.5}}, "scan": '
                          '{"a_range": [2, 3], "b_range": [0, 1], "nb": 1}}'),
        # every corner of a scan must be a valid potential: a > 0 and a finite h0
        ("scan-nodeless", '{"potential": {"gendenshtein": {"a": 2.5}}, "scan": '
                          '{"a_range": [-1, 1], "b_range": [0, 1]}}'),
        ("scan-nodeless", '{"potential": {"gendenshtein": {"a": 2.5}}, "scan": '
                          '{"a_range": [0, 1], "b_range": [0, 1]}}'),
        ("scan-nodeless", '{"potential": {"gendenshtein": {"a": 2.5}}, "scan": '
                          '{"a_range": [1e200, 1e201], "b_range": [0, 1]}}'),
        ("scan-nodeless", '{"potential": {"gendenshtein": {"a": 2.5}}, "scan": '
                          '{"a_range": [2, 3], "b_range": [0, 1e200]}}'),
        # orders above spectral.MAX_ORDER are refused before anything is built
        ("scan-nodeless", '{"potential": {"gendenshtein": {"a": 2.5}}, "scan": '
                          '{"a_range": [2, 3], "b_range": [0, 1], "m": %d}}' % (spectral.MAX_ORDER + 2)),
        ("partner", '{"potential": {"gendenshtein": {"a": 2.5}}, "partner": '
                    '{"kind": "d", "m": %d}}' % (spectral.MAX_ORDER + 2)),
        # T(eta) = eta^2 + kappa has no leading coefficient: a milson "a" is an
        # unknown key, whatever its value
        ("spectrum", '{"potential": {"milson": {"h0_re": 7.75, "kappa_plus": 2, "a": Infinity}}}'),
        ("verify", '{"potential": {"milson": {"h0_re": 7.75, "kappa_plus": 2, "a": Infinity}}}'),
        ("spectrum", '{"potential": {"milson": {"h0_re": 7.75, "kappa_plus": 2, "a": 2.0}}}'),
    ])
    def test_malformed_number(self, tmp_path, capsys, command, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("command", ["spectrum", "verify", "partner"])
    def test_eta_overflow_on_user_grid(self, tmp_path, capsys, command):
        # past |x| ~ 710 eta = sinh x itself overflows, before any sample is taken
        cfg = write_config(tmp_path, {
            "potential": {"gendenshtein": {"a": 3.9992, "b": 1.6531}},
            "grid": {"x_max": 780.19, "n": 4641}, "partner": {"kind": "d", "m": 0}})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "eta samples overflow" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["spectrum", "verify", "identities", "partner"])
    @pytest.mark.parametrize("milson", [
        # a Routh coefficient of level 23 is beyond the double range, which
        # ends the walk through the 1e15 levels of this well
        {"h0_re": 1e30, "kappa_plus": 2.0},
        # so is one of level 3 here (and the ground level's normalization
        # overflows math.exp)
        {"h0_re": 1e300, "h0_im": 1e300, "kappa_plus": 2.0},
    ])
    def test_exact_overflow_is_numeric_failure(self, tmp_path, capsys, command, milson):
        cfg = write_config(tmp_path, {"potential": {"milson": milson},
                                      "partner": {"kind": "d", "m": 0}})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: OverflowError: ") and err.count("\n") == 1, err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("command", ["verify", "identities", "partner"])
    def test_unusable_tolerance(self, tmp_path, capsys, command, tol):
        # inf would pass whatever the oracle found, NaN and -1 would fail it
        cfg = write_config(tmp_path, {**GEN, "partner": {"kind": "d", "m": 0}})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --tol ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one(self, tmp_path, capsys, workers):
        cfg = write_config(tmp_path, {**GEN, "scan": {"a_range": [2.0, 3.0], "b_range": [0.0, 1.0]}})
        out = tmp_path / "o"
        assert main(["scan-nodeless", "--config", cfg, "--out", str(out), "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --workers ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_zero_tolerance_is_legal(self, tmp_path):
        # identities raises any tolerance to its 1e-9 floor; verify fails honestly
        cfg = write_config(tmp_path, GEN)
        assert main(["identities", "--config", cfg, "--out", str(tmp_path / "i"), "--tol", "0"]) == 0
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--tol", "0"]) == 1

    def test_count_at_cap_parses(self):
        assert spectral.MAX_COUNT == 2 ** 20
        assert spectral.MAX_ORDER == 128
        config = cli.RunConfig({**GEN, "grid": {"n": 2 ** 20}, "scan": {
            "a_range": [2.0, 3.0], "b_range": [0.0, 1.0], "na": 1024, "nb": 1024, "m": 128},
            "partner": {"kind": "d", "m": 128}})
        assert config.n == 2 ** 20
        assert config.scan_params()[2:] == (128, 1024, 1024)
        assert config.partner_params() == ("d", 128)

    @pytest.mark.parametrize("command", ["spectrum", "verify", "identities", "partner"])
    def test_walk_past_the_order_cap(self, tmp_path, capsys, monkeypatch, command):
        # Gendenshtein 16.2 has 17 states; under a cap of 3 the walk builds
        # orders 0..3, finds a root at order 4 and builds nothing there
        monkeypatch.setattr(spectral, "MAX_ORDER", 3)
        built = []
        real = spectral.routh_polynomial
        monkeypatch.setattr(spectral, "routh_polynomial",
                            lambda m, alpha: built.append(m) or real(m, alpha))
        cfg = write_config(tmp_path, {"potential": {"gendenshtein": {"a": 16.2, "b": 0.7}},
                                      "partner": {"kind": "c", "m": 0}})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: a type-c solution of order 4 exists, above the order cap 3\n"
        assert os.listdir(out) == []
        assert max(built) == 3

    def test_walk_to_the_order_cap(self, tmp_path, monkeypatch):
        # Gendenshtein 3.3 has 4 states, orders 0..3: all within a cap of 3
        monkeypatch.setattr(spectral, "MAX_ORDER", 3)
        cfg = write_config(tmp_path, {"potential": {"gendenshtein": {"a": 3.3, "b": 0.7}}})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        payload = json.loads((tmp_path / "o" / "spectrum.json").read_text())
        assert payload["n_max_constructive"] == 4

    def test_report_carries_pinned_convention(self, tmp_path):
        cfg = write_config(tmp_path, GEN)
        out = tmp_path / "out"
        main(["spectrum", "--config", cfg, "--out", str(out)])
        record = json.loads((out / "report.json").read_text())
        assert record["pinned_convention"]["shift"] == 1
        assert record["command"] == "spectrum"
        assert record["inputs_digest"]


class TestOutputContract:
    """A command computes everything before ``main`` writes a file: one that
    raises leaves ``--out`` empty, and ``report.json`` lists every other file."""

    # a half-width alone takes the spacing rule's point count, at least 65
    @pytest.mark.parametrize("grid", [{"x_max": 3.0, "n": 1024}, {"x_max": 0.2}])
    @pytest.mark.parametrize("command", ["verify", "partner"])
    def test_undecayed_user_grid_is_config_error(self, tmp_path, capsys, command, grid):
        # partner used to write partner.csv before the oracle exited 3
        cfg = write_config(tmp_path, {**NARROW, "grid": grid})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        prefix = "config error: grid x_max=%s, n=%s: potential ends at " % (grid["x_max"],
                                                                            grid.get("n"))
        assert err.startswith(prefix), err
        assert err.count("\n") == 1, err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["spectrum", "verify", "partner"])
    def test_user_grid_too_narrow_for_doubles_is_config_error(self, tmp_path, capsys, command):
        # 257 points on [-5e-324, 5e-324] round to three doubles, so the t
        # grid cannot be strictly increasing
        cfg = write_config(tmp_path, {**GEN, "grid": {"x_max": 5e-324, "n": 257},
                                      "partner": {"kind": "d", "m": 0}})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid x_max=5e-324, n=257: "), err
        assert err.count("\n") == 1, err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["verify", "partner"])
    def test_undecayed_default_grid_is_numeric_failure(self, tmp_path, monkeypatch, capsys,
                                                       command):
        # the same grid, chosen by the oracle's rule and not by the config
        oracle_map = verify.oracle_map

        def narrow(spec, seed=None, x_max=None, n=None):
            return oracle_map(spec, seed, 3.0, 1024)

        monkeypatch.setattr(verify, "oracle_map", narrow)
        cfg = write_config(tmp_path, {key: NARROW[key] for key in ("potential", "partner")})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numeric failure: InsufficientDecay: ")
        assert os.listdir(out) == []

    @pytest.mark.parametrize("grid, code, prefix", [
        pytest.param({}, 3, "numeric failure: NonFiniteSamples: ", id="oracle-grid"),
        pytest.param({"grid": {"n": 4097}}, 2, "config error: grid x_max=None, n=4097: ",
                     id="config-grid"),
    ])
    @pytest.mark.parametrize("kappa", [1e-17, 1e-30])
    @pytest.mark.parametrize("command", ["verify", "partner"])
    def test_vanishing_weight_is_refused(self, tmp_path, capsys, command, kappa, grid, code,
                                         prefix):
        # below kappa ~1.1e-16, kappa - 1 rounds to -1, so the weight
        # W = 1 + (kappa - 1) sech^2 t is 0.0 at t = 0, where Q/W, which the
        # cap's depth reads, is infinite
        cfg = write_config(tmp_path, {"potential": {"milson": {
            "h0_re": 7.75, "h0_im": 3.0, "kappa_plus": kappa}},
            "partner": {"kind": "d", "m": 0}, **grid})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix), err
        assert err.endswith(": a weight sample is 0; Q/W is infinite there\n"), err
        assert err.count("\n") == 1 and os.listdir(out) == []

    @pytest.mark.parametrize("kappa", [1e-200, 5e-324])
    def test_subnormal_weight_squared_is_refused_typed(self, tmp_path, capsys, kappa):
        # W^2 underflows to 0.0 at t = 0 below kappa ~ 1e-161; V in t divides
        # by W alone, so the erasure partner's samples turn infinite there,
        # a typed refusal, never a ZeroDivisionError
        cfg = write_config(tmp_path, {"potential": {"milson": {
            "h0_re": 7.75, "h0_im": 3.0, "kappa_plus": kappa}},
            "partner": {"kind": "c", "m": 0}})
        out = tmp_path / "o"
        assert main(["partner", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: NonFiniteSamples: "), err
        assert err.count("\n") == 1 and os.listdir(out) == []

    @pytest.mark.parametrize("command, code, prefix", [
        ("spectrum", 0, ""), ("identities", 0, ""),
        ("partner", 3, "numeric failure: RootOverflow: a real root with 2^1029 < |root| <= "
                       "2^1030 (about 1e310) is beyond the double range\n"),
        ("verify", 3, "numeric failure: NonFiniteSamples: "),
    ])
    def test_type_d_root_beyond_doubles_spares_the_bound_states(self, tmp_path, capsys, command,
                                                                code, prefix):
        # at kappa = 1e-310 the order-0 quartic has a type-d root near -1e310,
        # outside the bound states' interval (1/2, inf): only the type-d
        # partner needs it, and verify meets the vanishing weight first
        cfg = write_config(tmp_path, {"potential": {"milson": {
            "h0_re": 5.0, "h0_im": 2.0, "kappa_plus": 1e-310}}, "partner": {"kind": "d", "m": 0}})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == (code != 0), err
        if command == "spectrum":
            assert len(json.loads((out / "spectrum.json").read_text())["states"]) == 2
        elif command == "identities":
            assert json.loads((out / "identities.json").read_text())["passed"] is True
        else:
            assert os.listdir(out) == []

    @pytest.mark.parametrize("kappa, root", [(1e-170, "1e+170"), (1e-200, "1e+200")])
    def test_type_d_energy_beyond_doubles_is_named(self, tmp_path, capsys, kappa, root):
        # the type-d root near -1/kappa is a double, but its energy
        # -(m + 1/2 - lambda_R)^2 is not; the message names kind, order and energy
        cfg = write_config(tmp_path, {"potential": {"milson": {
            "h0_re": 7.75, "h0_im": 3.0, "kappa_plus": kappa}}, "partner": {"kind": "d", "m": 0}})
        out = tmp_path / "o"
        assert main(["partner", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: OverflowError: type-d order 0: the energy -(%s)^2 is beyond "
            "the double range\n" % root)
        assert os.listdir(out) == []

    SCAN_AND_PARTNER ={**GEN, "partner": {"kind": "d", "m": 0}, "scan": {
        "a_range": [2.0, 3.0], "b_range": [0.0, 1.0], "na": 2, "nb": 2, "m": 2}}

    @pytest.mark.parametrize("under", [False, True])
    def test_unusable_out_is_output_error(self, tmp_path, capsys, under):
        # --out naming a regular file, or a directory under one, cannot be
        # made: one line and exit 2, as argparse gives for a bad argument
        cfg = write_config(tmp_path, GEN)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" if under else afile
        assert main(["identities", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1, err
        assert str(afile) in err
        assert afile.read_text() == "kept\n"

    def test_unwritable_output_is_output_error(self, tmp_path, capsys):
        # a directory in the place of an output file fails the writer
        cfg = write_config(tmp_path, GEN)
        out = tmp_path / "o"
        (out / "identities.json").mkdir(parents=True)
        assert main(["identities", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1, err
        # the temporary file of the write that failed is removed
        assert os.listdir(out) == ["identities.json"]

    @pytest.mark.parametrize("command, tol, code", [
        ("spectrum", "1e-3", 0), ("verify", "1e-3", 0), ("scan-nodeless", "1e-3", 0),
        ("partner", "1e-3", 0), ("identities", "1e-3", 0),
        # a failed check still writes its files
        ("verify", "1e-13", 1), ("partner", "1e-13", 1),
    ])
    def test_report_lists_every_output(self, tmp_path, command, tol, code):
        cfg = write_config(tmp_path, self.SCAN_AND_PARTNER)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--tol", tol]) == code
        record = json.loads((out / "report.json").read_text())
        names = sorted(os.listdir(out))
        assert "report.json" in names and len(names) >= 2
        assert record["outputs"] == [name for name in names if name != "report.json"]
        assert record["command"] == command and record["passed"] is (code == 0)


def run_python(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(rrspectra.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})


def test_startup_does_not_import_scipy(tmp_path):
    # spectrum, identities and scan-nodeless are closed form end to end, the
    # oracle behind verify and partner is plain Python, and Cauchy-beta moments
    # are exact sums, so neither any command nor any module of the
    # package loads scipy; records are NamedTuples and polynomials are
    # evaluated by Horner's rule, so no command loads dataclasses or
    # numpy.polynomial either; the config digest is the interpreter's
    # built-in SHA-256, so no command loads OpenSSL (_hashlib); exact
    # rationals are Python integers, so no command loads fractions (or the
    # decimal it pulls in); and the command line is read by cli.parse_args,
    # so no command loads argparse (or gettext)
    gen = write_config(tmp_path, GEN, "gen.json")
    mil = write_config(tmp_path, MILSON, "mil.json")
    partners = [
        write_config(tmp_path, {"potential": {"gendenshtein": {"a": 1.5, "b": 0.4}},
                                "partner": {"kind": kind, "m": 0}}, "partner-%s.json" % kind)
        for kind in ("c", "d")
    ]
    calls = [[cmd, "--config", cfg, "--out", str(tmp_path / ("%s-%d" % (cmd, i)))]
             for cmd in ("spectrum", "identities", "verify") for i, cfg in enumerate((gen, mil))]
    calls += [["partner", "--config", cfg, "--out", str(tmp_path / ("partner-%d" % i))]
              for i, cfg in enumerate(partners)]
    scan = write_config(tmp_path, {**GEN, "scan": {"a_range": [2, 3], "b_range": [0, 1],
                                                   "na": 2, "nb": 2, "m": 2}}, "scan.json")
    calls.append(["scan-nodeless", "--config", scan, "--out", str(tmp_path / "scan")])
    code = (
        "import sys; from rrspectra.cli import main\n"
        "for argv in %r: assert main(argv) == 0, argv\n"
        "assert 'dataclasses' not in sys.modules\n"
        "assert 'numpy.polynomial' not in sys.modules\n"
        "assert '_hashlib' not in sys.modules\n"
        "for name in ('fractions', 'decimal', 'argparse', 'gettext'):\n"
        "    assert name not in sys.modules, name\n"
        "import importlib, pkgutil, rrspectra\n"
        "for mod in pkgutil.iter_modules(rrspectra.__path__): importlib.import_module('rrspectra.' + mod.name)\n"
        "from rrspectra.routh import cauchy_beta_ratio, ode_residual, routh_polynomial\n"
        "cauchy_beta_ratio([1, 0, 1], (1, 2), (5, 2))\n"
        "ode_residual(routh_polynomial(3, complex(-4, 1.5)))\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        % (calls,)
    )
    run_python(code)


def test_no_command_imports_numpy(tmp_path):
    # identities and scan-nodeless decide their claims in rationals through
    # spectral and routh, spectrum samples its closed forms in plain floats,
    # and the oracle behind verify and partner runs in plain Python too
    calls = [[command, "--config", write_config(tmp_path, payload, "%s.json" % name),
              "--out", str(tmp_path / (command + name))]
             for command in ("identities", "spectrum", "verify")
             for name, payload in (("gen", GEN), ("mil", MILSON))]
    for kind in ("c", "d"):
        for name, payload in (("gen", GEN), ("mil", MILSON)):
            part = {**payload, "partner": {"kind": kind, "m": 0}}
            calls.append(["partner", "--config", write_config(tmp_path, part, "p%s%s.json" % (kind, name)),
                          "--out", str(tmp_path / ("partner%s%s" % (kind, name)))])
    for m in (2, 4):
        scan = write_config(tmp_path, {**GEN, "scan": {"a_range": [2, 3], "b_range": [0, 1],
                                                       "na": 3, "nb": 3, "m": m}}, "scan%d.json" % m)
        calls.append(["scan-nodeless", "--config", scan, "--out", str(tmp_path / ("scan%d" % m))])
    run_python(
        "import sys; from rrspectra.cli import main\n"
        "for argv in %r: assert main(argv) == 0, argv\n"
        "import importlib, pkgutil, rrspectra\n"
        "for mod in pkgutil.iter_modules(rrspectra.__path__): importlib.import_module('rrspectra.' + mod.name)\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('numpy'))\n"
        % (calls,)
    )
    assert (tmp_path / "scan4" / "scan.csv").read_text().count("\n") == 10
    assert (tmp_path / "spectrummil" / "eigenfunctions.csv").read_text().count("\n") == 4097
    for kind in ("c", "d"):
        for name in ("gen", "mil"):
            out = tmp_path / ("partner%s%s" % (kind, name))
            assert json.loads((out / "partner_verify.json").read_text())["passed"] is True


def test_oracle_outputs_keep_their_keys(tmp_path):
    # the benchmark's output checks read these keys by name
    cfg = write_config(tmp_path, {**GEN, "partner": {"kind": "d", "m": 0}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    assert main(["partner", "--config", cfg, "--out", str(tmp_path / "p")]) == 0
    ver = json.loads((tmp_path / "v" / "verify.json").read_text())
    part = json.loads((tmp_path / "p" / "partner_verify.json").read_text())
    assert set(ver) == {"tol", "passed", "grid", "levels", "n_max_constructive",
                        "n_max_formula", "formula_consistent", "notes"}
    assert ver["levels"] and all(set(lv) == {"n", "analytic", "numeric", "rel_delta", "error",
                                             "ratio", "nodes_analytic", "nodes_numeric"}
                                 for lv in ver["levels"])
    assert set(part) == {"tol", "passed", "grid", "levels", "notes"}
    assert part["levels"] and all(set(lv) == {"n", "expected", "numeric", "rel_delta", "error",
                                              "ratio"}
                                  for lv in part["levels"])
    for record in (ver, part):
        grid = record["grid"]
        assert set(grid) == {"x_max", "t_max", "n", "dt"}
        assert grid["dt"] == 2 * grid["t_max"] / (grid["n"] - 1)
        assert grid["t_max"] == geometry.t_of_x(1.0, grid["x_max"])
        # resolved levels: within their budget, at most tol |E| / 10
        assert all(lv["error"] <= 1e-4 * abs(lv["numeric"])
                   and verify._BAND[0] <= lv["ratio"] <= verify._BAND[1]
                   for lv in record["levels"])


def test_report_digest_is_sha256_of_the_config(tmp_path):
    import hashlib

    for data in (b"", b"abc", bytes(range(256)) * 3):
        assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    raw = {**MILSON, "grid": {"x_max": 9.5}, "note": "\u00e9"}
    out = tmp_path / "out"
    assert main(["spectrum", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 0
    expected = hashlib.sha256(json.dumps(raw, sort_keys=True).encode("utf-8")).hexdigest()
    assert json.loads((out / "report.json").read_text())["inputs_digest"] == expected
