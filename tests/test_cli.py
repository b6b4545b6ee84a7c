"""End-to-end command tests: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rrspectra
from rrspectra import cli, geometry, verify
from rrspectra.cli import main


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


GEN = {"potential": {"gendenshtein": {"a": 2.5, "b": 0.5}}}
MILSON = {"potential": {"milson": {"h0_re": 7.75, "h0_im": 3.0, "kappa_plus": 2.0}}}


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

    def test_unrepresentable_user_grid_is_config_error(self, tmp_path, capsys):
        # past |x| ~ 355 eta = sinh x overflows and psi samples turn NaN;
        # nothing may be written, spectrum.json included
        cfg = write_config(tmp_path, {**GEN, "grid": {"x_max": 400.0}})
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        assert "NaN or infinite" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_non_finite_default_grid_is_numeric_failure(self, tmp_path, monkeypatch, capsys):
        real = geometry.sampled

        def overflowing(state, vmap):
            psi = real(state, vmap)
            psi[-1] = np.nan
            return psi

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

    def test_corrupted_constant_term(self, tmp_path):
        cfg = write_config(
            tmp_path, {"potential": {"gendenshtein": {"a": 2.5, "b": 0.5, "O00": 3.0}}}
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_failure_exit_code_on_impossible_tolerance(self, tmp_path):
        cfg = write_config(tmp_path, GEN)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--tol", "1e-13"]) == 1
        payload = json.loads((out / "verify.json").read_text())
        assert not payload["passed"]

    def test_missing_level_fails(self, tmp_path):
        # the x_max = 7 box is too small for the shallow level at -0.01
        cfg = write_config(
            tmp_path,
            {"potential": {"gendenshtein": {"a": 2.1, "b": 0.0}}, "grid": {"x_max": 7.0, "n": 2049}},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        payload = json.loads((out / "verify.json").read_text())
        assert not payload["passed"] and len(payload["levels"]) == 2

    def test_grid_where_four_t_overflows_passes(self, tmp_path):
        # near |x| = 355, 4(eta^2 + 1) overflows while eta^2 does not; the
        # potential must still decay there instead of ending at 1/4
        cfg = write_config(tmp_path, {**GEN, "grid": {"x_max": 355.3, "n": 40001}})
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "verify.json").read_text())["passed"] is True

    def test_unrepresentable_user_grid_is_config_error(self, tmp_path, capsys):
        # past |x| ~ 355 the sampled potential overflows to NaN; the oracle
        # rejects the samples before any solve
        cfg = write_config(tmp_path, {**GEN, "grid": {"x_max": 400.0}})
        with np.errstate(all="ignore"):
            assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "NaN or infinite" in capsys.readouterr().err


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

    def test_workers_give_identical_output(self, tmp_path):
        payload = {
            "potential": {"gendenshtein": {"a": 2.5, "b": 0.5}},
            "scan": {"a_range": [2.0, 3.0], "b_range": [0.0, 1.0], "na": 2, "nb": 2, "m": 2},
        }
        cfg = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["scan-nodeless", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["scan-nodeless", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
        assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()

    def test_malformed_range(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "potential": {"gendenshtein": {"a": 2.5, "b": 0.5}},
                "scan": {"a_range": [3.0, 2.0], "b_range": [0.0, 1.0], "m": 2},
            },
        )
        assert main(["scan-nodeless", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

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
        assert len(rows) == 8192 and all(len(r.split(",")) == 3 for r in rows)

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

    def test_nan_residual_seed_is_numeric_failure(self, tmp_path):
        # the order-8 type-d seed is a valid closed form (e about -1.1e5), but
        # its partner's well is too deep for the oracle's default grid, so the
        # command must report a failed check rather than pass
        cfg = write_config(tmp_path, {
            "potential": {"milson": {"h0_re": 0.5, "h0_im": 7.5, "kappa_plus": 0.05}},
            "partner": {"kind": "d", "m": 8},
        })
        out = tmp_path / "o"
        assert main(["partner", "--config", cfg, "--out", str(out)]) == 1
        assert json.loads((out / "partner_verify.json").read_text())["passed"] is False

    def test_unrepresentable_user_grid_is_config_error(self, tmp_path, capsys):
        # the partner potential overflows to NaN past |x| ~ 355; it used to be
        # written to partner.csv before the oracle exited 3
        cfg = write_config(tmp_path, {**GEN, "grid": {"x_max": 400.0},
                                      "partner": {"kind": "d", "m": 0}})
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            assert main(["partner", "--config", cfg, "--out", str(out)]) == 2
        assert "NaN or infinite" in capsys.readouterr().err
        assert os.listdir(out) == []

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
        assert main(["partner", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_noded_seed_builds_no_grid(self, tmp_path, monkeypatch, capsys):
        def no_map(*args):
            raise AssertionError("a noded seed is rejected before any grid is built")

        # the partner grid is the oracle map that verify sizes and builds
        monkeypatch.setattr(verify, "VariableMap", no_map)
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

    def test_milson_with_quartic_worst_residual(self, tmp_path):
        # the worst residual here is a quartic one; its pass flag must serialize
        cfg = write_config(tmp_path, {"potential": {"milson": {
            "h0_re": 4.649385948785598, "h0_im": 1.6067793586662167,
            "kappa_plus": 2.570091264090443}}})
        out = tmp_path / "out"
        assert main(["identities", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "identities.json").read_text())
        assert payload["passed"] is True

    def test_builds_as_many_sturm_chains_as_spectrum(self, tmp_path, monkeypatch):
        # the Stevenson check reads the enumerated states: it neither solves
        # nor counts a level again
        from rrspectra import routh

        real = routh._root_chains
        calls = []

        def counting(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(routh, "_root_chains", counting)
        cfg = write_config(tmp_path, {"potential": {"gendenshtein": {"a": 3.3, "b": 0.7}}})
        counts = {}
        for command in ("spectrum", "identities"):
            cli.spectral.enumerate_bound_spectrum.cache_clear()
            calls.clear()
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
            counts[command] = len(calls)
        # 5 quartics (orders 0..4) and one node count for each of the 4 levels
        assert counts == {"spectrum": 9, "identities": 9}


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
        ("spectrum", '{"potential": {"milson": {"h0_re": 7.75, "kappa_plus": 2, "a": Infinity}}}'),
        ("verify", '{"potential": {"milson": {"h0_re": 7.75, "kappa_plus": 2, "a": Infinity}}}'),
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
    ])
    def test_malformed_number(self, tmp_path, capsys, command, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
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

    def test_count_at_cap_parses(self):
        assert cli.MAX_COUNT == 2 ** 20
        config = cli.RunConfig({**GEN, "grid": {"n": 2 ** 20}, "scan": {
            "a_range": [2.0, 3.0], "b_range": [0.0, 1.0], "na": 1024, "nb": 1024}})
        assert config.n == 2 ** 20
        assert config.scan_params()[3:] == (1024, 1024)

    def test_report_carries_pinned_convention(self, tmp_path):
        cfg = write_config(tmp_path, GEN)
        out = tmp_path / "out"
        main(["spectrum", "--config", cfg, "--out", str(out)])
        record = json.loads((out / "report.json").read_text())
        assert record["pinned_convention"]["shift"] == 1
        assert record["command"] == "spectrum"
        assert record["inputs_digest"]


def run_python(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(rrspectra.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})


def test_startup_does_not_import_scipy(tmp_path):
    # spectrum, identities and scan-nodeless are closed form end to end, the
    # oracle behind verify and partner is numpy only, and Cauchy-beta moments
    # are exact sums, so neither any command nor any module of the
    # package loads scipy; records are NamedTuples and polynomials are
    # evaluated by Horner's rule (np.polyval on grids in geometry), so no
    # command loads dataclasses or numpy.polynomial either
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
        "import importlib, pkgutil, rrspectra\n"
        "for mod in pkgutil.iter_modules(rrspectra.__path__): importlib.import_module('rrspectra.' + mod.name)\n"
        "from fractions import Fraction\n"
        "from rrspectra.routh import cauchy_beta_ratios, routh_rodrigues\n"
        "cauchy_beta_ratios([1, 0, 1], Fraction(1, 2), [Fraction(5, 2)]), routh_rodrigues(3, complex(-4, 1.5))\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        % (calls,)
    )
    run_python(code)


def test_exact_commands_do_not_import_numpy(tmp_path):
    # identities and scan-nodeless decide their claims in rationals through
    # spectral and routh; only the commands that sample load numpy
    calls = [["identities", "--config", write_config(tmp_path, payload, "%s.json" % name),
              "--out", str(tmp_path / name)]
             for name, payload in (("gen", GEN), ("mil", MILSON))]
    for m in (2, 4):
        scan = write_config(tmp_path, {**GEN, "scan": {"a_range": [2, 3], "b_range": [0, 1],
                                                       "na": 3, "nb": 3, "m": m}}, "scan%d.json" % m)
        calls.append(["scan-nodeless", "--config", scan, "--out", str(tmp_path / ("scan%d" % m))])
    run_python(
        "import sys; from rrspectra.cli import main\n"
        "for argv in %r: assert main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('numpy'))\n"
        % (calls,)
    )
    assert (tmp_path / "scan4" / "scan.csv").read_text().count("\n") == 10
