"""The shipped entry point: ``cli.run`` behind ``python -m rrspectra.cli`` and
the ``spectra`` script, run as a real process for each exit code."""

import ast
import atexit
import json
import os
import subprocess
import sys

import pytest
from test_cli import GEN, write_config

import rrspectra
from rrspectra import cli
from rrspectra.cli import main

SRC = os.path.dirname(os.path.dirname(rrspectra.__file__))
ROOT = os.path.dirname(SRC)

SCAN = {**GEN, "scan": {"a_range": [2.0, 3.0], "b_range": [0.0, 1.0], "na": 2, "nb": 2, "m": 2},
        "partner": {"kind": "d", "m": 0}}
# the x_max = 4.5 box cuts off the well's tails, so the level at -1e-6 is missed
MISSING_LEVEL = {"potential": {"gendenshtein": {"a": 2.001, "b": 0.0}},
                 "grid": {"x_max": 4.5, "n": 2049}}
# past |x| ~ 355 eta = sinh x overflows and the psi samples turn NaN
UNREPRESENTABLE = {**GEN, "grid": {"x_max": 400.0}}
# -c scripts get their command line in sys.argv[1:], as the script would
NAN_PATCH = (
    "from rrspectra import cli, geometry\n"
    "real = geometry.sampled\n"
    "def sampled(kappa, states, etas):\n"
    "    psis = real(kappa, states, etas)\n"
    "    psis[-1][-1] = float('nan')\n"
    "    return psis\n"
    "geometry.sampled = sampled\n"
)
NAN_SAMPLES = NAN_PATCH + (
    "import io, sys\n"
    # both streams block-buffered, whatever PYTHONUNBUFFERED says, so what
    # main and this script write stays in their buffers until run flushes them
    "def buffered(fd):\n"
    "    return io.TextIOWrapper(io.BufferedWriter(io.FileIO(fd, 'w', closefd=False)))\n"
    "sys.stdout, sys.stderr = buffered(1), buffered(2)\n"
    "print('stdout before run')\n"
    "cli.run()\n"
)


def child_env():
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def spectra(argv, out, code=None):
    """Run ``python -m rrspectra.cli argv`` (or ``python -c code argv``) and
    check that it left no temporary file in ``out``."""
    head = ["-m", "rrspectra.cli"] if code is None else ["-c", code]
    proc = subprocess.run([sys.executable] + head + list(argv), env=child_env(),
                          capture_output=True, text=True, timeout=120)
    if out.exists():
        assert not [name for name in os.listdir(out) if name.endswith(".tmp")]
    return proc


def test_script_and_module_share_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"spectra": "rrspectra.cli:run"}
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    blocks = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(blocks) == 1 and ast.unparse(blocks[0]).splitlines()[1:] == ["    run()"]


def test_success_writes_what_main_writes(tmp_path):
    cfg = write_config(tmp_path, GEN)
    shipped, in_process = tmp_path / "shipped", tmp_path / "in-process"
    proc = spectra(["spectrum", "--config", cfg, "--out", str(shipped)], shipped)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert main(["spectrum", "--config", cfg, "--out", str(in_process)]) == 0
    names = sorted(os.listdir(in_process))
    assert names == ["eigenfunctions.csv", "report.json", "spectrum.json"]
    assert sorted(os.listdir(shipped)) == names
    for name in names:
        assert (shipped / name).read_bytes() == (in_process / name).read_bytes(), name


def test_closed_stdout_still_succeeds(tmp_path):
    # a descriptor closed at start leaves its sys stream None
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", "import sys; from rrspectra import cli; "
                           "assert sys.stdout is None; cli.run()", "spectrum",
                           "--config", write_config(tmp_path, GEN), "--out", str(out)],
                          env=child_env(), stderr=subprocess.PIPE, text=True, timeout=120,
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(os.listdir(out)) == ["eigenfunctions.csv", "report.json", "spectrum.json"]


def test_failed_check_exits_one_with_its_files(tmp_path):
    out = tmp_path / "out"
    proc = spectra(["verify", "--config", write_config(tmp_path, MISSING_LEVEL), "--out", str(out)],
                   out)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert sorted(os.listdir(out)) == ["report.json", "verify.json"]
    assert json.loads((out / "report.json").read_text())["passed"] is False
    assert json.loads((out / "verify.json").read_text())["passed"] is False


def test_config_error_exits_two_and_writes_nothing(tmp_path):
    out = tmp_path / "out"
    proc = spectra(["spectrum", "--config", write_config(tmp_path, UNREPRESENTABLE),
                    "--out", str(out)], out)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: grid x_max=400.0"), proc.stderr
    assert os.listdir(out) == []


@pytest.mark.parametrize("argv, error", [
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["spectrum", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["spectrum", "--workers", "two"], "argument --workers: invalid int value: 'two'"),
    # a value that starts with "-" and is no number is read as a flag
    (["spectrum", "--out", "-x"], "argument --out: expected one argument"),
    (["spectrum", "--tol", "-inf"], "argument --tol: expected one argument"),
], ids=["command", "flag", "value", "dash-value", "dash-tol"])
def test_bad_command_line_exits_two(tmp_path, argv, error):
    out = tmp_path / "out"
    proc = spectra(argv + ["--config", write_config(tmp_path, GEN), "--out", str(out)], out)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].startswith("spectra: error: " + error)
    assert not out.exists()


def test_missing_config_exits_two(tmp_path):
    out = tmp_path / "out"
    proc = spectra(["spectrum", "--out", str(out)], out)
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert lines[0].startswith("usage: spectra ")
    assert lines[-1] == "spectra: error: the following arguments are required: --config"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_zero_with_usage_on_stdout(tmp_path, flag):
    out = tmp_path / "out"
    proc = spectra(["spectrum", flag, "--config", "missing.json", "--out", str(out)], out)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: spectra [-h] --config CONFIG ")
    assert "{%s}" % ",".join(cli.COMMANDS) in proc.stdout
    assert not out.exists()


def test_flag_equals_value_and_flags_before_the_command(tmp_path):
    cfg = write_config(tmp_path, GEN)
    args = cli.parse_args(["--tol=1e-4", "--workers", "2", "--config=" + cfg, "verify"])
    assert args == cli.Args(command="verify", config=cfg, out=".", tol=1e-4, workers=2)
    assert cli.parse_args(["identities", "--config", cfg, "--tol", "1", "--tol=0"]).tol == 0.0
    outs = {}
    for name, argv in (("spaced", ["identities", "--config", cfg, "--tol", "1e-4"]),
                       ("joined", ["identities", "--config=" + cfg, "--tol=1e-4"]),
                       ("first", ["--tol=1e-4", "--config", cfg, "identities"])):
        out = tmp_path / name
        assert main(argv + ["--out=" + str(out)]) == 0
        outs[name] = (out / "identities.json").read_bytes()
    assert outs["spaced"] == outs["joined"] == outs["first"]


def test_numeric_failure_exits_three_with_streams_flushed(tmp_path):
    out = tmp_path / "out"
    proc = spectra(["spectrum", "--config", write_config(tmp_path, GEN), "--out", str(out)], out,
                   code=NAN_SAMPLES)
    assert proc.returncode == 3
    assert proc.stdout == "stdout before run\n"
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure: NonFiniteSamples"), proc.stderr
    assert os.listdir(out) == []


@pytest.mark.parametrize("stderr", ["closed", "read-only"])
@pytest.mark.parametrize("command, config, code, exit_code", [
    ("spectrum", UNREPRESENTABLE, None, 2), ("spectrum", GEN, NAN_PATCH + "cli.run()\n", 3),
    ("bogus", GEN, None, 2),
], ids=["config-error", "numeric-failure", "command-line"])
def test_unwritable_stderr_keeps_the_exit_code(tmp_path, stderr, command, config, code,
                                               exit_code):
    # fd 2 closed at start leaves sys.stderr None; a shell wrapper run with
    # 2>&- can leave it open on a file it cannot write instead.  Either way
    # the message, argparse's usage included, is lost, never sent to stdout,
    # and the exit code stands.
    def unwritable():
        os.close(2)
        if stderr == "read-only":
            os.open(os.devnull, os.O_RDONLY)  # the lowest free descriptor, 2

    out = tmp_path / "out"
    head = ["-m", "rrspectra.cli"] if code is None else ["-c", code]
    proc = subprocess.run([sys.executable, *head, command, "--config",
                           write_config(tmp_path, config), "--out", str(out)],
                          env=child_env(), stdout=subprocess.PIPE, text=True, timeout=120,
                          preexec_fn=unwritable)
    assert (proc.returncode, proc.stdout) == (exit_code, "")
    if command == "bogus":
        assert not out.exists()
    else:
        assert os.listdir(out) == []


def test_pooled_scan_matches_serial(tmp_path):
    cfg = write_config(tmp_path, SCAN)
    scans = {}
    for workers in ("1", "2"):
        out = tmp_path / ("w" + workers)
        proc = spectra(["scan-nodeless", "--config", cfg, "--out", str(out), "--workers", workers],
                       out)
        assert (proc.returncode, proc.stderr) == (0, "")
        scans[workers] = (out / "scan.csv").read_bytes()
    assert scans["1"] == scans["2"] and scans["1"].count(b"\n") == 5


@pytest.mark.parametrize("argv", [
    ["spectrum"], ["verify"], ["scan-nodeless"], ["scan-nodeless", "--workers", "2"],
    ["partner"], ["identities"],
], ids=" ".join)
def test_no_command_registers_an_exit_handler(tmp_path, argv):
    # run ends the process with os._exit, which skips atexit: whatever a
    # command must finish, it finishes before main returns.  The pool's
    # modules register their own handlers when first imported; the pool is
    # shut down and its workers joined before nodeless_scan returns.
    import concurrent.futures.process  # noqa: F401
    import multiprocessing

    before = atexit._ncallbacks()
    out = tmp_path / "out"
    assert main(argv + ["--config", write_config(tmp_path, SCAN), "--out", str(out)]) == 0
    assert atexit._ncallbacks() == before
    assert multiprocessing.active_children() == []
