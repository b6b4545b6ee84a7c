"""Property tests of the command line on drawn configs and drawn argv.

Whatever the potential, partner order or user grid, ``main`` ends in a typed
exit code: nothing escapes, a config error (exit 2) writes nothing,
``report.json`` is written exactly when the command ran to a verdict
(exit 0 or 1), and no output holds a NaN or an infinity.  Whatever the
tokens, ``cli.parse_args`` reads argv as argparse does.
"""

import contextlib
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rrspectra import cli  # noqa: E402
from rrspectra.cli import main  # noqa: E402

NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")

near_integer = st.integers(1, 8).flatmap(lambda k: st.floats(k - 1e-3, min(k + 1e-3, 8.0)))
gendenshtein = st.fixed_dictionaries({
    "a": st.one_of(st.floats(0.05, 8.0, exclude_min=True), near_integer),
    "b": st.floats(0.0, 3.0),
}).map(lambda p: {"gendenshtein": p})
milson = st.fixed_dictionaries({
    "h0_re": st.floats(-0.9, 10.0),
    "h0_im": st.floats(-8.0, 8.0),
    "kappa_plus": st.floats(0.05, 4.0),
}).map(lambda p: {"milson": p})
grid = st.fixed_dictionaries({}, optional={
    "x_max": st.floats(1.0, 800.0),
    "n": st.integers(256, 16384),
})
# type c is ground-state erasure, m = 0 only
partner = st.one_of(
    st.just({"kind": "c", "m": 0}),
    st.fixed_dictionaries({"kind": st.just("d"), "m": st.integers(0, 8)}),
)


@st.composite
def configs(draw):
    config = {"potential": draw(st.one_of(gendenshtein, milson)), "partner": draw(partner)}
    if draw(st.booleans()):
        config["grid"] = draw(grid)
    return config


@settings(max_examples=12, deadline=None, derandomize=True)
@given(configs())
def test_every_run_ends_typed_and_finite(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        for command in ("spectrum", "verify", "partner", "identities"):
            out = os.path.join(tmp, command)
            with np.errstate(all="ignore"):
                code = main([command, "--config", path, "--out", out])
            assert code in (0, 1, 2, 3), command
            names = sorted(os.listdir(out)) if os.path.isdir(out) else []
            if code in (2, 3):
                assert names == [], command
            assert ("report.json" in names) == (code in (0, 1)), command
            for name in names:
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    assert not NON_FINITE.search(fh.read()), (command, name)


VALUES = ["2", "1.5", "-1", "-inf", "-x", "two", ""]
# a piece is one token or a spaced flag and its value
PIECES = ([[command] for command in cli.COMMANDS] + [[value] for value in VALUES]
          + [[flag] for flag in cli._FLAGS]
          + [[flag, value] for flag in cli._FLAGS for value in VALUES + ["cfg.json"]]
          + [[flag + "=" + value] for flag in cli._FLAGS for value in VALUES + ["cfg.json"]]
          + [["-h"], ["--"], ["--conf"], ["bogus"]])
# flags with values that convert, as a well-formed command line gives them
GOOD_FLAGS = [["--config=two"], ["--out", "2"], ["--out="], ["--tol=1.5"], ["--tol", "2"],
              ["--workers", "2"], ["--workers=2"]]


@st.composite
def command_lines(draw):
    """A command, a config and flags from GOOD_FLAGS in a drawn order, with
    up to two pieces of PIECES put in among them, and perhaps the last token
    dropped, which leaves a spaced flag without its value."""
    pieces = [[draw(st.sampled_from(list(cli.COMMANDS)))], ["--config", "cfg.json"]]
    pieces = draw(st.permutations(pieces + draw(st.lists(st.sampled_from(GOOD_FLAGS), max_size=3))))
    for piece in draw(st.lists(st.sampled_from(PIECES), max_size=2)):
        pieces.insert(draw(st.integers(0, len(pieces))), piece)
    argv = sum(pieces, [])
    return argv[:len(argv) - draw(st.integers(0, 1))]


def parsed(parse, argv):
    """What ``parse(argv)`` returns, or the code it exits with, and what it
    writes to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None, derandomize=True)
@given(command_lines())
def test_parse_args_reads_argv_as_argparse_does(argv):
    assert parsed(cli.parse_args, argv) == parsed(cli._argparse, argv)
