"""The doctored-closed-form matrix: which wrong closed forms each command
catches.

Each doctored form replaces what ``spectral.enumerate_bound_spectrum`` or
``spectral.normalized`` returns, in this process, and ``spectrum``,
``verify``, ``partner`` (type c, the ground-state erasure) and
``identities`` run through ``cli.main`` on Gendenshtein (3.4, 0.5), whose
four states are at -11.56, -5.76, -1.96 and -0.16.  ``verify`` binds
``enumerate_bound_spectrum`` at import, so the doctor replaces it there too;
replacing it in ``spectral`` alone would read as missed in ``verify`` whatever
its checks.

A cell is the exit code of a command that catches the doctored form (1, or
3 for a typed refusal), or, where the command passes it (exit 0), the reason:
the roadmap item that is to catch it, or that none is planned.  A change that
closes a gap turns its cell into the exit code.
"""

import json
import re

import pytest

from rrspectra import spectral, verify
from rrspectra.cli import main

CONFIG = {"potential": {"gendenshtein": {"a": 3.4, "b": 0.5}}, "partner": {"kind": "c", "m": 0}}
COMMANDS = ("spectrum", "verify", "partner", "identities")


def _energy(states):
    return [s._replace(energy=s.energy * 1.01) if s.n == 1 else s for s in states]


def _swap(states):
    first, second, *rest = states
    return [first._replace(poly=second.poly, lam=second.lam),
            second._replace(poly=first.poly, lam=first.lam), *rest]


# each doctor: a change of the enumerated states, or of the normalization
STATES = {
    "level 1's energy x 1.01": _energy,
    "top level dropped": lambda states: states[:-1],
    "states 0 and 1 swap (poly, lam)": _swap,
    "every Im lambda negated": lambda states: [s._replace(lam=s.lam.conjugate()) for s in states],
}
SCALE = "psi scale x 1.01"

SPECTRUM = "spectrum checks nothing that it writes; none planned"
MATRIX = {
    "none": (0, 0, 0, 0),
    "level 1's energy x 1.01": (
        SPECTRUM, 1, 1,
        "identities decides R and lambda, from which e follows, and reads no e; none planned"),
    "top level dropped": (
        SPECTRUM, "item 15: compare the oracle's level count",
        "item 15: compare the oracle's level count",
        "each state left is a right closed form; none planned"),
    "states 0 and 1 swap (poly, lam)": (
        SPECTRUM, "item 21: check each eigenfunction against the oracle's",
        3,  # the seed, state 0, now has a node
        "each swapped state is a consistent (R, lambda) pair; none planned"),
    "every Im lambda negated": (
        SPECTRUM, "item 21: check each eigenfunction against the oracle's", 1, 1),
    SCALE: (
        SPECTRUM, "item 21: check each eigenfunction against the oracle's",
        "partner samples no normalized state; none planned",
        "identities reads no normalization; none planned"),
}


def _doctor(monkeypatch, name):
    if name == SCALE:
        real_normalized = spectral.normalized

        def normalized(spec, solution):
            state = real_normalized(spec, solution)
            return state._replace(scale=state.scale * 1.01)

        monkeypatch.setattr(spectral, "normalized", normalized)
    elif name in STATES:
        real = spectral.enumerate_bound_spectrum

        def enumerate_bound_spectrum(spec):
            spectrum = real(spec)
            return spectrum._replace(states=tuple(STATES[name](list(spectrum.states))))

        monkeypatch.setattr(spectral, "enumerate_bound_spectrum", enumerate_bound_spectrum)
        monkeypatch.setattr(verify, "enumerate_bound_spectrum", enumerate_bound_spectrum)


def _run(tmp_path, commands) -> tuple:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    return tuple(main([command, "--config", str(cfg), "--out", str(tmp_path / command)])
                 for command in commands)


def _spectrum_files(tmp_path) -> tuple:
    return tuple((tmp_path / "spectrum" / name).read_text()
                 for name in ("spectrum.json", "eigenfunctions.csv"))


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The files ``spectrum`` writes for the config as it is."""
    tmp_path = tmp_path_factory.mktemp("clean")
    assert _run(tmp_path, ["spectrum"]) == (0,)
    return _spectrum_files(tmp_path)


@pytest.mark.parametrize("name", MATRIX)
def test_each_command_catches_what_its_cell_says(tmp_path, monkeypatch, capsys, clean, name):
    _doctor(monkeypatch, name)
    codes = _run(tmp_path, COMMANDS)
    capsys.readouterr()
    assert codes == tuple(0 if isinstance(cell, str) else cell for cell in MATRIX[name])
    # every doctor reaches what spectrum writes, so a missed cell is not a
    # doctor that never ran
    assert (_spectrum_files(tmp_path) == clean) == (name == "none")


def test_every_missed_cell_says_what_is_to_catch_it():
    assert set(MATRIX) == {"none", SCALE, *STATES}
    for name, cells in MATRIX.items():
        assert len(cells) == len(COMMANDS)
        for cell in cells:
            assert not isinstance(cell, str) or re.search(r"item \d+|none planned", cell), name
