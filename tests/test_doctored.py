"""The doctored-closed-form matrix: which wrong closed forms each command
catches.

Each doctored form replaces what ``spectral.enumerate_bound_spectrum`` or
``spectral.normalized`` returns, in this process, and ``spectrum``,
``verify``, ``partner`` and ``identities`` run through ``cli.main`` on each
config of ``CONFIGS``: Gendenshtein (3.4, 0.5), whose four states are at
-11.56, -5.76, -1.96 and -0.16, with a type-c partner (the ground-state
erasure), and Milson h0 = 7.75 + 3i at kappa 2, where the weight W is not 1,
with a type-d m = 0 partner, which reads the parent's energies alone.
``verify`` binds ``enumerate_bound_spectrum`` at import, so the doctor
replaces it there too; replacing it in ``spectral`` alone would read as
missed in ``verify`` whatever its checks.

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
ITEM_15 = "item 15: compare the oracle's level count"
ITEM_21 = "item 21: check each eigenfunction against the oracle's"
TYPE_D = "a type-d partner reads the parent's energies alone; none planned"
NO_E = "identities decides R and lambda, from which e follows, and reads no e; none planned"
NO_SCALE = "identities reads no normalization; none planned"
CONSISTENT = "each swapped state is a consistent (R, lambda) pair; none planned"
# config id: (config, the matrix of cells per doctor, in the order of COMMANDS)
CONFIGS = {
    "gendenshtein-3.4-0.5-type-c": (
        {"potential": {"gendenshtein": {"a": 3.4, "b": 0.5}}, "partner": {"kind": "c", "m": 0}},
        {
            "none": (0, 0, 0, 0),
            "level 1's energy x 1.01": (SPECTRUM, 1, 1, NO_E),
            "top level dropped": (
                SPECTRUM, ITEM_15, ITEM_15, "each state left is a right closed form; none planned"),
            "states 0 and 1 swap (poly, lam)": (
                SPECTRUM, ITEM_21,
                3,  # the seed, state 0, now has a node
                CONSISTENT),
            "every Im lambda negated": (SPECTRUM, ITEM_21, 1, 1),
            SCALE: (SPECTRUM, ITEM_21, "partner samples no normalized state; none planned",
                    NO_SCALE),
        },
    ),
    "milson-7.75+3i-kappa-2-type-d": (
        {"potential": {"milson": {"h0_re": 7.75, "h0_im": 3.0, "kappa_plus": 2.0}},
         "partner": {"kind": "d", "m": 0}},
        {
            "none": (0, 0, 0, 0),
            "level 1's energy x 1.01": (SPECTRUM, 1, 1, NO_E),
            "top level dropped": (
                SPECTRUM, ITEM_15, ITEM_15, "each state left is a right closed form; none planned"),
            "states 0 and 1 swap (poly, lam)": (SPECTRUM, ITEM_21, TYPE_D, CONSISTENT),
            "every Im lambda negated": (SPECTRUM, ITEM_21, TYPE_D, 1),
            SCALE: (SPECTRUM, ITEM_21, TYPE_D, NO_SCALE),
        },
    ),
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


def _run(tmp_path, config, commands) -> tuple:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return tuple(main([command, "--config", str(cfg), "--out", str(tmp_path / command)])
                 for command in commands)


def _spectrum_files(tmp_path) -> tuple:
    return tuple((tmp_path / "spectrum" / name).read_text()
                 for name in ("spectrum.json", "eigenfunctions.csv"))


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The files ``spectrum`` writes for each config as it is, by config id."""
    files = {}
    for cid, (config, _matrix) in CONFIGS.items():
        tmp_path = tmp_path_factory.mktemp("clean")
        assert _run(tmp_path, config, ["spectrum"]) == (0,)
        files[cid] = _spectrum_files(tmp_path)
    return files


@pytest.mark.parametrize("cid, name", [(cid, name) for cid, (_config, matrix) in CONFIGS.items()
                                       for name in matrix])
def test_each_command_catches_what_its_cell_says(tmp_path, monkeypatch, capsys, clean, cid, name):
    config, matrix = CONFIGS[cid]
    _doctor(monkeypatch, name)
    codes = _run(tmp_path, config, COMMANDS)
    capsys.readouterr()
    assert codes == tuple(0 if isinstance(cell, str) else cell for cell in matrix[name])
    # every doctor reaches what spectrum writes, so a missed cell is not a
    # doctor that never ran
    assert (_spectrum_files(tmp_path) == clean[cid]) == (name == "none")


@pytest.mark.parametrize("cid", CONFIGS)
def test_every_missed_cell_says_what_is_to_catch_it(cid):
    matrix = CONFIGS[cid][1]
    assert set(matrix) == {"none", SCALE, *STATES}
    for name, cells in matrix.items():
        assert len(cells) == len(COMMANDS)
        for cell in cells:
            assert not isinstance(cell, str) or re.search(r"item \d+|none planned", cell), name
