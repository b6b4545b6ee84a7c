"""Every command output stays byte-identical: the replay of ``tests/replay.py``
must reproduce each digest and exit code in ``tests/replay_digests.json``.

A change that moves an output on purpose regenerates that file in the same
commit, and the diff of the file names the outputs that moved:

    PYTHONPATH=src python tests/replay.py > tests/replay_digests.json

The oracle's float outputs pass through libm, which may differ by an ulp on
another platform; there, compare kept outputs with ``replay.py --diff``
instead, never more loosely.
"""

import json
import os

import pytest

import replay


def test_every_command_has_its_own_id(monkeypatch):
    ids = [cid for cid, _argv, _cfg in replay.commands()]
    assert len(ids) == len(set(ids))
    # a config listing one subcommand twice would overwrite its own outputs
    monkeypatch.setitem(replay.EXTRA, "twice",
                        ({"potential": replay.GEN}, ("verify", "verify --tol 0")))
    with pytest.raises(ValueError, match="share an id: twice-verify$"):
        replay.commands()


def test_outputs_match_committed_digests(tmp_path):
    with open(os.path.join(replay.HERE, "replay_digests.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    digests = replay.replay(str(tmp_path))
    moved = sorted(k for k in expected.keys() | digests.keys() if expected.get(k) != digests.get(k))
    assert not moved, "%d of %d outputs moved: %s" % (len(moved), len(expected), ", ".join(moved))
