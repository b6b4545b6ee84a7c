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


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    """The digests of one replay, and the ids of the commands that ran an
    exact gcd in root isolation (``routh._gcd``, the primitive remainder
    sequence).  The pooled scan's workers run in other processes and are not
    seen; its serial twin is a workload command."""
    from rrspectra import cli, routh

    current, fallbacks = [], set()
    main, gcd = cli.main, routh._gcd

    def main_in(argv):
        current[:] = [os.path.basename(argv[argv.index("--out") + 1])]
        return main(argv)

    def counted(a, b, p=0):
        if not p:  # the modular test passes the prime
            fallbacks.update(current)
        return gcd(a, b, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "main", main_in)
        mp.setattr(routh, "_gcd", counted)
        digests = replay.replay(str(tmp_path_factory.mktemp("replay")))
    return digests, fallbacks


def test_outputs_match_committed_digests(replayed):
    with open(os.path.join(replay.HERE, "replay_digests.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    digests = replayed[0]
    moved = sorted(k for k in expected.keys() | digests.keys() if expected.get(k) != digests.get(k))
    assert not moved, "%d of %d outputs moved: %s" % (len(moved), len(expected), ", ".join(moved))


def test_exact_gcd_runs_for_real_h0_alone(replayed):
    # the modular test proves every quartic and seed square-free but those of
    # a real h0, whose quartic has a double root at lambda = 0; no workload
    # command draws one
    assert sorted(replayed[1]) == ["branch-point-identities"] + [
        "repeated-root-" + c for c in ("identities", "partner", "spectrum", "verify")]
