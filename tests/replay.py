"""Digest every output file of a fixed set of commands, to check that a change
keeps the command outputs byte-identical.

    PYTHONPATH=src python tests/replay.py > digests.json

Each config runs through ``cli.main`` in this process, in a fresh output
directory.  The script prints one JSON object mapping ``<config-id>/<file>``
to the SHA-256 of that file, plus ``<config-id>/exit`` to the exit code, so a
command that writes nothing is compared too.  Run it at two commits and diff
the two objects.

The configs are the seed-1001 commands of the three benchmark workloads
(``perfbench/workloads.py``, imported read-only), plus cases the benchmark
does not draw: a user grid too wide for doubles, Milson kappa far from 1, a
type-c (ground-state erasure) partner, and a real h0, whose quartic has a
double root at lambda = 0 (the repeated-root path of root isolation).
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import workloads  # noqa: E402

from rrspectra import cli  # noqa: E402

SEED = 1001
RUN_SECONDS = 30

GEN = {"gendenshtein": {"a": 2.5, "b": 0.5}}
EXTRA = {
    "wide-grid": ({"potential": GEN, "grid": {"x_max": 400.0},
                   "partner": {"kind": "d", "m": 0}},
                  ("spectrum", "verify", "partner")),
    "type-c-partner": ({"potential": GEN, "partner": {"kind": "c", "m": 0}}, ("partner",)),
    "type-c-partner-deep": ({"potential": {"gendenshtein": {"a": 16.2, "b": 0.7}},
                             "partner": {"kind": "c", "m": 0}}, ("partner",)),
    "repeated-root": ({"potential": {"gendenshtein": {"a": 2.5, "b": 0.0}},
                       "partner": {"kind": "d", "m": 0}},
                      ("spectrum", "verify", "identities", "partner")),
}
for kappa in (0.05, 20.0):
    EXTRA["milson-kappa-%g" % kappa] = (
        {"potential": {"milson": {"h0_re": 7.75, "h0_im": 3.0, "kappa_plus": kappa}},
         "partner": {"kind": "d", "m": 0}},
        ("spectrum", "verify", "partner", "identities"),
    )


def commands():
    """(config id, command, config dict) for every replayed command."""
    for workload in sorted(workloads.CYCLES):
        count = workloads.cycles_for(workload, RUN_SECONDS) * len(workloads.CYCLES[workload])
        for index in range(count):
            command, cfg = workloads.make_config(workload, SEED, index)
            yield "%s-%d-%02d-%s" % (workload, SEED, index, command), command, cfg
    for name, (cfg, names) in sorted(EXTRA.items()):
        for command in names:
            yield "%s-%s" % (name, command), command, cfg


def replay(root: str) -> dict:
    digests = {}
    for cid, command, cfg in commands():
        cfg_path = os.path.join(root, cid + ".json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = os.path.join(root, cid)
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", cfg_path, "--out", out])
        digests[cid + "/exit"] = str(code)
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                digests["%s/%s" % (cid, name)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        json.dump(replay(root), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
