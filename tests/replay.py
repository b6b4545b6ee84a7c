"""Digest every output file of a fixed set of commands, to check that a change
keeps the command outputs byte-identical, or keep the outputs and compare
them number by number.

    PYTHONPATH=src python tests/replay.py > digests.json
    PYTHONPATH=src python tests/replay.py --keep DIR > digests.json
    python tests/replay.py --diff DIR_A DIR_B

Each config runs through ``cli.main`` in this process, in a fresh output
directory.  The script prints one JSON object mapping ``<config-id>/<file>``
to the SHA-256 of that file, plus ``<config-id>/exit`` to the exit code, so a
command that writes nothing is compared too.  Run it at two commits and diff
the two objects.

``--keep DIR`` runs the commands in DIR instead of a temporary directory and
leaves there each config (``<config-id>.json``), its outputs
(``<config-id>/``) and the exit codes (``exit_codes.json``).  ``--diff``
compares two such directories file by file and prints, per file, either
``identical`` or the largest difference among its numbers: for JSON, per
object key, relative to the larger magnitude of the two numbers; for CSV,
relative to the largest magnitude in the cell's column of DIR_A.  An oracle
level row's ``numeric`` move is also given in units of the row's ``error``,
its budget, from DIR_A (from DIR_B where DIR_A has none), as
``numeric/error``.  Keys present on one side only are listed after the
numbers; they, and anything else that differs (a string, a flag, an
integer, a row count, a missing file), make the exit status 1.  Anything
but keys is reported with where it first differs.

The configs are the seed-1001 commands of the three benchmark workloads
(``perfbench/workloads.py``, imported read-only), plus cases the benchmark
does not draw: a user grid past |x| ~ 355, where eta^2 overflows
(``spectrum``, ``verify`` and a type-d ``partner`` sample in t from sech t
and tanh t, and all three pass there), a user grid too narrow for
the potential to decay (a config error that leaves no file), a user x_max
without n (the config box of ``spectrum``), a user n with n - 1 not a
multiple of 4, ``--tol 0`` (the ladder climbs to the cap), Milson kappa far
from 1 (at kappa 0.05 also ``verify --tol 0``; at kappa 1e-17, where the
weight is 0.0 at t = 0, ``verify`` and ``partner``, which exit 3; at
kappa 1e8 ``identities --tol 0``), a type-c (ground-state
erasure) partner, a deep well (Gendenshtein 16.2, 0.7), a barrier too steep
for Numerov's scheme on rung 0 at 4 times the cap's spacing (Gendenshtein
2.5, 20), a real h0, whose
quartic has a double root at lambda = 0 (the repeated-root path of root
isolation), a Milson potential whose quartic has
two positive roots below m + 1/2 at orders 1-3, a Milson potential whose
branch point is the energy e = -1, a user grid too narrow for
doubles (a config error that leaves no file), an order-4 scan on two
worker processes (the pooled path, whose ``scan.csv`` must digest as the
serial one's), and a 2 x 2 order-128 scan on a window off the dyadic grid
(exact root counts at the largest order).  An ``EXTRA`` command is the
subcommand, optionally followed by further arguments ("verify --tol 0").
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import workloads  # noqa: E402

SEED = 1001
RUN_SECONDS = 30

GEN = {"gendenshtein": {"a": 2.5, "b": 0.5}}
EXTRA = {
    "wide-grid": ({"potential": GEN, "grid": {"x_max": 400.0},
                   "partner": {"kind": "d", "m": 0}},
                  ("spectrum", "verify", "partner")),
    "narrow-grid": ({"potential": {"gendenshtein": {"a": 3.3, "b": 0.7}},
                     "grid": {"x_max": 3.0, "n": 1024}, "partner": {"kind": "d", "m": 0}},
                    ("verify", "partner")),
    "type-c-partner": ({"potential": GEN, "partner": {"kind": "c", "m": 0}}, ("partner",)),
    "type-c-partner-deep": ({"potential": {"gendenshtein": {"a": 16.2, "b": 0.7}},
                             "partner": {"kind": "c", "m": 0}},
                            ("partner", "spectrum", "identities")),
    "barrier": ({"potential": {"gendenshtein": {"a": 2.5, "b": 20.0}},
                 "partner": {"kind": "d", "m": 0}}, ("verify", "partner")),
    "user-grid": ({"potential": GEN, "grid": {"x_max": 12.0}}, ("spectrum",)),
    "user-n": ({"potential": GEN, "grid": {"n": 4096}, "partner": {"kind": "d", "m": 0}},
               ("verify", "partner")),
    "zero-tol": ({"potential": GEN, "partner": {"kind": "d", "m": 0}},
                 ("verify --tol 0", "partner --tol 0")),
    "repeated-root": ({"potential": {"gendenshtein": {"a": 2.5, "b": 0.0}},
                       "partner": {"kind": "d", "m": 0}},
                      ("spectrum", "verify", "identities", "partner")),
    "three-positive-roots": ({"potential": {"milson": {
        "h0_re": 12.084706575734842, "h0_im": 0.0013390748054407224,
        "kappa_plus": 47.9484157411458}}, "partner": {"kind": "d", "m": 0}},
        ("spectrum", "verify", "partner", "identities")),
    "branch-point": ({"potential": {"milson": {"h0_re": 0.0, "h0_im": 0.0, "kappa_plus": 2.0}}},
                     ("identities",)),
    "tiny-grid": ({"potential": GEN, "grid": {"x_max": 5e-324, "n": 257},
                   "partner": {"kind": "d", "m": 0}},
                  ("spectrum", "verify", "partner")),
}
# the pooled scan path on the second scan_grid command (order 4): its scan.csv
# must digest as that serial command's does
EXTRA["pooled-scan"] = (workloads.make_config("scan_grid", SEED, 1)[1],
                        ("scan-nodeless --workers 2",))
EXTRA["scan-order-128"] = ({"potential": {"gendenshtein": {"a": 2.3, "b": 0.3}},
                            "scan": {"a_range": [2.3, 3.7], "b_range": [0.3, 1.9],
                                     "na": 2, "nb": 2, "m": 128}},
                           ("scan-nodeless",))
for kappa, lines in ((0.05, ("spectrum", "verify", "partner", "identities")),
                     (20.0, ("spectrum", "verify", "partner", "identities")),
                     # kappa - 1 rounds to -1, so W = 1 + (kappa - 1) sech^2 t is 0.0 at t = 0
                     (1e-17, ("verify", "partner")),
                     # the quartic's terms grow like kappa |lambda|^4
                     (1e8, ("identities --tol 0",))):
    EXTRA["milson-kappa-%g" % kappa] = (
        {"potential": {"milson": {"h0_re": 7.75, "h0_im": 3.0, "kappa_plus": kappa}},
         "partner": {"kind": "d", "m": 0}},
        lines,
    )
# the ladder's top on kappa 0.05, whose finer rungs sample a slightly deeper well
EXTRA["milson-kappa-0.05-zero-tol"] = (EXTRA["milson-kappa-0.05"][0], ("verify --tol 0",))


def commands() -> list:
    """(config id, command line, config dict) for every replayed command; the
    command line is the subcommand and the arguments after ``--out``.  The id
    names the command's output directory and digest keys, so two command
    lines with one id (an EXTRA config listing "verify" and "verify --tol 0")
    raise ``ValueError`` before anything runs; give the second line an EXTRA
    config of its own."""
    out = []
    for workload in sorted(workloads.CYCLES):
        count = workloads.cycles_for(workload, RUN_SECONDS) * len(workloads.CYCLES[workload])
        for index in range(count):
            command, cfg = workloads.make_config(workload, SEED, index)
            out.append(("%s-%d-%02d-%s" % (workload, SEED, index, command), [command], cfg))
    for name, (cfg, lines) in sorted(EXTRA.items()):
        for line in lines:
            argv = line.split()
            out.append(("%s-%s" % (name, argv[0]), argv, cfg))
    ids = [cid for cid, _argv, _cfg in out]
    shared = sorted({cid for cid in ids if ids.count(cid) > 1})
    if shared:
        raise ValueError("replayed commands share an id: %s" % ", ".join(shared))
    return out


def replay(root: str) -> dict:
    from rrspectra import cli

    digests = {}
    for cid, argv, cfg in commands():
        cfg_path = os.path.join(root, cid + ".json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = os.path.join(root, cid)
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([argv[0], "--config", cfg_path, "--out", out, *argv[1:]])
        digests[cid + "/exit"] = str(code)
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                digests["%s/%s" % (cid, name)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


# ---------------------------------------------------------------------------
# --diff
# ---------------------------------------------------------------------------

class Differs(Exception):
    """Two outputs differ other than in the value of a float."""


def _rel(a: float, b: float, scale: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / scale if scale > 0 and math.isfinite(scale) else math.inf


def json_diff(a, b, worst: dict, keys: list, where: str = "", field: str = "") -> None:
    """Record in ``worst`` the largest relative difference between the floats
    of two JSON values, per object key (``field``), and the largest move of
    a ``numeric`` in units of its row's ``error`` (``numeric/error``); append
    to ``keys`` the keys of an object present on one side only, and compare
    the others; raises :class:`Differs` at the first other difference."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if numbers and (isinstance(a, float) or isinstance(b, float)):
        worst[field] = max(worst.get(field, 0.0), _rel(a, b, max(abs(a), abs(b))))
    elif isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            keys.append("%s %s" % (where or "root", sorted(set(a) ^ set(b))))
        error = a.get("error", b.get("error"))
        if "numeric" in a and "numeric" in b and error:
            move = abs(a["numeric"] - b["numeric"]) / error
            worst["numeric/error"] = max(worst.get("numeric/error", 0.0), move)
        for k in a:
            if k in b:
                json_diff(a[k], b[k], worst, keys, "%s.%s" % (where, k), k)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Differs("%s length %d != %d" % (where or "root", len(a), len(b)))
        for i, (x, y) in enumerate(zip(a, b)):
            json_diff(x, y, worst, keys, "%s[%d]" % (where, i), field)
    elif type(a) is not type(b) or a != b:
        raise Differs("%s: %r != %r" % (where or "root", a, b))


def csv_diff(rows_a: list, rows_b: list) -> float:
    """Largest difference between numeric cells, relative to the largest
    magnitude in the cell's column of ``rows_a``; raises :class:`Differs` at
    the first other difference."""
    if len(rows_a) != len(rows_b) or not rows_a or rows_a[0] != rows_b[0]:
        raise Differs("header or row count")
    body_a, body_b = rows_a[1:], rows_b[1:]

    def number(cell):
        try:
            return float(cell)
        except ValueError:
            return None

    scales = [max((abs(v) for v in map(number, col) if v is not None and math.isfinite(v)),
                  default=0.0) for col in zip(*body_a)]
    worst = 0.0
    for r, (row_a, row_b) in enumerate(zip(body_a, body_b), start=2):
        if len(row_a) != len(row_b):
            raise Differs("line %d: cell count" % r)
        for c, (x, y) in enumerate(zip(row_a, row_b)):
            if x == y:
                continue
            fx, fy = number(x), number(y)
            if fx is None or fy is None:
                raise Differs("line %d column %d: %r != %r" % (r, c + 1, x, y))
            worst = max(worst, _rel(fx, fy, scales[c]))
    return worst


def diff_file(path_a: str, path_b: str) -> str:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() == fb.read():
            return "identical"
    if path_a.endswith(".json"):
        with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
            worst, keys = {}, []
            json_diff(json.load(fa), json.load(fb), worst, keys)
        verdict = "max rel diff " + ", ".join(
            "%s %.3g" % (k or "root", v) for k, v in sorted(worst.items()) if v)
        if keys:
            raise Differs("%s; keys on one side only in %d objects, first %s"
                          % (verdict, len(keys), keys[0]))
        return verdict
    if path_a.endswith(".csv"):
        with open(path_a, encoding="utf-8", newline="") as fa, \
                open(path_b, encoding="utf-8", newline="") as fb:
            return "max diff %.3g of column max" % csv_diff(list(csv.reader(fa)), list(csv.reader(fb)))
    raise Differs("bytes")


def diff_dirs(dir_a: str, dir_b: str) -> int:
    """Print one line per file of either directory tree; 1 if any file
    differs other than in its floats, or exists on one side only."""

    def files(root):
        return {os.path.relpath(os.path.join(d, f), root)
                for d, _sub, names in os.walk(root) for f in names}

    in_a, in_b = files(dir_a), files(dir_b)
    status = 0
    for rel in sorted(in_a | in_b):
        if rel not in in_a or rel not in in_b:
            print("%s: only in %s" % (rel, dir_a if rel in in_a else dir_b))
            status = 1
            continue
        try:
            verdict = diff_file(os.path.join(dir_a, rel), os.path.join(dir_b, rel))
        except Differs as exc:
            verdict = "differs: %s" % exc
            status = 1
        print("%s: %s" % (rel, verdict))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--keep", metavar="DIR", help="run in DIR and leave the outputs there")
    group.add_argument("--diff", nargs=2, metavar=("DIR_A", "DIR_B"),
                       help="compare the outputs kept in two directories")
    args = parser.parse_args(argv)
    if args.diff:
        return diff_dirs(*args.diff)
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
        digests = replay(args.keep)
        exits = {key[:-len("/exit")]: int(v) for key, v in digests.items() if key.endswith("/exit")}
        with open(os.path.join(args.keep, "exit_codes.json"), "w", encoding="utf-8") as fh:
            json.dump(exits, fh, indent=1, sort_keys=True)
    else:
        with tempfile.TemporaryDirectory() as root:
            digests = replay(root)
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
