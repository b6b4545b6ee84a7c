"""Seeded command streams for the three benchmark workloads.

Each workload is a fixed cycle of (command, family) slots.  The i-th command
of a run takes slot ``i % len(cycle)``; runs measure whole cycles, so every
slot has the same share of each run.  How many cycles a run measures depends
only on the workload and ``--seconds`` (``cycles_for``), never on how fast
the machine happens to be, so the same seed always runs the same commands.
Parameters come from the run seed alone, so the same seed always yields
byte-identical config files and the program under test sees nothing but
those files.

Each slot follows its own randomly shifted additive recurrence: its k-th draw
sets parameter j to frac(shift_j + k * alpha_j), with alpha the
fractional parts of the golden ratio, sqrt(2) and sqrt(3) and the shifts taken
from the seed.  Every prefix of such a sequence spreads each parameter evenly
over its range, so a run that stops after any number of commands has seen a
representative mix; that keeps the run-to-run spread of the medians small.
No draw is ever rejected or redrawn (near-integer Gendenshtein ``a``
included).
"""

from __future__ import annotations

import json
import random

# Parameter domains.  Gendenshtein (Scarf II) levels sit at -(a - n)^2.
GENDENSHTEIN = {"a": (1.2, 4.5), "b": (0.0, 2.0)}
MILSON = {"h0_re": (3.0, 10.0), "h0_im": (0.0, 4.0), "kappa_plus": (0.5, 3.0)}

# Nodelessness scans (orders 2 and 4) sample 1.6 x 3.2 windows of the
# acceptance-suite domain a in [2, 4], b in [0, 4] at a seeded offset, so every
# scan spreads its cells over most of the domain and costs about the same.
# 25 cells of about 0.04 s each are about half of a scan command's wall time.
SCAN_DOMAIN = {"a": (2.0, 4.0), "b": (0.0, 4.0)}
SCAN_WIDTH = {"a": 1.6, "b": 3.2}
SCAN_CELLS = 5  # per axis

# Why each workload exists is recorded in perfbench/README.md.
CYCLES = {
    "cli_mix": (
        ("spectrum", "gendenshtein"),
        ("identities", "gendenshtein"),
        ("spectrum", "milson"),
        ("identities", "milson"),
    ),
    "oracle_verify": (
        ("verify", "gendenshtein"),
        ("partner", "gendenshtein"),
        ("verify", "milson"),
        ("partner", "milson"),
    ),
    "scan_grid": (
        ("scan-nodeless", "scan2"),
        ("scan-nodeless", "scan4"),
    ),
}

# Wall seconds of one cycle, with its share of reference imports, on the
# 2-core Xeon VM the benchmark was tuned on at its usual (slower) speed.  A
# run measures --seconds worth of these.
CYCLE_SECONDS = {"cli_mix": 9.2, "oracle_verify": 14.4, "scan_grid": 6.8}


def cycles_for(workload: str, seconds: float) -> int:
    """Whole cycles a run of ``seconds`` measures: a fixed amount of work."""
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


# Badly approximable steps: each prefix of k * alpha mod 1 has near-equal gaps.
STEPS = ((5 ** 0.5 - 1) / 2, 2 ** 0.5 - 1, 3 ** 0.5 - 1)


def _recurrence(workload: str, seed: int, slot: int, k: int, ranges: dict) -> dict:
    """The k-th draw of one slot: frac(shift + k * alpha) per parameter."""
    shift = random.Random("%s/%d/%d" % (workload, seed, slot))
    out = {}
    for step, (name, (lo, hi)) in zip(STEPS, ranges.items()):
        u = (shift.random() + k * step) % 1.0
        out[name] = lo + (hi - lo) * u
    return out


def make_config(workload: str, seed: int, index: int) -> tuple:
    """(command, config dict) for the ``index``-th command of a run."""
    cycle = CYCLES[workload]
    k, slot = divmod(index, len(cycle))
    command, family = cycle[slot]
    if family == "gendenshtein":
        cfg = {"potential": {"gendenshtein": _recurrence(workload, seed, slot, k, GENDENSHTEIN)}}
    elif family == "milson":
        cfg = {"potential": {"milson": _recurrence(workload, seed, slot, k, MILSON)}}
    else:
        corner_ranges = {p: (lo, hi - SCAN_WIDTH[p]) for p, (lo, hi) in SCAN_DOMAIN.items()}
        corner = _recurrence(workload, seed, slot, k, corner_ranges)
        a0, b0 = corner["a"], corner["b"]
        cfg = {
            "potential": {"gendenshtein": {"a": a0, "b": b0}},
            "scan": {
                "a_range": [a0, a0 + SCAN_WIDTH["a"]],
                "b_range": [b0, b0 + SCAN_WIDTH["b"]],
                "na": SCAN_CELLS,
                "nb": SCAN_CELLS,
                "m": int(family[len("scan"):]),
            },
        }
    if command == "partner":
        cfg["partner"] = {"kind": "d", "m": 0}
    return command, cfg


def config_bytes(cfg: dict) -> bytes:
    return (json.dumps(cfg, sort_keys=True, indent=1) + "\n").encode("utf-8")
