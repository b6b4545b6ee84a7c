"""Output checks: a command counts as a success only if its files pass here.

``check_outputs`` returns a list of problems; an empty list means the outputs
are right.  The checks read only the files the command wrote and the config it
was given, never the library under test.
"""

from __future__ import annotations

import csv
import json
import os

ENERGY_RTOL = 1e-9  # closed-form Gendenshtein levels, relative
THRESHOLD_ENERGY = 1e-10  # levels this close to 0 are threshold, not bound
DEFAULT_GRID_POINTS = 4096  # eigenfunctions.csv rows without a "grid" block
SCAN_HEADER = "a,b,empirical_nodeless,threshold_prediction,discriminant_prediction,consistent"


def _load(path: str, problems: list):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append("%s unreadable: %s" % (os.path.basename(path), exc))
        return None


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= ENERGY_RTOL * abs(ref)


def gendenshtein_levels(a: float) -> list:
    """Closed-form bound levels -(a - n)^2, n = 0, 1, ... while a - n > 0."""
    levels = []
    n = 0
    while a - n > 0 and (a - n) ** 2 >= THRESHOLD_ENERGY:
        levels.append(-((a - n) ** 2))
        n += 1
    return levels


def _expected_levels(cfg: dict):
    gen = cfg["potential"].get("gendenshtein")
    return gendenshtein_levels(gen["a"]) if gen else None


def _check_report(out: str, command: str, problems: list) -> None:
    rep = _load(os.path.join(out, "report.json"), problems)
    if rep is None:
        return
    if rep.get("command") != command:
        problems.append("report.json names command %r" % rep.get("command"))
    if rep.get("passed") is not True:
        problems.append("report.json says passed=%r" % rep.get("passed"))
    for name in rep.get("outputs", []):
        if not os.path.isfile(os.path.join(out, name)):
            problems.append("report.json lists missing output %s" % name)


def _check_spectrum(cfg: dict, out: str, problems: list) -> None:
    spec = _load(os.path.join(out, "spectrum.json"), problems)
    if spec is None:
        return
    states = spec.get("states", [])
    if spec.get("n_max_constructive") != len(states):
        problems.append("n_max_constructive %r != %d states"
                        % (spec.get("n_max_constructive"), len(states)))
    energies = [s["energy"] for s in states]
    for i, s in enumerate(states):
        if s.get("n") != i or s.get("nodes") != i:
            problems.append("state %d has n=%r nodes=%r" % (i, s.get("n"), s.get("nodes")))
    if any(e >= 0 for e in energies) or energies != sorted(energies):
        problems.append("energies not negative and ascending: %r" % energies)
    expected = _expected_levels(cfg)
    if expected is not None:
        if len(energies) != len(expected):
            problems.append("%d levels, closed form has %d" % (len(energies), len(expected)))
        for n, (e, ref) in enumerate(zip(energies, expected)):
            if not _close(e, ref):
                problems.append("level %d energy %r != -(a-n)^2 = %r" % (n, e, ref))
    csv_path = os.path.join(out, "eigenfunctions.csv")
    if not states:
        return
    try:
        with open(csv_path, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        problems.append("eigenfunctions.csv unreadable: %s" % exc)
        return
    header = ["x"] + ["psi_%d" % i for i in range(len(states))]
    n_points = cfg.get("grid", {}).get("n", DEFAULT_GRID_POINTS)
    if rows[0] != header:
        problems.append("eigenfunctions.csv header %r" % rows[0])
    if len(rows) != n_points + 1 or any(len(r) != len(header) for r in rows[1:]):
        problems.append("eigenfunctions.csv has %d rows, want %d of %d columns"
                        % (len(rows) - 1, n_points, len(header)))


def _check_identities(cfg: dict, out: str, problems: list) -> None:
    ident = _load(os.path.join(out, "identities.json"), problems)
    if ident is None:
        return
    if ident.get("passed") is not True or ident.get("polynomial_ode_residuals_zero") is not True:
        problems.append("identities not all satisfied")
    expected = _expected_levels(cfg)
    if expected is not None and len(ident.get("quartic_residuals", {})) != len(expected):
        problems.append("%d quartic residuals, closed form has %d levels"
                        % (len(ident.get("quartic_residuals", {})), len(expected)))


def _check_verify(cfg: dict, out: str, problems: list) -> None:
    ver = _load(os.path.join(out, "verify.json"), problems)
    if ver is None:
        return
    levels = ver.get("levels", [])
    want = ver.get("n_max_constructive")
    expected = _expected_levels(cfg)
    if expected is not None:
        want = len(expected)
    if len(levels) != want:
        problems.append("verify.json lists %d levels, spectrum has %r" % (len(levels), want))
    tol = ver.get("tol")
    for i, lv in enumerate(levels):
        if lv.get("n") != i or lv.get("nodes_analytic") != i or lv.get("nodes_numeric") != i:
            problems.append("level %d node counts %r/%r"
                            % (i, lv.get("nodes_analytic"), lv.get("nodes_numeric")))
        if not lv.get("rel_delta", 1.0) <= tol:
            problems.append("level %d rel_delta %r above tol %r" % (i, lv.get("rel_delta"), tol))
        if expected is not None and i < len(expected) and not _close(lv["analytic"], expected[i]):
            problems.append("level %d analytic %r != %r" % (i, lv["analytic"], expected[i]))
    if ver.get("passed") is not True:
        problems.append("verify.json says passed=%r" % ver.get("passed"))


def _check_partner(cfg: dict, out: str, problems: list) -> None:
    part = _load(os.path.join(out, "partner_verify.json"), problems)
    if part is None:
        return
    if not os.path.getsize(os.path.join(out, "partner.csv")):
        problems.append("partner.csv is empty")
    levels = part.get("levels", [])
    got = [lv["expected"] for lv in levels]
    gen = cfg["potential"].get("gendenshtein")
    if gen:
        # Type-d m=0 insertion adds the seed level -(a+1)^2 below the parent.
        want = [-((gen["a"] + 1) ** 2)] + gendenshtein_levels(gen["a"])
        if len(got) != len(want) or not all(_close(g, w) for g, w in zip(got, want)):
            problems.append("partner expected levels %r, closed form %r" % (got, want))
    elif len(got) < 2 or got != sorted(got):
        problems.append("partner expected levels %r lack the inserted seed" % got)
    tol = part.get("tol")
    for i, lv in enumerate(levels):
        if not lv.get("rel_delta", 1.0) <= tol:
            problems.append("partner level %d rel_delta %r above tol %r" % (i, lv.get("rel_delta"), tol))
    if part.get("passed") is not True:
        problems.append("partner_verify.json says passed=%r" % part.get("passed"))


def _linspace(lo: float, hi: float, n: int) -> list:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _check_scan(cfg: dict, out: str, problems: list) -> None:
    scan = cfg["scan"]
    try:
        with open(os.path.join(out, "scan.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        problems.append("scan.csv unreadable: %s" % exc)
        return
    if lines[0] != SCAN_HEADER:
        problems.append("scan.csv header %r" % lines[0])
    cells = [(a, b) for a in _linspace(*scan["a_range"], scan["na"])
             for b in _linspace(*scan["b_range"], scan["nb"])]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(cells):
        problems.append("scan.csv has %d cells, want %d" % (len(rows), len(cells)))
    for row, (a, b) in zip(rows, cells):
        if abs(float(row[0]) - a) > 1e-9 or abs(float(row[1]) - b) > 1e-9:
            problems.append("scan cell (%s, %s) is not grid point (%r, %r)" % (row[0], row[1], a, b))
        if row[5] != "true":
            problems.append("scan cell (%s, %s) consistent=%r" % (row[0], row[1], row[5]))
    summary = _load(os.path.join(out, "scan_summary.json"), problems)
    if summary is not None and (summary.get("cells") != len(cells)
                                or summary.get("internally_consistent") is not True):
        problems.append("scan_summary.json disagrees: %r" % summary)


_CHECKS = {
    "spectrum": _check_spectrum,
    "identities": _check_identities,
    "verify": _check_verify,
    "partner": _check_partner,
    "scan-nodeless": _check_scan,
}


def check_outputs(command: str, cfg: dict, out: str) -> list:
    """Problems with the files ``command`` wrote to ``out`` for ``cfg``."""
    problems = []
    try:
        _CHECKS[command](cfg, out, problems)
        _check_report(out, command, problems)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        problems.append("malformed output: %s: %s" % (type(exc).__name__, exc))
    return problems


def outcome(command: str, cfg: dict, out: str, exit_code: int) -> list:
    """Reasons the command failed; empty for a success.

    Any exit other than 0 is a failure, and so is an exit 0 whose files do
    not pass ``check_outputs``.  A command that exits non-zero after writing
    its report (a verification failure) also gets its output problems listed.
    """
    if exit_code == 0:
        return check_outputs(command, cfg, out)
    reason = ["exit code %d" % exit_code]
    if os.path.exists(os.path.join(out, "report.json")):
        reason += check_outputs(command, cfg, out)
    return reason
