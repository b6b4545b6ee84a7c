"""Batch front end.

    spectra spectrum|verify|scan-nodeless|partner|identities --config FILE
            [--out DIR] [--tol X] [--workers N]

All physical quantities are dimensionless (hbar = 2m = 1).  Config is JSON
with exactly one potential block, either

    {"potential": {"gendenshtein": {"a": 2.5, "b": 0.5}}}
    {"potential": {"milson": {"h0_re": 7.75, "h0_im": 3.0, "kappa_plus": 2.0}}}

plus optional "grid": {"x_max": .., "n": ..} and per-command blocks
("scan": {"a_range": [..], "b_range": [..], "na": .., "nb": .., "m": ..},
 "partner": {"kind": "d", "m": 0}).  ``BLOCK_KEYS`` declares each block's
keys once, with the reader of each value and each default; any other key,
or a missing key without a default, is a config error.

Each command (the ``COMMANDS`` table) computes everything first and returns
its files and whether its checks passed; :func:`main` alone writes them, each
through a temporary file moved into place, then ``report.json``, and picks
the exit code.  A command that raises writes no file, and a write that fails
removes its temporary file.

Exit codes: 0 success, 1 verification failure (its files are written), 2
config error (a bad config, a ``--tol`` that is negative or not finite, a
``--workers`` below 1, an order above ``spectral.MAX_ORDER``, set by the
config or reached by a bound state, or a grid the config set that cannot be
sampled, too wide or too narrow for doubles, or on which the potential has not
decayed) or output error (an ``--out`` that cannot be made or written), 3
numeric failure.  Identical configs produce byte-identical outputs.

The command line is declared once, in ``_FLAGS`` and the defaults of
``Args``.  :func:`parse_args` reads a well-formed one itself; anything else,
``-h`` included, goes to argparse, which renders the help, the usage and
every error (exit 2) from that table.

Every command is a fresh process, so its imports are part of its cost, and
a well-formed command line loads no argparse.  ``identities`` and
``scan-nodeless`` run on the exact layer alone, and
``spectrum`` adds :mod:`geometry`, which samples in plain floats, and
``verify`` and ``partner`` add the oracle, in plain Python too: no command
loads numpy.  The config digest in ``report.json`` comes from the
interpreter's built-in SHA-256, so no command loads OpenSSL through
``hashlib``.  The process ends through :func:`run`: once :func:`main` has
returned, with its files closed, and the streams are flushed, ``os._exit``
ends it, skipping module teardown and ``atexit`` handlers.  :func:`main`
itself still returns the exit code.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from typing import NamedTuple

from . import spectral
from .errors import (ConfigError, InsufficientDecay, NonFiniteSamples, NoSuchRoot, SpectraError,
                     StepFailure)
from .spectral import PotentialSpec

# The built-in SHA-256 (_sha2 from Python 3.12, _sha256 before), not hashlib's,
# which loads OpenSSL; hashlib is the fallback for builds without it.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _number(value, what: str) -> float:
    """``value``, a JSON number, as a finite float; anything else (inf, NaN,
    a string, a boolean, a list or an object) is a config error."""
    try:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        x = float(value) if number else math.nan
    except OverflowError:
        x = math.nan
    _require(math.isfinite(x), "%s must be a finite number, got %r" % (what, value))
    return x


def _integer(value, what: str) -> int:
    """``value``, a JSON number, as an int; a fraction is a config error too."""
    x = _number(value, what)
    _require(x.is_integer(), "%s must be an integer, got %r" % (what, value))
    return int(value) if isinstance(value, int) else int(x)


def _range(value, what: str) -> list:
    """``value``, a JSON list of numbers, as floats; :meth:`RunConfig.scan_params`
    checks that it is an ``[lo, hi]`` pair."""
    _require(isinstance(value, list), "malformed %s" % what)
    return [_number(v, what) for v in value]


def _partner_kind(value, what: str) -> str:
    _require(value in ("c", "d"), "%s must be 'c' or 'd'" % what)
    return value


# Each config block's keys, each with the reader of its value and, unless the
# key is required, its default.
BLOCK_KEYS = {
    "gendenshtein": {"a": (_number,), "b": (_number, 0.0)},
    "milson": {"h0_re": (_number,), "h0_im": (_number, 0.0), "kappa_plus": (_number,)},
    "grid": {"x_max": (_number, None), "n": (_integer, None)},
    "scan": {"a_range": (_range,), "b_range": (_range,), "na": (_integer, 16),
             "nb": (_integer, 16), "m": (_integer, 2)},
    "partner": {"kind": (_partner_kind, "d"), "m": (_integer, 0)},
}


def _read(block, name: str, what: str) -> dict:
    """The values of ``block``, which must be a JSON object (else the config
    error ``what``) holding only keys that :data:`BLOCK_KEYS` lists for
    ``name``: each key's value through its reader, or its default where the
    key is missing.  A missing key without a default is a config error."""
    _require(isinstance(block, dict), what)
    keys = BLOCK_KEYS[name]
    unknown = sorted(set(block).difference(keys))
    _require(not unknown, "unknown %s key %s (accepted: %s)" % (
        name, ", ".join(map(repr, unknown)), ", ".join(keys)))
    values = {}
    for key, (reader, *default) in keys.items():
        _require(key in block or default, "missing %s '%s'" % (name, key))
        values[key] = reader(block[key], "%s '%s'" % (name, key)) if key in block else default[0]
    return values


class RunConfig:
    def __init__(self, raw: dict):
        _require(isinstance(raw, dict), "config root must be a JSON object")
        self.raw = raw
        pot = raw.get("potential")
        _require(isinstance(pot, dict), "missing 'potential' block")
        _require(len(pot) == 1, "exactly one potential block is required")
        kind, params = next(iter(pot.items()))
        _require(kind in ("gendenshtein", "milson"), "unknown potential kind %r" % kind)
        p = _read(params, kind, "potential parameters must be an object")
        try:
            self.spec = (spectral.gendenshtein_params(p["a"], p["b"]) if kind == "gendenshtein"
                         else PotentialSpec(complex(p["h0_re"], p["h0_im"]), p["kappa_plus"]))
        except ValueError as exc:
            raise ConfigError("invalid potential parameters: %s" % exc) from exc
        grid = _read(raw.get("grid", {}), "grid", "'grid' must be an object")
        self.x_max, self.n = grid["x_max"], grid["n"]
        _require(self.x_max is None or self.x_max > 0, "grid x_max must be positive")
        if self.n is not None:
            _require(self.n >= 256, "grid n must be at least 256")
            _require(self.n <= spectral.MAX_COUNT,
                     "grid n must be at most %d" % spectral.MAX_COUNT)

    def scan_params(self):
        scan = _read(self.raw.get("scan"), "scan", "scan command needs a 'scan' block")
        a_range, b_range, m, na, nb = (scan[k] for k in ("a_range", "b_range", "m", "na", "nb"))
        _require(len(a_range) == 2 and a_range[0] < a_range[1], "malformed scan 'a_range'")
        _require(len(b_range) == 2 and b_range[0] <= b_range[1], "malformed scan 'b_range'")
        # a non-positive a fails at the low corner, and |h0| is largest at a corner
        for a in a_range:
            for b in b_range:
                try:
                    spectral.gendenshtein_params(a, b)
                except ValueError as exc:
                    raise ConfigError("invalid scan corner a=%g, b=%g: %s" % (a, b, exc)) from exc
        _require(m >= 2 and m % 2 == 0, "scan order m must be even and >= 2")
        _require(m <= spectral.MAX_ORDER, "scan order m must be at most %d" % spectral.MAX_ORDER)
        _require(na >= 2 and nb >= 2, "scan resolutions must be >= 2")
        _require(na * nb <= spectral.MAX_COUNT,
                 "scan na * nb must be at most %d" % spectral.MAX_COUNT)
        return a_range, b_range, m, na, nb

    def partner_params(self):
        part = _read(self.raw.get("partner"), "partner", "partner command needs a 'partner' block")
        kind, m = part["kind"], part["m"]
        _require(0 <= m <= spectral.MAX_ORDER,
                 "partner order must be from 0 to %d" % spectral.MAX_ORDER)
        _require(kind == "d" or m == 0, "type-c partner supports only m=0 (ground-state erasure)")
        return kind, m


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config line %d: %s" % (exc.lineno, exc.msg)) from exc
    return RunConfig(raw)


# ---------------------------------------------------------------------------
# output records
# ---------------------------------------------------------------------------
#
# A command computes everything first and returns ``(files, passed)``:
# ``files`` maps each output file name to the chunks of its text, and only
# ``main`` writes them.

def _json(payload: dict) -> list:
    return [json.dumps(payload, sort_keys=True, indent=2), "\n"]


def _csv(header: str, columns):
    """The rows of the equal-length float lists ``columns``, one ``%.12g``
    row per sample, generated as they are written."""
    fmt = ",".join(["%.12g"] * len(columns)) + "\n"
    return itertools.chain([header + "\n"], (fmt % row for row in zip(*columns)))


def _level_counts(spectrum) -> dict:
    """The level counts of ``spectrum`` and its notes, such as a level that
    the threshold cut dropped, for ``spectrum.json`` and ``verify.json``."""
    return {"n_max_constructive": spectrum.n_max_constructive,
            "n_max_formula": spectrum.n_max_formula,
            "formula_consistent": spectrum.formula_consistent,
            "notes": list(spectrum.notes)}


def _spectrum_record(spectrum) -> dict:
    return {
        "states": [
            {"n": s.n, "energy": s.energy, "lambda": [s.lam.real, s.lam.imag], "nodes": s.nodes}
            for s in spectrum.states
        ],
        **_level_counts(spectrum),
    }


def _check_record(report, analytic_key: str, nodes=(), **extra) -> dict:
    """A level check as JSON: the grid it was solved on, and one row per level
    with the analytic energy under ``analytic_key``, the budget, the
    observed-order ratio (null where it is not finite) and, given the closed
    forms' node counts ``nodes`` (theorems), level n's and n, the oracle's."""
    rows = []
    for lv in report.levels:
        row = {"n": lv.n, analytic_key: lv.analytic, "numeric": lv.numeric,
               "rel_delta": lv.rel_delta, "error": lv.error,
               "ratio": lv.ratio if math.isfinite(lv.ratio) else None}
        if nodes:
            row.update(nodes_analytic=nodes[lv.n], nodes_numeric=lv.n)
        rows.append(row)
    grid = report.grid and {k: getattr(report.grid, k) for k in ("x_max", "t_max", "n", "dt")}
    return {"tol": report.tol, "passed": report.passed, "grid": grid, "levels": rows, **extra}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------
#
# identities and scan-nodeless are exact and run on spectral and routh alone;
# the commands that sample import the float layer when they run: spectrum
# needs geometry alone, and verify and partner add the oracle (verify and
# oracle).

def _default_map(config: RunConfig):
    """The eigenfunction grid of ``spectrum``, uniform in t = asinh eta: the
    config's grid, or 4,096 points, out to x_max, 1 past the smallest
    quarter where |V| < 1e-3 at both ends."""
    from . import geometry

    x_max = config.x_max or geometry.decay_x_max(config.spec, 1e-3) + 1.0
    t_max = geometry.t_of_x(config.spec.kappa_plus, x_max)
    return geometry.t_grid(x_max, t_max, config.n or 4096)


def cmd_spectrum(config: RunConfig, args) -> tuple:
    from . import geometry

    spec = config.spec
    spectrum = spectral.enumerate_bound_spectrum(spec)
    files = {"spectrum.json": _json(_spectrum_record(spectrum))}
    states = spectrum.states
    if states:
        grid = _default_map(config)
        solutions = [spectral.normalized(spec, s) for s in states]
        psis = geometry.sampled(spec.kappa_plus, solutions, grid.ts)
        geometry.require_finite("eigenfunction", psis)
        header = "x," + ",".join("psi_%d" % s.n for s in states)
        xs = map(geometry.liouville(spec.kappa_plus), grid.ts)  # non-uniform unless kappa = 1
        files["eigenfunctions.csv"] = _csv(header, [xs] + psis)
    return files, True


def cmd_verify(config: RunConfig, args) -> tuple:
    from . import verify

    report, spectrum = verify.verify_spectrum(config.spec, tol=args.tol, x_max=config.x_max,
                                              n=config.n)
    record = _check_record(report, "analytic", [s.nodes for s in spectrum.states],
                           **_level_counts(spectrum))
    return {"verify.json": _json(record)}, report.passed


def _cell_csv(cell) -> str:
    claims = ("" if v is None else str(bool(v)).lower() for v in cell[2:])
    return ",".join(["%.12g" % cell.a, "%.12g" % cell.b, *claims]) + "\n"


def cmd_scan_nodeless(config: RunConfig, args) -> tuple:
    a_range, b_range, m, na, nb = config.scan_params()
    cells = spectral.nodeless_scan(a_range, b_range, m, na=na, nb=nb, workers=args.workers)
    filled = [c for c in cells if c.empirical_nodeless is not None]
    summary = {
        "cells": len(cells),
        "filled": len(filled),
        "threshold_agreement": sum(c.threshold_prediction == c.empirical_nodeless for c in filled),
        "discriminant_agreement": sum(c.discriminant_prediction == c.empirical_nodeless
                                      for c in filled),
        "internally_consistent": all(c.consistent for c in cells if c.consistent is not None),
    }
    files = {"scan.csv": [",".join(spectral.ScanCell._fields) + "\n"]
                         + [_cell_csv(c) for c in cells],
             "scan_summary.json": _json(summary)}
    return files, summary["internally_consistent"]


def cmd_partner(config: RunConfig, args) -> tuple:
    from . import geometry, verify

    kind, m = config.partner_params()
    spectrum = spectral.enumerate_bound_spectrum(config.spec)
    if kind == "d":
        seed = spectral.aeh_solution(config.spec, "d", m)
    elif spectrum.states:
        seed = spectrum.states[0]
    else:
        raise NoSuchRoot("no bound state with index 0")
    expected = spectral.partner_levels(spectrum.energies, seed)
    rungs = verify.oracle_map(config.spec, seed, config.x_max, config.n)
    report, rung = verify.compare_levels(rungs, expected, args.tol)
    xs = map(geometry.liouville(config.spec.kappa_plus), rung.grid.ts)
    files = {"partner.csv": _csv("x,V_parent,V_partner", [xs, *rung.potentials])}
    if not expected:
        return files, True
    files["partner_verify.json"] = _json(_check_record(report, "expected",
                                                       notes=list(spectrum.notes)))
    return files, report.passed


def cmd_identities(config: RunConfig, args) -> tuple:
    from .routh import ode_residual

    spec = config.spec
    spectrum = spectral.enumerate_bound_spectrum(spec)
    stevenson = {"n=%d" % s.n: spectral.stevenson_identity_check(s) for s in spectrum.states}
    quartic_res = {
        "m=%d" % s.n: spectral.quartic_residual_scale(spec, s.n, s.lam.real)
        for s in spectrum.states
    }
    poly_ok = all(not ode_residual(s.poly) for s in spectrum.states)
    # the ODE and Stevenson claims are exact; only the float residuals take a tolerance
    passed = poly_ok and not any(stevenson.values()) and all(
        r < max(args.tol, 1e-9) for r in quartic_res.values())
    payload = {"stevenson_max_dev": stevenson, "quartic_residuals": quartic_res,
               "polynomial_ode_residuals_zero": poly_ok, "passed": passed}
    return {"identities.json": _json(payload)}, passed


COMMANDS = {
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "scan-nodeless": cmd_scan_nodeless,
    "partner": cmd_partner,
    "identities": cmd_identities,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _complain(line: str) -> None:
    """Write ``line`` to stderr.  A stderr closed at start is None, or open on
    a descriptor that cannot be written; the line is then lost, and the exit
    code alone tells what happened."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(line + "\n")
        except OSError:
            pass


def _output_error(exc: OSError) -> int:
    """An ``--out`` that cannot be made or written: one line and exit 2, the
    code of a bad argument."""
    _complain("output error: %s" % exc)
    return 2


# The command line: each flag's type and help line; ``Args`` holds the
# defaults, and a flag without one is required.
_FLAGS = {
    "--config": (str, "JSON run configuration"),
    "--out": (str, "output directory"),
    "--tol": (float, "verification tolerance"),
    "--workers": (int, "scan worker count"),
}


class Args(NamedTuple):
    command: str
    config: str
    out: str = "."
    tol: float = 1e-3
    workers: int = 1


def _argparse(argv) -> Args:
    """``argv`` read by argparse from :data:`_FLAGS`: it prints the help for
    ``-h`` or ``--help`` and exits 0, and prints the usage and one
    ``spectra: error:`` line to stderr and exits 2 on a bad command line."""
    import argparse

    if sys.stderr is None:  # closed at start: argparse would print the usage to stdout
        sys.stderr = open(os.devnull, "w")
    parser = argparse.ArgumentParser(
        prog="spectra", allow_abbrev=False,
        description="Closed-form spectra of Milson/Gendenshtein potentials, "
        "verified against a finite-difference oracle (units: hbar = 2m = 1).")
    parser.add_argument("command", choices=COMMANDS)
    for flag, (kind, text) in _FLAGS.items():
        name = flag[2:]
        parser.add_argument(flag, type=kind, help=text, required=name not in Args._field_defaults,
                            default=Args._field_defaults.get(name))
    return Args(**vars(parser.parse_args(argv)))


def parse_args(argv) -> Args:
    """The command line of the module docstring.  One command from
    ``COMMANDS`` and flags from :data:`_FLAGS`, each ``--flag value`` or
    ``--flag=value`` with a value that converts and does not start with
    ``-``, are read here, the last one given counting; anything else, help
    included, goes to :func:`_argparse`, so a well-formed command line never
    loads argparse."""
    given, tokens = {}, iter(argv)
    try:
        for token in tokens:
            flag, eq, value = token.partition("=")
            if flag in _FLAGS:
                value = value if eq else next(tokens, "-")  # "-": no value follows
                if value.startswith("-"):
                    raise ValueError(value)
                given[flag[2:]] = _FLAGS[flag][0](value)
            elif token in COMMANDS and "command" not in given:
                given["command"] = token
            else:
                raise ValueError(token)
        return Args(**given)  # TypeError without the command or a required flag
    except (ValueError, TypeError):
        return _argparse(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        # inf would pass every level, and NaN or a negative bound none
        _require(math.isfinite(args.tol) and args.tol >= 0,
                 "--tol must be a finite number >= 0, got %r" % args.tol)
        _require(args.workers >= 1, "--workers must be at least 1, got %d" % args.workers)
        config = load_config(args.config)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            return _output_error(exc)
        files, passed = COMMANDS[args.command](config, args)
    except (SpectraError, OverflowError) as exc:
        # an exact quantity beyond the double range (OverflowError) is a numeric
        # failure; samples that are not finite, a t grid that is not strictly
        # increasing or too coarse, or a potential that has not decayed, on a
        # grid the config chose are that grid's fault
        if (isinstance(exc, (NonFiniteSamples, StepFailure, InsufficientDecay))
                and (config.x_max, config.n) != (None, None)):
            exc = ConfigError("grid x_max=%s, n=%s: %s" % (config.x_max, config.n, exc))
        if isinstance(exc, ConfigError):
            _complain("config error: %s" % exc)
            return 2
        _complain("numeric failure: %s: %s" % (type(exc).__name__, exc))
        return 3
    # Nothing is written before the command returns, so a failed command
    # leaves no file; each file appears only when complete.
    digest = sha256(json.dumps(config.raw, sort_keys=True).encode("utf-8")).hexdigest()
    report = {"command": args.command, "inputs_digest": digest, "outputs": sorted(files),
              "passed": passed, "pinned_convention": spectral.pinned_convention()}
    files["report.json"] = _json(report)
    try:
        for name, chunks in files.items():
            path = os.path.join(args.out, name)
            with open(path + ".tmp", "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
            os.replace(path + ".tmp", path)
    except OSError as exc:
        try:
            os.remove(path + ".tmp")
        except OSError:
            pass  # the file was never made
        return _output_error(exc)
    return 0 if passed else 1


def run():
    """The ``spectra`` script and ``python -m rrspectra.cli``: :func:`main`,
    then the process ends through ``os._exit`` with its exit code, after the
    streams are flushed, skipping interpreter finalization.  Only a return
    gets there; ``SystemExit`` and any other exception unwind as usual."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None where its descriptor was closed at start
            try:
                stream.flush()
            except OSError:  # open on a descriptor that cannot be written
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
