"""Batch front end.

    spectra spectrum|verify|scan-nodeless|partner|identities --config FILE
            [--out DIR] [--tol X] [--workers N]

All physical quantities are dimensionless (hbar = 2m = 1).  Config is JSON
with exactly one potential block, either

    {"potential": {"gendenshtein": {"a": 2.5, "b": 0.5}}}
    {"potential": {"milson": {"h0_re": 7.75, "h0_im": 3.0, "kappa_plus": 2.0}}}

plus optional "grid": {"x_max": .., "n": ..} and per-command blocks
("scan": {"a_range": [..], "b_range": [..], "na": .., "nb": .., "m": ..},
 "partner": {"kind": "d", "m": 0}).  A block takes only the keys that
``BLOCK_KEYS`` lists for it; any other key is a config error.

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

Every command is a fresh process, so its imports are part of its cost.
``identities`` and ``scan-nodeless`` run on the exact layer alone, and
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
from .errors import ConfigError, InsufficientDecay, NonFiniteSamples, SpectraError, StepFailure
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

# The keys each config block accepts, checked when the block is read.
BLOCK_KEYS = {
    "gendenshtein": ("a", "b", "O00"),
    "milson": ("h0_re", "h0_im", "kappa_plus", "O00"),
    "grid": ("x_max", "n"),
    "scan": ("a_range", "b_range", "na", "nb", "m"),
    "partner": ("kind", "m"),
}


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _block(block, name: str, what: str) -> dict:
    """``block``, which must be a JSON object (else the config error ``what``)
    holding only the keys :data:`BLOCK_KEYS` lists for ``name``."""
    _require(isinstance(block, dict), what)
    unknown = sorted(set(block).difference(BLOCK_KEYS[name]))
    _require(not unknown, "unknown %s key %s (accepted: %s)" % (
        name, ", ".join(map(repr, unknown)), ", ".join(BLOCK_KEYS[name])))
    return block


def _number(value, what: str, integral: bool = False):
    """``value``, a JSON number, as a finite float, or as an int when
    ``integral``; anything else (inf, NaN, a fraction for an integer, a
    string, a boolean, a list or an object) is a config error."""
    try:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        x = float(value) if number else math.nan
    except OverflowError:
        x = math.nan
    _require(math.isfinite(x), "%s must be a finite number, got %r" % (what, value))
    if not integral:
        return x
    _require(x.is_integer(), "%s must be an integer, got %r" % (what, value))
    return int(value) if isinstance(value, int) else int(x)


class RunConfig:
    def __init__(self, raw: dict):
        _require(isinstance(raw, dict), "config root must be a JSON object")
        self.raw = raw
        pot = raw.get("potential")
        _require(isinstance(pot, dict), "missing 'potential' block")
        _require(len(pot) == 1, "exactly one potential block is required")
        kind, params = next(iter(pot.items()))
        _require(kind in ("gendenshtein", "milson"), "unknown potential kind %r" % kind)
        _block(params, kind, "potential parameters must be an object")

        def field(key, default=None):
            value = params[key] if default is None else params.get(key, default)
            return _number(value, "%s '%s'" % (kind, key))

        try:
            if kind == "gendenshtein":
                a = field("a")
                b = field("b", 0.0)
                _require(a > 0, "gendenshtein 'a' must be positive")
                self.spec = spectral.gendenshtein_params(a, b)
            else:
                h0 = complex(field("h0_re"), field("h0_im", 0.0))
                self.spec = PotentialSpec(h0=h0, kappa_plus=field("kappa_plus"))
        except KeyError as exc:
            raise ConfigError("missing potential field %s" % exc) from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError("invalid potential parameters: %s" % exc) from exc
        if "O00" in params:
            declared = field("O00")
            if abs(declared - self.spec.o00) > 1e-9 * max(1.0, abs(declared)):
                raise ConfigError(
                    "declared O00=%g violates the decay constraint 2*h0_re + 1 = %g"
                    % (declared, self.spec.o00)
                )
        grid = _block(raw.get("grid", {}), "grid", "'grid' must be an object")
        self.x_max = _number(grid["x_max"], "grid 'x_max'") if "x_max" in grid else None
        self.n = _number(grid["n"], "grid 'n'", integral=True) if "n" in grid else None
        if self.x_max is not None:
            _require(self.x_max > 0, "grid x_max must be positive")
        if self.n is not None:
            _require(self.n >= 256, "grid n must be at least 256")
            _require(self.n <= spectral.MAX_COUNT,
                     "grid n must be at most %d" % spectral.MAX_COUNT)

    def scan_params(self):
        scan = _block(self.raw.get("scan"), "scan", "scan command needs a 'scan' block")
        try:
            a_range = [_number(v, "scan 'a_range'") for v in scan["a_range"]]
            b_range = [_number(v, "scan 'b_range'") for v in scan["b_range"]]
        except (KeyError, TypeError) as exc:
            raise ConfigError("malformed scan block: %s" % exc) from exc
        _require(len(a_range) == 2 and a_range[0] < a_range[1], "malformed a_range")
        _require(len(b_range) == 2 and b_range[0] <= b_range[1], "malformed b_range")
        # a non-positive a fails at the low corner, and |h0| is largest at a corner
        for a in a_range:
            for b in b_range:
                try:
                    spectral.gendenshtein_params(a, b)
                except ValueError as exc:
                    raise ConfigError("invalid scan corner a=%g, b=%g: %s" % (a, b, exc)) from exc
        m = _number(scan.get("m", 2), "scan 'm'", integral=True)
        na = _number(scan.get("na", 16), "scan 'na'", integral=True)
        nb = _number(scan.get("nb", 16), "scan 'nb'", integral=True)
        _require(m >= 2 and m % 2 == 0, "scan order m must be even and >= 2")
        _require(m <= spectral.MAX_ORDER, "scan order m must be at most %d" % spectral.MAX_ORDER)
        _require(na >= 2 and nb >= 2, "scan resolutions must be >= 2")
        _require(na * nb <= spectral.MAX_COUNT,
                 "scan na * nb must be at most %d" % spectral.MAX_COUNT)
        return a_range, b_range, m, na, nb

    def partner_params(self):
        part = _block(self.raw.get("partner"), "partner", "partner command needs a 'partner' block")
        kind = part.get("kind", "d")
        _require(kind in ("c", "d"), "partner kind must be 'c' or 'd'")
        m = _number(part.get("m", 0), "partner 'm'", integral=True)
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


def _spectrum_record(spectrum) -> dict:
    return {
        "states": [
            {"n": s.n, "energy": s.energy, "lambda": [s.lam.real, s.lam.imag], "nodes": s.nodes}
            for s in spectrum.states
        ],
        "n_max_constructive": spectrum.n_max_constructive,
        "n_max_formula": spectrum.n_max_formula,
        "formula_consistent": spectrum.formula_consistent,
        "notes": list(spectrum.notes),
    }


def _check_record(report, analytic_key: str, **extra) -> dict:
    """A level check as JSON: the grid it was solved on, and one row per level
    with the analytic energy under ``analytic_key``, the budget and the
    observed-order ratio (null where it is not finite), and the node counts
    where the closed form claims one."""
    rows = []
    for lv in report.levels:
        row = {"n": lv.n, analytic_key: lv.analytic, "numeric": lv.numeric,
               "rel_delta": lv.rel_delta, "error": lv.error,
               "ratio": lv.ratio if math.isfinite(lv.ratio) else None}
        if lv.nodes_analytic is not None:
            row.update(nodes_analytic=lv.nodes_analytic, nodes_numeric=lv.nodes_numeric)
        rows.append(row)
    grid = report.grid and dict(zip(("x_max", "n", "dx"), report.grid))
    return {"tol": report.tol, "passed": report.passed, "grid": grid, "levels": rows, **extra}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------
#
# identities and scan-nodeless are exact and run on spectral and routh alone;
# the commands that sample import the float layer when they run: spectrum
# needs geometry alone, and verify and partner add the oracle (verify,
# darboux and oracle).

def _default_map(config: RunConfig):
    """The eigenfunction map of ``spectrum``: the config's grid, or 4,096
    points out to 1 past the smallest quarter where |V| < 1e-3 at both ends."""
    from . import geometry

    x_max = config.x_max or geometry.decay_x_max(config.spec, 1e-3) + 1.0
    return geometry.VariableMap(config.spec.kappa_plus, x_max, config.n or 4096)


def cmd_spectrum(config: RunConfig, args) -> tuple:
    from . import geometry

    spec = config.spec
    spectrum = spectral.enumerate_bound_spectrum(spec)
    files = {"spectrum.json": _json(_spectrum_record(spectrum))}
    states = spectrum.states
    if states:
        vmap = _default_map(config)
        psis = geometry.sampled([spectral.normalized(spec, s) for s in states], vmap)
        geometry.require_finite("eigenfunction", psis)
        header = "x," + ",".join("psi_%d" % s.n for s in states)
        files["eigenfunctions.csv"] = _csv(header, [vmap.x_grid] + psis)
    return files, True


def cmd_verify(config: RunConfig, args) -> tuple:
    from . import verify

    report, spectrum = verify.verify_spectrum(config.spec, tol=args.tol, x_max=config.x_max,
                                              n=config.n)
    record = _check_record(report, "analytic", n_max_formula=spectrum.n_max_formula,
                           n_max_constructive=spectrum.n_max_constructive,
                           formula_consistent=spectrum.formula_consistent)
    return {"verify.json": _json(record)}, report.passed


_SCAN_HEADER = "a,b,empirical_nodeless,threshold_prediction,discriminant_prediction,consistent\n"


def _cell_csv(cell) -> str:
    def fmt(v):
        return "" if v is None else str(bool(v)).lower()

    return "%.12g,%.12g,%s,%s,%s,%s\n" % (
        cell.a, cell.b,
        fmt(cell.empirical_nodeless),
        fmt(cell.threshold_prediction),
        fmt(cell.discriminant_prediction),
        fmt(cell.consistent),
    )


def cmd_scan_nodeless(config: RunConfig, args) -> tuple:
    a_range, b_range, m, na, nb = config.scan_params()
    cells = spectral.nodeless_scan(a_range, b_range, m, na=na, nb=nb, workers=args.workers)
    agree_thresh = sum(
        1 for c in cells
        if c.empirical_nodeless is not None and c.threshold_prediction == c.empirical_nodeless
    )
    agree_disc = sum(
        1 for c in cells
        if c.empirical_nodeless is not None and c.discriminant_prediction == c.empirical_nodeless
    )
    filled = sum(1 for c in cells if c.empirical_nodeless is not None)
    summary = {
        "cells": len(cells),
        "filled": filled,
        "threshold_agreement": agree_thresh,
        "discriminant_agreement": agree_disc,
        "internally_consistent": all(c.consistent for c in cells if c.consistent is not None),
    }
    files = {"scan.csv": [_SCAN_HEADER] + [_cell_csv(c) for c in cells],
             "scan_summary.json": _json(summary)}
    return files, summary["internally_consistent"]


def cmd_partner(config: RunConfig, args) -> tuple:
    from . import darboux, verify

    kind, m = config.partner_params()
    spectrum = spectral.enumerate_bound_spectrum(config.spec)
    if kind == "d":
        seed = spectral.aeh_solution(config.spec, "d", m)
    else:
        seed = spectral.bound_state(spectrum, 0)
    expected = darboux.partner_levels(spectrum.energies, seed)
    rungs = verify.oracle_map(
        config.spec, lambda etas: darboux.partner_potential(config.spec, seed, etas),
        config.x_max, config.n)
    report, vmap, (v_parent, v_partner) = verify.verify_partner_levels(rungs, expected, args.tol)
    files = {"partner.csv": _csv("x,V_parent,V_partner", [vmap.x_grid, v_parent, v_partner])}
    if not expected:
        return files, True
    files["partner_verify.json"] = _json(_check_record(report, "expected"))
    return files, report.passed


def cmd_identities(config: RunConfig, args) -> tuple:
    from .routh import ode_residual

    spec = config.spec
    spectrum = spectral.enumerate_bound_spectrum(spec)
    stevenson = {"n=%d" % s.n: spectral.stevenson_identity_check(s) for s in spectrum.states}
    # at a level energy lambda_R > n + 1/2, so the branch point is never met
    sigma_rho = [spectral.milson_sigma_rho(spec, s.energy) for s in spectrum.states]
    quartic_res = {
        "m=%d" % s.n: spectral.quartic_residual_scale(spec, s.n, s.lam.real)
        for s in spectrum.states
    }
    poly_ok = all(not ode_residual(s.poly) for s in spectrum.states)
    payload = {
        "stevenson_max_dev": stevenson,
        "sigma_rho": {
            "sum_identity_dev": max((r.sum_identity_dev for r in sigma_rho), default=0.0),
            "product_identity_dev": max((r.product_identity_dev for r in sigma_rho), default=0.0),
        },
        "quartic_residuals": quartic_res,
        "polynomial_ode_residuals_zero": poly_ok,
    }
    # the ODE and Stevenson claims are exact; only the float residuals take a tolerance
    worst = max([*payload["sigma_rho"].values(), *quartic_res.values()])
    passed = bool(poly_ok and not any(stevenson.values()) and worst < max(args.tol, 1e-9))
    payload["passed"] = passed
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


USAGE = ("usage: spectra [-h] --config CONFIG [--out OUT] [--tol TOL]\n"
         "               [--workers WORKERS]\n"
         "               {%s}\n" % ",".join(COMMANDS))
HELP = USAGE + """
Closed-form spectra of Milson/Gendenshtein potentials, verified against a
finite-difference oracle (units: hbar = 2m = 1).

positional arguments:
  {%s}

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON run configuration
  --out OUT             output directory
  --tol TOL             verification tolerance
  --workers WORKERS     scan worker count
""" % ",".join(COMMANDS)
_FLAGS = {"--config": str, "--out": str, "--tol": float, "--workers": int}


class Args(NamedTuple):
    command: str
    config: str
    out: str = "."
    tol: float = 1e-3
    workers: int = 1


def _usage_error(message: str):
    _complain(USAGE + "spectra: error: " + message)
    raise SystemExit(2)


def parse_args(argv) -> Args:
    """The command line of the module docstring: one command from
    ``COMMANDS``, and each flag as ``--flag value`` or ``--flag=value``, the
    last one given counting.  ``-h`` or ``--help`` prints :data:`HELP` and
    exits 0; anything else that does not fit prints :data:`USAGE` and one
    ``spectra: error:`` line to stderr, and exits 2."""
    given, extras = {}, []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(HELP)
            raise SystemExit(0)
        flag, eq, value = token.partition("=")
        if flag in _FLAGS:
            value = value if eq else next(tokens, None)
            if value is None:
                _usage_error("argument %s: expected one argument" % flag)
            try:
                given[flag[2:]] = _FLAGS[flag](value)
            except ValueError:
                _usage_error("argument %s: invalid %s value: %r"
                             % (flag, _FLAGS[flag].__name__, value))
        elif token.startswith("-") or "command" in given:
            extras.append(token)
        elif token in COMMANDS:
            given["command"] = token
        else:
            _usage_error("argument command: invalid choice: %r (choose from %s)"
                         % (token, ", ".join(map(repr, COMMANDS))))
    missing = [name for name in ("command", "--config") if name.lstrip("-") not in given]
    if missing:
        _usage_error("the following arguments are required: " + ", ".join(missing))
    if extras:
        _usage_error("unrecognized arguments: " + " ".join(extras))
    return Args(**given)


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
        # failure; samples that are not finite, a map that cannot be built, or
        # a potential that has not decayed, on a grid the config chose are that
        # grid's fault
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
