"""Batch front end.

    spectra spectrum|verify|scan-nodeless|partner|identities --config FILE
            [--out DIR] [--tol X] [--workers N]

All physical quantities are dimensionless (hbar = 2m = 1).  Config is JSON
with exactly one potential block, either

    {"potential": {"gendenshtein": {"a": 2.5, "b": 0.5}}}
    {"potential": {"milson": {"h0_re": 7.75, "h0_im": 3.0, "kappa_plus": 2.0}}}

plus optional "grid": {"x_max": .., "n": ..} and per-command blocks
("scan": {"a_range": [..], "b_range": [..], "na": .., "nb": .., "m": ..},
 "partner": {"kind": "d", "m": 0}).

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numeric
failure.  Identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys

from . import spectral
from .errors import ConfigError, NonFiniteSamples, SpectraError
from .spectral import PotentialSpec, TangentPolySpec


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# Largest grid point count n and scan cell count na * nb: about 100 times the
# largest grid in use, and a 1024 x 1024 map.
MAX_COUNT = 2 ** 20


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _number(value, what: str, integral: bool = False):
    """``value`` as a finite float, or as an int when ``integral``; anything
    else (inf, NaN, a fraction for an integer, a non-number) is a config error."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
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
        _require(isinstance(params, dict), "potential parameters must be an object")

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
                tp = TangentPolySpec(a=field("a", 1.0), kappa_plus=field("kappa_plus"))
                self.spec = PotentialSpec(h0=h0, tp=tp)
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
        grid = raw.get("grid", {})
        _require(isinstance(grid, dict), "'grid' must be an object")
        self.x_max = _number(grid["x_max"], "grid 'x_max'") if "x_max" in grid else None
        self.n = _number(grid["n"], "grid 'n'", integral=True) if "n" in grid else None
        if self.x_max is not None:
            _require(self.x_max > 0, "grid x_max must be positive")
        if self.n is not None:
            _require(self.n >= 256, "grid n must be at least 256")
            _require(self.n <= MAX_COUNT, "grid n must be at most %d" % MAX_COUNT)

    def scan_params(self):
        scan = self.raw.get("scan")
        _require(isinstance(scan, dict), "scan command needs a 'scan' block")
        try:
            a_range = [_number(v, "scan 'a_range'") for v in scan["a_range"]]
            b_range = [_number(v, "scan 'b_range'") for v in scan["b_range"]]
        except (KeyError, TypeError) as exc:
            raise ConfigError("malformed scan block: %s" % exc) from exc
        _require(len(a_range) == 2 and a_range[0] < a_range[1], "malformed a_range")
        _require(len(b_range) == 2 and b_range[0] <= b_range[1], "malformed b_range")
        m = _number(scan.get("m", 2), "scan 'm'", integral=True)
        na = _number(scan.get("na", 16), "scan 'na'", integral=True)
        nb = _number(scan.get("nb", 16), "scan 'nb'", integral=True)
        _require(m >= 2 and m % 2 == 0, "scan order m must be even and >= 2")
        _require(na >= 2 and nb >= 2, "scan resolutions must be >= 2")
        _require(na * nb <= MAX_COUNT, "scan na * nb must be at most %d" % MAX_COUNT)
        return a_range, b_range, m, na, nb

    def partner_params(self):
        part = self.raw.get("partner")
        _require(isinstance(part, dict), "partner command needs a 'partner' block")
        kind = part.get("kind", "d")
        _require(kind in ("c", "d"), "partner kind must be 'c' or 'd'")
        m = _number(part.get("m", 0), "partner 'm'", integral=True)
        _require(m >= 0, "partner order must be nonnegative")
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
# output plumbing
# ---------------------------------------------------------------------------

def _atomic_write(path: str, chunks) -> None:
    """Write the strings ``chunks`` to a temporary file, then move it onto ``path``."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def _dump_json(path: str, payload: dict) -> None:
    _atomic_write(path, [json.dumps(payload, sort_keys=True, indent=2), "\n"])


def _write_csv(path: str, header: str, columns) -> None:
    """One ``%.12g`` row per sample of the equal-length arrays ``columns``,
    streamed row by row."""
    fmt = ",".join(["%.12g"] * len(columns)) + "\n"
    rows = (fmt % row for row in zip(*(c.tolist() for c in columns)))
    _atomic_write(path, itertools.chain([header + "\n"], rows))


def _report_record(command: str, config: RunConfig, outputs, passed: bool) -> dict:
    digest = hashlib.sha256(
        json.dumps(config.raw, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return {
        "command": command,
        "inputs_digest": digest,
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "passed": passed,
        "pinned_convention": spectral.pinned_convention(),
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------
#
# identities and scan-nodeless are exact and run on spectral and routh alone;
# the commands that sample import the float layer (geometry, verify, darboux,
# and through them numpy) when they run, so the exact ones never load it.

def _default_map(config: RunConfig):
    """The eigenfunction map of ``spectrum``: the config's grid, or 4,096
    points over the potential's decay scale."""
    from . import geometry

    x_max = config.x_max or geometry.choose_x_max(config.spec)
    return geometry.VariableMap(config.spec.tp, x_max, config.n or 4096)


def cmd_spectrum(config: RunConfig, out_dir: str) -> int:
    from . import geometry

    spectrum = spectral.enumerate_bound_spectrum(config.spec)
    states = spectrum.states
    if states:
        vmap = _default_map(config)
        psis = [geometry.sampled(spectral.bound_state(config.spec, s.n), vmap) for s in states]
        geometry.require_finite("eigenfunction", psis)
    spath = os.path.join(out_dir, "spectrum.json")
    _dump_json(spath, spectrum.to_json_dict())
    outputs = [spath]
    if states:
        cpath = os.path.join(out_dir, "eigenfunctions.csv")
        header = "x," + ",".join("psi_%d" % s.n for s in states)
        _write_csv(cpath, header, [vmap.x_grid] + psis)
        outputs.append(cpath)
    _dump_json(os.path.join(out_dir, "report.json"),
               _report_record("spectrum", config, outputs, True))
    return 0


def cmd_verify(config: RunConfig, out_dir: str, tol: float) -> int:
    from . import verify

    report = verify.verify_spectrum(config.spec, tol=tol, x_max=config.x_max, n=config.n)
    vpath = os.path.join(out_dir, "verify.json")
    _dump_json(vpath, report.to_json_dict())
    _dump_json(os.path.join(out_dir, "report.json"),
               _report_record("verify", config, [vpath], report.passed))
    return 0 if report.passed else 1


_SCAN_HEADER = "a,b,empirical_nodeless,threshold_prediction,discriminant_prediction,consistent"


def _cell_csv(cell) -> str:
    def fmt(v):
        return "" if v is None else str(bool(v)).lower()

    return "%.12g,%.12g,%s,%s,%s,%s" % (
        cell.a, cell.b,
        fmt(cell.empirical_nodeless),
        fmt(cell.threshold_prediction),
        fmt(cell.discriminant_prediction),
        fmt(cell.consistent),
    )


def cmd_scan_nodeless(config: RunConfig, out_dir: str, workers: int) -> int:
    a_range, b_range, m, na, nb = config.scan_params()
    cells = spectral.nodeless_scan(a_range, b_range, m, na=na, nb=nb, workers=workers)
    cpath = os.path.join(out_dir, "scan.csv")
    _atomic_write(cpath, ["\n".join([_SCAN_HEADER] + [_cell_csv(c) for c in cells]), "\n"])
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
    spath = os.path.join(out_dir, "scan_summary.json")
    _dump_json(spath, summary)
    _dump_json(os.path.join(out_dir, "report.json"),
               _report_record("scan-nodeless", config, [cpath, spath],
                              summary["internally_consistent"]))
    return 0


def cmd_partner(config: RunConfig, out_dir: str, tol: float) -> int:
    from . import darboux, geometry, verify

    kind, m = config.partner_params()
    parent = spectral.enumerate_bound_spectrum(config.spec).energies
    if kind == "d":
        seed = spectral.aeh_solution(config.spec, "d", m)
    else:
        if m != 0:
            raise ConfigError("type-c partner supports only m=0 (ground-state erasure)")
        seed = spectral.bound_state(config.spec, 0)
    expected = darboux.partner_levels(parent, seed)
    vmap = verify.oracle_map(config.spec, expected or parent, config.x_max, config.n)
    partner_grid = darboux.partner_potential(config.spec, seed, vmap)
    geometry.require_finite("potential", [partner_grid.v_parent, partner_grid.v_partner])
    cpath = os.path.join(out_dir, "partner.csv")
    _write_csv(cpath, "x,V_parent,V_partner",
               [partner_grid.x, partner_grid.v_parent, partner_grid.v_partner])
    outputs = [cpath]
    passed = True
    if expected:
        report = verify.verify_partner_levels(vmap, partner_grid, expected, tol=tol)
        rpath = os.path.join(out_dir, "partner_verify.json")
        _dump_json(rpath, report.to_json_dict())
        outputs.append(rpath)
        passed = report.passed
    _dump_json(os.path.join(out_dir, "report.json"),
               _report_record("partner", config, outputs, passed))
    return 0 if passed else 1


def cmd_identities(config: RunConfig, out_dir: str, tol: float) -> int:
    from .routh import ode_residual, routh_polynomial, routh_rodrigues

    spec = config.spec
    spectrum = spectral.enumerate_bound_spectrum(spec)
    stevenson = {"n=%d" % s.n: spectral.stevenson_identity_check(s) for s in spectrum.states[:4]}
    sig = spectral.milson_sigma_rho(spec, -1.0)
    quartic_res = {
        "m=%d" % s.n: spectral.quartic_residual_scale(spec, s.n, s.lam.real)
        for s in spectrum.states
    }
    poly_ok = True
    for m in range(5):
        idx = complex(-2.0, 0.7)
        if not ode_residual(routh_polynomial(m, idx)).is_zero:
            poly_ok = False
        if not ode_residual(routh_rodrigues(m, idx)).is_zero:
            poly_ok = False
    payload = {
        "stevenson_max_dev": stevenson,
        "sigma_rho": {
            "sum_identity_dev": sig.sum_identity_dev,
            "product_identity_dev": sig.product_identity_dev,
        },
        "quartic_residuals": quartic_res,
        "polynomial_ode_residuals_zero": poly_ok,
    }
    worst = max(
        [v for v in stevenson.values()]
        + [sig.sum_identity_dev, sig.product_identity_dev]
        + list(quartic_res.values()),
        default=0.0,
    )
    passed = bool(poly_ok and worst < max(tol, 1e-9))
    payload["passed"] = passed
    ipath = os.path.join(out_dir, "identities.json")
    _dump_json(ipath, payload)
    _dump_json(os.path.join(out_dir, "report.json"),
               _report_record("identities", config, [ipath], passed))
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectra",
        description="Closed-form spectra of Milson/Gendenshtein potentials, "
        "verified against a finite-difference oracle (units: hbar = 2m = 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "verify", "scan-nodeless", "partner", "identities"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol", type=float, default=1e-3, help="verification tolerance")
        p.add_argument("--workers", type=int, default=1, help="scan worker count")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "spectrum":
            return cmd_spectrum(config, args.out)
        if args.command == "verify":
            return cmd_verify(config, args.out, args.tol)
        if args.command == "scan-nodeless":
            return cmd_scan_nodeless(config, args.out, args.workers)
        if args.command == "partner":
            return cmd_partner(config, args.out, args.tol)
        if args.command == "identities":
            return cmd_identities(config, args.out, args.tol)
        raise ConfigError("unknown command %r" % args.command)
    except SpectraError as exc:
        # samples that are not finite on a grid the config chose are that grid's fault
        if isinstance(exc, NonFiniteSamples) and (config.x_max, config.n) != (None, None):
            exc = ConfigError("grid x_max=%s, n=%s: %s" % (config.x_max, config.n, exc))
        if isinstance(exc, ConfigError):
            print("config error: %s" % exc, file=sys.stderr)
            return 2
        print("numeric failure: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
