"""Layer spans for one ``spectra`` command, and their per-layer totals.

Run as a script, this is the traced command wrapper:

    python -X importtime perfbench/layertrace.py SPANS.json <spectra args...>

It imports ``rrspectra.cli``, rebinds the public functions listed in
``LAYERS`` in every ``rrspectra`` module namespace that holds them (for
example ``real_roots`` in ``routh``, ``spectral`` and ``darboux``), runs
``cli.main`` and writes the spans and cache statistics to SPANS.json at exit,
whatever the outcome.  A span is ``[name, start, end, parent, work]``; the
parent is an index into the span list (-1 for the root ``cli.main``) and
``work`` is a count the layer did (grid points, sweep points, levels).

Imported, the module only aggregates span files; it starts nothing.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "spectral": ("pinned_convention", "enumerate_bound_spectrum", "quartic_lambda_roots",
                 "aeh_solution", "assemble_eigenfunction", "_scan_cell"),
    "routh": ("real_roots", "routh_polynomial", "discriminant_order2"),
    "oracle": ("numerov_spectrum", "adaptive_quadrature", "count_sign_changes"),
    "_kernels": ("sweep",),
    "geometry": ("potential_of_eta",),
    "darboux": ("partner_potential",),
    "verify": ("oracle_grid_for", "verify_spectrum", "verify_partner_levels"),
}


def _work(name: str, args, result):
    """The count a call contributes to its layer's work, or None."""
    if name == "oracle.numerov_spectrum":
        return [args[0].n, len(result)]  # grid points, levels found
    if name == "_kernels.sweep":
        return len(args[0])  # point updates
    return None


def _install(spans: list, stack: list) -> None:
    def wrap(name, fn):
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                spans[idx][4] = _work(name, args, result)
                return result
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        traced.__wrapped__ = fn
        return traced

    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "rrspectra" or key.startswith("rrspectra."))]
    for layer, names in LAYERS.items():
        home = sys.modules["rrspectra." + layer]
        for fname in names:
            original = getattr(home, fname)
            traced = wrap("%s.%s" % (layer, fname), original)
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, traced)
    # VariableMap is a class; wrapping __init__ reaches every constructor call.
    vmap_cls = sys.modules["rrspectra.geometry"].VariableMap
    vmap_cls.__init__ = wrap("geometry.VariableMap", vmap_cls.__init__)


def main(argv: list) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from rrspectra import cli, routh, spectral

    caches = {  # the lru_cache objects themselves, before _install rebinds names
        "spectral.enumerate_bound_spectrum": spectral.enumerate_bound_spectrum,
        "routh.cache": routh._routh_cached,
    }
    spans: list = []
    stack: list = []
    _install(spans, stack)
    spans.append(["cli.main", time.perf_counter(), None, -1, None])
    stack.append(0)
    try:
        return cli.main(cli_args)
    finally:
        spans[0][2] = time.perf_counter()
        infos = {key: fn.cache_info() for key, fn in caches.items()}
        record = {"spans": spans,
                  "caches": {key: [i.hits, i.misses] for key, i in infos.items()}}
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


# ---------------------------------------------------------------------------
# aggregation (used by run.py)
# ---------------------------------------------------------------------------

IMPORT_PACKAGES = ("numpy", "scipy", "sympy", "rrspectra")


def import_self_seconds(stderr_text: str) -> dict:
    """Self import time per top-level package from ``-X importtime`` lines."""
    out = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the column header line
        top = parts[2].strip().split(".")[0]
        if top in out:
            out[top] += int(parts[0]) * 1e-6
    return out


def unit_of(name: str) -> str:
    if name == "oracle.sweep_mpts_per_s":
        return "Mpts/s"
    if name.endswith(("hit_ratio", "overhead_frac")):
        return "frac"
    if name.endswith(("_s", "_s_per_cell")):
        return "s"
    if name == "cli.bytes_written":
        return "B"
    return "count"


class LayerTotals:
    """Per-layer sums over the traced commands of one run."""

    def __init__(self):
        self.commands = 0
        self.inclusive = defaultdict(float)  # name -> seconds, outermost calls only
        self.calls = defaultdict(int)
        self.cli_self = 0.0
        self.solves = 0  # numerov_spectrum calls that returned
        self.grid_points = 0
        self.levels_found = 0
        self.point_updates = 0
        self.scan_cells = 0
        self.real_roots_in_cells = 0
        self.caches = defaultdict(lambda: [0, 0])
        self.imports = dict.fromkeys(IMPORT_PACKAGES, 0.0)
        self.bytes_written = 0

    def add(self, record: dict, import_stderr: str, bytes_written: int) -> None:
        spans = record["spans"]
        self.commands += 1
        self.bytes_written += bytes_written
        for pkg, sec in import_self_seconds(import_stderr).items():
            self.imports[pkg] += sec
        for key, (hits, misses) in record["caches"].items():
            self.caches[key][0] += hits
            self.caches[key][1] += misses
        children = defaultdict(float)
        for i, (name, t0, t1, parent, work) in enumerate(spans):
            if parent >= 0:
                children[parent] += t1 - t0
            self.calls[name] += 1
            ancestors = self._ancestors(spans, i)
            if name not in ancestors:
                self.inclusive[name] += t1 - t0
            # work is None for a call that raised
            if name == "oracle.numerov_spectrum" and work is not None:
                self.solves += 1
                self.grid_points += work[0]
                self.levels_found += work[1]
            elif name == "_kernels.sweep" and work is not None:
                self.point_updates += work
            elif name == "spectral._scan_cell":
                self.scan_cells += 1
            elif name == "routh.real_roots" and "spectral._scan_cell" in ancestors:
                self.real_roots_in_cells += 1
        root = spans[0]
        self.cli_self += (root[2] - root[1]) - children[0]

    @staticmethod
    def _ancestors(spans: list, i: int) -> set:
        names = set()
        parent = spans[i][3]
        while parent >= 0:
            names.add(spans[parent][0])
            parent = spans[parent][3]
        return names

    def metrics(self) -> dict:
        """Per-layer metrics; ``_s`` and ``.calls`` are per traced command."""
        per = 1.0 / max(self.commands, 1)

        def sec(name):
            return self.inclusive[name] * per

        def ratio(num, den):
            return num / den if den else 0.0

        def hit_ratio(key):
            hits, misses = self.caches[key]
            return ratio(hits, hits + misses)

        sweep_s = self.inclusive["_kernels.sweep"]
        return {
            "import.numpy_s": self.imports["numpy"] * per,
            "import.scipy_s": self.imports["scipy"] * per,
            "import.sympy_s": self.imports["sympy"] * per,
            "import.rrspectra_s": self.imports["rrspectra"] * per,
            "spectral.pinned_convention_s": sec("spectral.pinned_convention"),
            "spectral.enumerate_bound_spectrum_s": sec("spectral.enumerate_bound_spectrum"),
            "spectral.enumerate_bound_spectrum.calls": self.calls["spectral.enumerate_bound_spectrum"] * per,
            "spectral.enumerate_bound_spectrum.hit_ratio": hit_ratio("spectral.enumerate_bound_spectrum"),
            "spectral.quartic_lambda_roots_s": sec("spectral.quartic_lambda_roots"),
            "spectral.aeh_solution_s": sec("spectral.aeh_solution"),
            "spectral.assemble_eigenfunction_s": sec("spectral.assemble_eigenfunction"),
            "spectral.nodeless_scan_s_per_cell": ratio(self.inclusive["spectral._scan_cell"], self.scan_cells),
            "routh.real_roots_s": sec("routh.real_roots"),
            "routh.real_roots.calls": self.calls["routh.real_roots"] * per,
            "routh.real_roots.calls_per_cell": ratio(self.real_roots_in_cells, self.scan_cells),
            "routh.routh_polynomial_s": sec("routh.routh_polynomial"),
            "routh.routh_polynomial.calls": self.calls["routh.routh_polynomial"] * per,
            "routh.cache.hit_ratio": hit_ratio("routh.cache"),
            "routh.discriminant_order2_s": sec("routh.discriminant_order2"),
            "oracle.numerov_spectrum_s": sec("oracle.numerov_spectrum"),
            "oracle.numerov_spectrum.calls": self.calls["oracle.numerov_spectrum"] * per,
            "oracle.numerov_spectrum.grid_points": ratio(self.grid_points, self.solves),
            "oracle.sweeps_per_level": ratio(self.calls["_kernels.sweep"], self.levels_found),
            "oracle.point_updates": self.point_updates * per,
            "oracle.sweep_mpts_per_s": ratio(self.point_updates, sweep_s) * 1e-6,
            "oracle.adaptive_quadrature_s": sec("oracle.adaptive_quadrature"),
            "oracle.adaptive_quadrature.calls": self.calls["oracle.adaptive_quadrature"] * per,
            "oracle.count_sign_changes_s": sec("oracle.count_sign_changes"),
            "oracle.count_sign_changes.calls": self.calls["oracle.count_sign_changes"] * per,
            "geometry.VariableMap_s": sec("geometry.VariableMap"),
            "geometry.VariableMap.calls": self.calls["geometry.VariableMap"] * per,
            "geometry.potential_of_eta_s": sec("geometry.potential_of_eta"),
            "darboux.partner_potential_s": sec("darboux.partner_potential"),
            "verify.oracle_grid_for_s": sec("verify.oracle_grid_for"),
            "verify.verify_spectrum_s": sec("verify.verify_spectrum"),
            "verify.verify_partner_levels_s": sec("verify.verify_partner_levels"),
            "cli.self_s": self.cli_self * per,
            "cli.bytes_written": self.bytes_written * per,
        }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
