"""The rrspectra benchmark: seeded ``spectra`` commands in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
Every command is a fresh ``python -m rrspectra.cli ... --workers 1``
subprocess with ``PYTHONPATH=src``, issued one at a time by a single client,
because users pay interpreter start and imports on every command.  A run
is a fixed number of command cycles, set by the workload and ``--seconds``.
Config files are generated from the seed under ``.bench_work/`` and removed
at the end.  Every output is checked (see ``checks.py``) before the command
counts as a success.  Reported times are scaled by a reference import that
runs between the commands (see ``REFERENCE_CODE``), because this machine's
speed drifts.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each command
once through ``layertrace.py`` and once plain, and prints the per-layer
metrics plus the tracing overhead.  Human-readable lines (machine facts,
failures, every metric with its unit) come first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The workloads and metrics are documented in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

import checks
import layertrace
import workloads

CMD_TIMEOUT_S = 60.0  # a command still running then is killed and failed
SETUP_REPS = 3  # spread evenly over the run, first and last included
# The reference: interpreter start plus the third-party imports every command
# pays.  It runs no rrspectra code, so no change to the program moves it.  One
# runs first and then after every REFERENCE_EVERY timed children (commands and
# set-up samples); times are reported as if their median were REFERENCE_S.
REFERENCE_CODE = "import numpy, scipy.integrate, sympy"
REFERENCE_EVERY = 3
REFERENCE_S = 1.0
MAX_MEASURE_FACTOR = 4  # no new cycle starts after this many times --seconds
SETUP_CODE = ("import rrspectra, rrspectra.cli; rrspectra.spectral.pinned_convention(); "
              "print(rrspectra.KERNEL_BACKEND)")
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
CHILD_ENV = {
    # One BLAS thread per child: commands run one at a time on a 2-core box.
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # Fixed string hashing, so sympy's set and dict orders repeat run to run.
    "PYTHONHASHSEED": "0",
}
HERE = os.path.dirname(os.path.abspath(__file__))
END_TO_END_UNITS = {
    "setup_s": "s",
    "cmd_s.p50": "s",
    "cmd_s.tail": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# work_per_s under the workload's own name, and what one unit of work is.
WORK = {
    "cli_mix": ("commands_per_s", "commands"),
    "oracle_verify": ("oracle_levels_per_s", "analytic levels checked by the oracle"),
    "scan_grid": ("scan_cells_per_s", "scan cells written"),
}


class Child:
    """Wall time, exit code and peak RSS of one finished subprocess."""

    def __init__(self, argv, env, cwd, stdout_path, stderr_path):
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
            timer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()  # never leave a child behind, even on interrupt
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.seconds = time.perf_counter() - t0
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.max_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        with open(stdout_path, encoding="utf-8", errors="replace") as fh:
            self.stdout = fh.read()
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            self.stderr = fh.read()


class Tally:
    """Attempted and failed commands, and outputs that were silently wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.silently_wrong = 0
        self.reasons = []

    def record(self, command, cfg, out, child, label) -> bool:
        problems = checks.outcome(command, cfg, out, child.exit_code)
        self.attempted += 1
        if problems:
            self.failed += 1
            if child.exit_code == 0:
                self.silently_wrong += 1
            tail = child.stderr.strip().splitlines()[-1:] if child.exit_code else []
            self.reasons.append("%s %s: %s" % (label, command, "; ".join(problems + tail)))
        return not problems


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the warm-up must leave .pyc files
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update(CHILD_ENV)
    return env


def machine_facts(seed: int, backend: str) -> dict:
    cache = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            cache["L%s" % level] = size
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache": cache,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "sympy": metadata.version("sympy"),
        "kernel_backend": backend,
        "child_env": CHILD_ENV,
    }


def tail_percentile(samples: list) -> tuple:
    """(percentile, value): the highest nearest-rank percentile with at least
    TAIL_BEYOND samples above it, never below the median.  With fewer than
    2 * TAIL_BEYOND + 2 samples that is the (upper) median itself."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, n // 2)
    return 100.0 * (k + 1) / n, ordered[k]


def bytes_in(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def work_done(workload: str, out: str) -> int:
    if workload == "cli_mix":
        return 1
    if workload == "scan_grid":
        with open(os.path.join(out, "scan.csv"), encoding="utf-8") as fh:
            return sum(1 for _ in fh) - 1
    name = "verify.json" if os.path.exists(os.path.join(out, "verify.json")) else "partner_verify.json"
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return len(json.load(fh)["levels"])


class Runner:
    def __init__(self, root: str, work: str, workload: str, seed: int):
        self.work = work
        self.workload = workload
        self.seed = seed
        self.env = child_env(root)
        self.tally = Tally()
        self.log = []
        self.count = 0

    def _paths(self, tag: str) -> tuple:
        self.count += 1
        base = os.path.join(self.work, "%04d-%s" % (self.count, tag))
        os.makedirs(base)
        return base, os.path.join(base, "out"), os.path.join(base, "stdout"), os.path.join(base, "stderr")

    def config(self, index: int) -> tuple:
        command, cfg = workloads.make_config(self.workload, self.seed, index)
        path = os.path.join(self.work, "cfg-%04d.json" % index)
        if not os.path.exists(path):
            with open(path, "wb") as fh:
                fh.write(workloads.config_bytes(cfg))
        return command, cfg, path

    def command(self, index: int, traced: bool, label: str):
        """Run the index-th command; returns (child, ok, out dir, spans file)."""
        command, cfg, cfg_path = self.config(index)
        base, out, so, se = self._paths(label)
        spans = os.path.join(base, "spans.json")
        args = [command, "--config", cfg_path, "--out", out, "--workers", "1"]
        if traced:
            argv = [sys.executable, "-X", "importtime", os.path.join(HERE, "layertrace.py"), spans] + args
        else:
            argv = [sys.executable, "-m", "rrspectra.cli"] + args
        child = Child(argv, self.env, base, so, se)
        ok = self.tally.record(command, cfg, out, child, "#%d %s" % (index, label))
        what = "m=%d" % cfg["scan"]["m"] if "scan" in cfg else next(iter(cfg["potential"]))
        self.log.append("#%-3d %-6s %-13s %-12s %7.3f s %s" % (
            index, label, command, what, child.seconds, "ok" if ok else "FAILED"))
        return child, ok, out, spans

    def interpreter(self, tag: str, code: str) -> tuple:
        """(seconds, stdout) of one fresh interpreter running ``code``."""
        base, _out, so, se = self._paths(tag)
        child = Child([sys.executable, "-c", code], self.env, base, so, se)
        if child.exit_code != 0:
            raise RuntimeError("%s failed: %s" % (tag, child.stderr.strip()[-500:]))
        return child.seconds, child.stdout.strip()


def setup_slots(commands: int) -> list:
    """Command indices before which a set-up sample runs (``commands`` means
    after the last): SETUP_REPS of them, evenly spread from first to last."""
    return [round(j * commands / (SETUP_REPS - 1)) for j in range(SETUP_REPS)]


def run(args, root: str, work: str) -> dict:
    runner = Runner(root, work, args.workload, args.seed)
    # Warm-up: one untimed set-up, so the .pyc files of every rrspectra module
    # (the package imports them all) exist as they do after a user's first
    # command, and the files imports read are in the page cache.
    _seconds, backend = runner.interpreter("warmup", SETUP_CODE)
    facts = machine_facts(args.seed, backend)

    # Wall seconds of the set-up samples, the successful commands and the
    # reference imports.
    setup, samples, references = [], [], []
    work_units, work_seconds, peak_rss, children = 0, 0.0, 0.0, 0
    traced_s = plain_s = 0.0
    layers = layertrace.LayerTotals()

    def reference() -> None:
        references.append(runner.interpreter("reference", REFERENCE_CODE)[0])

    def child_done() -> None:
        nonlocal children
        children += 1
        if children % REFERENCE_EVERY == 0:
            reference()

    def measure(index):
        nonlocal work_units, work_seconds, peak_rss, traced_s, plain_s
        if not args.trace:
            child, ok, out, _spans = runner.command(index, False, "timed")
            peak_rss = max(peak_rss, child.max_rss_mb)
            # Latency and throughput describe successful commands; failures
            # are counted in the result's "failed" and never hidden in them.
            if ok:
                samples.append(child.seconds)
                work_seconds += child.seconds
                work_units += work_done(args.workload, out)
            child_done()
            return
        # Traced and plain runs of the same config, alternating which goes
        # first; their wall-time ratio is the tracing overhead.
        for traced in ((True, False) if index % 2 else (False, True)):
            child, _ok, out, spans = runner.command(index, traced, "traced" if traced else "plain")
            if not traced:
                plain_s += child.seconds
                continue
            traced_s += child.seconds
            if os.path.exists(spans):
                with open(spans, encoding="utf-8") as fh:
                    layers.add(json.load(fh), child.stderr, bytes_in(out) if os.path.isdir(out) else 0)

    # A fixed number of whole cycles, so every slot has the same share of the
    # run and the same seed runs the same commands however fast the machine
    # is.  Set-up samples are spread evenly between them.  Only a machine far
    # slower than the one the cycle length was tuned on stops the run early.
    # A traced run runs every command twice and reports no set-up time and
    # no scaled times.
    cycle = len(workloads.CYCLES[args.workload])
    cycles = workloads.cycles_for(args.workload, args.seconds / (2 if args.trace else 1))
    slots = [] if args.trace else setup_slots(cycles * cycle)
    if not args.trace:
        reference()
    start = time.perf_counter()
    for index in range(cycles * cycle + 1):
        for _ in range(slots.count(index)):
            setup.append(runner.interpreter("setup", SETUP_CODE)[0])
            child_done()
        if index == cycles * cycle:
            break
        if index % cycle == 0 and time.perf_counter() - start > MAX_MEASURE_FACTOR * args.seconds:
            print("stopped after %d of %d cycles: the machine is too slow" % (index // cycle, cycles))
            break
        measure(index)
    if not args.trace and children % REFERENCE_EVERY:
        reference()

    tally = runner.tally
    print("facts: " + json.dumps(facts, sort_keys=True))
    print("workload: %s  seed: %d  commands: %d  failed: %d"
          % (args.workload, args.seed, tally.attempted, tally.failed))
    for line in runner.log:
        print("command " + line)
    for reason in tally.reasons:
        print("failed: " + reason)
    if args.trace:
        metrics = layers.metrics()
        metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
        units = {name: layertrace.unit_of(name) for name in metrics}
        print("traced commands: %d (per-layer _s and .calls values are per traced command)"
              % layers.commands)
    else:
        if not samples:
            raise RuntimeError("every timed command failed")
        pct, tail = tail_percentile(samples)
        wall = {
            "setup_s": statistics.median(setup),
            "cmd_s.p50": statistics.median(samples),
            "cmd_s.tail": tail,
            "work_per_s": work_units / work_seconds,
        }
        # This machine's speed drifts by tens of percent within minutes, and
        # the reference drifts with it: times are reported in its units.
        speed = REFERENCE_S / statistics.median(references)
        metrics = {
            "setup_s": wall["setup_s"] * speed,
            "cmd_s.p50": wall["cmd_s.p50"] * speed,
            "cmd_s.tail": wall["cmd_s.tail"] * speed,
            "work_per_s": wall["work_per_s"] / speed,
            "peak_rss_mb": peak_rss,
        }
        units = END_TO_END_UNITS
        alias, unit_of_work = WORK[args.workload]
        print("samples: %d  tail percentile: p%.1f  work unit: %s  setup reps: %d"
              % (len(samples), pct, unit_of_work, len(setup)))
        print("references: %d  median %.4f s  quartiles %s s" % (
            len(references), statistics.median(references),
            " ".join("%.4f" % q for q in statistics.quantiles(references, n=4))))
        for name, value in wall.items():
            print("%-46s %14.6g %s" % (name + " (wall)", value, END_TO_END_UNITS[name]))
        print("%-46s %14.6g %s" % ("fail_frac", tally.failed / tally.attempted, "frac"))
        print("%-46s %14.6g %s" % (alias + " (= work_per_s)", metrics["work_per_s"], "1/s"))
    for name, value in metrics.items():
        print("%-46s %14.6g %s" % (name, value, units[name]))
    return {
        "correct": tally.silently_wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so the running child is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rrspectra", "cli.py")):
        print("no rrspectra sources under %s/src; run from a checkout root" % root, file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=scratch)
    try:
        result = run(args, root, work)
    except RuntimeError as exc:
        print("benchmark aborted: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
