"""Benchmark of record: Figure-8 campaigns on the interpreter, JIT
campaigns and the Figure-9 timing sweep, end to end and (traced) layer
by layer.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W]... [--seed N]
        [--seconds S] [--trace 0|1] [--out PATH]

An untraced run starts ``CHILDREN`` fresh child processes one after
another (see ``child.py``).  Each sets the workload up from cold caches
and then measures it for an equal share of ``--seconds``; all of them
run the same inputs, drawn from ``--seed``.  Every time is CPU time at
a fixed host speed (``child.HostClock``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` sets up and
runs one round untraced and then traced, checks that their outcome
counts and cycles agree exactly, reports the per-layer metrics, and
writes the spans to ``.bench_out/trace-<workload>-seed<N>.json``.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a check failed
and 2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from time import perf_counter

import child

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("fig8-interp", "campaign-jit", "fig9-sweep")
DEFAULT_SEED = 2006
DEFAULT_SECONDS = 10
#: Set-ups per untraced run, each in its own process; ``setup_s`` is
#: their median.
CHILDREN = 3
#: Children still running this long after the run started are killed,
#: so a run ends within three minutes.
DEADLINE_S = 165.0
#: Address-space cap per child: what a ``repro campaign`` gets here.
MEMORY_LIMIT = 3 << 30

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p80_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer times: the self time of these span names.
LAYER_TIMES = {
    "lang.compile_s": ("lang.compile",),
    "transform.optimize_s": ("transform.optimize",),
    "transform.protect_s": ("transform.protect",),
    "transform.regalloc_s": ("transform.regalloc",),
    "isa.verify_s": ("isa.verify",),
    "sim.machine.init_s": ("sim.machine.init",),
    "sim.exec_s": ("faults.golden", "faults.trial", "sim.timing.run"),
}
LAYER_COUNTS = (
    "isa.static_instructions", "sim.jit.source_lines",
    "faults.golden_instructions", "faults.checkpoints",
    "faults.fast_forwards",
    "sim.timing.instructions", "sim.timing.cycles",
)
PER_LAYER = dict({name: "s" for name in LAYER_TIMES},
                 **{name: "count" for name in LAYER_COUNTS})


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def kill_group(group: int) -> None:
    """Kill what is left of a child's process group and wait, up to ten
    seconds, until none of it remains."""
    end = perf_counter() + 10.0
    while perf_counter() < end:
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_child(job: dict, timeout: float):
    """Run one child to completion: ``(result or None, error)``.

    The child gets its own process group, which is killed afterwards
    so nothing it started outlives it.
    """
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path
                                             else ""))
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=ROOT, start_new_session=True,
        preexec_fn=_limit_memory)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
        error = ""
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        error = f"timed out after {timeout:.0f}s"
    kill_group(proc.pid)
    if not error and proc.returncode != 0:
        lines = stderr.strip().splitlines() or [f"exit {proc.returncode}"]
        error = f"exit {proc.returncode}: {lines[-1]}"
    if error:
        return None, error
    return json.loads(stdout.splitlines()[-1]), ""


class Run:
    """The merged results of a run's children."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.elapsed: list[float] = []
        self.setups: list[float] = []
        self.units: dict[str, list[float]] = {}
        self.work: dict[str, int] = {}
        self.latencies: dict[str, list[list[float]]] = {}
        self.counts: dict = {}
        self.rss_mb = 0.0
        self.spans: list[dict] = []
        self.layer_counts: dict[str, int] = {}

    def add(self, result, error: str, ops_per_round: int,
            name: str) -> None:
        if result is None:
            self.attempted += ops_per_round
            self.failed += ops_per_round
            self.errors.append(f"{name}: {error}")
            return
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors += [f"{name}: {e}" for e in result["errors"]]
        self.elapsed.append(result["elapsed_s"])
        self.setups.append(result["setup_s"])
        for unit, seconds in result["units"].items():
            self.units.setdefault(unit, []).extend(seconds)
        for unit, repeats in result["latencies"].items():
            self.latencies.setdefault(unit, []).extend(repeats)
        self.work.update(result["work"])
        self.counts.update(result["counts"])
        self.rss_mb = max(self.rss_mb, result["rss_mb"])
        self.spans += result.get("spans", [])
        for key, value in result.get("layer_counts", {}).items():
            self.layer_counts[key] = self.layer_counts.get(key, 0) + value


def fail_changed_counts(run: Run, reference: dict, what: str) -> None:
    """Fail the run if any count differs from ``reference``."""
    changed = sorted(key for key in set(run.counts) | set(reference)
                     if run.counts.get(key) != reference.get(key))
    if changed:
        run.failed += 1
        run.errors.append(f"{', '.join(changed)}: {what}")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Each span name's duration minus that of its direct children."""
    own = {span["id"]: span["seconds"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["seconds"]
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
    return totals


def end_to_end(run: Run) -> dict[str, float]:
    """Set-up is the median over the children.  Every unit (a cell's
    campaign or timing run) and every operation in it counts once, at
    its median over all its repeats."""
    unit_s = {unit: statistics.median(times)
              for unit, times in run.units.items()}
    latencies = [statistics.median(op) for repeats in run.latencies.values()
                 for op in zip(*repeats)]
    return {
        "setup_s": statistics.median(run.setups),
        "ops_per_s": sum(run.work[unit] for unit in unit_s)
        / sum(unit_s.values()),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p80_ms": 1e3 * statistics.quantiles(latencies, n=10)[7],
        "peak_rss_mb": run.rss_mb,
    }


def per_layer(run: Run) -> dict[str, float]:
    totals = self_times(run.spans)
    metrics = {name: sum(totals.get(span, 0.0) for span in spans)
               for name, spans in LAYER_TIMES.items()}
    metrics.update({name: run.layer_counts.get(name, 0)
                    for name in LAYER_COUNTS})
    return metrics


def print_layers(run: Run) -> None:
    totals = self_times(run.spans)
    print(f"  {'span':28s} {'self s':>9s} {'calls':>7s}")
    calls: dict[str, int] = {}
    for span in run.spans:
        calls[span["name"]] = calls.get(span["name"], 0) + 1
    for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  {name:28s} {seconds:9.3f} {calls[name]:7d}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            cells=None) -> tuple[dict, dict]:
    """Run one workload: ``(result line, record for --out)``."""
    start = perf_counter()
    deadline = start + DEADLINE_S
    default, trials = child.default_cells(workload)
    ops_per_round = len(cells or default) * trials
    job = {"kind": workload, "key": seed, "cells": cells}

    def run(name: str, **settings) -> Run:
        merged = Run()
        merged.add(*run_child(dict(job, **settings),
                              deadline - perf_counter()),
                   ops_per_round, name)
        return merged

    if trace:
        plain = run("untraced", part=0, parts=1, rounds=1)
        traced = run("traced", part=0, parts=1, rounds=1, trace=True)
        fail_changed_counts(traced, plain.counts,
                            "traced and untraced runs differ")
        runs = [plain, traced]
        metrics = per_layer(traced)
        units = PER_LAYER
        if plain.elapsed and traced.elapsed:
            print(f"{workload}: traced layers (tracing overhead "
                  f"{traced.elapsed[0] - plain.elapsed[0]:+.3f}s on "
                  f"{plain.elapsed[0]:.3f}s untraced)")
        print_layers(traced)
        path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
        with open(path, "w") as handle:
            json.dump(traced.spans, handle)
        print(f"  spans: {path}")
    else:
        merged = Run()
        for part in range(CHILDREN):
            merged.add(*run_child(dict(job, part=part, parts=CHILDREN,
                                       check=True,
                                       budget=seconds / CHILDREN),
                                  deadline - perf_counter()),
                       -(-ops_per_round // CHILDREN), f"child {part}")
        if not merged.units:
            raise SystemExit(f"error: {workload}: no child completed "
                             f"({'; '.join(merged.errors)})")
        runs = [merged]
        metrics = end_to_end(merged)
        units = END_TO_END
    errors = [e for run in runs for e in run.errors]
    for error in errors:
        print(f"  FAILED {error}")
    attempted = max(1, sum(run.attempted for run in runs))
    failed = min(attempted, sum(run.failed for run in runs))
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    children = sum(len(run.setups) for run in runs)
    print(f"{workload}: {children} children, {attempted} ops, "
          f"{failed} failed, {perf_counter() - start:.1f}s")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.4f} {unit}")
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "result": result, "counts": runs[0].counts}
    return result, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="wall seconds an untraced run measures for, "
                             "split over its children (set-up excluded)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="",
                        help="append one JSON record per workload here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    start = perf_counter()
    workloads = args.workload or list(WORKLOADS)
    results = {}
    for workload in workloads:
        result, record = measure(workload, args.seed, args.seconds,
                                 bool(args.trace))
        results[workload] = result
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"runner elapsed: {perf_counter() - start:.1f}s")
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": value
                        for w, r in results.items()
                        for name, value in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
