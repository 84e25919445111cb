"""Figure 9 harness: execution time normalised to NOFT, per benchmark.

Regenerates the paper's performance evaluation (Section 7.2): each
technique's binary is timed fault-free on the in-order superscalar
model, and the harness prints per-benchmark normalised execution times
plus the geometric mean, alongside the paper's quoted aggregates
(MASK 1.00x, TRUMP 1.36x, TRUMP/MASK 1.37x, TRUMP/SWIFT-R 1.98x,
SWIFT-R 1.99x).

Run: ``python -m repro fig9 [--benchmarks a,b,c]``;
:func:`add_arguments` defines its flags and :func:`run` runs them.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from ..faults.injector import golden_run
from ..obs.sink import JsonlSink
from ..obs.spans import span
from ..sim.timing import TimingConfig, TimingResult, TimingSimulator
from ..transform.protect import PAPER_TECHNIQUES, Technique
from ..workloads.suite import PAPER_BENCHMARKS, get_workload
from .pipeline import PipelineOptions, prepare_machine
from .report import fmt_norm, geomean, render_table
from .telemetry import export_session, open_sink


@dataclass
class PerformanceResults:
    """Timing results for every (benchmark, technique) cell."""

    cells: dict[tuple[str, Technique], TimingResult] = field(
        default_factory=dict
    )
    benchmarks: list[str] = field(default_factory=list)
    techniques: list[Technique] = field(default_factory=list)

    def cycles(self, benchmark: str, technique: Technique) -> int:
        return self.cells[(benchmark, technique)].cycles

    def normalized(self, benchmark: str, technique: Technique) -> float:
        return (self.cycles(benchmark, technique)
                / self.cycles(benchmark, Technique.NOFT))

    def geomean_normalized(self, technique: Technique) -> float:
        return geomean([self.normalized(b, technique)
                        for b in self.benchmarks])


def evaluate_performance(
    benchmarks: list[str] | None = None,
    techniques: list[Technique] | None = None,
    options: PipelineOptions | None = None,
    timing: TimingConfig | None = None,
    progress: bool = False,
    telemetry: JsonlSink | None = None,
    profile_path: str = "",
    store: bool = False,
    tag: str = "",
    runs_dir: str = "",
) -> PerformanceResults:
    """Time every (benchmark, technique) pair, fault-free.

    With a ``telemetry`` sink, each cell's cycle-level result is
    exported as one ``kind="timing"`` JSONL record.

    ``profile_path`` additionally runs one *functional* golden
    execution per cell with a simulator profiler attached (timing runs
    render the scoreboard's loop hooks, not the profiler's) and writes
    the per-cell records to one JSONL file for ``obs hotspots``.

    ``store=True`` records each cell's timing in the persistent run
    ledger; with a ``tag``, cells are tagged
    ``{tag}/{benchmark}/{technique}`` (see ``obs runs`` / ``obs
    history``).
    """
    benchmarks = list(benchmarks or PAPER_BENCHMARKS)
    for bench in benchmarks:
        get_workload(bench)     # an unknown name fails before any cell
    techniques = list(techniques or PAPER_TECHNIQUES)
    options = options or PipelineOptions()
    results = PerformanceResults(benchmarks=benchmarks,
                                 techniques=techniques)
    registry = None
    if store:
        from ..obs.registry import RunRegistry

        registry = RunRegistry(runs_dir or None)
    stored = 0
    profile_records: list[dict] = []
    for bench in benchmarks:
        for tech in techniques:
            with span("fig9.cell", benchmark=bench,
                      technique=tech.value) as cell_span:
                machine = prepare_machine(bench, tech, options)
                cell = TimingSimulator(machine, timing).run()
            results.cells[(bench, tech)] = cell
            if profile_path:
                from ..obs.profile import SimProfiler

                profiler = SimProfiler()
                golden = prepare_machine(bench, tech, options)
                golden.profile = profiler
                golden_run(golden)
                profile_records.extend(profiler.to_records(
                    context={"benchmark": bench,
                             "technique": tech.value,
                             "run": "golden"}))
            record = {
                "kind": "timing", "benchmark": bench,
                "technique": tech.value, "cycles": cell.cycles,
                "instructions": cell.instructions,
                "ipc": round(cell.ipc, 4), "loads": cell.loads,
                "load_misses": cell.load_misses,
                "elapsed": round(cell_span.elapsed, 4),
            }
            if telemetry is not None:
                telemetry.write(record)
            if registry is not None:
                from ..obs.registry import store_timing

                cell_tag = f"{tag}/{bench}/{tech.value}" if tag else ""
                store_timing(registry, workload={"benchmark": bench},
                             technique=tech.value,
                             program=machine.program, record=record,
                             tag=cell_tag)
                stored += 1
            if progress:
                print(
                    f"  {bench:10s} {tech.label:14s} "
                    f"cycles={cell.cycles:8d} ipc={cell.ipc:4.2f} "
                    f"({cell_span.elapsed:.1f}s)",
                    file=sys.stderr,
                )
    if profile_path:
        with JsonlSink(profile_path) as profile_sink:
            profile_sink.write_many(profile_records)
        if progress:
            print(f"  wrote {len(profile_records)} profile records to "
                  f"{profile_path}", file=sys.stderr)
    if registry is not None:
        print(f"  ledger: stored {stored} run(s) under {registry.root}",
              file=sys.stderr)
    return results


def render_figure9(results: PerformanceResults) -> str:
    """Figure-9 data: normalised execution times plus geomean."""
    shown = [t for t in results.techniques if t is not Technique.NOFT]
    headers = ["benchmark"] + [t.label for t in shown]
    rows = []
    for bench in results.benchmarks:
        rows.append(
            [bench]
            + [fmt_norm(results.normalized(bench, t)) for t in shown]
        )
    rows.append(
        ["GeoMean"]
        + [fmt_norm(results.geomean_normalized(t)) for t in shown]
    )
    table = render_table(
        headers, rows,
        title="Figure 9 -- execution time normalised to NOFT",
    )
    paper = ("Paper geomeans: MASK 1.00, TRUMP 1.36, TRUMP/MASK 1.37, "
             "TRUMP/SWIFT-R 1.98, SWIFT-R 1.99")
    return table + "\n\n" + paper


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Define the Figure-9 flags on ``parser`` (``repro fig9``)."""
    parser.add_argument("--benchmarks", type=str, default="",
                        help="comma-separated subset of benchmarks")
    parser.add_argument("--telemetry", type=str, default="",
                        help="write per-cell JSONL telemetry to this path")
    parser.add_argument("--profile", type=str, default="",
                        help="profile one functional golden run per cell "
                             "into this JSONL path (for `obs hotspots`)")
    parser.add_argument("--store", action="store_true",
                        help="record every grid cell's timing in the "
                             "persistent run ledger (see `obs runs`)")
    parser.add_argument("--tag", default="",
                        help="ledger tag prefix; cells are tagged "
                             "TAG/benchmark/technique")
    parser.add_argument("--runs-dir", default="",
                        help="ledger directory (default: $REPRO_RUNS_DIR "
                             "or .repro/runs)")


def run(args: argparse.Namespace) -> int:
    """Time the grid the :func:`add_arguments` flags in ``args``
    describe and print Figure 9."""
    sink = open_sink(args.telemetry)
    results = evaluate_performance(
        benchmarks=args.benchmarks.split(",") if args.benchmarks else None,
        progress=True, telemetry=sink, profile_path=args.profile,
        store=args.store, tag=args.tag, runs_dir=args.runs_dir)
    export_session(sink)
    print(render_figure9(results))
    return 0


if __name__ == "__main__":
    print("repro: error: run Figure 9 with `python -m repro fig9`",
          file=sys.stderr)
    raise SystemExit(2)
