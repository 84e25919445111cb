"""Figure 8 harness: reliability under SEU injection, per benchmark,
for NOFT / MASK / TRUMP / TRUMP/MASK / TRUMP/SWIFT-R / SWIFT-R.

Regenerates the paper's reliability evaluation (Section 7.1): for each
benchmark and technique, a seeded fault-injection campaign classifies
every trial as unACE / SEGV / SDC, and the harness prints the stacked
percentages plus the headline aggregate scalars the paper quotes
(e.g. "SWIFT-R reduces SDC+SEGV by 89.39%").

Run: ``python -m repro fig8 [--trials N] [--seed S]
[--benchmarks a,b,c]``; :func:`add_arguments` defines its flags and
:func:`run` runs them.  The paper used 250 trials per cell.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from ..faults.outcomes import Outcome
from ..faults.stats import Proportion
from ..obs.spans import span
from ..transform.protect import PAPER_TECHNIQUES, Technique
from ..workloads.suite import PAPER_BENCHMARKS, get_workload
from .pipeline import PipelineOptions, prepare, prepare_machine
from .report import average, fmt_pct, reduction_percent, render_table
from .spec import CampaignSpec, run_or_recall

if TYPE_CHECKING:  # pragma: no cover - typing only; imported on use
    from ..faults.campaign import CampaignResult
    from ..obs.sink import JsonlSink
    from ..stats.estimators import StratifiedEstimate

#: Default trials per (benchmark, technique) cell (``--trials``).  The
#: paper used 250.
DEFAULT_TRIALS = 120


@dataclass
class ReliabilityResults:
    """Campaign results for every (benchmark, technique) cell."""

    trials: int
    seed: int
    cells: dict[tuple[str, Technique], CampaignResult] = field(
        default_factory=dict
    )
    benchmarks: list[str] = field(default_factory=list)
    techniques: list[Technique] = field(default_factory=list)
    confidence: float = 0.95

    def cell(self, benchmark: str, technique: Technique) -> CampaignResult:
        return self.cells[(benchmark, technique)]

    def mean_unace(self, technique: Technique) -> float:
        return average([self.cell(b, technique).unace_percent
                        for b in self.benchmarks])

    def mean_sdc(self, technique: Technique) -> float:
        return average([self.cell(b, technique).sdc_percent
                        for b in self.benchmarks])

    def mean_segv(self, technique: Technique) -> float:
        return average([self.cell(b, technique).segv_percent
                        for b in self.benchmarks])

    def failure_reduction(self, technique: Technique) -> float:
        """Reduction of SDC+SEGV vs NOFT (the paper's headline metric)."""
        base = self.mean_sdc(Technique.NOFT) + self.mean_segv(Technique.NOFT)
        now = self.mean_sdc(technique) + self.mean_segv(technique)
        return reduction_percent(base, now)


def evaluate_reliability(
    benchmarks: list[str] | None = None,
    techniques: list[Technique] | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 2006,
    options: PipelineOptions | None = None,
    progress: bool = False,
    telemetry: JsonlSink | None = None,
    jobs: int = 1,
    taint: bool = False,
    confidence: float = 0.95,
    profile_path: str = "",
    jit: bool | None = None,
    store: bool = False,
    tag: str = "",
    runs_dir: str = "",
) -> ReliabilityResults:
    """Run the full Figure-8 campaign grid.

    With a ``telemetry`` sink, every trial of every (benchmark,
    technique) cell is exported as one JSONL record tagged with its
    cell, ready for ``python -m repro obs summarize``.  With
    ``jobs > 1`` (or 0 = all cores) each cell's trials are sharded
    over worker processes; results are bit-identical either way.
    ``taint=True`` additionally traces every fault's dataflow and
    exports the per-trial event streams alongside the trial records,
    so ``python -m repro obs forensics`` can attribute each cell.

    ``confidence`` is recorded on the results: the level of the
    suite-average intervals :func:`render_figure8` prints.

    ``profile_path`` attaches a fresh simulator profiler to every
    cell's campaign and writes the per-cell records (tagged with
    benchmark and technique) to one JSONL file; ``obs hotspots``
    merges them into a grid-wide hot-block ranking.

    ``jit`` follows :func:`repro.faults.campaign.run_campaign`'s
    contract: ``None`` (the default) compiles each cell's binary with
    the block JIT unless taint or profiling asked for an instrumented
    interpreter; results are bit-identical either way.

    ``store=True`` records every (benchmark, technique) cell in the
    persistent run ledger (see :mod:`repro.obs.registry`); with a
    ``tag``, each cell is tagged ``{tag}/{benchmark}/{technique}`` so
    ``obs diff`` can address individual cells precisely.  A cell whose
    identical campaign is already stored is recalled from the ledger
    without running a trial (:func:`repro.eval.spec.run_or_recall`).
    """
    benchmarks = list(benchmarks or PAPER_BENCHMARKS)
    for bench in benchmarks:
        get_workload(bench)     # an unknown name fails before any cell
    techniques = list(techniques or PAPER_TECHNIQUES)
    options = options or PipelineOptions()
    results = ReliabilityResults(trials=trials, seed=seed,
                                 benchmarks=benchmarks,
                                 techniques=techniques,
                                 confidence=confidence)
    registry = None
    if store:
        from ..obs.registry import RunRegistry

        registry = RunRegistry(runs_dir or None)
    from ..obs.campaign_log import CampaignLog

    profile_records: list[dict] = []
    recalled = 0
    for bench in benchmarks:
        for tech in techniques:
            log = None
            if telemetry is not None or taint or registry is not None:
                log = CampaignLog(context={"benchmark": bench,
                                           "technique": tech.value,
                                           "seed": seed})
            profiler = None
            if profile_path:
                from ..obs.profile import SimProfiler

                profiler = SimProfiler()
            with span("fig8.cell", benchmark=bench,
                      technique=tech.value) as cell_span:
                spec = CampaignSpec(technique=tech.value, workload=bench,
                                    seed=seed, trials=trials, jobs=jobs)
                run = run_or_recall(
                    spec, prepare(bench, tech, options), registry=registry,
                    tag=f"{tag}/{bench}/{tech.value}" if tag else "",
                    machine=partial(prepare_machine, bench, tech, options),
                    log=log, telemetry=telemetry is not None, taint=taint,
                    profile=profiler, jit=jit)
            campaign = run.result
            results.cells[(bench, tech)] = campaign
            recalled += run.recalled
            if profiler is not None:
                profile_records.extend(profiler.to_records(
                    context={"benchmark": bench,
                             "technique": tech.value, "seed": seed}))
            if telemetry is not None:
                telemetry.write_many(log.to_dicts())
                telemetry.write_many(log.taint_dicts())
            if progress:
                print(
                    f"  {bench:10s} {tech.label:14s} "
                    f"unACE={campaign.unace_percent:6.2f} "
                    f"SEGV={campaign.segv_percent:5.2f} "
                    f"SDC={campaign.sdc_percent:5.2f} "
                    f"({cell_span.elapsed:.1f}s"
                    f"{', from the ledger' if run.recalled else ''})",
                    file=sys.stderr,
                )
    if profile_path:
        from ..obs.sink import JsonlSink

        with JsonlSink(profile_path) as profile_sink:
            profile_sink.write_many(profile_records)
        if progress:
            print(f"  wrote {len(profile_records)} profile records to "
                  f"{profile_path}", file=sys.stderr)
    if registry is not None:
        stored = len(benchmarks) * len(techniques) - recalled
        print(f"  ledger: stored {stored} run(s), recalled {recalled} "
              f"under {registry.root}", file=sys.stderr)
    return results


#: (column title, raw percent getter, raw count getter).
_METRIC_COUNTS = (
    ("unACE %", lambda c: c.unace_percent,
     lambda c: c.count(Outcome.UNACE)),
    ("SEGV %", lambda c: c.segv_percent,
     lambda c: c.count(Outcome.SEGV)),
    ("SDC % (Hang included)", lambda c: c.sdc_percent,
     lambda c: c.count(Outcome.SDC) + c.count(Outcome.HANG)),
)


def suite_estimate(results: ReliabilityResults, technique: Technique,
                   counter) -> StratifiedEstimate:
    """Suite-average rate for one technique with its interval.

    Benchmarks act as equal-weight strata (matching the Figure 8
    "Average" row, a plain mean of per-benchmark percentages), so this
    is exact even when per-cell trial counts differ.
    """
    from ..stats.estimators import StratumCell, stratified_estimate

    cells = [
        StratumCell(key=bench, weight=1.0 / len(results.benchmarks),
                    trials=results.cell(bench, technique).trials,
                    successes=counter(results.cell(bench, technique)))
        for bench in results.benchmarks
    ]
    return stratified_estimate(cells, results.confidence)


def render_figure8(results: ReliabilityResults,
                   confidence: float | None = None) -> str:
    """The Figure-8 data as a per-benchmark table plus the average row.

    With a ``confidence`` level, every cell is annotated with its
    interval (Wilson, or Jeffreys for degenerate cells), the Average
    row carries the suite-level post-stratified interval, and the
    significance-tested claims table is appended.  With ``None`` the
    output is the original, un-annotated rendering.
    """
    headers = ["benchmark"] + [t.label for t in results.techniques]
    sections = []
    for metric, getter, counter in _METRIC_COUNTS:
        rows = []
        for bench in results.benchmarks:
            row = [bench]
            for t in results.techniques:
                cell = results.cell(bench, t)
                text = fmt_pct(getter(cell))
                if confidence is not None:
                    text += _interval_text(counter(cell), cell.trials,
                                           confidence)
                row.append(text)
            rows.append(row)
        avg_row = ["Average"]
        for t in results.techniques:
            mean = average([getter(results.cell(b, t))
                            for b in results.benchmarks])
            if confidence is None:
                avg_row.append(fmt_pct(mean))
            else:
                estimate = suite_estimate(results, t, counter)
                avg_row.append(
                    fmt_pct(mean)
                    + f" [{100*estimate.low:5.2f},{100*estimate.high:6.2f}]")
        rows.append(avg_row)
        sections.append(render_table(headers, rows,
                                     title=f"Figure 8 -- {metric}"))

    noft_fail = (results.mean_sdc(Technique.NOFT)
                 + results.mean_segv(Technique.NOFT))
    scalars = ["Headline scalars (paper Sections 1/7/9):"]
    for tech in results.techniques:
        if tech is Technique.NOFT:
            continue
        fail = results.mean_sdc(tech) + results.mean_segv(tech)
        scalars.append(
            f"  {tech.label:14s} mean unACE "
            f"{results.mean_unace(tech):6.2f}%"
            f"  SDC+SEGV reduction vs NOFT "
            f"{reduction_percent(noft_fail, fail):6.2f}%"
        )
    sections.append("\n".join(scalars))
    if confidence is not None:
        from ..stats.claims import evaluate_claims, render_claims

        claims = evaluate_claims(results, confidence)
        if claims:
            sections.append(render_claims(claims))
    return "\n\n".join(sections)


def _interval_text(successes: int, trials: int, confidence: float) -> str:
    low, high = Proportion(successes, trials, confidence).interval()
    return f" [{100*low:5.2f},{100*high:6.2f}]"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Define the Figure-8 flags on ``parser`` (``repro fig8``)."""
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                        help="fault-injection trials per cell (paper: 250)")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--benchmarks", type=str, default="",
                        help="comma-separated subset of benchmarks")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes per campaign cell "
                             "(0 = all cores); results are identical")
    parser.add_argument("--telemetry", type=str, default="",
                        help="write per-trial JSONL telemetry to this path")
    parser.add_argument("--taint", action="store_true",
                        help="trace fault dataflow into the telemetry file "
                             "(for `obs forensics`)")
    parser.add_argument("--profile", type=str, default="",
                        help="write per-cell simulator execution profiles "
                             "to this JSONL path (for `obs hotspots`)")
    parser.add_argument("--confidence", type=float, default=0.95,
                        help="confidence level for intervals and claims "
                             "(default 0.95)")
    parser.add_argument("--ci", action="store_true",
                        help="annotate the tables with confidence "
                             "intervals and the claims table")
    parser.add_argument("--jit", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="block-compile each cell's binary "
                             "(default: on unless --taint/--profile; "
                             "results are bit-identical either way)")
    parser.add_argument("--store", action="store_true",
                        help="record every grid cell in the persistent "
                             "run ledger (see `obs runs`)")
    parser.add_argument("--tag", default="",
                        help="ledger tag prefix; cells are tagged "
                             "TAG/benchmark/technique")
    parser.add_argument("--runs-dir", default="",
                        help="ledger directory (default: $REPRO_RUNS_DIR "
                             "or .repro/runs)")


def run(args: argparse.Namespace) -> int:
    """Run the grid the :func:`add_arguments` flags in ``args``
    describe and print Figure 8."""
    from .telemetry import export_session, open_sink

    sink = open_sink(args.telemetry)
    results = evaluate_reliability(
        benchmarks=args.benchmarks.split(",") if args.benchmarks else None,
        trials=args.trials, seed=args.seed, progress=True, telemetry=sink,
        jobs=args.jobs, taint=args.taint, confidence=args.confidence,
        profile_path=args.profile,
        jit=args.jit, store=args.store, tag=args.tag,
        runs_dir=args.runs_dir)
    export_session(sink)
    print(render_figure8(results,
                         confidence=args.confidence if args.ci else None))
    return 0


if __name__ == "__main__":
    print("repro: error: run Figure 8 with `python -m repro fig8`",
          file=sys.stderr)
    raise SystemExit(2)
