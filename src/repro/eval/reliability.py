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

from ..errors import SpecError
from ..faults.campaign import CampaignResult
from ..faults.outcomes import Outcome
from ..faults.stats import Proportion
from ..obs.campaign_log import CampaignLog
from ..obs.sink import JsonlSink
from ..obs.spans import span
from ..stats.claims import evaluate_claims, render_claims
from ..stats.estimators import (
    StratifiedEstimate,
    StratumCell,
    stratified_estimate,
)
from ..stats.sequential import (
    AdaptiveConfig,
    AdaptiveResult,
    run_adaptive_suite,
)
from ..transform.protect import PAPER_TECHNIQUES, Technique
from ..workloads.suite import PAPER_BENCHMARKS, get_workload
from .pipeline import PipelineOptions, prepare_machine
from .report import average, fmt_pct, reduction_percent, render_table
from .spec import CampaignSpec, run_spec
from .telemetry import export_session, open_sink

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
    #: Per-technique adaptive-run details, populated by
    #: ``evaluate_reliability(adaptive=True)``.
    adaptive: dict[Technique, AdaptiveResult] = field(default_factory=dict)

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
    adaptive: bool = False,
    ci_width: float = 0.025,
    confidence: float = 0.95,
    max_trials: int = 4000,
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

    ``adaptive=True`` replaces the fixed per-cell budget with one
    sequential suite-level campaign per technique (see
    :func:`repro.stats.sequential.run_adaptive_suite`): each runs
    until the suite-average unACE interval is within ``ci_width``
    (a proportion) at ``confidence``, or ``max_trials`` for that
    technique.  ``trials`` is ignored; per-cell trial counts then
    vary by how noisy each cell is.

    ``profile_path`` attaches a fresh simulator profiler to every
    cell's campaign and writes the per-cell records (tagged with
    benchmark and technique) to one JSONL file; ``obs hotspots``
    merges them into a grid-wide hot-block ranking.  Not supported
    with ``adaptive`` (batch sizes depend on observed variance).

    ``jit`` follows :func:`repro.faults.campaign.run_campaign`'s
    contract: ``None`` (the default) compiles each cell's binary with
    the block JIT unless taint or profiling asked for an instrumented
    interpreter; results are bit-identical either way.

    ``store=True`` records every (benchmark, technique) cell in the
    persistent run ledger (see :mod:`repro.obs.registry`); with a
    ``tag``, each cell is tagged ``{tag}/{benchmark}/{technique}`` so
    ``obs diff`` can address individual cells precisely.
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
    if adaptive:
        if taint:
            raise SpecError("taint tracing is not supported with "
                            "adaptive campaigns")
        if profile_path:
            raise SpecError("profiling is not supported with "
                            "adaptive campaigns")
        _evaluate_adaptive(results, options, telemetry=telemetry,
                           progress=progress, jobs=jobs,
                           ci_width=ci_width, max_trials=max_trials,
                           jit=jit, registry=registry, tag=tag)
        if registry is not None:
            cells = len(results.benchmarks) * len(results.techniques)
            print(f"  ledger: stored {cells} run(s) under "
                  f"{registry.root}", file=sys.stderr)
        return results
    profile_records: list[dict] = []
    stored = 0
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
                machine = prepare_machine(bench, tech, options)
                spec = CampaignSpec(technique=tech.value, workload=bench,
                                    seed=seed, trials=trials, jobs=jobs)
                campaign = run_spec(spec, machine.program,
                                    machine=machine, log=log,
                                    taint=taint, profile=profiler,
                                    jit=jit).result
            results.cells[(bench, tech)] = campaign
            if registry is not None:
                _store_cell(registry, bench, tech, seed, campaign, log,
                            machine.program, tag)
                stored += 1
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


def _store_cell(registry, bench: str, tech: Technique, seed: int,
                campaign: CampaignResult, log, program,
                tag: str, weights: dict | None = None,
                adaptive: AdaptiveResult | None = None):
    """Ledger one grid cell under the tag ``{tag}/{bench}/{tech}``."""
    from ..obs.registry import store_campaign

    cell_tag = f"{tag}/{bench}/{tech.value}" if tag else ""
    return store_campaign(registry, workload={"benchmark": bench},
                          technique=tech.value, seed=seed,
                          result=campaign, log=log, program=program,
                          weights=weights, adaptive=adaptive,
                          tag=cell_tag)


def _evaluate_adaptive(results: ReliabilityResults,
                       options: PipelineOptions,
                       telemetry: JsonlSink | None,
                       progress: bool, jobs: int,
                       ci_width: float, max_trials: int,
                       jit: bool | None = None,
                       registry=None, tag: str = "") -> None:
    """One adaptive suite-level campaign per technique."""
    config = AdaptiveConfig(ci_width=ci_width,
                            confidence=results.confidence,
                            max_trials=max_trials)
    for tech in results.techniques:
        logs = None
        if telemetry is not None or registry is not None:
            logs = {bench: CampaignLog(context={"benchmark": bench,
                                                "technique": tech.value,
                                                "seed": results.seed})
                    for bench in results.benchmarks}
        with span("fig8.adaptive", technique=tech.value) as tech_span:
            machines = [(bench, prepare_machine(bench, tech, options))
                        for bench in results.benchmarks]
            adaptive = run_adaptive_suite(machines, config=config,
                                          seed=results.seed, jobs=jobs,
                                          logs=logs, jit=jit)
        results.adaptive[tech] = adaptive
        for bench in results.benchmarks:
            results.cells[(bench, tech)] = adaptive.arm_results[bench]
        if registry is not None:
            for bench, machine in machines:
                weights = {r["stratum"]: r["weight"]
                           for r in adaptive.stratum_dicts()
                           if r.get("arm") == bench}
                _store_cell(registry, bench, tech, results.seed,
                            adaptive.arm_results[bench], logs[bench],
                            machine.program, tag,
                            weights=weights or None, adaptive=adaptive)
        if telemetry is not None:
            for bench in results.benchmarks:
                telemetry.write_many(logs[bench].to_dicts())
            telemetry.write_many(adaptive.batch_dicts(
                {"technique": tech.value, "seed": results.seed}))
        if progress:
            print(
                f"  {tech.label:14s} adaptive: {adaptive.trials} trials, "
                f"{len(adaptive.batches)} batches, unACE "
                f"{adaptive.estimate} "
                f"({'target reached' if adaptive.target_met else 'cap hit'}"
                f", {tech_span.elapsed:.1f}s)",
                file=sys.stderr,
            )


#: (column title, raw percent getter, raw count getter, outcome set).
#: The outcome set drives the post-stratified estimators used for
#: adaptive grids, where raw per-cell fractions are biased by the
#: non-uniform Neyman allocation.
_METRIC_COUNTS = (
    ("unACE %", lambda c: c.unace_percent,
     lambda c: c.count(Outcome.UNACE), (Outcome.UNACE,)),
    ("SEGV %", lambda c: c.segv_percent,
     lambda c: c.count(Outcome.SEGV), (Outcome.SEGV,)),
    ("SDC % (Hang included)", lambda c: c.sdc_percent,
     lambda c: c.count(Outcome.SDC) + c.count(Outcome.HANG),
     (Outcome.SDC, Outcome.HANG)),
)

#: The paper's failure metric (SDC+SEGV, hangs folded into SDC).
_FAILURE_OUTCOMES = (Outcome.SDC, Outcome.HANG, Outcome.SEGV)


def suite_estimate(results: ReliabilityResults, technique: Technique,
                   counter) -> StratifiedEstimate:
    """Suite-average rate for one technique with its interval.

    Benchmarks act as equal-weight strata (matching the Figure 8
    "Average" row, a plain mean of per-benchmark percentages), so this
    is exact for both fixed and adaptive grids even when per-cell trial
    counts differ.
    """
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
    level = confidence if confidence is not None else results.confidence
    sections = []
    for metric, getter, counter, outcomes in _METRIC_COUNTS:
        rows = []
        for bench in results.benchmarks:
            row = [bench]
            for t in results.techniques:
                cell = results.cell(bench, t)
                run = results.adaptive.get(t)
                if run is not None:
                    # Adaptive cells: the raw fraction is biased by
                    # Neyman allocation; report the post-stratified
                    # per-arm estimate instead.
                    est = run.arm_estimate(bench, outcomes, level)
                    text = fmt_pct(est.percent)
                    if confidence is not None:
                        text += f" [{100*est.low:5.2f},{100*est.high:6.2f}]"
                elif confidence is None:
                    text = fmt_pct(getter(cell))
                else:
                    text = (fmt_pct(getter(cell))
                            + _interval_text(counter(cell), cell.trials,
                                             confidence))
                row.append(text)
            rows.append(row)
        avg_row = ["Average"]
        for t in results.techniques:
            run = results.adaptive.get(t)
            if run is not None:
                est = run.suite_estimate(outcomes, level)
                text = fmt_pct(est.percent)
                if confidence is not None:
                    text += f" [{100*est.low:5.2f},{100*est.high:6.2f}]"
                avg_row.append(text)
                continue
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

    def _suite_percent(tech: Technique,
                       outcomes: tuple[Outcome, ...],
                       raw: float) -> float:
        run = results.adaptive.get(tech)
        if run is None:
            return raw
        return 100.0 * run.suite_estimate(outcomes, level).value

    noft_fail = _suite_percent(
        Technique.NOFT, _FAILURE_OUTCOMES,
        results.mean_sdc(Technique.NOFT) + results.mean_segv(Technique.NOFT))
    scalars = ["Headline scalars (paper Sections 1/7/9):"]
    for tech in results.techniques:
        if tech is Technique.NOFT:
            continue
        unace = _suite_percent(tech, (Outcome.UNACE,),
                               results.mean_unace(tech))
        fail = _suite_percent(
            tech, _FAILURE_OUTCOMES,
            results.mean_sdc(tech) + results.mean_segv(tech))
        scalars.append(
            f"  {tech.label:14s} mean unACE {unace:6.2f}%"
            f"  SDC+SEGV reduction vs NOFT "
            f"{reduction_percent(noft_fail, fail):6.2f}%"
        )
    sections.append("\n".join(scalars))
    if results.adaptive:
        lines = ["Adaptive stopping (suite unACE half-width target):"]
        for tech, adaptive in results.adaptive.items():
            target = adaptive.config.ci_width
            lines.append(
                f"  {tech.label:14s} {adaptive.trials:5d} trials in "
                f"{len(adaptive.batches)} batches, half-width "
                f"{100*adaptive.estimate.half_width:.2f} pts "
                f"(target {100*target:.2f}): "
                + ("target reached" if adaptive.target_met
                   else "trial cap hit")
            )
        sections.append("\n".join(lines))
    if confidence is not None:
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
    parser.add_argument("--adaptive", action="store_true",
                        help="replace the fixed per-cell budget with "
                             "sequential suite-level campaigns that stop "
                             "at the target CI half-width")
    parser.add_argument("--ci-width", type=float, default=2.5,
                        help="adaptive target CI half-width in percentage "
                             "points (default 2.5)")
    parser.add_argument("--confidence", type=float, default=0.95,
                        help="confidence level for intervals and claims "
                             "(default 0.95)")
    parser.add_argument("--max-trials", type=int, default=4000,
                        help="adaptive per-technique trial cap")
    parser.add_argument("--ci", action="store_true",
                        help="annotate the tables with confidence "
                             "intervals and the claims table (implied by "
                             "--adaptive)")
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
    sink = open_sink(args.telemetry)
    results = evaluate_reliability(
        benchmarks=args.benchmarks.split(",") if args.benchmarks else None,
        trials=args.trials, seed=args.seed, progress=True, telemetry=sink,
        jobs=args.jobs, taint=args.taint, adaptive=args.adaptive,
        ci_width=args.ci_width / 100.0, confidence=args.confidence,
        max_trials=args.max_trials, profile_path=args.profile,
        jit=args.jit, store=args.store, tag=args.tag,
        runs_dir=args.runs_dir)
    export_session(sink)
    confidence = (args.confidence if (args.ci or args.adaptive) else None)
    print(render_figure8(results, confidence=confidence))
    return 0


if __name__ == "__main__":
    print("repro: error: run Figure 8 with `python -m repro fig8`",
          file=sys.stderr)
    raise SystemExit(2)
