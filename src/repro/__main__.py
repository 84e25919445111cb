"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``run PROGRAM``                compile and execute a program
* ``asm PROGRAM [-t TECH]``      show the (protected) assembly
* ``campaign PROGRAM [-t TECH]`` SEU fault-injection campaign
* ``profile WORKLOAD [-t TECH]`` per-function cycle profile
* ``workloads``                  list the benchmark suite
* ``fig8`` / ``fig9``            regenerate the paper's figures
* ``obs summarize PATH``         render a JSONL telemetry file
* ``obs forensics PATH``         per-trial fault-mechanism report
* ``obs export-trace PATH``      convert telemetry to a Chrome trace
* ``obs hotspots PATH``          simulator hot-block / JIT-candidate report
* ``obs atlas PATH``             program-anchored reliability map
* ``obs convergence PATH``       stratum coverage / CI convergence audit
* ``obs runs``                   list / gc the persistent run ledger
* ``obs diff A B``               compare two stored runs statistically
* ``obs history [METRIC]``       metric trajectory across stored runs

A PROGRAM is a suite workload name (see ``workloads``), built as a
``fig8`` cell builds it, or else a mini-C file path (a file named like
a workload is given as ``./mcf``).  The producers ``campaign``,
``fig8`` and ``fig9`` run; ``obs`` only reads what they recorded.
They share their output options (``--telemetry``, ``--profile``,
``--store``); ``campaign`` and ``fig8`` also take ``--jobs N``,
``--taint`` and ``--adaptive``.  ``fig8``/``fig9`` take the flags
that ``repro.eval.reliability``/``performance`` define (``add_arguments``).
``--help`` lists every option, and ``docs/`` explains them.  A
``campaign --store`` whose identical run is already in the ledger is
answered from it without running a trial.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import (
    CodegenError,
    ParseError,
    SemanticError,
    ShardLostError,
    SpecError,
    WorkloadError,
)
from .eval import performance, reliability
from .lang import compile_source
from .obs.registry import RegistryError
from .obs.sink import TelemetryError
from .sim import Machine, run_program
from .transform import Technique, allocate_program, protect
from .workloads import PAPER_BENCHMARKS, WORKLOADS


_PROGRAM_HELP = ("suite workload name (see 'repro workloads') or mini-C "
                "file path (a file named like a workload: ./NAME)")


def _technique(text: str) -> Technique:
    try:
        return Technique(text)
    except ValueError:
        choices = ", ".join(t.value for t in Technique)
        raise argparse.ArgumentTypeError(
            f"unknown technique {text!r} (choices: {choices})"
        ) from None


def _load_binary(program: str, technique: Technique):
    """The protected binary ``program`` names: a suite workload (see
    ``repro workloads``), built as a ``fig8`` cell builds it, or else a
    mini-C file -- a file named like a workload is given as ``./mcf``."""
    if program in WORKLOADS:
        from .eval.pipeline import prepare

        return prepare(program, technique)
    with open(program) as handle:
        source = handle.read()
    return allocate_program(protect(compile_source(source), technique))


def _cmd_run(args) -> int:
    binary = _load_binary(args.program, args.technique)
    result = run_program(binary)
    for item in result.output:
        print(item)
    if result.status.value != "exited":
        print(f"[{result.status.value}: {result.trap_detail}]",
              file=sys.stderr)
        return 1
    return result.exit_code


def _cmd_asm(args) -> int:
    from .isa import print_program

    binary = _load_binary(args.program, args.technique)
    print(print_program(binary))
    return 0


def _campaign_spec(args):
    """The :class:`~repro.eval.spec.CampaignSpec` a ``campaign``
    invocation describes (``--ci-width`` arrives in percentage
    points).  Its program axis follows :func:`_load_binary`'s rule, so
    ``campaign crc32`` shares its ledger identity with a ``fig8``
    cell."""
    from .eval.spec import CampaignSpec

    kwargs: dict = {
        "workload" if args.program in WORKLOADS else "source":
            args.program,
        "technique": args.technique.value,
        "seed": args.seed,
        "jobs": args.jobs,
    }
    if args.adaptive:
        kwargs.update(adaptive=True, metric=args.metric,
                      ci_width=args.ci_width / 100.0,
                      confidence=args.confidence,
                      max_trials=args.max_trials)
    else:
        kwargs["trials"] = args.trials
    return CampaignSpec(**kwargs)


def _cmd_campaign(args) -> int:
    from .eval.spec import run_spec
    from .eval.telemetry import export_session, open_sink
    from .obs import CampaignLog

    spec = _campaign_spec(args)
    context = dict(spec.workload_dict(), technique=spec.technique,
                   seed=spec.seed)
    sink = open_sink(args.telemetry)
    log = None
    if (sink is not None or args.taint or args.store
            or (args.atlas and args.adaptive)):
        # Taint tracing needs a log to collect event streams even when
        # nothing is exported: forensics renders from the log directly.
        # (Adaptive atlases also anchor from the log, post-hoc; stored
        # runs keep the trial records as their primary artifact.)
        log = CampaignLog(context=context)
    binary = _load_binary(args.program, args.technique)
    # A stored identical campaign answers the request, unless it asks
    # for per-run output that only running the trials can produce.
    if (args.store and not (args.telemetry or args.taint or args.atlas
                            or args.profile)
            and _answer_from_ledger(args, spec, binary)):
        return 0
    profile = None
    if args.profile:
        from .obs import SimProfiler

        profile = SimProfiler()
    if args.adaptive:
        return _adaptive_campaign(args, spec, binary, sink, log, profile,
                                  context)
    atlas = None
    if args.atlas:
        from .obs import AtlasAccumulator

        atlas = AtlasAccumulator()
    run = run_spec(spec, binary, log=log, taint=args.taint,
                   profile=profile, jit=args.jit, atlas=atlas)
    campaign = run.result
    print(f"technique : {args.technique.label}")
    print(f"trials    : {campaign.trials}")
    _print_outcomes(campaign)
    # Sub-resolution campaigns report no rate rather than a nonsense one.
    rate = (f"{campaign.trials_per_sec:.1f} trials/s"
            if campaign.elapsed_seconds > 0 else "rate n/a")
    print(f"elapsed   : {campaign.elapsed_seconds:6.2f}s ({rate})")
    if atlas is not None:
        from .obs import Atlas

        _write_atlas(args.atlas, Atlas.from_accumulator(
            atlas, context=dict(context, trials=campaign.trials)))
    if profile is not None:
        _write_profile(args.profile, profile,
                       context=dict(context, trials=campaign.trials))
    if sink is not None:
        sink.write_many(log.to_dicts())
        sink.write_many(log.taint_dicts())
        latencies = log.latencies()
        if latencies:
            mean = sum(latencies) / len(latencies)
            print(f"latency   : mean {mean:.1f} dynamic instructions to "
                  f"detection ({len(latencies)} detected trials)")
        export_session(sink)
    if args.store:
        _store_run(args, spec, run, binary)
    if args.taint:
        from .obs import analyze_log, render_report

        print()
        print(render_report(analyze_log(log)))
    return 0


def _print_outcomes(campaign) -> None:
    """The outcome lines every campaign report shares."""
    print(f"unACE     : {campaign.unace_percent:6.2f}%")
    print(f"SEGV      : {campaign.segv_percent:6.2f}%")
    print(f"SDC       : {campaign.sdc_percent:6.2f}%")
    if campaign.detected_percent:
        print(f"detected  : {campaign.detected_percent:6.2f}%")
    print(f"repairs   : fired in {campaign.recoveries} runs")


def _answer_from_ledger(args, spec, binary) -> bool:
    """Report an identical campaign already in the ledger instead of
    running it (``--store``); ``False`` when none is stored."""
    from .eval.spec import find_cached
    from .faults import CampaignResult
    from .obs.registry import RunRegistry

    registry = RunRegistry(args.runs_dir or None)
    run_id = find_cached(registry, spec, binary)
    if run_id is None:
        return False
    if args.tag:
        registry.tag(run_id, args.tag)
    results = registry.manifest(run_id)["results"]
    print(f"technique : {args.technique.label}")
    print(f"trials    : {results['trials']}")
    if "adaptive" in results:
        print("status    : " + ("target reached"
                                if results["adaptive"]["target_met"]
                                else "trial cap hit"))
    _print_outcomes(CampaignResult.from_summary(results))
    _print_ledger("cache hit", run_id, args.tag, registry.run_dir(run_id))
    return True


def _store_run(args, spec, run, binary) -> None:
    """Record one finished campaign in the run ledger (``--store``)."""
    from .eval.spec import store_spec_run
    from .obs.registry import RunRegistry

    registry = RunRegistry(args.runs_dir or None)
    stored = store_spec_run(registry, spec, run, binary, tag=args.tag)
    _print_ledger("stored" if stored.created else "cache hit",
                  stored.run_id, args.tag, stored.path)


def _print_ledger(verb: str, run_id: str, tag: str, path: str) -> None:
    tag = f" tag={tag}" if tag else ""
    print(f"ledger    : {verb} run {run_id}{tag} -> {path}")
    print(f"            (compare with: python -m repro obs diff "
          f"{run_id[:12]} OTHER)")


def _write_profile(path: str, profile, context: dict) -> None:
    """Export profiler records and say how to render them."""
    from .obs import JsonlSink

    records = profile.to_records(context=context)
    with JsonlSink(path) as sink:
        sink.write_many(records)
    blocks = sum(1 for r in records if r.get("kind") == "block_profile")
    print(f"profile   : {profile.total_instructions} instructions over "
          f"{blocks} blocks -> {path}")
    print(f"            (render with: python -m repro obs hotspots {path})")


def _write_atlas(path: str, atlas) -> None:
    """Save an atlas artifact and say how to render it."""
    atlas.save(path)
    sites = sum(1 for site in atlas.payload["sites"]
                if not site["loc"].startswith("("))
    print(f"atlas     : {atlas.trials} trials anchored to {sites} "
          f"instructions -> {path}")
    print(f"            (render with: python -m repro obs atlas {path})")


def _adaptive_campaign(args, spec, binary, sink, log, profile,
                       context) -> int:
    """Run one adaptive campaign and print its stopping summary;
    ``run_spec`` rejects ``--taint`` and ``--profile`` here."""
    from .eval.spec import run_spec
    from .eval.telemetry import export_session

    run = run_spec(spec, binary, log=log, taint=args.taint,
                   profile=profile, jit=args.jit)
    result = run.adaptive
    campaign = result.result
    estimate = result.estimate
    print(f"technique : {args.technique.label}")
    print(f"metric    : {args.metric}")
    print(f"trials    : {campaign.trials} of cap {spec.max_trials}")
    print(f"batches   : {len(result.batches)} "
          f"across {len(result.cells)} strata")
    print(f"estimate  : {estimate} at {args.confidence:.0%} confidence")
    print(f"half-width: {100*estimate.half_width:5.2f} pts "
          f"(target {args.ci_width:.2f})")
    print("status    : "
          + ("target reached" if result.target_met else "trial cap hit"))
    _print_outcomes(campaign)
    if campaign.elapsed_seconds > 0:
        print(f"elapsed   : {campaign.elapsed_seconds:6.2f}s "
              f"({campaign.trials_per_sec:.1f} trials/s)")
    if sink is not None:
        sink.write_many(log.to_dicts())
        sink.write_many(result.batch_dicts(context=context))
        sink.write_many(result.stratum_dicts(context=context))
        export_session(sink)
    if args.atlas:
        # Anchor post-hoc from the log (adaptive batches already carry
        # per-trial strata) and weight by the fault space's population
        # shares rather than the realized -- Neyman-skewed -- sampling.
        from .obs import atlas_from_records

        weights = {r["stratum"]: r["weight"]
                   for r in result.stratum_dicts()}
        _write_atlas(args.atlas, atlas_from_records(
            log.to_dicts(), Machine(binary), weights=weights,
            context=dict(context, trials=campaign.trials)))
    if args.store:
        _store_run(args, spec, run, binary)
    return 0


def _cmd_obs_summarize(args) -> int:
    from .obs.sink import load_telemetry, summarize_records

    print(summarize_records(load_telemetry(args.path), fmt=args.format))
    return 0


def _cmd_obs_forensics(args) -> int:
    from .obs.forensics import forensics_path

    print(forensics_path(args.path, fmt=args.format))
    return 0


def _cmd_obs_export_trace(args) -> int:
    from .obs.trace_export import export_trace_path

    out = args.output or args.path + ".trace.json"
    count = export_trace_path(args.path, out)
    print(f"wrote {count} trace events to {out}")
    return 0


def _cmd_obs_hotspots(args) -> int:
    from .obs import load_telemetry, render_hotspots

    print(render_hotspots(load_telemetry(args.path), top=args.top,
                          fmt=args.format))
    return 0


def _recorded_program(context: dict):
    """Rebuild the binary a recorded campaign ran on from its own
    ``benchmark``/``source`` and ``technique`` keys (``None`` when
    they name none): an atlas must anchor onto the binary the campaign
    injected into, or its location strings are meaningless."""
    program = context.get("benchmark") or context.get("source")
    if not program or "technique" not in context:
        return None
    return _load_binary(str(program),
                        _technique(str(context["technique"])))


def _cmd_obs_atlas(args) -> int:
    import json

    from .obs import Atlas, atlas_from_records
    from .obs.sink import load_telemetry

    # A saved atlas is one pretty-printed JSON document; telemetry
    # is JSONL (one record per line), which json.loads rejects.
    single = None
    if not str(args.path).endswith(".gz"):
        try:
            with open(args.path) as handle:
                single = json.loads(handle.read())
        except ValueError:
            single = None
    if isinstance(single, dict) and single.get("kind") == "atlas":
        # A saved atlas artifact: render it directly.  The heatmap
        # needs the program back; rebuild it when the context names
        # it, else fall back to tables.
        atlas = Atlas(single)
        try:
            program = _recorded_program(atlas.context)
        except OSError:
            program = None
    else:
        # Telemetry JSONL: rebuild the binary and anchor onto it.
        records = load_telemetry(args.path)
        trials = [r for r in records if r.get("kind") == "trial"]
        cells = sorted({(r.get("benchmark", r.get("source", "?")),
                         r.get("technique", "?")) for r in trials})
        if len(cells) > 1:
            return _input_error(
                "telemetry mixes several campaign cells "
                f"({', '.join('/'.join(c) for c in cells)}); export one "
                "campaign per file to build an atlas")
        program = _recorded_program(trials[0] if trials else {})
        if program is None:
            return _input_error("records name no benchmark or source "
                                "file and technique to anchor the atlas")
        weights = {r["stratum"]: r["weight"] for r in records
                   if r.get("kind") == "fault_space_stratum"
                   and "stratum" in r} or None
        atlas = atlas_from_records(
            records, Machine(program), weights=weights,
            context={"telemetry": args.path})
    if args.output:
        _write_atlas(args.output, atlas)
    if args.escapes:
        with open(args.escapes, "w") as handle:
            handle.write(atlas.escapes_json(args.top))
            handle.write("\n")
        print(f"escapes   : top {args.top} feed -> {args.escapes}")
    if args.format == "json":
        print(atlas.to_json())
    else:
        print(atlas.render(program=program, top=args.top))
    return 0


def _cmd_obs_convergence(args) -> int:
    from .obs import convergence_tables, emit_tables
    from .obs.sink import load_telemetry

    records = load_telemetry(args.path)
    print(emit_tables(convergence_tables(records), args.format,
                      kind="convergence",
                      meta={"records": len(records)}))
    return 0


def _cmd_obs_runs(args) -> int:
    from .obs import emit_tables
    from .obs.registry import RunRegistry, runs_tables

    registry = RunRegistry(args.runs_dir or None)
    if args.gc:
        removed = registry.gc()
        if removed:
            print(f"gc: removed {len(removed)} untagged/stale run(s): "
                  + ", ".join(r[:12] for r in removed))
        else:
            print("gc: nothing to remove (tagged runs are kept)")
    print(emit_tables(
        runs_tables(registry, tag=args.tag, workload=args.workload,
                    technique=args.technique),
        args.format, kind="runs", meta={"runs_dir": registry.root},
        empty=f"(no stored runs in {registry.root}; store one with "
              "`repro campaign ... --store`)"))
    return 0


def _cmd_obs_diff(args) -> int:
    from .obs import emit_tables
    from .obs.registry import RunRegistry, diff_tables

    registry = RunRegistry(args.runs_dir or None)
    tables = diff_tables(registry, args.run_a, args.run_b,
                         confidence=args.confidence, top=args.top,
                         force=args.force)
    print(emit_tables(tables, args.format, kind="run_diff",
                      meta={"runs_dir": registry.root}))
    return 0


def _cmd_obs_history(args) -> int:
    from .obs import emit_tables
    from .obs.registry import RunRegistry, history_tables

    registry = RunRegistry(args.runs_dir or None)
    tables = history_tables(registry, metric=args.metric,
                            tag=args.tag, workload=args.workload,
                            technique=args.technique,
                            tolerance=args.tolerance)
    print(emit_tables(
        tables, args.format, kind="run_history",
        meta={"runs_dir": registry.root, "metric": args.metric},
        empty=f"(no stored runs match in {registry.root})"))
    return 0


def _cmd_profile(args) -> int:
    from .eval.profile import profile_workload, render_profile

    profiles, result = profile_workload(args.workload, args.technique)
    print(render_profile(args.workload, args.technique, profiles))
    print(f"\ntotal: {result.cycles} cycles, {result.instructions} "
          f"instructions, ipc {result.ipc:.2f}")
    return 0


def _cmd_workloads(args) -> int:
    for name, workload in WORKLOADS.items():
        marker = "*" if name in PAPER_BENCHMARKS else " "
        print(f"{marker} {name:10s} {workload.paper_analogue:32s} "
              f"{workload.description}")
    print("\n(* = used in the paper-figure reproductions)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SWIFT-R / TRUMP / MASK software-only fault recovery "
                    "(DSN 2006 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="compile and run a program")
    p_run.add_argument("program", help=_PROGRAM_HELP)
    p_run.add_argument("-t", "--technique", type=_technique,
                       default=Technique.NOFT)
    p_run.set_defaults(func=_cmd_run)

    p_asm = sub.add_parser("asm", help="show (protected) assembly")
    p_asm.add_argument("program", help=_PROGRAM_HELP)
    p_asm.add_argument("-t", "--technique", type=_technique,
                       default=Technique.NOFT)
    p_asm.set_defaults(func=_cmd_asm)

    p_campaign = sub.add_parser("campaign",
                                help="run an SEU fault-injection campaign")
    p_campaign.add_argument("program", help=_PROGRAM_HELP)
    p_campaign.add_argument("-t", "--technique", type=_technique,
                            default=Technique.SWIFTR)
    p_campaign.add_argument("--trials", type=int, default=250)
    p_campaign.add_argument("--seed", type=int, default=0)
    p_campaign.add_argument("--jobs", type=int, default=1,
                            help="worker processes (0 = all cores); "
                                 "results are identical for any value")
    p_campaign.add_argument("--telemetry", default="",
                            help="write per-trial JSONL telemetry here")
    p_campaign.add_argument("--taint", action="store_true",
                            help="trace each fault's dataflow and print "
                                 "the per-mechanism forensics report")
    p_campaign.add_argument("--profile", default="",
                            help="collect a deterministic simulator "
                                 "execution profile and write it here "
                                 "(render with 'obs hotspots')")
    p_campaign.add_argument("--atlas", default="",
                            help="write a program-anchored reliability "
                                 "atlas (JSON) here; render with "
                                 "'obs atlas PATH'")
    p_campaign.add_argument("--adaptive", action="store_true",
                            help="stratified sequential campaign: stop "
                                 "when the metric's CI half-width hits "
                                 "--ci-width instead of after --trials")
    p_campaign.add_argument("--ci-width", type=float, default=2.5,
                            help="adaptive target CI half-width in "
                                 "percentage points (default 2.5)")
    p_campaign.add_argument("--confidence", type=float, default=0.95,
                            help="confidence level (default 0.95)")
    p_campaign.add_argument("--max-trials", type=int, default=4000,
                            help="adaptive trial cap")
    p_campaign.add_argument("--jit", action=argparse.BooleanOptionalAction,
                            default=None,
                            help="block-compile the binary for execution "
                                 "(default: on unless --taint/--profile; "
                                 "outcomes are bit-identical either way)")
    p_campaign.add_argument("--metric", default="unace",
                            choices=["unace", "sdc", "segv", "failure",
                                     "detected"],
                            help="rate the adaptive stopping rule targets")
    p_campaign.add_argument("--store", action="store_true",
                            help="record this run in the persistent ledger "
                                 "(manifest + artifacts, content-addressed; "
                                 "inspect with 'obs runs/diff/history')")
    p_campaign.add_argument("--tag", default="",
                            help="human-readable ledger tag for the stored "
                                 "run, e.g. --tag baseline")
    p_campaign.add_argument("--runs-dir", default="",
                            help="ledger directory (default: "
                                 "$REPRO_RUNS_DIR or .repro/runs)")
    p_campaign.set_defaults(func=_cmd_campaign)

    p_profile = sub.add_parser("profile",
                               help="per-function cycle profile")
    p_profile.add_argument("workload", choices=sorted(WORKLOADS))
    p_profile.add_argument("-t", "--technique", type=_technique,
                           default=Technique.NOFT)
    p_profile.set_defaults(func=_cmd_profile)

    p_workloads = sub.add_parser("workloads", help="list the suite")
    p_workloads.set_defaults(func=_cmd_workloads)

    p_fig8 = sub.add_parser("fig8", help="reproduce Figure 8 (reliability)")
    reliability.add_arguments(p_fig8)
    p_fig8.set_defaults(func=reliability.run)

    p_fig9 = sub.add_parser("fig9", help="reproduce Figure 9 (performance)")
    performance.add_arguments(p_fig9)
    p_fig9.set_defaults(func=performance.run)

    p_obs = sub.add_parser("obs", help="telemetry tooling")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_summarize = obs_sub.add_parser(
        "summarize", help="render a JSONL telemetry file as tables")
    p_summarize.add_argument("path")
    p_summarize.add_argument("--format", choices=["text", "json"],
                             default="text",
                             help="output format (default text)")
    p_summarize.set_defaults(func=_cmd_obs_summarize)
    p_forensics = obs_sub.add_parser(
        "forensics",
        help="classify every trial's fault mechanism from taint streams")
    p_forensics.add_argument("path")
    p_forensics.add_argument("--format", choices=["text", "json"],
                             default="text",
                             help="output format (default text)")
    p_forensics.set_defaults(func=_cmd_obs_forensics)
    p_trace = obs_sub.add_parser(
        "export-trace",
        help="convert a telemetry file to Chrome trace_event JSON")
    p_trace.add_argument("path")
    p_trace.add_argument("-o", "--output", default="",
                         help="output path (default: PATH.trace.json)")
    p_trace.set_defaults(func=_cmd_obs_export_trace)
    p_hotspots = obs_sub.add_parser(
        "hotspots",
        help="rank simulator basic blocks by dynamic instruction share "
             "(the JIT-candidate report)")
    p_hotspots.add_argument("path",
                            help="profile JSONL written by campaign/fig8/"
                                 "fig9 --profile")
    p_hotspots.add_argument("--top", type=int, default=10,
                            help="blocks to show (default 10)")
    p_hotspots.add_argument("--format", choices=["text", "json"],
                            default="text",
                            help="output format (default text)")
    p_hotspots.set_defaults(func=_cmd_obs_hotspots)
    p_atlas = obs_sub.add_parser(
        "atlas",
        help="program-anchored reliability map: per-instruction outcome "
             "tallies, population-weighted, with escape routes")
    p_atlas.add_argument("path",
                         help="telemetry JSONL to fold, or an atlas JSON "
                              "saved by campaign --atlas")
    p_atlas.add_argument("--top", type=int, default=10,
                         help="sites/escapes to show (default 10)")
    p_atlas.add_argument("-o", "--output", default="",
                         help="also save the atlas JSON artifact here")
    p_atlas.add_argument("--escapes", default="",
                         help="write the ranked top-escapes JSON feed "
                              "here")
    p_atlas.add_argument("--format", choices=["text", "json"],
                         default="text",
                         help="print the heatmap report (text) or the "
                              "raw atlas JSON")
    p_atlas.set_defaults(func=_cmd_obs_atlas)
    p_conv = obs_sub.add_parser(
        "convergence",
        help="audit an adaptive campaign: stratum coverage, CI "
             "half-width timelines, allocation efficiency")
    p_conv.add_argument("path",
                        help="telemetry JSONL with adaptive_batch / "
                             "fault_space_stratum records (campaign "
                             "--adaptive --telemetry)")
    p_conv.add_argument("--format", choices=["text", "json"],
                        default="text",
                        help="output format (default text)")
    p_conv.set_defaults(func=_cmd_obs_convergence)

    p_runs = obs_sub.add_parser(
        "runs",
        help="list the persistent run ledger (populate it with "
             "campaign/fig8/fig9 --store)")
    p_runs.add_argument("--runs-dir", default="",
                        help="ledger directory (default: $REPRO_RUNS_DIR "
                             "or .repro/runs)")
    p_runs.add_argument("--tag", default="",
                        help="only runs carrying this tag")
    p_runs.add_argument("--workload", default="",
                        help="only runs of this workload (benchmark name "
                             "or source file)")
    p_runs.add_argument("-t", "--technique", default="",
                        help="only runs of this technique")
    p_runs.add_argument("--gc", action="store_true",
                        help="remove untagged runs and stale staging "
                             "directories, then list what remains")
    p_runs.add_argument("--format", choices=["text", "json"],
                        default="text",
                        help="output format (default text)")
    p_runs.set_defaults(func=_cmd_obs_runs)

    p_diff = obs_sub.add_parser(
        "diff",
        help="compare two stored runs: outcome-rate significance "
             "tests, atlas drift, detection-latency shift")
    p_diff.add_argument("run_a", help="run id prefix or tag (baseline)")
    p_diff.add_argument("run_b", help="run id prefix or tag (candidate)")
    p_diff.add_argument("--runs-dir", default="",
                        help="ledger directory (default: $REPRO_RUNS_DIR "
                             "or .repro/runs)")
    p_diff.add_argument("--confidence", type=float, default=0.95,
                        help="two-proportion test confidence "
                             "(default 0.95)")
    p_diff.add_argument("--top", type=int, default=10,
                        help="atlas-drift sites to show (default 10)")
    p_diff.add_argument("--force", action="store_true",
                        help="diff even when the runs differ on more "
                             "than one identity axis")
    p_diff.add_argument("--format", choices=["text", "json"],
                        default="text",
                        help="output format (default text)")
    p_diff.set_defaults(func=_cmd_obs_diff)

    p_history = obs_sub.add_parser(
        "history",
        help="metric trajectory across stored runs, oldest first, "
             "with regression flagging")
    p_history.add_argument("metric", nargs="?", default="unace",
                           help="rate to track: unace, sdc, segv, "
                                "detected or failure (default unace)")
    p_history.add_argument("--runs-dir", default="",
                           help="ledger directory (default: "
                                "$REPRO_RUNS_DIR or .repro/runs)")
    p_history.add_argument("--tag", default="",
                           help="only runs carrying this tag")
    p_history.add_argument("--workload", default="",
                           help="only runs of this workload")
    p_history.add_argument("-t", "--technique", default="",
                           help="only runs of this technique")
    p_history.add_argument("--tolerance", type=float, default=0.2,
                           help="relative regression tolerance vs the "
                                "previous run (default 0.2)")
    p_history.add_argument("--format", choices=["text", "json"],
                           default="text",
                           help="output format (default text)")
    p_history.set_defaults(func=_cmd_obs_history)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output truncated by a closed pipe (e.g. `repro asm ... | head`).
        return 0
    except OSError as exc:
        # A missing or unreadable file; anything else is not an input
        # error and keeps its traceback.
        if exc.filename is None:
            raise
        return _input_error(f"{exc.filename}: {exc.strerror or exc}")
    except (ParseError, SemanticError, CodegenError) as exc:
        source = getattr(args, "program", None)
        return _input_error(f"{source}: {exc}" if source else str(exc))
    except SpecError as exc:
        # An out-of-range campaign knob (--trials, --ci-width, ...).
        return _input_error(f"invalid campaign: {exc}")
    except (RegistryError, TelemetryError, WorkloadError) as exc:
        # A bad run ref or history metric, a corrupt ledger file, or
        # an unknown --benchmarks name.
        return _input_error(str(exc))
    except ShardLostError as exc:
        # The harness failed, not the input: exit status 3.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 3


def _input_error(message: str) -> int:
    """Report a bad input as one line on stderr, exit status 2."""
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
