"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``run FILE.c``                 compile and execute a mini-C program
* ``asm FILE.c [-t TECH]``       show the (protected) assembly
* ``campaign FILE.c [-t TECH]``  SEU fault-injection campaign
* ``profile WORKLOAD [-t TECH]`` per-function cycle profile
* ``workloads``                  list the benchmark suite
* ``fig8`` / ``fig9``            regenerate the paper's figures
* ``obs summarize PATH``         render a JSONL telemetry file
* ``obs forensics PATH``         per-trial fault-mechanism report
* ``obs export-trace PATH``      convert telemetry to a Chrome trace
* ``obs hotspots``               simulator hot-block / JIT-candidate report
* ``obs top PATH``               follow a live campaign's heartbeat file
* ``obs atlas``                  program-anchored reliability map
* ``obs convergence``            stratum coverage / CI convergence audit
* ``obs runs``                   list / gc the persistent run ledger
* ``obs diff A B``               compare two stored runs statistically
* ``obs history [METRIC]``       metric trajectory across stored runs
* ``bench``                      run the bench suite, gate vs baselines
* ``serve``                      campaign-as-a-service daemon (job queue,
  worker fleet, ledger-backed result cache)
* ``submit`` / ``status`` / ``fetch`` / ``cancel``
  thin client for a running ``serve`` (see ``docs/service.md``)

``campaign``, ``fig8``, and ``fig9`` accept ``--telemetry PATH`` to
export spans, metrics, and per-trial records as JSONL (see
``docs/observability.md``).  ``campaign`` and ``fig8`` accept
``--jobs N`` to shard trials over worker processes with bit-identical
results (see ``docs/performance.md``), ``--taint`` to trace each
fault's dataflow for escape forensics, and
``--adaptive --ci-width W --confidence C`` to run stratified
sequential campaigns that stop at a target confidence-interval width
instead of a fixed trial count (see ``docs/statistics.md``).

``campaign``, ``fig8``, and ``fig9`` also accept ``--profile PATH``
to collect a deterministic per-block execution profile of the
simulator itself, and ``campaign`` accepts ``--progress`` (live TTY
status line) and ``--heartbeat PATH`` (stream heartbeat records a
second terminal can follow with ``obs top PATH``); see
``docs/performance.md``.

``campaign``, ``fig8``, and ``fig9`` accept ``--store`` (with optional
``--tag NAME`` and ``--runs-dir DIR``) to record each run in the
content-addressed ledger under ``.repro/runs/``, queryable with
``obs runs`` / ``obs diff`` / ``obs history``; see
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import CodegenError, ParseError, SemanticError, ShardLostError
from .faults import run_campaign
from .lang import compile_source
from .sim import Machine, TimingSimulator, run_program
from .transform import Technique, allocate_program, protect
from .workloads import PAPER_BENCHMARKS, WORKLOADS


def _technique(text: str) -> Technique:
    try:
        return Technique(text)
    except ValueError:
        choices = ", ".join(t.value for t in Technique)
        raise argparse.ArgumentTypeError(
            f"unknown technique {text!r} (choices: {choices})"
        ) from None


def _load_binary(path: str, technique: Technique):
    with open(path) as handle:
        source = handle.read()
    program = compile_source(source)
    return allocate_program(protect(program, technique))


def _cmd_run(args) -> int:
    binary = _load_binary(args.file, args.technique)
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

    binary = _load_binary(args.file, args.technique)
    print(print_program(binary))
    return 0


def _campaign_spec(args):
    """The :class:`~repro.serve.spec.CampaignSpec` a ``campaign``
    invocation describes (``--ci-width`` arrives in percentage
    points)."""
    from .serve.spec import CampaignSpec

    kwargs: dict = {
        "technique": args.technique.value,
        "source": args.file,
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
    from .eval.telemetry import export_session, open_sink
    from .obs import CampaignLog
    from .serve.spec import run_spec

    sink = open_sink(args.telemetry)
    log = None
    if (sink is not None or args.taint or args.store
            or (args.atlas and args.adaptive)):
        # Taint tracing needs a log to collect event streams even when
        # nothing is exported: forensics renders from the log directly.
        # (Adaptive atlases also anchor from the log, post-hoc; stored
        # runs keep the trial records as their primary artifact.)
        log = CampaignLog(context={"source": args.file,
                                   "technique": args.technique.value,
                                   "seed": args.seed})
    binary = _load_binary(args.file, args.technique)
    monitor = None
    if args.progress or args.heartbeat:
        from .obs import CampaignMonitor

        monitor = CampaignMonitor(heartbeat_path=args.heartbeat or None,
                                  progress=args.progress)
    if args.adaptive:
        if args.taint:
            print("error: --taint is not supported with --adaptive",
                  file=sys.stderr)
            return 2
        if args.profile:
            print("error: --profile is not supported with --adaptive "
                  "(batch sizes depend on observed variance, so the "
                  "profile would not be reproducible)", file=sys.stderr)
            return 2
        return _adaptive_campaign(args, binary, sink, log, monitor)
    profile = None
    if args.profile:
        from .obs import SimProfiler

        profile = SimProfiler()
    atlas = None
    if args.atlas:
        from .obs import AtlasAccumulator

        atlas = AtlasAccumulator()
    spec = _campaign_spec(args)
    run = run_spec(spec, binary, log=log, taint=args.taint,
                   profile=profile, monitor=monitor, jit=args.jit,
                   atlas=atlas)
    campaign = run.result
    if monitor is not None:
        monitor.finish()
    print(f"technique : {args.technique.label}")
    print(f"trials    : {campaign.trials}")
    print(f"unACE     : {campaign.unace_percent:6.2f}%")
    print(f"SEGV      : {campaign.segv_percent:6.2f}%")
    print(f"SDC       : {campaign.sdc_percent:6.2f}%")
    if campaign.detected_percent:
        print(f"detected  : {campaign.detected_percent:6.2f}%")
    print(f"repairs   : fired in {campaign.recoveries} runs")
    # Sub-resolution campaigns report no rate rather than a nonsense one.
    rate = (f"{campaign.trials_per_sec:.1f} trials/s"
            if campaign.elapsed_seconds > 0 else "rate n/a")
    print(f"elapsed   : {campaign.elapsed_seconds:6.2f}s ({rate})")
    if atlas is not None:
        from .obs import Atlas

        _write_atlas(args.atlas, Atlas.from_accumulator(
            atlas, context={"source": args.file,
                            "technique": args.technique.value,
                            "seed": args.seed,
                            "trials": campaign.trials}))
    if profile is not None:
        _write_profile(args.profile, profile,
                       context={"source": args.file,
                                "technique": args.technique.value,
                                "seed": args.seed,
                                "trials": campaign.trials})
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
        _store_run(args, spec, run, binary, log)
    if args.taint:
        from .obs import analyze_log, render_report

        print()
        print(render_report(analyze_log(log)))
    return 0


def _store_run(args, spec, run, binary, log) -> None:
    """Record one finished campaign in the run ledger (``--store``)."""
    from .obs.registry import RunRegistry
    from .serve.spec import store_spec_run

    registry = RunRegistry(args.runs_dir or None)
    stored = store_spec_run(registry, spec, run, binary, log,
                            tag=args.tag)
    verb = "stored" if stored.created else "cache hit"
    tag = f" tag={args.tag}" if args.tag else ""
    print(f"ledger    : {verb} run {stored.run_id}{tag} -> {stored.path}")
    print(f"            (compare with: python -m repro obs diff "
          f"{stored.run_id[:12]} OTHER)")


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


def _adaptive_campaign(args, binary, sink, log, monitor=None) -> int:
    """Run one adaptive campaign and print its stopping summary."""
    from .eval.telemetry import export_session
    from .serve.spec import run_spec

    spec = _campaign_spec(args)
    run = run_spec(spec, binary, log=log, monitor=monitor,
                   jit=args.jit)
    result = run.adaptive
    if monitor is not None:
        monitor.finish()
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
    print(f"unACE     : {campaign.unace_percent:6.2f}%")
    print(f"SEGV      : {campaign.segv_percent:6.2f}%")
    print(f"SDC       : {campaign.sdc_percent:6.2f}%")
    if campaign.detected_percent:
        print(f"detected  : {campaign.detected_percent:6.2f}%")
    print(f"repairs   : fired in {campaign.recoveries} runs")
    if campaign.elapsed_seconds > 0:
        print(f"elapsed   : {campaign.elapsed_seconds:6.2f}s "
              f"({campaign.trials_per_sec:.1f} trials/s)")
    context = {"source": args.file, "technique": args.technique.value,
               "seed": args.seed}
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
        _store_run(args, spec, run, binary, log)
    return 0


def _cmd_obs_summarize(args) -> int:
    from .obs.sink import TelemetryError, load_telemetry, summarize_records

    try:
        records = load_telemetry(args.path)
    except TelemetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summarize_records(records, fmt=args.format))
    return 0


def _cmd_obs_forensics(args) -> int:
    from .obs.forensics import forensics_path
    from .obs.sink import TelemetryError

    try:
        print(forensics_path(args.path, fmt=args.format))
    except TelemetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_obs_export_trace(args) -> int:
    from .obs.trace_export import export_trace_path

    out = args.output or args.path + ".trace.json"
    count = export_trace_path(args.path, out)
    print(f"wrote {count} trace events to {out}")
    return 0


def _cmd_obs_hotspots(args) -> int:
    from .obs import read_jsonl, render_hotspots

    if args.path:
        records = read_jsonl(args.path)
    elif args.workload:
        # Direct mode: run a profiled campaign on a suite workload and
        # render immediately, no intermediate file.
        from .eval.pipeline import prepare
        from .obs import SimProfiler

        profile = SimProfiler()
        program = prepare(args.workload, args.technique)
        run_campaign(program, trials=args.trials, seed=args.seed,
                     jobs=args.jobs, profile=profile, jit=args.jit)
        records = profile.to_records(
            context={"workload": args.workload,
                     "technique": args.technique.value,
                     "seed": args.seed, "trials": args.trials})
    else:
        print("error: give a profile JSONL path or --workload NAME",
              file=sys.stderr)
        return 2
    print(render_hotspots(records, top=args.top, fmt=args.format))
    return 0


def _cmd_obs_top(args) -> int:
    from .obs import follow_path

    return follow_path(args.path, interval=args.interval,
                       iterations=1 if args.once else None,
                       stale_after=args.stale_after,
                       fmt=args.format)


def _atlas_program(args, records):
    """Resolve the binary the trials in ``records`` ran on.

    The atlas must anchor onto the *same* binary the campaign injected
    into, or the location strings are meaningless -- so the records'
    own identity (benchmark / source / technique context keys) wins
    over the command-line defaults.
    """
    trials = [r for r in records if r.get("kind") == "trial"]
    cells = sorted({(r.get("benchmark", r.get("source", "?")),
                     r.get("technique", "?")) for r in trials})
    if len(cells) > 1:
        print("error: telemetry mixes several campaign cells "
              f"({', '.join('/'.join(c) for c in cells)}); export one "
              "campaign per file to build an atlas", file=sys.stderr)
        return None
    sample = trials[0] if trials else {}
    technique = args.technique
    if "technique" in sample:
        technique = _technique(str(sample["technique"]))
    workload = str(sample.get("benchmark", "")) or args.workload
    if workload in WORKLOADS:
        from .eval.pipeline import prepare

        return prepare(workload, technique)
    source = str(sample.get("source", ""))
    if source:
        try:
            return _load_binary(source, technique)
        except OSError as exc:
            print(f"error: cannot rebuild campaign binary: {exc}",
                  file=sys.stderr)
            return None
    print("error: records name no benchmark or source file; pass "
          "--workload NAME to anchor the atlas", file=sys.stderr)
    return None


def _cmd_obs_atlas(args) -> int:
    import json

    from .obs import Atlas, AtlasAccumulator, atlas_from_records
    from .obs.sink import TelemetryError, load_telemetry

    program = None
    if args.path:
        # A saved atlas is one pretty-printed JSON document; telemetry
        # is JSONL (one record per line), which json.loads rejects.
        single = None
        if not str(args.path).endswith(".gz"):
            try:
                with open(args.path) as handle:
                    single = json.loads(handle.read())
            except OSError as exc:
                detail = getattr(exc, "strerror", None) or exc
                print(f"error: cannot read {args.path}: {detail}",
                      file=sys.stderr)
                return 1
            except ValueError:
                single = None
        if not (isinstance(single, dict)
                and single.get("kind") == "atlas"):
            # Telemetry JSONL: rebuild the binary and anchor onto it.
            try:
                records = load_telemetry(args.path)
            except TelemetryError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            program = _atlas_program(args, records)
            if program is None:
                return 2
            weights = {r["stratum"]: r["weight"] for r in records
                       if r.get("kind") == "fault_space_stratum"
                       and "stratum" in r} or None
            atlas = atlas_from_records(
                records, Machine(program), weights=weights,
                context={"telemetry": args.path})
        else:
            # A saved atlas artifact: render it directly.  The heatmap
            # needs the program back; rebuild it when the context (or
            # --workload) says which one, else fall back to tables.
            atlas = Atlas(single)
            context = atlas.context
            workload = str(context.get("benchmark", "")) or args.workload
            technique = _technique(str(
                context.get("technique", args.technique.value)))
            if workload in WORKLOADS:
                from .eval.pipeline import prepare

                program = prepare(workload, technique)
            elif context.get("source"):
                try:
                    program = _load_binary(str(context["source"]),
                                           technique)
                except OSError:
                    program = None  # tables-only fallback
    elif args.workload:
        # One-shot mode: run a campaign on a suite workload with atlas
        # accumulation (taint on by default so escape routes resolve).
        from .eval.pipeline import prepare

        program = prepare(args.workload, args.technique)
        acc = AtlasAccumulator()
        run_campaign(program, trials=args.trials, seed=args.seed,
                     jobs=args.jobs, taint=args.taint, atlas=acc)
        atlas = Atlas.from_accumulator(
            acc, context={"benchmark": args.workload,
                          "technique": args.technique.value,
                          "seed": args.seed, "trials": args.trials})
    else:
        print("error: give a telemetry/atlas path or --workload NAME",
              file=sys.stderr)
        return 2
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
    from .obs.sink import read_jsonl

    if args.path:
        records = read_jsonl(args.path)
    elif args.workload:
        # One-shot audit: run an adaptive campaign and feed its batch
        # and stratum telemetry straight into the tables.
        from .eval.pipeline import prepare
        from .stats import AdaptiveConfig, run_adaptive_campaign

        config = AdaptiveConfig(ci_width=args.ci_width / 100.0,
                                confidence=args.confidence,
                                metric=args.metric,
                                max_trials=args.max_trials)
        program = prepare(args.workload, args.technique)
        result = run_adaptive_campaign(program, config=config,
                                       seed=args.seed, jobs=args.jobs)
        context = {"benchmark": args.workload,
                   "technique": args.technique.value, "seed": args.seed}
        records = (result.batch_dicts(context=context)
                   + result.stratum_dicts(context=context))
    else:
        print("error: give a telemetry path or --workload NAME",
              file=sys.stderr)
        return 2
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
    from .obs.registry import RegistryError, RunRegistry, diff_tables

    registry = RunRegistry(args.runs_dir or None)
    try:
        tables = diff_tables(registry, args.run_a, args.run_b,
                             confidence=args.confidence, top=args.top,
                             force=args.force)
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(emit_tables(tables, args.format, kind="run_diff",
                      meta={"runs_dir": registry.root}))
    return 0


def _cmd_obs_history(args) -> int:
    from .obs import emit_tables
    from .obs.registry import RegistryError, RunRegistry, history_tables

    registry = RunRegistry(args.runs_dir or None)
    try:
        tables = history_tables(registry, metric=args.metric,
                                tag=args.tag, workload=args.workload,
                                technique=args.technique,
                                tolerance=args.tolerance)
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(emit_tables(
        tables, args.format, kind="run_history",
        meta={"runs_dir": registry.root, "metric": args.metric},
        empty=f"(no stored runs match in {registry.root})"))
    return 0


def _cmd_bench(args) -> int:
    from .bench.cli import run_bench

    return run_bench(args)


def _cmd_serve(args) -> int:
    from .serve.server import main_serve

    return main_serve(args)


def _cmd_submit(args) -> int:
    from .serve.client import main_submit

    return main_submit(args)


def _cmd_status(args) -> int:
    from .serve.client import main_status

    return main_status(args)


def _cmd_fetch(args) -> int:
    from .serve.client import main_fetch

    return main_fetch(args)


def _cmd_cancel(args) -> int:
    from .serve.client import main_cancel

    return main_cancel(args)


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


def _cmd_fig8(args) -> int:
    from .eval import reliability

    argv = ["--trials", str(args.trials), "--jobs", str(args.jobs)]
    if args.benchmarks:
        argv += ["--benchmarks", args.benchmarks]
    if args.telemetry:
        argv += ["--telemetry", args.telemetry]
    if args.store:
        argv += ["--store"]
        if args.tag:
            argv += ["--tag", args.tag]
        if args.runs_dir:
            argv += ["--runs-dir", args.runs_dir]
    if args.taint:
        argv += ["--taint"]
    if args.profile:
        argv += ["--profile", args.profile]
    if args.adaptive:
        argv += ["--adaptive", "--ci-width", str(args.ci_width),
                 "--confidence", str(args.confidence),
                 "--max-trials", str(args.max_trials)]
    if args.ci:
        argv += ["--ci", "--confidence", str(args.confidence)]
    if args.jit is not None:
        argv += ["--jit" if args.jit else "--no-jit"]
    return reliability.main(argv)


def _cmd_fig9(args) -> int:
    from .eval import performance

    argv = ["--benchmarks", args.benchmarks] if args.benchmarks else []
    if args.telemetry:
        argv += ["--telemetry", args.telemetry]
    if args.store:
        argv += ["--store"]
        if args.tag:
            argv += ["--tag", args.tag]
        if args.runs_dir:
            argv += ["--runs-dir", args.runs_dir]
    if args.profile:
        argv += ["--profile", args.profile]
    if args.jit is not None:
        argv += ["--jit" if args.jit else "--no-jit"]
    return performance.main(argv)


def _add_store_arguments(parser) -> None:
    """The run-ledger trio shared by campaign / fig8 / fig9."""
    parser.add_argument("--store", action="store_true",
                        help="record this run in the persistent ledger "
                             "(manifest + artifacts, content-addressed; "
                             "inspect with 'obs runs/diff/history')")
    parser.add_argument("--tag", default="",
                        help="human-readable ledger tag for the stored "
                             "run(s), e.g. --tag baseline")
    parser.add_argument("--runs-dir", default="",
                        help="ledger directory (default: $REPRO_RUNS_DIR "
                             "or .repro/runs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SWIFT-R / TRUMP / MASK software-only fault recovery "
                    "(DSN 2006 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="compile and run a mini-C file")
    p_run.add_argument("file")
    p_run.add_argument("-t", "--technique", type=_technique,
                       default=Technique.NOFT)
    p_run.set_defaults(func=_cmd_run)

    p_asm = sub.add_parser("asm", help="show (protected) assembly")
    p_asm.add_argument("file")
    p_asm.add_argument("-t", "--technique", type=_technique,
                       default=Technique.NOFT)
    p_asm.set_defaults(func=_cmd_asm)

    p_campaign = sub.add_parser("campaign",
                                help="run an SEU fault-injection campaign")
    p_campaign.add_argument("file")
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
    p_campaign.add_argument("--progress", action="store_true",
                            help="live progress line on stderr "
                                 "(trials/s, ETA)")
    p_campaign.add_argument("--heartbeat", default="",
                            help="stream heartbeat records to this JSONL "
                                 "file; follow with 'obs top PATH'")
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
    _add_store_arguments(p_campaign)
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
    p_fig8.add_argument("--trials", type=int, default=120)
    p_fig8.add_argument("--jobs", type=int, default=1,
                        help="worker processes per campaign cell "
                             "(0 = all cores)")
    p_fig8.add_argument("--benchmarks", default="")
    p_fig8.add_argument("--telemetry", default="",
                        help="write per-trial JSONL telemetry here")
    p_fig8.add_argument("--taint", action="store_true",
                        help="trace fault dataflow into the telemetry file")
    p_fig8.add_argument("--profile", default="",
                        help="write a per-cell simulator execution "
                             "profile here (render with 'obs hotspots')")
    p_fig8.add_argument("--adaptive", action="store_true",
                        help="adaptive suite-level campaigns per technique "
                             "instead of a fixed per-cell budget")
    p_fig8.add_argument("--ci-width", type=float, default=2.5,
                        help="adaptive target CI half-width in percentage "
                             "points (default 2.5)")
    p_fig8.add_argument("--confidence", type=float, default=0.95,
                        help="confidence level for intervals and claims")
    p_fig8.add_argument("--max-trials", type=int, default=4000,
                        help="adaptive per-technique trial cap")
    p_fig8.add_argument("--ci", action="store_true",
                        help="annotate tables with confidence intervals "
                             "and the claims table")
    p_fig8.add_argument("--jit", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="block-compile each cell's binary "
                             "(default: on unless --taint/--profile)")
    _add_store_arguments(p_fig8)
    p_fig8.set_defaults(func=_cmd_fig8)

    p_fig9 = sub.add_parser("fig9", help="reproduce Figure 9 (performance)")
    p_fig9.add_argument("--benchmarks", default="")
    p_fig9.add_argument("--telemetry", default="",
                        help="write per-cell JSONL telemetry here")
    p_fig9.add_argument("--profile", default="",
                        help="profile one functional golden run per cell "
                             "and write the records here")
    p_fig9.add_argument("--jit", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="accepted for parity with campaign/fig8; "
                             "the cycle-timing loop never uses the JIT")
    _add_store_arguments(p_fig9)
    p_fig9.set_defaults(func=_cmd_fig9)

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
    p_hotspots.add_argument("path", nargs="?", default="",
                            help="profile JSONL written by --profile "
                                 "(omit to profile --workload directly)")
    p_hotspots.add_argument("--workload", default="",
                            choices=["", *sorted(WORKLOADS)],
                            help="profile a campaign on this suite "
                                 "workload instead of reading a file")
    p_hotspots.add_argument("-t", "--technique", type=_technique,
                            default=Technique.SWIFTR)
    p_hotspots.add_argument("--trials", type=int, default=60)
    p_hotspots.add_argument("--seed", type=int, default=0)
    p_hotspots.add_argument("--jobs", type=int, default=1)
    p_hotspots.add_argument("--jit", action=argparse.BooleanOptionalAction,
                            default=None,
                            help="with --workload: annotate the report "
                                 "with a JIT-coverage column (fraction of "
                                 "dynamic instructions in compiled blocks)")
    p_hotspots.add_argument("--top", type=int, default=10,
                            help="blocks to show (default 10)")
    p_hotspots.add_argument("--format", choices=["text", "json"],
                            default="text",
                            help="output format (default text)")
    p_hotspots.set_defaults(func=_cmd_obs_hotspots)
    p_top = obs_sub.add_parser(
        "top",
        help="follow a running campaign's heartbeat file "
             "(shards, trials/s, CI trajectory, ETA)")
    p_top.add_argument("path")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between refreshes (default 2)")
    p_top.add_argument("--once", action="store_true",
                       help="render one snapshot and exit")
    p_top.add_argument("--stale-after", type=float, default=60.0,
                       help="flag shards whose last heartbeat is older "
                            "than this many seconds as DEAD "
                            "(default 60)")
    p_top.add_argument("--format", choices=["text", "json"],
                       default="text",
                       help="output format (default text; json emits "
                            "one document per refresh, best with --once)")
    p_top.set_defaults(func=_cmd_obs_top)
    p_atlas = obs_sub.add_parser(
        "atlas",
        help="program-anchored reliability map: per-instruction outcome "
             "tallies, population-weighted, with escape routes")
    p_atlas.add_argument("path", nargs="?", default="",
                         help="telemetry JSONL (or a saved atlas JSON) "
                              "to fold; omit to campaign --workload "
                              "directly")
    p_atlas.add_argument("--workload", default="",
                         choices=["", *sorted(WORKLOADS)],
                         help="run a one-shot campaign on this suite "
                              "workload (or name the program a "
                              "telemetry file ran on)")
    p_atlas.add_argument("-t", "--technique", type=_technique,
                         default=Technique.SWIFTR)
    p_atlas.add_argument("--trials", type=int, default=60)
    p_atlas.add_argument("--seed", type=int, default=0)
    p_atlas.add_argument("--jobs", type=int, default=1,
                         help="worker processes; the atlas is "
                              "bit-identical for any value")
    p_atlas.add_argument("--taint", action=argparse.BooleanOptionalAction,
                         default=True,
                         help="trace dataflow in one-shot mode so SDC "
                              "escape routes resolve (default on)")
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
    p_conv.add_argument("path", nargs="?", default="",
                        help="telemetry JSONL with adaptive_batch / "
                             "fault_space_stratum records; omit to run "
                             "--workload one-shot")
    p_conv.add_argument("--workload", default="",
                        choices=["", *sorted(WORKLOADS)],
                        help="run a one-shot adaptive campaign on this "
                             "suite workload and audit it")
    p_conv.add_argument("-t", "--technique", type=_technique,
                        default=Technique.SWIFTR)
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.add_argument("--jobs", type=int, default=1)
    p_conv.add_argument("--ci-width", type=float, default=2.5,
                        help="target CI half-width in percentage points")
    p_conv.add_argument("--confidence", type=float, default=0.95)
    p_conv.add_argument("--max-trials", type=int, default=800,
                        help="one-shot adaptive trial cap (default 800)")
    p_conv.add_argument("--metric", default="unace",
                        choices=["unace", "sdc", "segv", "failure",
                                 "detected"])
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
             "with bench-gate regression flagging")
    p_history.add_argument("metric", nargs="?", default="unace",
                           choices=["unace", "sdc", "segv", "detected",
                                    "failure"],
                           help="rate to track (default unace)")
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

    p_bench = sub.add_parser(
        "bench",
        help="run the bench suite; with --check, gate against the "
             "committed BENCH_*.json baselines")
    from .bench.cli import add_bench_arguments

    add_bench_arguments(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    from .serve.protocol import DEFAULT_HOST, DEFAULT_PORT

    def _add_endpoint(sub_parser) -> None:
        sub_parser.add_argument("--host", default=DEFAULT_HOST,
                                help=f"service host (default "
                                     f"{DEFAULT_HOST})")
        sub_parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                                help=f"service port (default "
                                     f"{DEFAULT_PORT})")

    p_serve = sub.add_parser(
        "serve",
        help="run campaigns as a service: queued jobs, a worker fleet, "
             "and ledger-cached results (see docs/service.md)")
    _add_endpoint(p_serve)
    p_serve.add_argument("--workers", type=int, default=2,
                         help="concurrent campaign jobs (default 2); "
                              "each job may still shard internally "
                              "with its spec's jobs knob")
    p_serve.add_argument("--max-pending", type=int, default=8,
                         help="per-client cap on queued+running jobs "
                              "(default 8)")
    p_serve.add_argument("--state-dir", default="",
                         help="spool/heartbeat directory (default "
                              ".repro/serve; kept outside the runs "
                              "ledger, which gc's unknown dirs)")
    p_serve.add_argument("--runs-dir", default="",
                         help="run ledger the service caches from and "
                              "stores into (default: $REPRO_RUNS_DIR "
                              "or .repro/runs)")
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit a campaign spec to a running serve (cache-aware: "
             "an already-stored identical campaign returns instantly)")
    _add_endpoint(p_submit)
    p_submit.add_argument("file", nargs="?", default="",
                          help="mini-C source file (or use --workload)")
    p_submit.add_argument("--workload", default="",
                          choices=["", *sorted(WORKLOADS)],
                          help="submit a suite workload instead of a "
                               "source file")
    p_submit.add_argument("-t", "--technique", default="swiftr",
                          choices=[t.value for t in Technique])
    p_submit.add_argument("--trials", type=int, default=250)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--jobs", type=int, default=1,
                          help="worker processes inside the job; "
                               "results are identical for any value")
    p_submit.add_argument("--adaptive", action="store_true",
                          help="adaptive stopping instead of --trials")
    p_submit.add_argument("--metric", default="unace",
                          choices=["unace", "sdc", "segv", "failure",
                                   "detected"])
    p_submit.add_argument("--ci-width", type=float, default=2.5,
                          help="adaptive target CI half-width in "
                               "percentage points (default 2.5)")
    p_submit.add_argument("--confidence", type=float, default=0.95)
    p_submit.add_argument("--max-trials", type=int, default=4000)
    p_submit.add_argument("--priority", type=int, default=0,
                          help="higher runs first (FIFO within a level)")
    p_submit.add_argument("--client", default="",
                          help="client name for the per-client rate "
                               "limit (default: anon)")
    p_submit.add_argument("--tag", default="",
                          help="ledger tag for the stored run")
    p_submit.add_argument("--inline", action="store_true",
                          help="ship the file's text instead of its "
                               "path (for servers on another "
                               "filesystem; ledgered under a content "
                               "hash, not the path)")
    p_submit.add_argument("--wait", action="store_true",
                          help="stream progress and block until the "
                               "job finishes")
    p_submit.set_defaults(func=_cmd_submit)

    p_status = sub.add_parser(
        "status", help="one job's status (or all jobs when no id)")
    _add_endpoint(p_status)
    p_status.add_argument("job", nargs="?", default="",
                          help="job id from submit (omit to list all)")
    p_status.set_defaults(func=_cmd_status)

    p_fetch = sub.add_parser(
        "fetch",
        help="download a finished job's stored run (manifest + "
             "artifacts, byte-identical to the server's run dir)")
    _add_endpoint(p_fetch)
    p_fetch.add_argument("job", nargs="?", default="",
                         help="job id from submit")
    p_fetch.add_argument("--run", default="",
                         help="fetch by run id/tag instead of job id")
    p_fetch.add_argument("--dest", default=".",
                         help="directory to place <run_id>/ under "
                              "(default .)")
    p_fetch.set_defaults(func=_cmd_fetch)

    p_cancel = sub.add_parser(
        "cancel", help="cancel a queued or running job")
    _add_endpoint(p_cancel)
    p_cancel.add_argument("job", help="job id from submit")
    p_cancel.set_defaults(func=_cmd_cancel)

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
        source = getattr(args, "file", None)
        return _input_error(f"{source}: {exc}" if source else str(exc))
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
