"""Shared measurement routines behind ``repro bench`` and the
``benchmarks/`` pytest suite.

Both consumers need the same numbers -- the pytest benches to assert
equivalence bars and write committed baselines, the CLI gate to
re-measure and compare against them -- so the measurement lives here
once.  Every record carries the kinds and fields the committed
``BENCH_*.json`` baselines already use; the writers just add the
``bench_meta`` header from :mod:`repro.bench.schema`.
"""

from __future__ import annotations

import os
from time import perf_counter

from ..eval.pipeline import PipelineOptions, prepare, prepare_machine
from ..faults import run_campaign
from ..obs.campaign_log import CampaignLog
from ..obs.profile import SimProfiler
from ..sim import Machine
from ..sim.jit import attach_jit, compile_program
from ..transform import Technique
from ..workloads.suite import MICRO_BENCHMARKS

DEFAULT_WORKLOAD = "crc32"
DEFAULT_SEED = 2006
DEFAULT_TRIALS = 60
MAX_INSTRUCTIONS = 20_000_000


def _timed(label, runner, *, workload, technique, verbose, repeat=1):
    """Time ``runner``, best-of-``repeat`` (container schedulers make
    single-shot sub-3s measurements swing +-20%; the modes whose ratio
    is a gated headline take the best of two reps)."""
    elapsed = None
    for _ in range(max(repeat, 1)):
        start = perf_counter()
        result = runner()
        rep = perf_counter() - start
        elapsed = rep if elapsed is None else min(elapsed, rep)
    record = {
        "kind": "campaign_bench",
        "mode": label,
        "workload": workload,
        "technique": technique.value,
        "trials": result.trials,
        "seconds": round(elapsed, 4),
        "trials_per_sec": round(result.trials / elapsed, 2),
    }
    if result.config["checkpoint_interval"] != 0:
        # Deterministic: how many trials the convergence splice cut short.
        record["fast_forwards"] = result.fast_forwards
    if verbose:
        print(f"  {label:12s} {elapsed:7.3f}s  "
              f"{record['trials_per_sec']:8.1f} trials/s")
    return result, record


def measure_campaign_suite(trials: int = DEFAULT_TRIALS,
                           seed: int = DEFAULT_SEED,
                           workload: str = DEFAULT_WORKLOAD,
                           technique: Technique = Technique.SWIFTR,
                           jobs: int | None = None,
                           verbose: bool = False,
                           ) -> tuple[list[dict], dict]:
    """Measure campaign throughput along every optimisation axis.

    Modes: full-replay ``serial``, ``checkpointed``, process-sharded
    ``parallel``, ``taint`` (tracing on), ``taint_off_recheck`` (the
    gating re-measurement), ``profile`` (checkpointed with a
    :class:`~repro.obs.profile.SimProfiler` attached -- the profiler's
    own overhead, recorded as a first-class datapoint), ``atlas``
    (checkpointed with an
    :class:`~repro.obs.atlas.AtlasAccumulator` folding every trial --
    the reliability-map overhead, one golden anchoring replay
    included), and the block JIT pair: ``jit_serial`` (full replay, compiled) against
    ``serial``, and ``jit`` (checkpointed, compiled) against
    ``checkpointed``.  The interpreter modes pin ``jit=False``
    explicitly -- they are the baselines the JIT speedups divide by.
    The ``parallel`` mode (and ``parallel_speedup``) is skipped when
    the host has fewer cores than ``jobs``: there it would measure
    pool overhead, not parallelism.  The summary also records the
    suite cell's JIT codegen cost, ``jit_codegen_seconds`` and
    ``jit_source_lines``, measured outside every trial timing.  Every
    checkpointed mode's record carries its deterministic
    ``fast_forwards`` count (trials spliced after convergence).

    Returns ``(records, results)``: JSONL-ready bench records (per-mode
    plus one ``campaign_bench_summary``) and the per-mode
    :class:`~repro.faults.campaign.CampaignResult` objects so callers
    can assert the modes agree bit for bit.
    """
    program = prepare(workload, technique)
    # Fresh machine per mode so no mode benefits from a warmed peer;
    # compilation happens outside the timed region either way.
    machines = [Machine(program, max_instructions=MAX_INSTRUCTIONS)
                for _ in range(8)]
    jobs = jobs or max(2, min(4, os.cpu_count() or 1))
    timed = lambda label, runner, **kw: _timed(  # noqa: E731
        label, runner, workload=workload, technique=technique,
        verbose=verbose, **kw)
    # Compile the JIT outside every timed trial region, mirroring how
    # the interpreter modes get pre-built machines.  The uncached
    # compile is the codegen datapoint; attach_jit then fills the
    # per-program cache the JIT modes run from.
    start = perf_counter()
    compiled = compile_program(machines[5])
    codegen_seconds = perf_counter() - start
    source_lines = sum(src.count("\n") for src in compiled.sources.values())
    attach_jit(machines[5])
    machines[5].jit = None
    parallel_ok = (os.cpu_count() or 1) >= jobs

    serial, serial_rec = timed(
        "serial",
        lambda: run_campaign(program, trials=trials, seed=seed,
                             machine=machines[0], checkpoint_interval=0,
                             jit=False),
        repeat=2,
    )
    checkpointed, ckpt_rec = timed(
        "checkpointed",
        lambda: run_campaign(program, trials=trials, seed=seed,
                             machine=machines[1], jit=False),
    )
    if parallel_ok:
        parallel, par_rec = timed(
            f"parallel x{jobs}",
            lambda: run_campaign(program, trials=trials, seed=seed,
                                 jobs=jobs,
                                 max_instructions=MAX_INSTRUCTIONS,
                                 jit=False),
        )
        par_rec["mode"] = "parallel"
        par_rec["jobs"] = jobs
    taint_log = CampaignLog()
    tainted, taint_rec = timed(
        "taint-on",
        lambda: run_campaign(program, trials=trials, seed=seed,
                             machine=machines[2], log=taint_log,
                             taint=True),
    )
    taint_rec["mode"] = "taint"
    recheck, recheck_rec = timed(
        "taint-off",
        lambda: run_campaign(program, trials=trials, seed=seed,
                             machine=machines[3], jit=False),
    )
    recheck_rec["mode"] = "taint_off_recheck"
    profiler = SimProfiler()
    profiled, profile_rec = timed(
        "profile-on",
        lambda: run_campaign(program, trials=trials, seed=seed,
                             machine=machines[4], profile=profiler),
    )
    profile_rec["mode"] = "profile"
    profile_rec["profiled_instructions"] = profiler.total_instructions
    from ..obs.atlas import AtlasAccumulator

    atlas_acc = AtlasAccumulator()
    atlased, atlas_rec = timed(
        "atlas-on",
        lambda: run_campaign(program, trials=trials, seed=seed,
                             machine=machines[7], jit=False,
                             atlas=atlas_acc),
    )
    atlas_rec["mode"] = "atlas"
    atlas_rec["anchored_sites"] = sum(
        1 for loc in atlas_acc.counts if not loc.startswith("("))
    jit_serial, jit_serial_rec = timed(
        "jit-serial",
        lambda: run_campaign(program, trials=trials, seed=seed,
                             machine=machines[5], checkpoint_interval=0,
                             jit=True),
        repeat=2,
    )
    jit_serial_rec["mode"] = "jit_serial"
    jitted, jit_rec = timed(
        "jit",
        lambda: run_campaign(program, trials=trials, seed=seed,
                             machine=machines[6], jit=True),
    )
    jit_rec["mode"] = "jit"

    ckpt_speedup = ckpt_rec["trials_per_sec"] / serial_rec["trials_per_sec"]
    taint_ratio = (recheck_rec["trials_per_sec"]
                   / ckpt_rec["trials_per_sec"])
    profile_overhead = (ckpt_rec["trials_per_sec"]
                        / profile_rec["trials_per_sec"])
    atlas_overhead = (ckpt_rec["trials_per_sec"]
                      / atlas_rec["trials_per_sec"])
    jit_serial_speedup = (jit_serial_rec["trials_per_sec"]
                          / serial_rec["trials_per_sec"])
    jit_speedup = jit_rec["trials_per_sec"] / ckpt_rec["trials_per_sec"]
    summary = {
        "kind": "campaign_bench_summary",
        "workload": workload,
        "technique": technique.value,
        "trials": trials,
        "seed": seed,
        "checkpoint_speedup": round(ckpt_speedup, 2),
        "parallel_jobs": jobs,
        "taint_on_trials_per_sec": taint_rec["trials_per_sec"],
        "taint_off_ratio": round(taint_ratio, 2),
        "profile_overhead": round(profile_overhead, 2),
        "atlas_overhead": round(atlas_overhead, 2),
        "jit_trials_per_sec": jit_rec["trials_per_sec"],
        "jit_serial_speedup": round(jit_serial_speedup, 2),
        "jit_speedup": round(jit_speedup, 2),
        "jit_codegen_seconds": round(codegen_seconds, 4),
        "jit_source_lines": source_lines,
    }
    records = [serial_rec, ckpt_rec, taint_rec, recheck_rec,
               profile_rec, atlas_rec, jit_serial_rec, jit_rec, summary]
    results = {
        "serial": serial,
        "checkpointed": checkpointed,
        "taint": tainted,
        "taint_off_recheck": recheck,
        "profile": profiled,
        "atlas": atlased,
        "jit_serial": jit_serial,
        "jit": jitted,
    }
    if parallel_ok:
        par_speedup = (par_rec["trials_per_sec"]
                       / serial_rec["trials_per_sec"])
        summary["parallel_speedup"] = round(par_speedup, 2)
        records.insert(2, par_rec)
        results["parallel"] = parallel
    if verbose:
        parallel_note = (f"parallel x{jobs}: {par_speedup:.2f}x"
                         if parallel_ok else
                         f"parallel x{jobs} skipped: fewer cores")
        print(f"  checkpointing speedup: {ckpt_speedup:.2f}x "
              f"({parallel_note}, "
              f"taint-off recheck {taint_ratio:.2f}x, "
              f"profiler overhead {profile_overhead:.2f}x, "
              f"atlas overhead {atlas_overhead:.2f}x)")
        print(f"  jit speedup: {jit_serial_speedup:.2f}x full-replay, "
              f"{jit_speedup:.2f}x over checkpointed; codegen "
              f"{codegen_seconds:.3f}s, {source_lines} source lines")
    return records, results


def measure_adaptive_suite(techniques=(Technique.NOFT, Technique.TRUMP,
                                       Technique.SWIFTR),
                           benchmarks=MICRO_BENCHMARKS,
                           fixed_trials: int = 250,
                           ci_width: float = 0.025,
                           max_trials: int = 2500,
                           seed: int = DEFAULT_SEED,
                           verbose: bool = False,
                           ) -> tuple[list[dict], dict]:
    """Adaptive stopping vs the fixed per-cell budget (one record per
    technique plus an ``adaptive_bench_summary``).

    Returns ``(records, details)`` where ``details`` maps each
    technique value to its :class:`AdaptiveResult` and the fixed grid's
    suite estimate, for the pytest bench's assertions.
    """
    from ..eval.reliability import suite_estimate
    from ..faults import Outcome
    from ..stats import AdaptiveConfig, run_adaptive_suite

    class _Grid:
        def __init__(self, benchmarks, confidence=0.95):
            self.benchmarks = list(benchmarks)
            self.confidence = confidence
            self.cells = {}

        def cell(self, bench, technique):
            return self.cells[(bench, technique)]

    options = PipelineOptions()
    grid = _Grid(benchmarks)
    records = []
    details = {}
    fixed_total = adaptive_total = 0
    unace = lambda c: c.count(Outcome.UNACE)  # noqa: E731

    for technique in techniques:
        machines = [(bench, prepare_machine(bench, technique, options))
                    for bench in benchmarks]
        start = perf_counter()
        for bench, machine in machines:
            campaign = run_campaign(machine.program, trials=fixed_trials,
                                    seed=seed, machine=machine)
            grid.cells[(bench, technique)] = campaign
            fixed_total += campaign.trials
        fixed_elapsed = perf_counter() - start
        fixed_est = suite_estimate(grid, technique, unace)

        config = AdaptiveConfig(ci_width=ci_width, metric="unace",
                                max_trials=max_trials)
        machines = [(bench, prepare_machine(bench, technique, options))
                    for bench in benchmarks]
        start = perf_counter()
        adaptive = run_adaptive_suite(machines, config=config, seed=seed)
        adaptive_elapsed = perf_counter() - start
        adaptive_total += adaptive.trials

        fixed_spent = fixed_trials * len(benchmarks)
        if verbose:
            print(f"  {technique.label:10s} fixed {fixed_spent:5d} trials "
                  f"-> hw {100*fixed_est.half_width:4.2f} pts "
                  f"({fixed_elapsed:5.1f}s) | adaptive "
                  f"{adaptive.trials:5d} trials -> hw "
                  f"{100*adaptive.estimate.half_width:4.2f} pts "
                  f"in {len(adaptive.batches)} batches "
                  f"({adaptive_elapsed:5.1f}s)")
        records.append({
            "kind": "adaptive_bench",
            "technique": technique.value,
            "benchmarks": list(benchmarks),
            "target_half_width": ci_width,
            "fixed_trials": fixed_spent,
            "fixed_half_width": round(fixed_est.half_width, 6),
            "fixed_seconds": round(fixed_elapsed, 3),
            "adaptive_trials": adaptive.trials,
            "adaptive_half_width": round(adaptive.estimate.half_width, 6),
            "adaptive_batches": len(adaptive.batches),
            "adaptive_target_met": adaptive.target_met,
            "adaptive_seconds": round(adaptive_elapsed, 3),
        })
        details[technique.value] = (adaptive, fixed_est)

    savings = 100.0 * (1 - adaptive_total / fixed_total)
    if verbose:
        print(f"  total: adaptive {adaptive_total} vs fixed {fixed_total} "
              f"trials ({savings:.1f}% fewer)")
    records.append({
        "kind": "adaptive_bench_summary",
        "seed": seed,
        "target_half_width": ci_width,
        "fixed_trials_total": fixed_total,
        "adaptive_trials_total": adaptive_total,
        "trials_saved_percent": round(savings, 1),
    })
    details["totals"] = (adaptive_total, fixed_total)
    return records, details
