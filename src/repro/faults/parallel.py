"""Process-parallel fault-injection campaigns (``--jobs N``).

Campaign-scale injection studies only reach statistical significance
with thousands of trials, and trials are embarrassingly parallel: each
one is a deterministic function of (binary, fault site).  The sharded
runner here exploits that while keeping the campaign *bit-identical*
to the serial path, trial for trial:

* the parent samples **all** fault sites up front from the single
  seeded RNG -- exactly the sequence the serial loop would draw -- so
  parallelism never perturbs the fault distribution;
* the site list is split into contiguous shards, one per worker, so
  trial order (and therefore telemetry order) is preserved by simple
  concatenation;
* each worker compiles its own :class:`~repro.sim.machine.Machine`
  from the pickled program and builds its own golden-run checkpoints
  (compiled machines hold closures and cannot cross process
  boundaries), then runs its shard through the same
  :class:`~repro.faults.injector.CheckpointStore` path as the serial
  campaign;
* per-trial telemetry is streamed by each worker into a shard JSONL
  file; the parent concatenates the shards in trial order into the
  caller's :class:`~repro.obs.campaign_log.CampaignLog`;
* shard aggregates are combined with
  :meth:`CampaignResult.merged() <repro.faults.campaign.CampaignResult.merged>`,
  whose golden-instruction fingerprint guards against workers having
  somehow campaigned different binaries.

``jobs=N`` therefore produces the same :class:`CampaignResult` counts
and the same concatenated trial records as ``jobs=1``, which
``tests/test_parallel.py`` asserts.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import shutil
import tempfile
from time import perf_counter

from ..errors import SimulationError
from ..isa.program import Program
from ..obs import spans
from ..obs.campaign_log import CampaignLog, TrialRecord
from ..obs.spans import span
from ..sim.events import RunStatus
from ..sim.jit import attach_jit
from ..sim.machine import Machine
from .campaign import CampaignResult, record_campaign_metrics, run_campaign
from .injector import (CheckpointStore, fault_landed, golden_run,
                       run_in_site_order)
from .model import FaultSite, sample_fault_site
from .outcomes import classify

# Per-worker state, populated once by the pool initializer so shard
# tasks reuse the compiled machine and its checkpoints.
_WORKER: dict = {}


def _init_worker(program: Program, max_instructions: int,
                 checkpoint_interval: int | None,
                 taint: bool = False, profile: bool = False,
                 heartbeat_path: str | None = None,
                 heartbeat_every: int = 16,
                 jit: bool = False, atlas: bool = False) -> None:
    """Compile this worker's machine and build its golden checkpoints."""
    # Workers must not inherit an enabled span collector from a
    # telemetry-on parent: their spans could never be drained.
    spans.disable()
    machine = Machine(program, max_instructions=max_instructions)
    if jit:
        # Attach before the checkpoint build so the worker's golden
        # run compiles (and caches) once and runs at JIT speed too.
        attach_jit(machine)
    store = CheckpointStore(machine, interval=checkpoint_interval)
    golden = store.build()
    if golden.status is not RunStatus.EXITED:
        raise SimulationError(
            f"worker golden run did not complete cleanly: {golden.status}"
        )
    _WORKER["store"] = store
    _WORKER["golden"] = golden
    _WORKER["taint"] = taint
    _WORKER["profile"] = profile
    _WORKER["heartbeat_path"] = heartbeat_path
    _WORKER["heartbeat_every"] = heartbeat_every
    _WORKER["atlas"] = atlas


def _run_shard(task: tuple[int, int, list[FaultSite], str | None]
               ) -> tuple[CampaignResult, object, object]:
    """Run one contiguous shard of trials in a worker process.

    ``task`` is ``(shard_index, first_trial_index, sites,
    record_path)``; with a ``record_path`` the worker streams one JSON
    line per trial into it (flat :class:`TrialRecord` dicts, no
    context -- the parent owns the campaign context).  With taint
    tracing on, the shard's taint records follow its trial records in
    the same file, each stream in trial order, distinguishable by
    their ``kind`` field.

    Returns ``(result, profiler_or_None, atlas_or_None)``.  A fresh
    profiler (and atlas accumulator) is created per *shard* (not per
    worker: a pool process can run several shards, and per-worker state
    would double-merge); the worker's own golden/checkpoint run
    happened in the initializer and is deliberately outside the
    profiled region, so merged shard profiles equal the serial
    campaign's counts exactly.  The atlas accumulator holds only
    integer tallies (weights are applied by the parent at export), so
    merging shard atlases in shard order reproduces the serial atlas
    bit for bit.
    """
    shard_index, first_trial, sites, record_path = task
    store: CheckpointStore = _WORKER["store"]
    golden = _WORKER["golden"]
    atlas_on = _WORKER.get("atlas", False)
    taint = _WORKER.get("taint", False) and (record_path is not None
                                             or atlas_on)
    heartbeat_path = _WORKER.get("heartbeat_path")
    heartbeat = None
    if heartbeat_path is not None:
        from ..obs.monitor import HeartbeatWriter

        heartbeat = HeartbeatWriter(
            heartbeat_path, role="shard", shard=shard_index,
            total=len(sites), every=_WORKER.get("heartbeat_every", 16))
    profiler = None
    if _WORKER.get("profile"):
        from ..obs.profile import SimProfiler

        profiler = SimProfiler()
        store.machine.profile = profiler
    result = CampaignResult(golden_instructions=golden.instructions)
    # A pool process may run several shards against one store.
    fast_forwards = store.fast_forwards
    log = (CampaignLog() if record_path is not None or atlas_on
           else None)
    try:
        runs = run_in_site_order(
            store.run_with_fault, sites, taint=taint,
            tick=heartbeat.tick if heartbeat is not None else None)
    finally:
        if profiler is not None:
            store.machine.profile = None
    for offset, (site, (faulty, tracker)) in enumerate(zip(sites, runs)):
        outcome = classify(golden, faulty)
        result.record(outcome, recovered=faulty.recoveries > 0,
                      landed=fault_landed(site, faulty))
        if log is not None:
            log.record_trial(first_trial + offset, site, outcome, faulty)
            if tracker is not None:
                log.record_taint(first_trial + offset, tracker)
    result.fast_forwards = store.fast_forwards - fast_forwards
    if profiler is not None and taint:
        profiler.taint_trials += len(sites)
    atlas = None
    if atlas_on and log is not None:
        from ..obs.atlas import AtlasAccumulator

        atlas = AtlasAccumulator()
        atlas.golden_instructions = golden.instructions
        # Anchoring replays the golden run on the shard machine; the
        # profiler (if any) is already detached, and the next shard's
        # trials restore from checkpoints regardless of machine state.
        atlas.add_campaign(store.machine, log)
    if log is not None and record_path is not None:
        with open(record_path, "w") as handle:
            for record in log.to_dicts():
                handle.write(json.dumps(record, separators=(",", ":")))
                handle.write("\n")
            for record in log.taint_dicts():
                handle.write(json.dumps(record, separators=(",", ":")))
                handle.write("\n")
    return result, profiler, atlas


def _partition(sites: list[FaultSite], shards: int
               ) -> list[tuple[int, list[FaultSite]]]:
    """Split into ``shards`` contiguous (first_trial, sites) chunks."""
    base, extra = divmod(len(sites), shards)
    chunks = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        if hi > lo:
            chunks.append((lo, sites[lo:hi]))
        lo = hi
    return chunks


def _pool_context():
    """Prefer fork (no program pickling, cheap start) where available."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def default_jobs() -> int:
    """Worker count when the caller asks for ``--jobs 0`` (= all cores)."""
    return max(os.cpu_count() or 1, 1)


def run_parallel_campaign(
    program: Program,
    trials: int = 250,
    seed: int = 0,
    jobs: int = 1,
    max_instructions: int = 10_000_000,
    machine: Machine | None = None,
    log: CampaignLog | None = None,
    checkpoint_interval: int | None = None,
    taint: bool = False,
    sites: list[FaultSite] | None = None,
    profile=None,
    monitor=None,
    jit: bool | None = None,
    atlas=None,
) -> CampaignResult:
    """Run an SEU campaign sharded over ``jobs`` worker processes.

    Bit-identical to :func:`~repro.faults.campaign.run_campaign` with
    the same ``(program, seed, trials)``: the parent pre-samples every
    fault site from the single seeded RNG and workers only execute.
    ``jobs=0`` means one worker per CPU; ``jobs=1`` (or fewer trials
    than would keep two workers busy) falls through to the serial
    runner.  The ``machine`` parameter only spares the parent a
    recompile for its golden run -- workers always compile their own.

    An explicit ``sites`` list (see :func:`run_campaign`) replaces the
    seeded sampling entirely; the campaign is then bit-identical across
    any ``jobs`` for that realized list, which is what lets the
    adaptive runner shard its stratified batches.

    ``taint=True`` traces each fault's dataflow exactly as the serial
    runner does; shard merge keeps both the trial records and the taint
    streams in trial order, so the concatenated ``log`` matches
    ``jobs=1`` record for record.

    A ``profile`` :class:`~repro.obs.profile.SimProfiler` receives the
    parent's golden run plus every shard's trials (worker golden runs
    are excluded), making the merged counts bit-identical to a serial
    profiled campaign.  A ``monitor``
    :class:`~repro.obs.monitor.CampaignMonitor` gets per-shard
    heartbeats streamed into its heartbeat file by the workers, and
    the parent polls them into the live progress line while waiting.

    ``jit`` follows :func:`run_campaign`'s contract (``None`` = on
    unless taint or profile); each worker attaches its own compiled
    JIT, so ``jobs=N`` stays bit-identical to serial either way.

    An ``atlas`` :class:`~repro.obs.atlas.AtlasAccumulator` receives
    every shard's program-anchored tallies, merged in shard (= trial)
    order; because accumulators are integer-only, the merged atlas is
    bit-identical to the one a serial campaign would have produced.
    """
    if taint and log is None and atlas is None:
        raise ValueError("taint tracing requires a CampaignLog "
                         "to receive the event streams")
    if jobs == 0:
        jobs = default_jobs()
    if sites is not None:
        trials = len(sites)
    if jobs <= 1 or trials <= 1:
        return run_campaign(program, trials=trials, seed=seed,
                            max_instructions=max_instructions,
                            machine=machine, log=log,
                            checkpoint_interval=checkpoint_interval,
                            taint=taint, sites=sites,
                            profile=profile, monitor=monitor, jit=jit,
                            atlas=atlas)
    if jit is None:
        jit = not taint and profile is None
    start_time = perf_counter()
    machine = machine or Machine(program, max_instructions=max_instructions)
    saved_jit = machine.jit
    if jit:
        attach_jit(machine)
    else:
        machine.jit = None
    if profile is not None:
        # Profile the parent's golden run (once -- the serial path also
        # counts the golden stream exactly once).
        machine.profile = profile
        if jit:
            profile.annotate_jit(machine)
    try:
        golden = golden_run(machine)
    finally:
        machine.jit = saved_jit
        if profile is not None:
            machine.profile = None
    if golden.status is not RunStatus.EXITED:
        raise SimulationError(
            f"golden run did not complete cleanly: {golden.status}"
        )
    presampled = sites is not None
    if sites is None:
        rng = random.Random(seed)
        sites = [sample_fault_site(rng, golden.instructions)
                 for _ in range(trials)]
    jobs = min(jobs, len(sites))
    chunks = _partition(sites, jobs)
    heartbeat_path = monitor.heartbeat_path if monitor is not None else None
    heartbeat_every = monitor.every if monitor is not None else 16
    if monitor is not None:
        monitor.begin(total=trials)

    shard_dir = None
    record_paths: list[str | None] = [None] * len(chunks)
    if log is not None:
        shard_dir = tempfile.mkdtemp(prefix="repro-campaign-")
        record_paths = [os.path.join(shard_dir, f"shard-{i:04d}.jsonl")
                        for i in range(len(chunks))]
    log_start = len(log.records) if log is not None else 0
    result = CampaignResult(golden_instructions=golden.instructions)
    try:
        with span("campaign.parallel", trials=trials, seed=seed, jobs=jobs):
            context = _pool_context()
            with context.Pool(
                processes=jobs,
                initializer=_init_worker,
                initargs=(program, max_instructions, checkpoint_interval,
                          taint, profile is not None, heartbeat_path,
                          heartbeat_every, jit, atlas is not None),
            ) as pool:
                tasks = [(i, lo, shard, path)
                         for i, ((lo, shard), path)
                         in enumerate(zip(chunks, record_paths))]
                async_result = pool.map_async(_run_shard, tasks)
                while not async_result.ready():
                    async_result.wait(
                        monitor.refresh if monitor is not None else 1.0)
                    if monitor is not None:
                        monitor.shard_progress()
                for shard_result, shard_profile, shard_atlas \
                        in async_result.get():
                    result = result.merged(shard_result)
                    if profile is not None and shard_profile is not None:
                        profile.merge_from(shard_profile)
                    if atlas is not None and shard_atlas is not None:
                        atlas.merge_from(shard_atlas)
        if log is not None:
            # Shards are read in trial order; within each file the trial
            # records precede the taint records, so appending by kind
            # keeps both streams ordered exactly as the serial runner
            # would have produced them.
            for path in record_paths:
                with open(path) as handle:
                    for line in handle:
                        record = json.loads(line)
                        if record.get("kind") == "trial":
                            log.records.append(TrialRecord.from_dict(record))
                        else:
                            log.taint_records.append(record)
    finally:
        if shard_dir is not None:
            shutil.rmtree(shard_dir, ignore_errors=True)
    record_campaign_metrics(result, log, log_start)
    # merged() drops per-shard configs (shards see only their slice);
    # record the campaign-level knobs here, matching the serial path so
    # registry manifests hash identically across --jobs.
    result.config = {
        "fault_model": "register-seu",
        "trials": trials,
        "checkpoint_interval": checkpoint_interval,
        "presampled_sites": presampled,
    }
    # Shard-summed elapsed over-counts concurrent work; report the
    # parent's wall clock for the whole sharded campaign instead.
    result.elapsed_seconds = perf_counter() - start_time
    if monitor is not None:
        monitor.trial_done(result.trials)
    return result
