"""Fault-injection campaigns: N seeded SEU trials against one binary.

The paper performed 250 runs per benchmark per technique (Section 7.1).
Campaigns here are deterministic given (program, seed, trials), so
results are exactly reproducible and shardable.  Every campaign --
serial or sharded, fixed or adaptive, register SEUs, opcode flips or
wild jumps -- runs its trials through :func:`run_batch` and the trial
kernel (:mod:`repro.faults.trials`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

from ..isa.program import Program
from ..obs.campaign_log import CampaignLog
from ..obs.metrics import registry as obs_registry
from ..obs.spans import enabled as obs_enabled, span
from ..sim.machine import Machine
from .injector import HANG_FACTOR, HANG_FLOOR, build_checkpoints
from .model import FaultSite, sample_fault_site
from .outcomes import Outcome
from .stats import Proportion
from .trials import engine, run_trials


@dataclass
class CampaignResult:
    """Aggregate outcome counts of one campaign."""

    trials: int = 0
    counts: dict[Outcome, int] = field(default_factory=dict)
    recoveries: int = 0            # runs in which repair code actually fired
    golden_instructions: int = 0
    #: Trials whose sampled site fell past the program's termination:
    #: the run ended before the flip could happen, so the clean result
    #: was classified (necessarily unACE).  Nonzero counts mean the
    #: unACE bucket contains trials that never actually injected --
    #: auditable here instead of silently inflating reliability.
    never_landed: int = 0
    #: Wall-clock seconds the campaign spent (golden run + trials,
    #: excluding machine compilation).  Excluded from equality: the
    #: serial/parallel/checkpointed paths must compare equal on their
    #: *results* even though their timings differ.
    elapsed_seconds: float = field(default=0.0, compare=False)
    #: The knobs this campaign was run with, captured at run time for
    #: run-registry manifests (fault model, seed, trials,
    #: checkpointing, the hang rule's factor and floor).  Deliberately
    #: excludes ``jobs`` -- sharding does not change results, so it
    #: must not change a manifest hash -- and is excluded from equality
    #: for the same reason as timings.
    config: dict = field(default_factory=dict, compare=False)
    #: Trials whose result was spliced from the golden suffix (see
    #: :class:`~repro.faults.injector.CheckpointStore`); 0 on the
    #: full-replay path.  A deterministic perf counter, excluded from
    #: equality and manifests like the timings.
    fast_forwards: int = field(default=0, compare=False)

    @property
    def trials_per_sec(self) -> float:
        """Campaign throughput (0.0 when no timing was recorded)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.trials / self.elapsed_seconds

    def record(self, outcome: Outcome, recovered: bool,
               landed: bool = True) -> None:
        self.trials += 1
        self.counts[outcome] = self.counts.get(outcome, 0) + 1
        if recovered:
            self.recoveries += 1
        if not landed:
            self.never_landed += 1

    def count(self, outcome: Outcome) -> int:
        return self.counts.get(outcome, 0)

    def proportion(self, outcome: Outcome) -> Proportion:
        return Proportion(self.count(outcome), self.trials)

    # --- the paper's three-way percentages --------------------------------
    @property
    def unace_percent(self) -> float:
        """unACE%, with SWIFT's detected-and-stopped runs excluded."""
        return 100.0 * self.count(Outcome.UNACE) / self.trials

    @property
    def sdc_percent(self) -> float:
        """SDC%, folding hangs in (see outcomes module docstring)."""
        sdc = self.count(Outcome.SDC) + self.count(Outcome.HANG)
        return 100.0 * sdc / self.trials

    @property
    def segv_percent(self) -> float:
        return 100.0 * self.count(Outcome.SEGV) / self.trials

    @property
    def detected_percent(self) -> float:
        return 100.0 * self.count(Outcome.DETECTED) / self.trials

    def summary_dict(self) -> dict:
        """The deterministic result summary a run manifest records.

        Outcome counts keyed by enum value, plus the audit counters.
        No timings: manifests hash to the same id regardless of how
        fast (or sharded) the campaign ran.
        """
        return {
            "trials": self.trials,
            "outcomes": {outcome.value: count for outcome, count
                         in sorted(self.counts.items(),
                                   key=lambda item: item[0].value)},
            "recoveries": self.recoveries,
            "never_landed": self.never_landed,
            "golden_instructions": self.golden_instructions,
        }

    @classmethod
    def from_summary(cls, summary: dict) -> "CampaignResult":
        """The result a :meth:`summary_dict` recorded (a stored
        manifest's ``results``), without timings or config."""
        return cls(trials=summary["trials"],
                   counts={Outcome(value): count for value, count
                           in summary["outcomes"].items()},
                   recoveries=summary["recoveries"],
                   never_landed=summary["never_landed"],
                   golden_instructions=summary["golden_instructions"])

    def merged(self, other: "CampaignResult") -> "CampaignResult":
        """Combine two shards of the *same* campaign.

        Precondition: both shards campaigned the same binary, which the
        golden run's dynamic instruction count fingerprints; merging
        results from different binaries would silently mix fault-site
        distributions, so a mismatch raises.
        """
        if (self.golden_instructions and other.golden_instructions
                and self.golden_instructions != other.golden_instructions):
            raise ValueError(
                "refusing to merge campaigns over different binaries: "
                f"golden runs executed {self.golden_instructions} vs "
                f"{other.golden_instructions} instructions"
            )
        merged = CampaignResult(
            trials=self.trials + other.trials,
            golden_instructions=(self.golden_instructions
                                 or other.golden_instructions),
            recoveries=self.recoveries + other.recoveries,
            never_landed=self.never_landed + other.never_landed,
            fast_forwards=self.fast_forwards + other.fast_forwards,
            # Shards ran concurrently, so summing their elapsed times
            # over-counts wall clock; ``run_campaign`` and the adaptive
            # engine overwrite this with their own wall measurement.
            elapsed_seconds=self.elapsed_seconds + other.elapsed_seconds,
        )
        for outcome in Outcome:
            total = self.count(outcome) + other.count(outcome)
            if total:
                merged.counts[outcome] = total
        return merged


def record_campaign_metrics(result: CampaignResult,
                            log: CampaignLog | None,
                            log_start: int = 0) -> None:
    """Export a finished campaign's aggregates to the metrics registry."""
    if not obs_enabled():
        return
    registry = obs_registry()
    registry.counter("campaign.trials").inc(result.trials)
    registry.counter("campaign.recovered_runs").inc(result.recoveries)
    registry.counter("campaign.fast_forwards").inc(result.fast_forwards)
    if result.never_landed:
        registry.counter("campaign.never_landed").inc(result.never_landed)
    for outcome, count in result.counts.items():
        registry.counter(f"campaign.outcome.{outcome.value}").inc(count)
    if log is not None:
        histogram = registry.histogram("campaign.detection_latency")
        for record in log.records[log_start:]:
            if record.detection_latency is not None:
                histogram.observe(record.detection_latency)


def run_campaign(
    program: Program,
    trials: int = 250,
    seed: int = 0,
    machine: Machine | None = None,
    log: CampaignLog | None = None,
    checkpoint_interval: int | None = None,
    taint: bool = False,
    sites: list[FaultSite] | None = None,
    profile=None,
    monitor=None,
    jit: bool | None = None,
    atlas=None,
    jobs: int = 1,
) -> CampaignResult:
    """Run a full SEU campaign against ``program``.

    One fault per run, per the SEU model; 250 trials is the paper's
    setting.  Pass a pre-built ``machine`` to amortise compilation when
    campaigning the same binary repeatedly.  Pass a
    :class:`~repro.obs.campaign_log.CampaignLog` to capture one
    structured record per trial (fault site, outcome, detection
    latency); with ``log=None`` the trial loop does no per-trial
    telemetry work at all.

    Pass an explicit ``sites`` list to campaign a pre-realized set of
    fault sites instead of sampling ``trials`` of them from ``seed``;
    ``trials`` and ``seed`` are then ignored.  Any site type with an
    ``inject`` method works (the opcode and wild-jump models pass
    theirs).  ``run_campaign(seed=s, trials=n)`` is bit-identical to
    ``run_campaign(sites=sample_sites(s, golden_instructions, n))``.

    Trials replay from periodic golden-run checkpoints (see
    :class:`~repro.faults.injector.CheckpointStore`); pass
    ``checkpoint_interval=0`` to force the original full-replay path,
    or a positive value to fix the spacing instead of auto-tuning it.
    Both paths give bit-identical results.

    ``jobs`` shards the trials over that many forked worker processes
    (``0`` = one per CPU; see :mod:`repro.faults.parallel`).  Results,
    trial records, taint streams, profiles and atlases are bit-identical
    for every ``jobs``.

    ``taint=True`` additionally traces each injected fault's dataflow
    (see :mod:`repro.sim.taint`) and appends the per-trial event
    streams to ``log.taint_records``; it requires a ``log`` (or an
    ``atlas``) and does not change trial outcomes, only observes them.

    Pass a :class:`~repro.obs.profile.SimProfiler` as ``profile`` to
    collect per-block execution counts over the golden run and every
    trial (execution stays bit-identical).

    ``monitor`` is a trial clock: an object with two methods and no
    other attribute read.  ``monitor.begin(total=n)`` is called once,
    after the checkpoints are built and the ``n`` sites sampled and
    before the first trial; ``monitor.trial_done(done)`` is called
    after each trial with the count finished so far, or once with
    ``n`` after the merge when ``jobs > 1`` shards the trials.

    ``jit`` selects the block-compiled execution engine (see
    :mod:`repro.sim.jit`): ``True`` forces it on, ``False`` off, and
    ``None`` (the default) enables it exactly when neither taint
    tracing nor profiling is requested -- those modes run their own
    instrumented interpreter loops, which take precedence over an
    attached JIT anyway.  Trial outcomes and telemetry are
    bit-identical either way; only throughput changes.  The machine's
    ``jit`` and ``profile`` attachments are restored on return (see
    :func:`~repro.faults.trials.engine`).

    Pass an :class:`~repro.obs.atlas.AtlasAccumulator` as ``atlas`` to
    fold the campaign's trials into a program-anchored reliability map.
    Accumulation happens *after* the trials (one extra golden replay to
    anchor the sampled sites); with ``atlas=None`` nothing
    atlas-related runs.  When no ``log`` is supplied a scratch one is
    created so the atlas still sees per-trial records (and taint
    streams, if ``taint=True``).
    """
    if taint and log is None and atlas is None:
        raise ValueError("taint tracing requires a CampaignLog "
                         "to receive the event streams")
    machine = machine or Machine(program)
    if jit is None:
        jit = not taint and profile is None
    trial_log = log if atlas is None or log is not None else CampaignLog()
    log_start = len(trial_log.records) if trial_log is not None else 0
    start_time = perf_counter()
    with engine(machine, jit, profile):
        with span("faults.checkpoints"):
            store = build_checkpoints(machine, checkpoint_interval)
        golden = store.golden
        presampled = sites is not None
        if sites is None:
            rng = random.Random(seed)
            sites = [sample_fault_site(rng, golden.instructions)
                     for _ in range(trials)]
        if monitor is not None:
            monitor.begin(total=len(sites))
        with span("campaign", trials=len(sites), seed=seed):
            result, _ = run_batch(
                store, sites,
                CampaignResult(golden_instructions=golden.instructions),
                trial_log, jobs=jobs, taint=taint,
                tick=None if monitor is None else monitor.trial_done)
    record_campaign_metrics(result, trial_log, log_start)
    if atlas is not None:
        if (atlas.golden_instructions and atlas.golden_instructions
                != result.golden_instructions):
            raise ValueError(
                "refusing to fold campaigns over different binaries "
                "into one atlas: golden runs executed "
                f"{atlas.golden_instructions} vs "
                f"{result.golden_instructions} instructions")
        atlas.golden_instructions = result.golden_instructions
        # The anchoring replay is bookkeeping, not simulated work: it
        # runs outside the profiled region.
        with engine(machine, jit):
            atlas.add_campaign(machine, trial_log, log_start=log_start)
    result.config = {
        "fault_model": (sites[0].fault_model if sites
                        else FaultSite.fault_model),
        "trials": len(sites),
        "checkpoint_interval": checkpoint_interval,
        "presampled_sites": presampled,
        "hang_factor": HANG_FACTOR,
        "hang_floor": HANG_FLOOR,
    }
    result.elapsed_seconds = perf_counter() - start_time
    return result


def run_batch(store, sites: list, result: CampaignResult,
              log: CampaignLog | None = None, *, jobs: int = 1,
              first_trial: int = 0, strata: list | None = None,
              taint: bool = False, tick=None
              ) -> tuple[CampaignResult, list[Outcome]]:
    """Run ``sites`` on a built ``store`` and record them into ``result``.

    The trials run through :func:`~repro.faults.trials.run_trials` in
    this process, or with ``jobs > 1`` (``0`` = one per CPU) sharded
    over forked workers that each run it on their slice
    (:func:`~repro.faults.parallel.run_shards`); outcomes, records and
    counts are the same either way.  ``tick(done)`` is called after
    each trial, or once with ``len(sites)`` after a sharded merge.
    Returns ``(result, outcomes)``: the sharded path returns a merged
    copy of ``result``.
    """
    if jobs != 1 and len(sites) > 1:
        from .parallel import default_jobs, run_shards

        jobs = jobs or default_jobs()
        if jobs > 1:
            merged = run_shards(store, sites, result, log, jobs=jobs,
                                first_trial=first_trial, strata=strata,
                                taint=taint)
            if tick is not None:
                tick(len(sites))
            return merged
    return result, run_trials(
        store, sites, result, log, first_trial=first_trial, strata=strata,
        taint=taint, tick=tick)


def run_sites(
    program: Program,
    sites: list[FaultSite],
    machine: Machine | None = None,
) -> list[Outcome]:
    """Classify an explicit list of fault sites (used by tests).

    Accepts a pre-built ``machine`` to amortise compilation, and
    enforces the same clean-golden-run precondition as
    :func:`run_campaign`: classifying faults against a golden run that
    itself failed would be meaningless.
    """
    machine = machine or Machine(program)
    with engine(machine, jit=True):
        store = build_checkpoints(machine)
        return run_trials(store, sites, CampaignResult(
            golden_instructions=store.golden.instructions))
