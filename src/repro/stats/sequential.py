"""Sequential adaptive campaign runner: batches until the CI is tight.

The fixed-count campaign (`run_campaign`) spends the same 250 trials
on a noisy NOFT cell as on an all-unACE SWIFT-R cell.  The runner here
makes trial count a function of *confidence* instead: it schedules
batches of trials, allocates each batch across fault-space strata by
Neyman allocation (more trials where outcomes vary more), and stops as
soon as the post-stratified estimate of the target metric reaches the
requested CI half-width -- or a trial cap, whichever comes first.

Execution reuses the campaign machinery unchanged: each arm builds its
golden run and checkpoints once, and every batch is a realized site
list handed with the arm's store to
:func:`~repro.faults.campaign.run_batch` -- the trial kernel in this
process, or its forked shards for ``jobs > 1``, bit-identical for a
given site list -- which logs each trial with its global index and
stratum.  All randomness lives in per-(arm, stratum) ``random.Random``
streams drawn in a fixed order, so the schedule -- and therefore the
whole campaign -- is deterministic in ``seed`` and invariant in
``jobs``.

A campaign measures one or more **arms** (binaries).  A single-arm run
(:func:`run_adaptive_campaign`) targets one binary's rate; a suite run
(:func:`run_adaptive_suite`) weights each benchmark arm equally,
matching the suite-average scalars in Figure 8 (`mean of per-benchmark
percentages`), and drives the *suite-level* interval to the target --
which is what lets it beat the fixed per-cell budget.
"""

from __future__ import annotations

import random
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from time import perf_counter

from ..faults.campaign import CampaignResult, run_batch
from ..faults.injector import HANG_FACTOR, HANG_FLOOR, build_checkpoints
from ..faults.outcomes import Outcome
from ..faults.trials import engine
from ..isa.program import Program
from ..obs.campaign_log import CampaignLog
from ..obs.metrics import registry as obs_registry
from ..obs.spans import enabled as obs_enabled, span
from ..sim.machine import Machine
from .allocation import neyman_allocation
from .estimators import StratifiedEstimate, StratumCell, stratified_estimate
from .space import FaultSpace, profile_fault_space

#: Which outcomes count as a "success" for each target metric.
METRIC_OUTCOMES: dict[str, frozenset[Outcome]] = {
    "unace": frozenset({Outcome.UNACE}),
    "sdc": frozenset({Outcome.SDC, Outcome.HANG}),
    "segv": frozenset({Outcome.SEGV}),
    "failure": frozenset({Outcome.SDC, Outcome.HANG, Outcome.SEGV}),
    "detected": frozenset({Outcome.DETECTED}),
}


@dataclass(frozen=True)
class AdaptiveConfig:
    """Stopping rule and schedule for an adaptive campaign.

    ``ci_width`` is the target CI *half*-width as a proportion (0.025 =
    2.5 percentage points).  The first batch is widened if necessary to
    give every stratum ``seed_trials`` trials, so the post-stratified
    estimate covers the whole population from batch one.
    """

    ci_width: float = 0.025
    confidence: float = 0.95
    metric: str = "unace"
    batch_size: int = 96
    seed_trials: int = 2
    max_trials: int = 4000
    profile_samples: int = 96
    phases: int = 3

    def __post_init__(self) -> None:
        if self.metric not in METRIC_OUTCOMES:
            raise ValueError(
                f"unknown metric {self.metric!r}; "
                f"pick one of {sorted(METRIC_OUTCOMES)}")
        if not 0.0 < self.ci_width < 1.0:
            raise ValueError(f"ci_width out of (0, 1): {self.ci_width}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence out of (0, 1): {self.confidence}")
        if self.batch_size <= 0 or self.max_trials <= 0:
            raise ValueError("batch_size and max_trials must be positive")

    def config_dict(self) -> dict:
        """The stopping rule's knobs and the hang rule's, flattened for
        a run-registry manifest config fingerprint."""
        return {"adaptive": True, **asdict(self),
                "hang_factor": HANG_FACTOR, "hang_floor": HANG_FLOOR}


@dataclass(frozen=True)
class StratumOutcomes:
    """Per-stratum outcome counts for one arm (post-campaign)."""

    key: str
    weight: float              # population share within the arm
    trials: int
    outcomes: dict[str, int]   # Outcome.value -> count

    def count(self, outcomes: frozenset[Outcome] | tuple[Outcome, ...]
              ) -> int:
        return sum(self.outcomes.get(o.value, 0) for o in outcomes)


@dataclass(frozen=True)
class BatchRecord:
    """Telemetry for one scheduled batch."""

    index: int
    trials: int
    total_trials: int
    allocation: dict[str, int]
    estimate: float
    low: float
    high: float
    half_width: float
    met: bool

    def to_dict(self, context: dict | None = None) -> dict:
        record = {"kind": "adaptive_batch"}
        if context:
            record.update(context)
        record.update(
            batch=self.index,
            trials=self.trials,
            total_trials=self.total_trials,
            allocation={k: v for k, v in sorted(self.allocation.items())
                        if v},
            estimate=round(self.estimate, 6),
            low=round(self.low, 6),
            high=round(self.high, 6),
            half_width=round(self.half_width, 6),
            met=self.met,
        )
        return record


@dataclass
class AdaptiveResult:
    """Everything an adaptive run produced."""

    config: AdaptiveConfig
    estimate: StratifiedEstimate
    trials: int
    target_met: bool
    batches: list[BatchRecord]
    cells: dict[str, StratumCell]
    arm_results: dict[str, CampaignResult]
    #: Per-arm, per-stratum outcome counts: the raw material for
    #: post-stratified estimates of *any* outcome rate, not just the
    #: metric the stopping rule targeted.
    arm_strata: dict[str, list[StratumOutcomes]]

    @property
    def result(self) -> CampaignResult:
        """The single arm's aggregate (single-arm campaigns only)."""
        if len(self.arm_results) != 1:
            raise ValueError(
                "suite-level adaptive runs have per-arm results; "
                "use .arm_results")
        return next(iter(self.arm_results.values()))

    def summary_dict(self) -> dict:
        """The stopping verdict, deterministic, for stored manifests."""
        return {
            "trials": self.trials,
            "target_met": self.target_met,
            "batches": len(self.batches),
            "estimate": round(self.estimate.value, 6),
            "low": round(self.estimate.low, 6),
            "high": round(self.estimate.high, 6),
            "half_width": round(self.estimate.half_width, 6),
            "method": self.estimate.method,
        }

    def arm_estimate(self, arm: str,
                     outcomes: frozenset[Outcome] | tuple[Outcome, ...],
                     confidence: float | None = None) -> StratifiedEstimate:
        """Post-stratified rate of an outcome set within one arm.

        This -- not the arm's raw ``CampaignResult`` percentages -- is
        the unbiased population estimate: adaptive allocation samples
        high-variance strata more heavily, so raw per-trial fractions
        over-represent them.
        """
        cells = [
            StratumCell(key=s.key, weight=s.weight, trials=s.trials,
                        successes=s.count(outcomes))
            for s in self.arm_strata[arm]
        ]
        return stratified_estimate(
            cells, confidence or self.config.confidence)

    def suite_estimate(self,
                       outcomes: frozenset[Outcome] | tuple[Outcome, ...],
                       confidence: float | None = None
                       ) -> StratifiedEstimate:
        """Post-stratified suite-average rate of an outcome set
        (arms weighted equally, as in the Figure 8 Average row)."""
        weight = 1.0 / len(self.arm_strata)
        cells = [
            StratumCell(key=f"{arm}:{s.key}", weight=weight * s.weight,
                        trials=s.trials, successes=s.count(outcomes))
            for arm, strata in self.arm_strata.items()
            for s in strata
        ]
        return stratified_estimate(
            cells, confidence or self.config.confidence)

    def batch_dicts(self, context: dict | None = None) -> list[dict]:
        """Per-batch telemetry records for a JSONL sink."""
        base = {
            "metric": self.config.metric,
            "target": self.config.ci_width,
            "confidence": self.config.confidence,
        }
        if context:
            base.update(context)
        return [b.to_dict(base) for b in self.batches]

    def stratum_dicts(self, context: dict | None = None) -> list[dict]:
        """Per-(arm, stratum) telemetry records: population weight,
        trials spent, and the full outcome breakdown.  Alongside
        :meth:`batch_dicts` this is what ``obs convergence`` needs to
        audit coverage and allocation efficiency, and what ``obs
        atlas`` uses to weight maps by population share."""
        records = []
        for arm in sorted(self.arm_strata):
            for stratum in self.arm_strata[arm]:
                record = {"kind": "fault_space_stratum"}
                if context:
                    record.update(context)
                record.update(
                    arm=arm,
                    stratum=stratum.key,
                    weight=stratum.weight,
                    trials=stratum.trials,
                    outcomes={key: count for key, count
                              in sorted(stratum.outcomes.items())},
                )
                records.append(record)
        return records


class _Arm:
    """One binary under measurement: checkpoints, fault space, counts.

    Built on its machine's engine (see :func:`_run_engine`): the golden
    run, the fault-space profile and every batch run on it.
    """

    def __init__(self, name: str, machine: Machine, weight: float,
                 config: AdaptiveConfig, seed: int,
                 log: CampaignLog | None) -> None:
        self.name = name
        self.weight = weight
        self.log = log
        self.store = build_checkpoints(machine)
        golden = self.store.golden
        self.space: FaultSpace = profile_fault_space(
            machine, golden.instructions,
            samples=config.profile_samples, phases=config.phases)
        # One RNG stream per stratum, drawn in sorted-key order each
        # batch: the realized site lists depend only on (seed, arm,
        # stratum, draws so far), never on jobs or batch boundaries of
        # other strata.
        self.rngs = {key: random.Random(f"{seed}:{name}:{key}")
                     for key in self.space.strata}
        self.result = CampaignResult(golden_instructions=golden.instructions)
        self.successes = METRIC_OUTCOMES[config.metric]
        self.outcome_counts: dict[str, dict[Outcome, int]] = {
            key: {} for key in self.space.strata}
        self.next_trial = 0

    def cell_key(self, stratum: str) -> str:
        return f"{self.name}:{stratum}"

    def cells(self) -> list[StratumCell]:
        cells = []
        for key in sorted(self.space.strata):
            counts = self.outcome_counts[key]
            cells.append(StratumCell(
                key=self.cell_key(key),
                weight=self.weight * self.space.weight(key),
                trials=sum(counts.values()),
                successes=sum(n for o, n in counts.items()
                              if o in self.successes),
            ))
        return cells

    def strata_outcomes(self) -> list[StratumOutcomes]:
        return [
            StratumOutcomes(
                key=key,
                weight=self.space.weight(key),
                trials=sum(self.outcome_counts[key].values()),
                outcomes={o.value: n for o, n
                          in self.outcome_counts[key].items()},
            )
            for key in sorted(self.space.strata)
        ]

    def run_batch(self, allocation: dict[str, int], jobs: int) -> int:
        """Realize and execute this arm's share of one batch."""
        sites = []
        strata = []
        for key, count in sorted(allocation.items()):
            if count > 0:
                drawn = self.space.sample(key, self.rngs[key], count)
                sites.extend(drawn)
                strata.extend([key] * len(drawn))
        if not sites:
            return 0
        self.result, outcomes = run_batch(
            self.store, sites, self.result, self.log, jobs=jobs,
            first_trial=self.next_trial, strata=strata)
        self.next_trial += len(sites)
        for stratum, outcome in zip(strata, outcomes):
            counts = self.outcome_counts[stratum]
            counts[outcome] = counts.get(outcome, 0) + 1
        return len(sites)


def _run_engine(machines: list[tuple[str, Machine, CampaignLog | None]],
                config: AdaptiveConfig, seed: int, jobs: int,
                jit: bool) -> AdaptiveResult:
    """Campaign equal-weight arms, one per ``(name, machine, log)``."""
    weight = 1.0 / len(machines)
    batches: list[BatchRecord] = []
    with ExitStack() as engines:
        arms = []
        for name, machine, log in machines:
            engines.enter_context(engine(machine, jit))
            arms.append(_Arm(name, machine, weight, config, seed, log))
        start_time = perf_counter()
        total, target_met = _run_batches(arms, config, jobs, batches)
    elapsed = perf_counter() - start_time
    if total > 0:
        for arm in arms:
            arm.result.elapsed_seconds = (elapsed * arm.result.trials
                                          / total)
    final_cells = {c.key: c for arm in arms for c in arm.cells()}
    return AdaptiveResult(
        config=config,
        estimate=stratified_estimate(list(final_cells.values()),
                                     config.confidence),
        trials=total,
        target_met=target_met,
        batches=batches,
        cells=final_cells,
        arm_results={arm.name: arm.result for arm in arms},
        arm_strata={arm.name: arm.strata_outcomes() for arm in arms},
    )


def _run_batches(arms: list[_Arm], config: AdaptiveConfig, jobs: int,
                 batches: list[BatchRecord]) -> tuple[int, bool]:
    """Schedule batches until the target is met or the cap is hit;
    returns ``(trials run, target met)``."""

    def all_cells() -> list[StratumCell]:
        return [cell for arm in arms for cell in arm.cells()]

    n_cells = len(all_cells())
    total = 0
    batch_index = 0
    while total < config.max_trials:
        budget = min(config.batch_size, config.max_trials - total)
        if batch_index == 0:
            # Widen the seeding batch so every stratum gets observed
            # (within the cap): the post-stratified estimate then covers
            # the full population from the first stopping check.
            budget = min(max(budget, config.seed_trials * n_cells),
                         config.max_trials)
        allocation = neyman_allocation(
            all_cells(), budget,
            floor=config.seed_trials if batch_index == 0 else 0)
        with span("adaptive.batch", batch=batch_index, trials=budget,
                  metric=config.metric):
            ran = 0
            for arm in arms:
                prefix = f"{arm.name}:"
                arm_allocation = {
                    key[len(prefix):]: count
                    for key, count in allocation.items()
                    if key.startswith(prefix)
                }
                ran += arm.run_batch(arm_allocation, jobs)
        total += ran
        cells = all_cells()
        estimate = stratified_estimate(cells, config.confidence)
        covered = all(c.trials > 0 for c in cells)
        met = covered and estimate.half_width <= config.ci_width
        batches.append(BatchRecord(
            index=batch_index, trials=ran, total_trials=total,
            allocation=allocation, estimate=estimate.value,
            low=estimate.low, high=estimate.high,
            half_width=estimate.half_width, met=met))
        if obs_enabled():
            registry = obs_registry()
            registry.counter("adaptive.batches").inc()
            registry.counter("adaptive.trials").inc(ran)
        batch_index += 1
        if met:
            return total, True
        if ran == 0:  # allocation starved (cap smaller than strata)
            break
    return total, False


def run_adaptive_campaign(
    program: Program,
    *,
    config: AdaptiveConfig | None = None,
    seed: int = 0,
    jobs: int = 1,
    machine: Machine | None = None,
    log: CampaignLog | None = None,
    name: str = "campaign",
    jit: bool | None = None,
) -> AdaptiveResult:
    """Adaptively campaign one binary until the metric's CI is tight.

    ``jit`` defaults to on (the adaptive path never traces or
    profiles); results are bit-identical either way.
    """
    machine = machine or Machine(program)
    return _run_engine([(name, machine, log)], config or AdaptiveConfig(),
                       seed, jobs, jit is not False)


def run_adaptive_suite(
    machines: list[tuple[str, Machine]],
    *,
    config: AdaptiveConfig | None = None,
    seed: int = 0,
    jobs: int = 1,
    logs: dict[str, CampaignLog] | None = None,
    jit: bool | None = None,
) -> AdaptiveResult:
    """Adaptively campaign a suite of binaries as equal-weight arms.

    The target interval is on the suite-average rate (each benchmark
    weighted ``1/B``, exactly the Figure 8 "Average" row), so easy
    near-deterministic arms stop consuming trials as soon as their
    contribution to the suite variance is negligible.
    """
    if not machines:
        raise ValueError("adaptive suite needs at least one arm")
    return _run_engine(
        [(name, machine, (logs or {}).get(name))
         for name, machine in machines],
        config or AdaptiveConfig(), seed, jobs, jit is not False)
