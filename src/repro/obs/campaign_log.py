"""Structured per-trial campaign telemetry.

A :class:`CampaignLog` captures one :class:`TrialRecord` per
fault-injection trial: the fault site (dynamic instruction index,
register, bit), the classified outcome, whether recovery code fired,
and the **detection latency** -- the number of dynamic instructions
between the injection and the first check that reacted to it.  The
latency is the metric RepTFD-style transient-fault work treats as
first-class and that aggregate unACE/SDC/SEGV counts cannot express.

Latency sources, in precedence order:

* a SWIFT detection check fired (``RunStatus.DETECTED``): the machine's
  final ``instructions`` count *is* the detecting instruction's icount;
* recovery code fired (SWIFT-R vote repair, TRUMP reload): the machine
  records the icount of the first recovery entry
  (``RunResult.first_recovery_icount``);
* neither: the fault was never noticed -- latency is ``None`` (the
  JSONL field is ``null``), covering both benign unACE trials and
  undetected SDC/SEGV/Hang failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..sim.events import RunResult, RunStatus

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..faults.model import FaultSite
    from ..faults.outcomes import Outcome


def detection_icount(faulty: RunResult) -> int | None:
    """Dynamic icount of the first check that reacted to the fault."""
    if faulty.status is RunStatus.DETECTED:
        return faulty.instructions
    return faulty.first_recovery_icount


def detection_latency(site: "FaultSite", faulty: RunResult) -> int | None:
    """Dynamic instructions from injection to the reacting check."""
    icount = detection_icount(faulty)
    if icount is None:
        return None
    return max(icount - site.dynamic_index, 0)


@dataclass(frozen=True)
class TrialRecord:
    """Everything observable about one fault-injection trial."""

    trial: int                     # trial index within the campaign
    dynamic_index: int             # fault site: dynamic instruction
    reg_index: int                 # fault site: architectural register
    bit: int                       # fault site: flipped bit position
    outcome: str                   # Outcome.value: unACE/SDC/SEGV/DUE/Hang
    status: str                    # RunStatus.value of the faulty run
    recovered: bool                # did repair code fire at least once
    recoveries: int                # how many times repair code fired
    detection_latency: int | None  # dynamic instrs injection -> check
    instructions: int              # dynamic length of the faulty run
    fault_landed: bool = True      # False: run ended before the flip

    def to_dict(self, context: dict | None = None) -> dict:
        record = {"kind": "trial"}
        if context:
            record.update(context)
        record.update(
            trial=self.trial,
            dynamic_index=self.dynamic_index,
            reg_index=self.reg_index,
            bit=self.bit,
            outcome=self.outcome,
            status=self.status,
            recovered=self.recovered,
            recoveries=self.recoveries,
            detection_latency=self.detection_latency,
            instructions=self.instructions,
            fault_landed=self.fault_landed,
        )
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "TrialRecord":
        """Rebuild a record exported by :meth:`to_dict` (drops context)."""
        from dataclasses import fields

        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in record.items() if k in names})


class CampaignLog:
    """Collects per-trial records for one campaign.

    ``context`` (e.g. ``{"benchmark": "crc32", "technique": "swiftr"}``)
    is merged into every exported record, so logs from a whole
    evaluation grid can share one JSONL file and still be sliced.
    """

    def __init__(self, context: dict | None = None) -> None:
        self.context = dict(context or {})
        self.records: list[TrialRecord] = []
        #: Raw taint-event and taint-summary dicts, in trial order, as
        #: exported by :meth:`repro.sim.taint.TaintTracker.export`.
        #: Kept separate from ``records`` so consumers that only care
        #: about outcomes never pay for event streams.
        self.taint_records: list[dict] = []

    def record_trial(self, trial: int, site: "FaultSite",
                     outcome: "Outcome", faulty: RunResult,
                     landed: bool) -> None:
        """Record one trial; ``landed`` says whether the run reached
        the injection point (see :func:`repro.faults.trials.run_trials`)."""
        # Extension fault models (wild jumps, opcode flips) have no
        # register/bit coordinates; record -1 so one schema covers all.
        self.records.append(TrialRecord(
            trial=trial,
            dynamic_index=site.dynamic_index,
            reg_index=getattr(site, "reg_index", -1),
            bit=getattr(site, "bit", -1),
            outcome=outcome.value,
            status=faulty.status.value,
            recovered=faulty.recoveries > 0,
            recoveries=faulty.recoveries,
            detection_latency=detection_latency(site, faulty),
            instructions=faulty.instructions,
            fault_landed=landed,
        ))

    def record_taint(self, trial: int, tracker) -> None:
        """Capture one trial's taint stream (a
        :class:`~repro.sim.taint.TaintTracker` after its run)."""
        self.taint_records.extend(tracker.export(trial))

    def __len__(self) -> int:
        return len(self.records)

    def to_dicts(self) -> list[dict]:
        return [record.to_dict(self.context) for record in self.records]

    def taint_dicts(self) -> list[dict]:
        """Taint records with the campaign context merged in."""
        if not self.context:
            return list(self.taint_records)
        merged = []
        for record in self.taint_records:
            out = {"kind": record.get("kind", "taint")}
            out.update(self.context)
            out.update(record)
            merged.append(out)
        return merged

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts

    def latencies(self) -> list[int]:
        """Detection latencies of the trials where a check reacted."""
        return [r.detection_latency for r in self.records
                if r.detection_latency is not None]
