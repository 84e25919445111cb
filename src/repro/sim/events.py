"""Run statuses, guest traps, and run results for the simulator.

Guest-program failures are *data*, not exceptions: a run always returns
a :class:`RunResult`.  The paper's outcome taxonomy (unACE / SDC / SEGV)
is applied later by :mod:`repro.faults.outcomes` by comparing a faulty
run's result against the golden run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class TrapKind(enum.Enum):
    """Abnormal-termination causes inside the guest."""

    SEGFAULT = "segfault"          # unmapped or misaligned memory access
    DIV_BY_ZERO = "div_by_zero"    # integer division/remainder by zero
    BAD_CONVERT = "bad_convert"    # float->int of NaN/inf
    ILLEGAL = "illegal_instruction"  # corrupted encoding failed to decode


class GuestTrap(Exception):
    """Raised internally while executing guest code; caught by the run loop."""

    def __init__(self, kind: TrapKind, detail: str = "") -> None:
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind.value}: {detail}")


class RunStatus(enum.Enum):
    """How a (segment of a) run ended."""

    EXITED = "exited"        # clean termination (EXIT or return from entry)
    TRAPPED = "trapped"      # abnormal termination (see trap_kind)
    DETECTED = "detected"    # a software check fired (SWIFT's faultDet)
    HANG = "hang"            # instruction budget exhausted
    PAUSED = "paused"        # internal: hit the step limit, resumable


@dataclass
class RunResult:
    """Everything observable about one execution."""

    status: RunStatus
    exit_code: int = 0
    trap_kind: TrapKind | None = None
    trap_detail: str = ""
    output: list = field(default_factory=list)
    instructions: int = 0
    recoveries: int = 0      # times TRUMP/SWIFT-R repair code actually fired
    #: Dynamic icount at which the first repair block was entered, or
    #: ``None`` if no repair fired.  Telemetry derives detection latency
    #: from this (see :mod:`repro.obs.campaign_log`).
    first_recovery_icount: int | None = None

    @property
    def completed(self) -> bool:
        return self.status is RunStatus.EXITED

    def __repr__(self) -> str:
        return (
            f"<RunResult {self.status.value} exit={self.exit_code} "
            f"instrs={self.instructions} out={len(self.output)} items>"
        )
