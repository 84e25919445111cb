"""Outcome classification (paper Section 2.1).

A faulty run is compared against the golden (fault-free) run:

* **unACE** -- completed with the correct output: the flipped bit was
  unnecessary for architecturally correct execution (or was repaired by
  a recovery technique before it could matter);
* **SDC**   -- silent data corruption: completed, wrong output (we also
  count a wrong exit code as SDC);
* **SEGV**  -- abnormal termination (segmentation fault; we fold the
  other hardware-trap terminations -- divide-by-zero, bad float
  conversion -- into this category, as the paper's SEGV bucket is
  "execution abnormally terminated");
* **DETECTED** -- a SWIFT check fired (detection without recovery; a DUE
  in the hardware taxonomy).  Only the SWIFT baseline produces these;
* **HANG** -- the run reached its instruction budget, set once per
  campaign from the golden run: ``HANG_FACTOR`` (200) times the golden
  run's instructions, at least ``HANG_FLOOR`` (1M), at most the
  machine's cap (``MAX_INSTRUCTIONS``, 20M) -- see
  :func:`repro.faults.injector.hang_budget`.  The paper's three-way
  taxonomy has no hang bucket; report helpers fold HANG into SDC (the
  program failed to produce its correct output and did not terminate
  abnormally).
"""

from __future__ import annotations

import enum

from ..sim.events import RunResult, RunStatus


class Outcome(enum.Enum):
    UNACE = "unACE"
    SDC = "SDC"
    SEGV = "SEGV"
    DETECTED = "DUE"
    HANG = "Hang"

    @property
    def is_failure(self) -> bool:
        """Deleterious per the paper (SEGV and SDC both are)."""
        return self in (Outcome.SDC, Outcome.SEGV, Outcome.HANG)


def classify(golden: RunResult, faulty: RunResult) -> Outcome:
    """Classify one faulty run against the golden run."""
    if faulty.status is RunStatus.TRAPPED:
        return Outcome.SEGV
    if faulty.status is RunStatus.DETECTED:
        return Outcome.DETECTED
    if faulty.status is RunStatus.HANG:
        return Outcome.HANG
    if faulty.status is not RunStatus.EXITED:
        raise ValueError(f"unclassifiable run status {faulty.status}")
    if faulty.output == golden.output and faulty.exit_code == golden.exit_code:
        return Outcome.UNACE
    return Outcome.SDC
