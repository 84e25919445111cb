"""Single-run fault injection: pause, flip, resume.

The machine's precise pause/resume makes the paper's methodology exact:
the run executes ``site.dynamic_index`` instructions, one register bit
is flipped, and execution resumes to an outcome.

Two execution strategies are provided:

* :func:`run_with_fault` -- the straightforward path: reset, replay
  from instruction 0 to the injection point, flip, run to an outcome.
  Every trial costs a full pre-fault replay (``golden/2`` dynamic
  instructions on average).
* :class:`CheckpointStore` -- replay-from-checkpoint.  The golden run
  is executed once, pausing every ``interval`` dynamic instructions to
  snapshot the complete architectural state.  Each trial then restores
  the nearest checkpoint at or before the injection point and runs
  forward, cutting the average pre-fault replay to ``interval/2``.  On
  top of that, the post-fault run is resumed in checkpoint-sized slices
  and compared against the golden checkpoints: the moment the faulty
  state re-converges with the golden state, the rest of the run is
  provably identical to the golden run and its result is spliced in
  instead of re-executed.  Convergence ignores registers the rest of
  the run cannot read (:meth:`Machine.state_matches`), so a flip into a
  dead register converges at the next boundary.  A run that repair
  code fixed usually trails the golden run by the repair block's
  length; it single-steps up to :data:`MAX_SPLICE_SHIFT` instructions
  to catch up with the checkpoint and is spliced with that offset
  added to its instruction count.  Taint-traced trials splice only on
  exact convergence and never shift: forensics classifies dead values
  by running them out.  For recovery-protected binaries most trials
  converge within one or two intervals of the injection, which is where
  the bulk of the campaign speedup comes from.

Both strategies produce bit-identical :class:`RunResult`\\ s for the
same fault site; ``tests/test_checkpoint.py`` holds that equivalence.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..sim.events import RunResult, RunStatus
from ..sim.machine import Machine, MachineSnapshot
from .model import FaultSite

#: Checkpoint-count ceiling for the auto-tuned interval.  Each
#: checkpoint copies the register files and the (sparse) memory image,
#: so the cap bounds both build time and resident memory.
MAX_CHECKPOINTS = 64

#: Starting spacing for the auto-tuned interval; below this, restore
#: overhead is comparable to simply executing the instructions.
MIN_CHECKPOINT_INTERVAL = 512

#: How far (in dynamic instructions) a repaired run may trail the golden
#: run at a checkpoint and still be spliced: a SWIFT-R/TRUMP repair
#: block delays the rejoined main flow by its own length.
MAX_SPLICE_SHIFT = 256


def run_with_fault(machine: Machine, site: FaultSite,
                   taint=None) -> RunResult:
    """Execute one full run with the given SEU injected.

    ``taint`` optionally names a :class:`~repro.sim.taint.TaintTracker`
    to attach for the post-flip portion of the run.  The pre-fault
    replay always executes on the untraced fast path; the tracker is
    attached only for the flip and the faulty suffix, and detached
    before returning so the machine comes back taint-free.
    """
    machine.reset()
    first = machine.run(site.dynamic_index)
    if first.status is not RunStatus.PAUSED:
        # The program terminated before the injection point (possible
        # only if the site was sampled against a longer golden run, or
        # under a shrunken max_instructions); the fault never landed.
        return first
    machine.taint = taint
    try:
        machine.flip_register_bit(site.reg_index, site.bit)
        return machine.run(None)
    finally:
        machine.taint = None


def golden_run(machine: Machine) -> RunResult:
    """One fault-free reference execution."""
    machine.reset()
    return machine.run(None)


def fault_landed(site: FaultSite, faulty: RunResult) -> bool:
    """Did the trial actually inject, or did the run end first?

    A landed fault always executes past the injection point (the flip
    happens at a pause, and the resumed run retires at least one more
    instruction before any terminal status), so the final instruction
    count discriminates exactly.
    """
    return faulty.instructions > site.dynamic_index


class CheckpointStore:
    """Periodic golden-run checkpoints plus checkpointed trial replay.

    Build once per (machine, campaign), then call :meth:`run_with_fault`
    per trial.  The store is bound to its machine: snapshots hold
    references into the machine's compiled code, so a different machine
    (even for the same program) needs its own store.
    """

    def __init__(self, machine: Machine, interval: int | None = None,
                 fast_forward: bool = True) -> None:
        self.machine = machine
        self.interval = interval or 0
        self.fast_forward = fast_forward
        self.snapshots: list[MachineSnapshot] = []
        self.golden: RunResult | None = None
        #: Trials whose result was spliced from the golden suffix after
        #: state re-convergence (perf counter, exposed by benches).
        self.fast_forwards = 0

    # ------------------------------------------------------------------ build
    def build(self) -> RunResult:
        """Run the golden execution once, checkpointing as it goes.

        Returns the golden :class:`RunResult` (this *is* the campaign's
        golden run -- no extra reference execution is needed).  With
        ``interval=None`` at construction, the spacing auto-tunes to the
        golden length in the same single pass: checkpoints start
        :data:`MIN_CHECKPOINT_INTERVAL` apart, and whenever the count
        exceeds :data:`MAX_CHECKPOINTS` every other snapshot is dropped
        and the interval doubles, converging on the coarsest spacing
        that still keeps the store within the cap.
        """
        machine = self.machine
        auto = not self.interval
        if auto:
            self.interval = MIN_CHECKPOINT_INTERVAL
        machine.reset()
        self.snapshots = [machine.snapshot()]
        limit = self.interval
        while True:
            result = machine.run(limit)
            if result.status is not RunStatus.PAUSED:
                self.golden = result
                return result
            self.snapshots.append(machine.snapshot())
            if auto and len(self.snapshots) > MAX_CHECKPOINTS:
                # Thin to every other checkpoint; the kept snapshots sit
                # at multiples of the doubled interval, preserving the
                # ``snapshots[i].icount == i * interval`` invariant that
                # trial lookup relies on.
                self.snapshots = self.snapshots[::2]
                self.interval *= 2
            limit += self.interval

    # ----------------------------------------------------------------- trials
    def run_with_fault(self, site: FaultSite, taint=None) -> RunResult:
        """One SEU trial, replaying from the nearest checkpoint.

        With a :class:`~repro.sim.taint.TaintTracker` in ``taint``, the
        tracker observes the faulty suffix exactly as in the serial
        injector; when the run fast-forwards through a convergence
        splice the tracker is told (:meth:`on_converged`) so forensics
        knows the remaining taint was provably extinct, not merely
        unobserved.
        """
        if self.golden is None:
            self.build()
        machine = self.machine
        target = site.dynamic_index
        index = min(target // self.interval, len(self.snapshots) - 1)
        machine.restore(self.snapshots[index])
        first = machine.run(target)
        if first.status is not RunStatus.PAUSED:
            return first                      # fault never landed
        machine.taint = taint
        try:
            machine.flip_register_bit(site.reg_index, site.bit)
            if not self.fast_forward:
                return machine.run(None)
            # Resume in checkpoint-sized slices; at each golden checkpoint
            # boundary, test whether the faulty state has re-converged.
            # A run whose repair code fired since the last attempt may
            # re-converge a few instructions late (the repair's length):
            # it gets one shifted attempt per change in its recovery count.
            tried = None
            next_index = target // self.interval + 1
            while next_index < len(self.snapshots):
                snap = self.snapshots[next_index]
                result = machine.run(snap.icount)
                if result.status is not RunStatus.PAUSED:
                    return result
                window = 0
                if (taint is None
                        and machine.recoveries not in (snap.recoveries,
                                                       tried)):
                    tried = machine.recoveries
                    window = MAX_SPLICE_SHIFT
                result = self._converge(snap, window)
                if result is not None:
                    return result
                next_index += 1
            return machine.run(None)
        finally:
            machine.taint = None

    def _converge(self, snap: MachineSnapshot, window: int
                  ) -> RunResult | None:
        """Splice the golden suffix if the paused run re-converges with
        ``snap`` within ``window`` more instructions.

        Single-steps the machine until its state matches ``snap`` (at
        the current icount first, so ``window=0`` is the plain boundary
        test).  Returns the spliced result, the run's own result if it
        ended while stepping, or ``None`` to keep executing.
        """
        machine = self.machine
        stop = machine.icount + window
        while not machine.state_matches(snap):
            if machine.icount >= stop:
                return None
            result = machine.run(machine.icount + 1)
            if result.status is not RunStatus.PAUSED:
                return result
        spliced = self._splice_golden(snap, machine.icount - snap.icount)
        if spliced is not None:
            self.fast_forwards += 1
            if machine.taint is not None:
                machine.taint.on_converged(snap.icount)
        return spliced

    def _splice_golden(self, snap: MachineSnapshot, delta: int
                       ) -> RunResult | None:
        """Final result of a faulty run that re-converged with ``snap``
        ``delta`` instructions late.

        From the convergence point on, execution is the golden run's
        shifted by ``delta``, so the terminal status and exit code are
        the golden run's, the instruction count and any suffix
        first-recovery icount are shifted by ``delta``, and the output
        and recovery counters splice the faulty prefix onto the golden
        suffix.  Returns ``None`` when the shifted run would reach
        ``max_instructions`` (it hangs instead), or when the recovery
        bookkeeping cannot be reconstructed exactly (golden runs that
        themselves entered repair blocks both before and after the
        checkpoint); the caller then simply keeps executing.
        """
        machine = self.machine
        golden = self.golden
        if golden.instructions + delta >= machine.max_instructions:
            return None
        suffix_recoveries = golden.recoveries - snap.recoveries
        first_recovery = machine.first_recovery_icount
        if first_recovery is None and suffix_recoveries:
            if snap.recoveries:
                # The golden suffix recovers but its first-recovery
                # icount is hidden behind an earlier golden recovery.
                return None
            first_recovery = golden.first_recovery_icount + delta
        return RunResult(
            golden.status,
            exit_code=golden.exit_code,
            trap_kind=golden.trap_kind,
            trap_detail=golden.trap_detail,
            output=machine.output + golden.output[len(snap.output):],
            instructions=golden.instructions + delta,
            recoveries=machine.recoveries + suffix_recoveries,
            first_recovery_icount=first_recovery,
        )


def build_checkpoints(machine: Machine, interval: int | None = None
                      ) -> CheckpointStore:
    """Build a ready-to-inject :class:`CheckpointStore` for ``machine``."""
    store = CheckpointStore(machine, interval=interval)
    result = store.build()
    if result.status is not RunStatus.EXITED:
        raise SimulationError(
            f"golden run did not complete cleanly: {result.status}"
        )
    return store
