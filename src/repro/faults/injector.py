"""Single-run fault injection: pause, inject, resume.

The machine's precise pause/resume makes the paper's methodology exact:
the run executes ``site.dynamic_index`` instructions, the site injects
its fault into the paused machine (``site.inject(machine)``: a register
bit flip, an opcode flip, a wild jump), and execution resumes to an
outcome.

Two execution strategies are provided, with one interface (``build``,
``run_with_fault``, ``golden``, ``landed``, ``fast_forwards``) so the
campaign kernel (:mod:`repro.faults.trials`) runs either:

* :class:`FullReplay` (and :func:`run_with_fault`) -- the
  straightforward path: reset, replay from instruction 0 to the
  injection point, inject, run to an outcome.  Every trial costs a full
  pre-fault replay (``golden/2`` dynamic instructions on average).
* :class:`CheckpointStore` -- replay-from-checkpoint.  The golden run
  is executed once, pausing every ``interval`` dynamic instructions to
  snapshot the complete architectural state.  Each trial then restores
  the nearest checkpoint at or before the injection point -- or the
  golden *cursor*, when that is closer -- and runs forward, cutting the
  average pre-fault replay to ``interval/2`` or less.  Campaigns run
  their sites in ascending order, so the cursor is the previous trial's
  site, or the site itself (see below).  After the flip the faulty
  state is compared with golden states at *convergence points*: the
  site itself, then the checkpoints after it, reached by resuming the
  run in checkpoint-sized slices.  The moment the faulty state
  re-converges with the golden state, the rest of the run is provably
  identical to the golden run and its result is spliced in instead of
  re-executed.  Convergence ignores registers the rest of the run
  cannot read (:meth:`Machine.state_matches`), so a flip into a dead
  register converges at once.  A run that repair code fixed usually
  trails the golden run by the repair block's length: at every point
  where its recovery count differs from the golden one it seeks up to
  :data:`MAX_SPLICE_SHIFT` instructions ahead for the point's position
  (:meth:`Machine.seek`) and is spliced with that offset added to its
  instruction count.  A trial told the campaign's next site
  (``upcoming``) that does not converge at its own site runs the
  golden run on to that site, which becomes both the next trial's
  cursor and one more convergence point, usually well before the next
  checkpoint.  Taint-traced trials splice only on exact convergence
  and never shift: forensics classifies dead values by running them
  out.  For recovery-protected binaries most trials converge within
  one interval of the injection, which is where the bulk of the
  campaign speedup comes from.

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
    """Execute one full run with the given fault injected.

    ``taint`` optionally names a :class:`~repro.sim.taint.TaintTracker`
    to attach for the post-injection portion of the run.  The pre-fault
    replay always executes on the untraced fast path; the tracker is
    attached only for the injection and the faulty suffix, and detached
    before returning so the machine comes back taint-free.
    """
    return FullReplay(machine).run_with_fault(site, taint)


def golden_run(machine: Machine) -> RunResult:
    """One fault-free reference execution."""
    machine.reset()
    return machine.run(None)


def fault_landed(site: FaultSite, faulty: RunResult) -> bool:
    """Did the trial inject, judged from its result alone?

    A landed register flip or wild jump always executes past the
    injection point, so the final instruction count discriminates
    exactly for them.  An opcode flip that traps at decode retires
    nothing after the pause, so campaigns take landing from the run
    itself instead (the stores' ``landed`` flag).
    """
    return faulty.instructions > site.dynamic_index


class FullReplay:
    """The reference trial path: every trial replays from instruction 0.

    Campaigns use it for ``checkpoint_interval=0``, the equivalence
    reference of :class:`CheckpointStore`.
    """

    fast_forwards = 0

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.golden: RunResult | None = None
        #: Whether the last trial reached its injection point.
        self.landed = False

    def build(self) -> RunResult:
        """Run (and keep) the golden execution."""
        self.golden = golden_run(self.machine)
        return self.golden

    def run_with_fault(self, site: FaultSite, taint=None,
                       upcoming: FaultSite | None = None) -> RunResult:
        """One trial: reset, replay to the site, inject, run out.
        ``upcoming`` is accepted for the common interface and unused."""
        machine = self.machine
        machine.reset()
        first = machine.run(site.dynamic_index)
        self.landed = first.status is RunStatus.PAUSED
        if not self.landed:
            # The program terminated before the injection point
            # (possible only if the site was sampled against a longer
            # golden run, or under a shrunken max_instructions).
            return first
        machine.taint = taint
        try:
            result = site.inject(machine)
            return machine.run(None) if result is None else result
        finally:
            machine.taint = None


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
        #: Golden state at the last landed trial's site (see
        #: :meth:`run_with_fault`).
        self.cursor: MachineSnapshot | None = None
        #: Trials whose result was spliced from the golden suffix after
        #: state re-convergence (perf counter, exposed by benches).
        self.fast_forwards = 0
        #: Whether the last trial reached its injection point.
        self.landed = False

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
        self.cursor = None
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
    def run_with_fault(self, site: FaultSite, taint=None,
                       upcoming: FaultSite | None = None) -> RunResult:
        """One trial, replaying from the nearest golden state.

        The pre-fault replay starts at the nearest checkpoint, or at the
        *cursor* (a golden snapshot taken by an earlier trial) when that
        lies between the checkpoint and this site, so ascending sites
        replay only the gap between consecutive sites (campaigns run
        theirs through :func:`~repro.faults.trials.run_trials`).  The
        cursor is skipped while a profiler is attached: profile counts
        are executed work, and must not depend on which trials ran
        before (shards see different ones).

        The site itself is the first convergence point: a flip into a
        register that is dead there splices the golden suffix before
        any faulty instruction runs.  An injection that ends the run
        itself (an opcode flip trapping at decode) returns at once.
        Otherwise the golden state at ``upcoming``, the next site of the
        campaign's ascending order, may join the checkpoints as a
        convergence point (:meth:`_next_site_point`).  The result never
        depends on ``upcoming``, and neither does whether the trial
        splices.

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
        start = self.snapshots[index]
        cursor = self.cursor
        if (cursor is not None and start.icount < cursor.icount <= target
                and machine.profile is None):
            start = cursor
        machine.restore(start)
        first = machine.run(target)
        self.landed = first.status is RunStatus.PAUSED
        if not self.landed:
            return first
        # A start at the site itself is already its golden snapshot.
        self.cursor = cursor = (start if start.icount == target
                                else machine.snapshot())
        machine.taint = taint
        try:
            result = site.inject(machine)
            if result is not None:
                return result
            if not self.fast_forward:
                return machine.run(None)
            result = self._converge(cursor, 0)
            if result is not None:
                return result
            # Never a next-site point for a traced trial, whose
            # forensics report where it converged, nor while a profiler
            # counts executed work: the golden replay to the next site
            # would move between trials with the sharding.
            ahead = None
            if (upcoming is not None and taint is None
                    and machine.profile is None):
                ahead = self._next_site_point(upcoming.dynamic_index,
                                              target)
            # Resume in checkpoint-sized slices; at each golden
            # checkpoint boundary (and the next site's point, in icount
            # order), test whether the faulty state has re-converged.  A
            # run whose recovery count differs from the golden one there
            # may re-converge a few instructions late (the repair's
            # length), so it gets a shifted attempt.
            next_index = target // self.interval + 1
            while next_index < len(self.snapshots):
                snap = self.snapshots[next_index]
                window = MAX_SPLICE_SHIFT
                if ahead is not None and ahead.icount < snap.icount:
                    # Its window ends at the next checkpoint, and it is
                    # passed over when an earlier shifted attempt ran
                    # beyond it: either way the run stands at or before
                    # that checkpoint afterwards, exactly as it would
                    # without the point, so a trial spliced here also
                    # splices there and ``fast_forwards`` stays the same.
                    snap, ahead, window = ahead, None, min(
                        window, snap.icount - ahead.icount)
                    if machine.icount > snap.icount:
                        continue
                else:
                    next_index += 1
                result = machine.run(snap.icount)
                if result.status is not RunStatus.PAUSED:
                    return result
                if taint is not None or machine.recoveries == snap.recoveries:
                    window = 0
                result = self._converge(snap, window)
                if result is not None:
                    return result
            return machine.run(None)
        finally:
            machine.taint = None

    def _next_site_point(self, icount: int, target: int
                         ) -> MachineSnapshot | None:
        """The golden state at ``icount``, the next trial's site, as a
        convergence point for the paused faulty run of the trial at
        ``target``; ``None`` unless it lies strictly between two
        checkpoints.

        The faulty state is set aside, the golden run replayed from the
        cursor (or from ``icount``'s checkpoint, if that lies further
        on) to ``icount``, and the faulty state restored.  The golden
        snapshot also becomes the cursor, so the next trial replays
        nothing.
        """
        index = icount // self.interval
        # A coarse checkpoint must follow the point: past the last one,
        # a splice here would save a trial that otherwise runs out
        # unspliced, and a shard's last trial has no next site, so
        # ``fast_forwards`` would change with ``--jobs``.
        if (icount <= target or icount % self.interval == 0
                or index + 1 >= len(self.snapshots)):
            return None
        machine = self.machine
        faulty = machine.snapshot()
        start = self.snapshots[index]
        machine.restore(start if start.icount > self.cursor.icount
                        else self.cursor)
        machine.run(icount)
        self.cursor = point = machine.snapshot()
        machine.restore(faulty)
        return point

    def _converge(self, snap: MachineSnapshot, window: int
                  ) -> RunResult | None:
        """Splice the golden suffix if the paused run re-converges with
        ``snap`` within ``window`` more instructions.

        Tests the state at the current icount first (so ``window=0`` is
        the plain boundary test), then at each later arrival at the
        snapshot's position (:meth:`Machine.seek`), the only places a
        match can occur.  Returns the spliced result, the run's own
        result if it ended while seeking, or ``None`` to keep
        executing.
        """
        machine = self.machine
        stop = machine.icount + window
        while not machine.state_matches(snap):
            if machine.icount >= stop:
                return None
            result = machine.seek(snap.position, stop)
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
                      ) -> CheckpointStore | FullReplay:
    """Build a ready-to-inject store for ``machine``.

    ``interval`` fixes the checkpoint spacing (``None`` auto-tunes it);
    ``0`` builds no checkpoints, giving the :class:`FullReplay`
    reference path.  Raises :class:`~repro.errors.SimulationError`
    unless the golden run exits cleanly: classifying faults against a
    golden run that itself failed would be meaningless.
    """
    store = (FullReplay(machine) if interval == 0
             else CheckpointStore(machine, interval=interval))
    golden = store.build()
    if golden.status is not RunStatus.EXITED:
        raise SimulationError(
            f"golden run did not complete cleanly: {golden.status}"
        )
    return store
