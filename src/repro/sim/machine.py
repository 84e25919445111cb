"""The functional architectural simulator.

Programs are compiled once into per-instruction Python closures over the
machine's register lists, then executed by a tight run loop.  The design
goals, in order: exact 64-bit two's-complement semantics, fast repeated
execution (fault-injection campaigns run thousands of trials), and
precise pause/resume so a fault can be injected between two dynamic
instructions, exactly as in the paper's methodology.

Register model: the machine keeps one integer file and one float file as
flat lists.  Physical registers ``r0``..``r31`` occupy slots ``0..31``;
virtual registers (for executing pre-register-allocation IR in tests)
are mapped to slots ``32+``.  Fault injection only ever targets the
physical slots (see :mod:`repro.faults`).

Closure protocol: each step returns
  * ``None``      -- fall through to the next instruction,
  * ``int >= 0``  -- branch to that block index in the current function,
  * ``ACT_CALL``  -- the closure stored callee/args in machine fields,
  * ``ACT_RET``   -- return value stored in ``self.ret_value``,
  * ``ACT_EXIT``  -- clean termination,
  * ``ACT_DETECT``-- a software fault-detection check fired,
  * ``ACT_RECOVER`` -- control entered a repair block (TRUMP/SWIFT-R);
    the run loop counts it and records the dynamic icount of the first
    one, which is what detection-latency telemetry reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.liveness import live_in_masks
from ..errors import SimulationError
from ..isa.instruction import Instruction, Role
from ..isa.opcodes import Opcode, OpKind
from ..isa.operands import FImm, Imm, MASK64
from ..isa.program import Program, STACK_TOP
from ..isa.registers import NUM_GPRS, Register
from ..obs.spans import span
from .events import GuestTrap, RunResult, RunStatus, TrapKind
from .memory import Memory, bits_to_float, float_to_bits

ACT_CALL = -2
ACT_EXIT = -3
ACT_RET = -4
ACT_DETECT = -5
ACT_RECOVER = -6

_TWO63 = 1 << 63
_TWO64 = 1 << 64


def _signed(x: int) -> int:
    return x - _TWO64 if x >= _TWO63 else x


class CompiledBlock:
    """Executable form of one basic block.

    ``meta`` is a per-instruction tuple list consumed by the timing
    model: ``(kind, dest_slot, src_slots, latency, mem, role)``.
    """

    __slots__ = ("name", "steps", "instrs", "meta")

    def __init__(self, name: str, steps: list, instrs: list[Instruction],
                 meta: list[tuple]) -> None:
        self.name = name
        self.steps = steps
        self.instrs = instrs
        self.meta = meta


class CompiledFunction:
    """Executable form of one function."""

    __slots__ = ("name", "blocks", "block_index", "num_params")

    def __init__(self, name: str, blocks: list[CompiledBlock],
                 num_params: int) -> None:
        self.name = name
        self.blocks = blocks
        self.block_index = {blk.name: i for i, blk in enumerate(blocks)}
        self.num_params = num_params


@dataclass
class MachineSnapshot:
    """Full architectural state of a paused (or freshly reset) machine.

    Snapshots are tied to the :class:`Machine` that produced them: the
    resume position and call stack reference its compiled functions, so
    restoring into a different machine -- even one compiled from the
    same program -- is undefined.  Campaign workers therefore build
    their own checkpoints (see :mod:`repro.faults.parallel`).
    """

    icount: int
    regs: list[int]
    fregs: list[float]
    cells: dict[int, int | float]
    output: list
    recoveries: int
    first_recovery_icount: int | None
    exit_code: int
    arg_stack: list[list]
    call_stack: list[tuple]
    position: tuple | None


class Machine:
    """Compile once, run many times (``reset`` between runs)."""

    def __init__(self, program: Program, max_instructions: int = 10_000_000):
        self.program = program
        self.max_instructions = max_instructions
        program.assign_addresses()
        # Virtual registers are per-function namespaces: ``v0`` in two
        # different functions must not share a machine slot.  Slots are
        # therefore keyed by (function name, register).  NOTE: executing
        # *recursive* functions that still use virtual registers is
        # unsupported (slots would be shared across activations); run
        # such programs after register allocation, which inserts the
        # callee-save/spill code that makes recursion sound.
        self._slot_cache: dict[tuple[str, Register], int] = {}
        self._next_virtual_slot = NUM_GPRS
        self._fnext_virtual_slot = NUM_GPRS
        self._fslot_cache: dict[tuple[str, Register], int] = {}
        self._current_function = ""
        # Compile all functions up front.
        self.functions: dict[str, CompiledFunction] = {}
        self.memory: Memory = Memory.for_program(program)
        self._initial_cells = dict(self.memory.cells)
        with span("sim.compile", functions=len(program.functions)) as sp:
            for fn in program:
                self.functions[fn.name] = self._compile_function(fn)
            sp.set(instructions=sum(
                len(blk.instrs)
                for cf in self.functions.values() for blk in cf.blocks
            ))
        self.entry = self.functions[program.entry]
        # Mutable run state, created by reset().
        self.regs: list[int] = []
        self.fregs: list[float] = []
        self.output: list = []
        self.icount = 0
        self.recoveries = 0
        self.first_recovery_icount: int | None = None
        self.exit_code = 0
        self.arg_stack: list[list] = []
        self.call_stack: list[tuple] = []
        self.pending_callee: CompiledFunction | None = None
        self.pending_dest: int = -1
        self.pending_dest_float = False
        self.ret_value: int | float | None = None
        self._position: tuple[CompiledFunction, int, int] | None = None
        self._finished: RunResult | None = None
        # Fault-provenance hook: a repro.sim.taint.TaintTracker, or None.
        # With None (the default) run() takes the original tight loop and
        # pays nothing; the injector attaches a tracker around the flip.
        self.taint = None
        # Hot-path profiler hook: a repro.obs.profile.SimProfiler, or
        # None.  Same gating contract as ``taint``: one attribute check
        # per run() call, never per instruction, and bit-identical
        # execution either way.
        self.profile = None
        # Block-JIT hook: a repro.sim.jit.JitProgram, or None.  Same
        # gating contract again -- one attribute check per run() call.
        # Attached, run() executes compiled basic-block segments and
        # side-exits into the interpreter for pauses, hangs, mid-block
        # resumes, and uncompiled positions (see repro.sim.jit).
        # Taint and profile take precedence: their mirror loops must
        # observe every instruction.
        self.jit = None
        # Per-position live-register bitmasks, built on demand by
        # state_matches (see repro.analysis.liveness.live_in_masks).
        self._live_masks = None
        self.reset()

    # ------------------------------------------------------------ register map
    def slot_of(self, reg: Register) -> int:
        """Flat slot index of a register within its class's file.

        Physical registers map to their architectural index; virtual
        registers get fresh slots above the architectural file, scoped
        to the function currently being compiled.
        """
        if not reg.is_virtual:
            return reg.index
        key = (self._current_function, reg)
        if reg.is_float:
            cached = self._fslot_cache.get(key)
            if cached is None:
                cached = self._fnext_virtual_slot
                self._fnext_virtual_slot += 1
                self._fslot_cache[key] = cached
            return cached
        cached = self._slot_cache.get(key)
        if cached is None:
            cached = self._next_virtual_slot
            self._next_virtual_slot += 1
            self._slot_cache[key] = cached
        return cached

    # ------------------------------------------------------------------- reset
    def reset(self) -> None:
        """Restore the machine to its pristine pre-run state."""
        self.regs = [0] * max(self._next_virtual_slot, NUM_GPRS)
        self.fregs = [0.0] * max(self._fnext_virtual_slot, NUM_GPRS)
        self.regs[1] = STACK_TOP  # stack pointer
        self.memory.cells = dict(self._initial_cells)
        self.output = []
        self.icount = 0
        self.recoveries = 0
        self.first_recovery_icount = None
        self.exit_code = 0
        self.arg_stack = []
        self.call_stack = []
        self.ret_value = None
        self._position = (self.entry, 0, 0)
        self._finished = None

    # ----------------------------------------------------------------- running
    def run(self, limit: int | None = None) -> RunResult:
        """Execute until termination or until ``icount`` reaches ``limit``.

        Returns a PAUSED result when the limit interrupts execution; call
        ``run`` again to continue.  A fault injector uses this to stop at
        a precise dynamic instruction, flip a bit, and resume.
        """
        if self._finished is not None:
            return self._finished
        if self._position is None:
            raise SimulationError("machine not reset")
        if self.taint is not None and not self.taint.exhausted:
            return self._run_traced(limit)
        if self.profile is not None:
            return self._run_profiled(limit)
        if self.jit is not None:
            return self._run_jit(limit)
        hard_limit = self.max_instructions
        stop_at = hard_limit if limit is None else min(limit, hard_limit)
        func, block_idx, i = self._position
        icount = self.icount
        try:
            while True:
                block = func.blocks[block_idx]
                steps = block.steps
                n = len(steps)
                advanced = False
                while i < n:
                    if icount >= stop_at:
                        self.icount = icount
                        self._position = (func, block_idx, i)
                        if icount >= hard_limit:
                            return self._finish(RunStatus.HANG)
                        return RunResult(RunStatus.PAUSED,
                                         instructions=icount)
                    icount += 1
                    act = steps[i](self)
                    if act is None:
                        i += 1
                        continue
                    if act >= 0:
                        block_idx = act
                        i = 0
                        advanced = True
                        break
                    if act == ACT_CALL:
                        self.call_stack.append(
                            (func, block_idx, i + 1,
                             self.pending_dest, self.pending_dest_float)
                        )
                        func = self.pending_callee
                        block_idx = 0
                        i = 0
                        advanced = True
                        break
                    if act == ACT_RET:
                        if not self.call_stack:
                            self.icount = icount
                            return self._finish(RunStatus.EXITED)
                        func, block_idx, i, dest, dest_float = (
                            self.call_stack.pop()
                        )
                        self.arg_stack.pop()
                        if dest >= 0:
                            value = self.ret_value
                            if dest_float:
                                self.fregs[dest] = (
                                    float(value) if value is not None else 0.0
                                )
                            else:
                                self.regs[dest] = (
                                    int(value) & MASK64
                                    if value is not None else 0
                                )
                        advanced = True
                        break
                    if act == ACT_EXIT:
                        self.icount = icount
                        return self._finish(RunStatus.EXITED)
                    if act == ACT_DETECT:
                        self.icount = icount
                        return self._finish(RunStatus.DETECTED)
                    if act == ACT_RECOVER:
                        # Repair-block entry: counted here, in the run
                        # loop, because only the loop knows the exact
                        # dynamic icount (detection-latency telemetry).
                        self.recoveries += 1
                        if self.first_recovery_icount is None:
                            self.first_recovery_icount = icount
                        i += 1
                        continue
                    raise SimulationError(f"bad step action {act}")
                if not advanced:
                    # Fell off the end of the block: fallthrough in layout.
                    block_idx += 1
                    i = 0
                    if block_idx >= len(func.blocks):
                        # Unreachable for verified code; reachable when an
                        # injected opcode fault destroys a terminator --
                        # that is a wild PC, i.e. a crash in the guest.
                        raise GuestTrap(
                            TrapKind.SEGFAULT,
                            f"control fell off the end of {func.name}",
                        )
        except GuestTrap as trap:
            self.icount = icount
            return self._finish(RunStatus.TRAPPED, trap)

    def _finish(self, status: RunStatus, trap: GuestTrap | None = None
                ) -> RunResult:
        result = RunResult(
            status,
            exit_code=self.exit_code,
            trap_kind=trap.kind if trap else None,
            trap_detail=trap.detail if trap else "",
            output=self.output,
            instructions=self.icount,
            recoveries=self.recoveries,
            first_recovery_icount=self.first_recovery_icount,
        )
        self._finished = result
        self._position = None
        return result

    def run_to_completion(self) -> RunResult:
        return self.run(None)

    def _run_traced(self, limit: int | None = None) -> RunResult:
        """The :meth:`run` loop with per-instruction taint hooks.

        Mirrors the fast loop action for action (pause/limit handling,
        call/return bookkeeping, trap conversion) but consults the block's
        ``instrs`` alongside its compiled ``steps`` so the attached
        :class:`~repro.sim.taint.TaintTracker` can observe every dynamic
        instruction before it executes.  When the tracker's step budget
        runs out mid-run, control transfers back to the fast loop at the
        exact same architectural state.
        """
        taint = self.taint
        hard_limit = self.max_instructions
        stop_at = hard_limit if limit is None else min(limit, hard_limit)
        func, block_idx, i = self._position
        self._current_function = func.name
        icount = self.icount
        try:
            while True:
                block = func.blocks[block_idx]
                steps = block.steps
                instrs = block.instrs
                name = block.name
                n = len(steps)
                advanced = False
                while i < n:
                    if icount >= stop_at:
                        self.icount = icount
                        self._position = (func, block_idx, i)
                        if icount >= hard_limit:
                            return self._finish(RunStatus.HANG)
                        return RunResult(RunStatus.PAUSED,
                                         instructions=icount)
                    if taint.exhausted:
                        # Step budget spent: hand the rest of the run to
                        # the fast loop (identical results, no tracing).
                        self.icount = icount
                        self._position = (func, block_idx, i)
                        return self.run(limit)
                    icount += 1
                    loc = (func.name, name, i)
                    taint.before_step(self, instrs[i], icount, loc)
                    act = steps[i](self)
                    if act is None:
                        i += 1
                        continue
                    if act >= 0:
                        block_idx = act
                        i = 0
                        advanced = True
                        break
                    if act == ACT_CALL:
                        self.call_stack.append(
                            (func, block_idx, i + 1,
                             self.pending_dest, self.pending_dest_float)
                        )
                        taint.on_call()
                        func = self.pending_callee
                        self._current_function = func.name
                        block_idx = 0
                        i = 0
                        advanced = True
                        break
                    if act == ACT_RET:
                        if not self.call_stack:
                            self.icount = icount
                            return self._finish(RunStatus.EXITED)
                        func, block_idx, i, dest, dest_float = (
                            self.call_stack.pop()
                        )
                        self.arg_stack.pop()
                        if dest >= 0:
                            value = self.ret_value
                            if dest_float:
                                self.fregs[dest] = (
                                    float(value) if value is not None else 0.0
                                )
                            else:
                                self.regs[dest] = (
                                    int(value) & MASK64
                                    if value is not None else 0
                                )
                        taint.on_ret(dest, dest_float)
                        self._current_function = func.name
                        advanced = True
                        break
                    if act == ACT_EXIT:
                        self.icount = icount
                        return self._finish(RunStatus.EXITED)
                    if act == ACT_DETECT:
                        taint.on_detect(icount, loc)
                        self.icount = icount
                        return self._finish(RunStatus.DETECTED)
                    if act == ACT_RECOVER:
                        taint.on_recovery(icount, loc)
                        self.recoveries += 1
                        if self.first_recovery_icount is None:
                            self.first_recovery_icount = icount
                        i += 1
                        continue
                    raise SimulationError(f"bad step action {act}")
                if not advanced:
                    block_idx += 1
                    i = 0
                    if block_idx >= len(func.blocks):
                        raise GuestTrap(
                            TrapKind.SEGFAULT,
                            f"control fell off the end of {func.name}",
                        )
        except GuestTrap as trap:
            self.icount = icount
            return self._finish(RunStatus.TRAPPED, trap)

    def _run_profiled(self, limit: int | None = None) -> RunResult:
        """The :meth:`run` loop with per-block profiling hooks.

        Mirrors the fast loop action for action (pause/limit handling,
        call/return bookkeeping, trap conversion), so execution is
        bit-identical with or without an attached
        :class:`~repro.obs.profile.SimProfiler`.  Per instruction the
        only extra work is one list-element increment into the current
        block's count vector; block lookup, side-exit recording, and
        the wall-clock sampler run once per block activation.
        """
        prof = self.profile
        index_counts = prof.index_counts
        hard_limit = self.max_instructions
        stop_at = hard_limit if limit is None else min(limit, hard_limit)
        func, block_idx, i = self._position
        icount = self.icount
        key = None
        try:
            while True:
                block = func.blocks[block_idx]
                steps = block.steps
                n = len(steps)
                key = (func.name, block.name)
                counts = index_counts.get(key)
                if counts is None:
                    counts = prof.register_block(key, block)
                prof.block_tick(key, n)
                advanced = False
                while i < n:
                    if icount >= stop_at:
                        self.icount = icount
                        self._position = (func, block_idx, i)
                        if icount >= hard_limit:
                            prof.record_exit(key, "hang")
                            return self._finish(RunStatus.HANG)
                        return RunResult(RunStatus.PAUSED,
                                         instructions=icount)
                    icount += 1
                    counts[i] += 1
                    act = steps[i](self)
                    if act is None:
                        i += 1
                        continue
                    if act >= 0:
                        prof.record_exit(key, "branch")
                        block_idx = act
                        i = 0
                        advanced = True
                        break
                    if act == ACT_CALL:
                        prof.record_exit(key, "call")
                        self.call_stack.append(
                            (func, block_idx, i + 1,
                             self.pending_dest, self.pending_dest_float)
                        )
                        func = self.pending_callee
                        block_idx = 0
                        i = 0
                        advanced = True
                        break
                    if act == ACT_RET:
                        prof.record_exit(key, "ret")
                        if not self.call_stack:
                            self.icount = icount
                            return self._finish(RunStatus.EXITED)
                        func, block_idx, i, dest, dest_float = (
                            self.call_stack.pop()
                        )
                        self.arg_stack.pop()
                        if dest >= 0:
                            value = self.ret_value
                            if dest_float:
                                self.fregs[dest] = (
                                    float(value) if value is not None else 0.0
                                )
                            else:
                                self.regs[dest] = (
                                    int(value) & MASK64
                                    if value is not None else 0
                                )
                        advanced = True
                        break
                    if act == ACT_EXIT:
                        prof.record_exit(key, "exit")
                        self.icount = icount
                        return self._finish(RunStatus.EXITED)
                    if act == ACT_DETECT:
                        prof.record_exit(key, "detect")
                        self.icount = icount
                        return self._finish(RunStatus.DETECTED)
                    if act == ACT_RECOVER:
                        prof.record_recovery(key)
                        self.recoveries += 1
                        if self.first_recovery_icount is None:
                            self.first_recovery_icount = icount
                        i += 1
                        continue
                    raise SimulationError(f"bad step action {act}")
                if not advanced:
                    block_idx += 1
                    i = 0
                    if block_idx >= len(func.blocks):
                        raise GuestTrap(
                            TrapKind.SEGFAULT,
                            f"control fell off the end of {func.name}",
                        )
                    prof.record_exit(key, "fall")
        except GuestTrap as trap:
            if key is not None:
                prof.record_exit(key, "trap")
            self.icount = icount
            return self._finish(RunStatus.TRAPPED, trap)

    def _run_jit(self, limit: int | None = None) -> RunResult:
        """The :meth:`run` loop at compiled-function granularity.

        At every block boundary (``i == 0``) the dispatcher enters the
        current function's compiled driver, which executes whole blocks
        with registers in Python locals and only returns at true side
        exits (call/ret/exit/detect) or when the next block could cross
        ``stop_at`` -- in which case it returns that block's index and
        the interpreter fallback below runs it instruction by
        instruction, taking the pause/hang at the exact icount.
        Mid-block positions use the per-resume-point segment table
        (post-``CALL`` suffixes) or the interpreter.  Compiled ``CALL``
        code pushes its return frame itself, so the dispatcher only
        swaps in the callee.  Bit-identical to the fast loop by
        construction; ``tests/test_jit.py`` fuzzes the claim.
        """
        jit = self.jit
        hard_limit = self.max_instructions
        stop_at = hard_limit if limit is None else min(limit, hard_limit)
        func, block_idx, i = self._position
        driver, resumes = jit.tables(func.name)
        icount = self.icount
        try:
            while True:
                # ------------------------------ compiled dispatch
                ran = False
                if i == 0:
                    if driver is not None:
                        act = driver(self, icount, stop_at, block_idx)
                        icount = self.icount
                        if act >= 0:
                            # Fuel stop: block ``act`` cannot complete
                            # before stop_at; the interpreter owns the
                            # pause (and any early branch out).
                            block_idx = act
                        else:
                            ran = True
                else:
                    entry = resumes.get((block_idx, i))
                    if entry is not None and icount + entry[1] <= stop_at:
                        act = entry[0](self, icount)
                        icount = self.icount
                        ran = True
                if ran:
                    if act >= 0:
                        block_idx = act
                        i = 0
                        continue
                    if act == ACT_CALL:
                        # The compiled CALL already pushed its frame.
                        func = self.pending_callee
                        driver, resumes = jit.tables(func.name)
                        block_idx = 0
                        i = 0
                        continue
                    if act == ACT_RET:
                        if not self.call_stack:
                            return self._finish(RunStatus.EXITED)
                        func, block_idx, i, dest, dest_float = (
                            self.call_stack.pop()
                        )
                        self.arg_stack.pop()
                        if dest >= 0:
                            value = self.ret_value
                            if dest_float:
                                self.fregs[dest] = (
                                    float(value) if value is not None
                                    else 0.0
                                )
                            else:
                                self.regs[dest] = (
                                    int(value) & MASK64
                                    if value is not None else 0
                                )
                        driver, resumes = jit.tables(func.name)
                        continue
                    if act == ACT_EXIT:
                        return self._finish(RunStatus.EXITED)
                    if act == ACT_DETECT:
                        return self._finish(RunStatus.DETECTED)
                    if act <= -7:
                        # Fuel stop inside an inline-called leaf: the
                        # caller already pushed its frame and wrote its
                        # state back; resume the callee (pending) at
                        # block ``-7 - act``, where the fuel check
                        # will hand the pause to the interpreter.
                        func = self.pending_callee
                        driver, resumes = jit.tables(func.name)
                        block_idx = -7 - act
                        i = 0
                        continue
                    raise SimulationError(f"bad jit action {act}")
                # ------------------------------ interpreter side exit
                block = func.blocks[block_idx]
                steps = block.steps
                n = len(steps)
                advanced = False
                while i < n:
                    if icount >= stop_at:
                        self.icount = icount
                        self._position = (func, block_idx, i)
                        if icount >= hard_limit:
                            return self._finish(RunStatus.HANG)
                        return RunResult(RunStatus.PAUSED,
                                         instructions=icount)
                    icount += 1
                    act = steps[i](self)
                    if act is None:
                        i += 1
                        continue
                    if act >= 0:
                        block_idx = act
                        i = 0
                        advanced = True
                        break
                    if act == ACT_CALL:
                        self.call_stack.append(
                            (func, block_idx, i + 1,
                             self.pending_dest, self.pending_dest_float)
                        )
                        func = self.pending_callee
                        driver, resumes = jit.tables(func.name)
                        block_idx = 0
                        i = 0
                        advanced = True
                        break
                    if act == ACT_RET:
                        if not self.call_stack:
                            self.icount = icount
                            return self._finish(RunStatus.EXITED)
                        func, block_idx, i, dest, dest_float = (
                            self.call_stack.pop()
                        )
                        self.arg_stack.pop()
                        if dest >= 0:
                            value = self.ret_value
                            if dest_float:
                                self.fregs[dest] = (
                                    float(value) if value is not None
                                    else 0.0
                                )
                            else:
                                self.regs[dest] = (
                                    int(value) & MASK64
                                    if value is not None else 0
                                )
                        driver, resumes = jit.tables(func.name)
                        advanced = True
                        break
                    if act == ACT_EXIT:
                        self.icount = icount
                        return self._finish(RunStatus.EXITED)
                    if act == ACT_DETECT:
                        self.icount = icount
                        return self._finish(RunStatus.DETECTED)
                    if act == ACT_RECOVER:
                        self.recoveries += 1
                        if self.first_recovery_icount is None:
                            self.first_recovery_icount = icount
                        i += 1
                        continue
                    raise SimulationError(f"bad step action {act}")
                if not advanced:
                    block_idx += 1
                    i = 0
                    if block_idx >= len(func.blocks):
                        raise GuestTrap(
                            TrapKind.SEGFAULT,
                            f"control fell off the end of {func.name}",
                        )
        except GuestTrap as trap:
            # Compiled segments report their exact retired count into
            # self.icount before re-raising; the interpreter path's
            # count lives in the local.  Whichever ran last is larger.
            if icount > self.icount:
                self.icount = icount
            return self._finish(RunStatus.TRAPPED, trap)

    # ----------------------------------------------------- checkpoint/restore
    def snapshot(self) -> MachineSnapshot:
        """Capture the complete architectural state at a pause boundary.

        Restoring the snapshot later (:meth:`restore`) and running
        forward is bit-identical to having replayed from instruction 0,
        which is what lets fault-injection campaigns replay from the
        nearest checkpoint instead of from the start.  ``ret_value``
        and the ``pending_*`` call-transfer fields are deliberately not
        captured: both are produced and consumed within a single run-loop
        iteration, so they are always dead at a pause boundary.
        """
        if self._finished is not None:
            raise SimulationError("cannot snapshot a finished run")
        return MachineSnapshot(
            icount=self.icount,
            regs=list(self.regs),
            fregs=list(self.fregs),
            cells=dict(self.memory.cells),
            output=list(self.output),
            recoveries=self.recoveries,
            first_recovery_icount=self.first_recovery_icount,
            exit_code=self.exit_code,
            # Inner argument lists are immutable once pushed (PARAM only
            # reads them), so a shallow copy of the stack suffices.
            arg_stack=list(self.arg_stack),
            call_stack=list(self.call_stack),
            position=self._position,
        )

    def restore(self, snap: MachineSnapshot) -> None:
        """Rewind the machine to a snapshot (the snapshot stays reusable)."""
        self.regs = list(snap.regs)
        self.fregs = list(snap.fregs)
        self.memory.cells = dict(snap.cells)
        self.output = list(snap.output)
        self.icount = snap.icount
        self.recoveries = snap.recoveries
        self.first_recovery_icount = snap.first_recovery_icount
        self.exit_code = snap.exit_code
        self.arg_stack = list(snap.arg_stack)
        self.call_stack = list(snap.call_stack)
        self.ret_value = None
        # Rebind transient call-transfer state: a restore may land in
        # the middle of a compiled block (the JIT dispatch loop then
        # re-enters through the interpreter fallback), and no stale
        # pending-call residue from the abandoned run may leak in.
        self.pending_callee = None
        self.pending_dest = -1
        self.pending_dest_float = False
        self._position = snap.position
        self._finished = None

    def state_matches(self, snap: MachineSnapshot) -> bool:
        """Does future execution from here equal execution from ``snap``?

        Compares exactly the state that determines the remainder of the
        run: resume position, call/argument stacks and memory exactly,
        and the register files on their *live* slots -- a register the
        rest of the run overwrites before reading cannot change it.  The
        live set is the current position's live-in plus, for every
        call-stack frame, the live-in at its return point minus the
        frame's ``dest`` (see :func:`repro.analysis.liveness.live_in_masks`;
        the table is built on the first register-only mismatch and kept
        for the machine's lifetime).  Registers are compared exactly
        while a taint tracker is attached (forensics tells dead values
        apart by running them out) and for code that still holds
        virtual registers.  Counters (icount, recoveries) and
        already-produced output are excluded -- they record the past,
        not the future.  The caller decides which icount offset the
        match implies.  Cheap fields are compared first so diverged
        states bail early.
        """
        if (self._position != snap.position
                or self.call_stack != snap.call_stack
                or self.arg_stack != snap.arg_stack):
            return False
        if ((self.regs != snap.regs or self.fregs != snap.fregs)
                and not self._live_registers_match(snap)):
            return False
        return self.memory.cells == snap.cells

    def _live_registers_match(self, snap: MachineSnapshot) -> bool:
        """Do the register files agree on every live slot?"""
        if (self.taint is not None or self._next_virtual_slot > NUM_GPRS
                or self._fnext_virtual_slot > NUM_GPRS):
            return False
        if self._live_masks is None:
            self._live_masks = live_in_masks(self.program)
        masks = self._live_masks
        func, block_idx, i = self._position
        ints, floats = masks[func.name][block_idx]
        live, flive = ints[i], floats[i]
        for frame_func, frame_block, resume, dest, dest_float \
                in self.call_stack:
            ints, floats = masks[frame_func.name][frame_block]
            frame_live, frame_flive = ints[resume], floats[resume]
            if dest >= 0:
                # The return overwrites ``dest`` before the frame reads it.
                if dest_float:
                    frame_flive &= ~(1 << dest)
                else:
                    frame_live &= ~(1 << dest)
            live |= frame_live
            flive |= frame_flive
        return (_agree(self.regs, snap.regs, live)
                and _agree(self.fregs, snap.fregs, flive))

    # ----------------------------------------------------------- fault support
    def flip_register_bit(self, reg_index: int, bit: int) -> None:
        """Flip one bit of a physical integer register (the SEU)."""
        self.regs[reg_index] ^= 1 << bit
        if self.taint is not None:
            self.taint.on_flip(self, reg_index, bit)

    def next_instruction(self) -> Instruction | None:
        """The instruction the paused machine would execute next."""
        if self._position is None:
            return None
        func, block_idx, i = self._position
        block = func.blocks[block_idx]
        if i >= len(block.instrs):
            return None
        return block.instrs[i]

    def current_location(self) -> tuple[str, str, int] | None:
        """``(function, block, instruction index)`` of a paused machine.

        ``None`` once the run has finished.  This is the public face of
        the internal resume position, for tracers and telemetry.
        """
        if self._position is None:
            return None
        func, block_idx, i = self._position
        return (func.name, func.blocks[block_idx].name, i)

    def read_dest(self, instr: Instruction,
                  function: str = "") -> int | float | None:
        """Value currently held by ``instr``'s destination register.

        Integer registers are returned signed (two's-complement view),
        matching what the guest's own comparisons see.  ``function``
        scopes virtual-register lookups (virtual slots are per-function)
        and may be omitted for physical-register code.  Returns ``None``
        when the instruction has no destination.
        """
        if instr.dest is None:
            return None
        if function:
            self._current_function = function
        slot = self.slot_of(instr.dest)
        if instr.dest.is_float:
            return self.fregs[slot]
        raw = self.regs[slot]
        return _signed(raw)

    def step_injected(self, instr: Instruction) -> RunResult | None:
        """Execute ``instr`` *in place of* the next pending instruction.

        Models an opcode-bit fault: the corrupted instruction executes
        for exactly one dynamic instance, then the original code
        resumes.  Returns a final :class:`RunResult` when the injected
        instruction terminates the run, else ``None`` (call ``run`` to
        continue).
        """
        if self._finished is not None:
            return self._finished
        if self._position is None:
            raise SimulationError("machine not paused")
        func, block_idx, i = self._position
        self._current_function = func.name
        self.icount += 1
        try:
            step = self._compile_instruction(instr, func.block_index)
            act = step(self)
        except GuestTrap as trap:
            return self._finish(RunStatus.TRAPPED, trap)
        except (AttributeError, TypeError, KeyError, IndexError) as exc:
            # A mutated encoding slipped past decode validation into an
            # operand combination the pipeline cannot execute: on real
            # hardware this is undefined behaviour; model it as a trap.
            return self._finish(
                RunStatus.TRAPPED,
                GuestTrap(TrapKind.ILLEGAL, f"unexecutable mutation: {exc}"),
            )
        if act is None:
            self._position = (func, block_idx, i + 1)
        elif act >= 0:
            self._position = (func, act, 0)
        elif act == ACT_CALL:
            self.call_stack.append(
                (func, block_idx, i + 1,
                 self.pending_dest, self.pending_dest_float)
            )
            self._position = (self.pending_callee, 0, 0)
        elif act == ACT_RET:
            if not self.call_stack:
                return self._finish(RunStatus.EXITED)
            func, block_idx, i, dest, dest_float = self.call_stack.pop()
            self.arg_stack.pop()
            if dest >= 0:
                value = self.ret_value
                if dest_float:
                    self.fregs[dest] = (float(value) if value is not None
                                        else 0.0)
                else:
                    self.regs[dest] = (int(value) & MASK64
                                       if value is not None else 0)
            self._position = (func, block_idx, i)
        elif act == ACT_EXIT:
            return self._finish(RunStatus.EXITED)
        elif act == ACT_DETECT:
            return self._finish(RunStatus.DETECTED)
        elif act == ACT_RECOVER:
            self.recoveries += 1
            if self.first_recovery_icount is None:
                self.first_recovery_icount = self.icount
            self._position = (func, block_idx, i + 1)
        else:
            raise SimulationError(f"bad step action {act}")
        return None

    def skip_next_instruction(self) -> None:
        """Advance past the pending instruction without executing it
        (models a fetch dropped by a corrupted-to-NOP encoding)."""
        if self._position is None:
            raise SimulationError("machine not paused")
        func, block_idx, i = self._position
        self.icount += 1
        self._position = (func, block_idx, i + 1)

    # -------------------------------------------------------------- compilation
    def _compile_function(self, fn) -> CompiledFunction:
        index = fn.block_index()
        self._current_function = fn.name
        blocks = []
        for blk in fn.blocks:
            steps = [self._compile_instruction(instr, index)
                     for instr in blk.instructions]
            meta = [self._instruction_meta(instr) for instr in blk.instructions]
            blocks.append(
                CompiledBlock(blk.name, steps, list(blk.instructions), meta)
            )
        return CompiledFunction(fn.name, blocks, fn.num_params)

    # Timing-model metadata kinds (see repro.sim.timing).
    _PLAIN, _LOAD, _STORE, _BRANCH, _JUMP, _CALL, _RET = range(7)
    _FLOAT_SLOT_BASE = 1 << 20

    def _instruction_meta(self, instr: Instruction) -> tuple:
        """(kind, dest_slot|-1, src_slots, latency, mem|None, role)."""
        op = instr.op
        info = op.info
        srcs = []
        for operand in instr.srcs:
            if isinstance(operand, Register):
                slot = self.slot_of(operand)
                if operand.is_float:
                    slot += self._FLOAT_SLOT_BASE
                srcs.append(slot)
        dest = -1
        if instr.dest is not None:
            dest = self.slot_of(instr.dest)
            if instr.dest.is_float:
                dest += self._FLOAT_SLOT_BASE
        kind = self._PLAIN
        mem = None
        if op in (Opcode.LOAD, Opcode.FLOAD):
            kind = self._LOAD
            mem = (self.slot_of(instr.srcs[0]), instr.srcs[1].signed)
        elif op in (Opcode.STORE, Opcode.FSTORE):
            kind = self._STORE
            mem = (self.slot_of(instr.srcs[0]), instr.srcs[1].signed)
        elif op.kind == OpKind.BRANCH:
            kind = self._BRANCH
        elif op.kind == OpKind.JUMP:
            kind = self._JUMP
        elif op.kind == OpKind.CALL:
            kind = self._CALL
        elif op.kind == OpKind.RET:
            kind = self._RET
        return (kind, dest, tuple(srcs), info.latency, mem, instr.role.value)

    def _int_operand(self, operand):
        """(is_reg, slot_or_value) for an integer-file operand."""
        if isinstance(operand, Imm):
            return False, operand.value
        if isinstance(operand, Register):
            return True, self.slot_of(operand)
        raise SimulationError(f"bad integer operand {operand!r}")

    def _compile_instruction(self, instr: Instruction, block_index):
        op = instr.op
        handler = _COMPILERS.get(op)
        if handler is None:
            raise SimulationError(f"no compiler for opcode {op.name}")
        step = handler(self, instr, block_index)
        if instr.role in (Role.RECOVERY, Role.VOTE):
            return _count_recovery(step, instr)
        return step


def _agree(mine: list, theirs: list, live: int) -> bool:
    """Are two register files equal on every slot set in ``live``?"""
    for slot, (a, b) in enumerate(zip(mine, theirs)):
        if a is not b and a != b and live >> slot & 1:
            return False
    return True


def _count_recovery(step, instr: Instruction):
    """Mark TRUMP/SWIFT-R recovery-entry steps so repairs are counted.

    Only the *first* instruction of a recovery block is marked (the
    pass tags it, and it is always a NOP); votes are not counted here
    because the branch-free voting style executes unconditionally.  The
    step returns ``ACT_RECOVER`` so the run loop -- the only place the
    exact dynamic icount is known -- does the counting.
    """
    if instr.op is not Opcode.NOP:
        return step
    return _recovery_entry_step


def _recovery_entry_step(m):
    return ACT_RECOVER


# --------------------------------------------------------------------------
# Per-opcode closure factories.  Each returns step(machine) -> action.
# --------------------------------------------------------------------------

def _binop_factory(pyfunc):
    def compile_(machine: Machine, instr: Instruction, _index):
        dest = machine.slot_of(instr.dest)
        a_is_reg, a = machine._int_operand(instr.srcs[0])
        b_is_reg, b = machine._int_operand(instr.srcs[1])
        if a_is_reg and b_is_reg:
            def step(m, d=dest, ai=a, bi=b, f=pyfunc):
                r = m.regs
                r[d] = f(r[ai], r[bi])
                return None
        elif a_is_reg:
            def step(m, d=dest, ai=a, bv=b, f=pyfunc):
                r = m.regs
                r[d] = f(r[ai], bv)
                return None
        elif b_is_reg:
            def step(m, d=dest, av=a, bi=b, f=pyfunc):
                r = m.regs
                r[d] = f(av, r[bi])
                return None
        else:
            value = pyfunc(a, b)

            def step(m, d=dest, v=value):
                m.regs[d] = v
                return None
        return step
    return compile_


def _op_add(a, b):
    return (a + b) & MASK64


def _op_sub(a, b):
    return (a - b) & MASK64


def _op_mul(a, b):
    return (a * b) & MASK64


def _op_div(a, b):
    if b == 0:
        raise GuestTrap(TrapKind.DIV_BY_ZERO, "integer division by zero")
    sa, sb = _signed(a), _signed(b)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & MASK64


def _op_rem(a, b):
    if b == 0:
        raise GuestTrap(TrapKind.DIV_BY_ZERO, "integer remainder by zero")
    sa, sb = _signed(a), _signed(b)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return (sa - q * sb) & MASK64


def _op_and(a, b):
    return a & b


def _op_or(a, b):
    return a | b


def _op_xor(a, b):
    return a ^ b


def _op_shl(a, b):
    return (a << (b & 63)) & MASK64


def _op_shr(a, b):
    return a >> (b & 63)


def _op_sra(a, b):
    return (_signed(a) >> (b & 63)) & MASK64


def _op_cmpeq(a, b):
    return 1 if a == b else 0


def _op_cmpne(a, b):
    return 1 if a != b else 0


def _op_cmplt(a, b):
    return 1 if _signed(a) < _signed(b) else 0


def _op_cmple(a, b):
    return 1 if _signed(a) <= _signed(b) else 0


def _op_cmpgt(a, b):
    return 1 if _signed(a) > _signed(b) else 0


def _op_cmpge(a, b):
    return 1 if _signed(a) >= _signed(b) else 0


def _op_cmpltu(a, b):
    return 1 if a < b else 0


def _op_cmpgeu(a, b):
    return 1 if a >= b else 0


def _compile_unop(pyfunc):
    def compile_(machine: Machine, instr: Instruction, _index):
        dest = machine.slot_of(instr.dest)
        is_reg, a = machine._int_operand(instr.srcs[0])
        if is_reg:
            def step(m, d=dest, ai=a, f=pyfunc):
                r = m.regs
                r[d] = f(r[ai])
                return None
        else:
            value = pyfunc(a)

            def step(m, d=dest, v=value):
                m.regs[d] = v
                return None
        return step
    return compile_


def _compile_li(machine: Machine, instr: Instruction, _index):
    dest = machine.slot_of(instr.dest)
    value = instr.srcs[0].value

    def step(m, d=dest, v=value):
        m.regs[d] = v
        return None
    return step


def _compile_mov(machine: Machine, instr: Instruction, _index):
    dest = machine.slot_of(instr.dest)
    src = instr.srcs[0]
    if isinstance(src, Imm):
        return _compile_li(machine, instr, _index)
    slot = machine.slot_of(src)

    def step(m, d=dest, s=slot):
        r = m.regs
        r[d] = r[s]
        return None
    return step


def _compile_load(machine: Machine, instr: Instruction, _index):
    dest = machine.slot_of(instr.dest)
    base = machine.slot_of(instr.srcs[0])
    offset = instr.srcs[1].signed

    def step(m, d=dest, b=base, off=offset):
        addr = (m.regs[b] + off) & MASK64
        mem = m.memory
        mem.check(addr)
        value = mem.cells.get(addr, 0)
        if type(value) is float:
            value = float_to_bits(value)
        m.regs[d] = value
        return None
    return step


def _compile_store(machine: Machine, instr: Instruction, _index):
    base = machine.slot_of(instr.srcs[0])
    offset = instr.srcs[1].signed
    value_operand = instr.srcs[2]
    if isinstance(value_operand, Imm):
        imm = value_operand.value

        def step(m, b=base, off=offset, v=imm):
            addr = (m.regs[b] + off) & MASK64
            mem = m.memory
            mem.check(addr)
            mem.cells[addr] = v
            return None
        return step
    src = machine.slot_of(value_operand)

    def step(m, b=base, off=offset, s=src):
        addr = (m.regs[b] + off) & MASK64
        mem = m.memory
        mem.check(addr)
        mem.cells[addr] = m.regs[s]
        return None
    return step


def _branch_factory(test):
    def compile_(machine: Machine, instr: Instruction, block_index):
        target = block_index[instr.label]
        a_is_reg, a = machine._int_operand(instr.srcs[0])
        b_is_reg, b = machine._int_operand(instr.srcs[1])
        if a_is_reg and b_is_reg:
            def step(m, ai=a, bi=b, t=target, f=test):
                r = m.regs
                return t if f(r[ai], r[bi]) else None
        elif a_is_reg:
            def step(m, ai=a, bv=b, t=target, f=test):
                return t if f(m.regs[ai], bv) else None
        elif b_is_reg:
            def step(m, av=a, bi=b, t=target, f=test):
                return t if f(av, m.regs[bi]) else None
        else:
            taken = test(a, b)

            def step(m, t=target if taken else None):
                return t
        return step
    return compile_


def _test_eq(a, b):
    return a == b


def _test_ne(a, b):
    return a != b


def _test_lt(a, b):
    return _signed(a) < _signed(b)


def _test_ge(a, b):
    return _signed(a) >= _signed(b)


def _compile_jmp(machine: Machine, instr: Instruction, block_index):
    target = block_index[instr.label]

    def step(m, t=target):
        return t
    return step


def _compile_call(machine: Machine, instr: Instruction, _index):
    callee_name = instr.callee
    dest = machine.slot_of(instr.dest) if instr.dest is not None else -1
    dest_float = instr.dest.is_float if instr.dest is not None else False
    arg_specs = []
    for src in instr.srcs:
        if isinstance(src, Imm):
            arg_specs.append((False, src.value))
        elif isinstance(src, FImm):
            arg_specs.append((False, src.value))
        elif src.is_float:
            arg_specs.append((2, machine.slot_of(src)))
        else:
            arg_specs.append((1, machine.slot_of(src)))
    arg_specs = tuple(arg_specs)

    def step(m, name=callee_name, specs=arg_specs, d=dest, df=dest_float):
        regs = m.regs
        fregs = m.fregs
        args = [
            regs[v] if kind == 1 else (fregs[v] if kind == 2 else v)
            for kind, v in specs
        ]
        m.arg_stack.append(args)
        m.pending_callee = m.functions[name]
        m.pending_dest = d
        m.pending_dest_float = df
        return ACT_CALL
    return step


def _compile_ret(machine: Machine, instr: Instruction, _index):
    if instr.srcs:
        src = instr.srcs[0]
        if isinstance(src, Imm) or isinstance(src, FImm):
            value = src.value

            def step(m, v=value):
                m.ret_value = v
                return ACT_RET
            return step
        slot = machine.slot_of(src)
        if src.is_float:
            def step(m, s=slot):
                m.ret_value = m.fregs[s]
                return ACT_RET
        else:
            def step(m, s=slot):
                m.ret_value = m.regs[s]
                return ACT_RET
        return step

    def step(m):
        m.ret_value = None
        return ACT_RET
    return step


def _compile_param(machine: Machine, instr: Instruction, _index):
    dest = machine.slot_of(instr.dest)
    idx = instr.srcs[0].value

    def fetch(m, i):
        # Out-of-range parameter reads only happen under injected
        # opcode faults; treat them like the hardware would (a trap).
        if not m.arg_stack or i >= len(m.arg_stack[-1]):
            raise GuestTrap(TrapKind.ILLEGAL, f"param {i} out of range")
        return m.arg_stack[-1][i]

    if instr.dest.is_float:
        def step(m, d=dest, i=idx):
            m.fregs[d] = float(fetch(m, i))
            return None
    else:
        def step(m, d=dest, i=idx):
            m.regs[d] = int(fetch(m, i)) & MASK64
            return None
    return step


def _compile_print(machine: Machine, instr: Instruction, _index):
    src = instr.srcs[0]
    if isinstance(src, Imm):
        value = src.signed

        def step(m, v=value):
            m.output.append(v)
            return None
        return step
    slot = machine.slot_of(src)

    def step(m, s=slot):
        m.output.append(_signed(m.regs[s]))
        return None
    return step


def _compile_fprint(machine: Machine, instr: Instruction, _index):
    src = instr.srcs[0]
    if isinstance(src, FImm):
        value = float(src.value)

        def step(m, v=value):
            m.output.append(v)
            return None
        return step
    slot = machine.slot_of(src)

    def step(m, s=slot):
        m.output.append(m.fregs[s])
        return None
    return step


def _compile_exit(machine: Machine, instr: Instruction, _index):
    src = instr.srcs[0]
    if isinstance(src, Imm):
        code = src.signed

        def step(m, c=code):
            m.exit_code = c
            return ACT_EXIT
        return step
    slot = machine.slot_of(src)

    def step(m, s=slot):
        m.exit_code = _signed(m.regs[s])
        return ACT_EXIT
    return step


def _compile_detect(machine: Machine, instr: Instruction, _index):
    def step(m):
        return ACT_DETECT
    return step


def _compile_nop(machine: Machine, instr: Instruction, _index):
    def step(m):
        return None
    return step


# ----------------------------------------------------------------- FP ops
def _fbinop_factory(pyfunc):
    def compile_(machine: Machine, instr: Instruction, _index):
        dest = machine.slot_of(instr.dest)
        slots = []
        for src in instr.srcs:
            if isinstance(src, FImm):
                slots.append((False, src.value))
            else:
                slots.append((True, machine.slot_of(src)))
        (a_reg, a), (b_reg, b) = slots

        def step(m, d=dest, ar=a_reg, av=a, br=b_reg, bv=b, f=pyfunc):
            fr = m.fregs
            x = fr[av] if ar else av
            y = fr[bv] if br else bv
            fr[d] = f(x, y)
            return None
        return step
    return compile_


def _fop_add(a, b):
    return a + b


def _fop_sub(a, b):
    return a - b


def _fop_mul(a, b):
    return a * b


def _fop_div(a, b):
    # Emulate IEEE-754 semantics, which Python's ``/`` turns into
    # ``ZeroDivisionError``: x/0 is +/-inf, 0/0 and nan/0 are nan.
    if b == 0.0:
        if a == 0.0 or a != a:
            return float("nan")
        return float("inf") if a > 0 else float("-inf")
    return a / b


def _fcmp_factory(pyfunc):
    def compile_(machine: Machine, instr: Instruction, _index):
        dest = machine.slot_of(instr.dest)
        a = machine.slot_of(instr.srcs[0])
        b = machine.slot_of(instr.srcs[1])

        def step(m, d=dest, ai=a, bi=b, f=pyfunc):
            fr = m.fregs
            m.regs[d] = 1 if f(fr[ai], fr[bi]) else 0
            return None
        return step
    return compile_


def _compile_fli(machine: Machine, instr: Instruction, _index):
    dest = machine.slot_of(instr.dest)
    value = float(instr.srcs[0].value)

    def step(m, d=dest, v=value):
        m.fregs[d] = v
        return None
    return step


def _compile_fmov(machine: Machine, instr: Instruction, _index):
    src = instr.srcs[0]
    if isinstance(src, FImm):
        return _compile_fli(machine, instr, _index)
    dest = machine.slot_of(instr.dest)
    slot = machine.slot_of(src)

    def step(m, d=dest, s=slot):
        fr = m.fregs
        fr[d] = fr[s]
        return None
    return step


def _compile_fneg(machine: Machine, instr: Instruction, _index):
    dest = machine.slot_of(instr.dest)
    slot = machine.slot_of(instr.srcs[0])

    def step(m, d=dest, s=slot):
        fr = m.fregs
        fr[d] = -fr[s]
        return None
    return step


def _compile_fload(machine: Machine, instr: Instruction, _index):
    dest = machine.slot_of(instr.dest)
    base = machine.slot_of(instr.srcs[0])
    offset = instr.srcs[1].signed

    def step(m, d=dest, b=base, off=offset):
        addr = (m.regs[b] + off) & MASK64
        mem = m.memory
        mem.check(addr)
        value = mem.cells.get(addr, 0)
        if type(value) is not float:
            value = bits_to_float(value)
        m.fregs[d] = value
        return None
    return step


def _compile_fstore(machine: Machine, instr: Instruction, _index):
    base = machine.slot_of(instr.srcs[0])
    offset = instr.srcs[1].signed
    value_operand = instr.srcs[2]
    if isinstance(value_operand, FImm):
        imm = float(value_operand.value)

        def step(m, b=base, off=offset, v=imm):
            addr = (m.regs[b] + off) & MASK64
            mem = m.memory
            mem.check(addr)
            mem.cells[addr] = v
            return None
        return step
    src = machine.slot_of(value_operand)

    def step(m, b=base, off=offset, s=src):
        addr = (m.regs[b] + off) & MASK64
        mem = m.memory
        mem.check(addr)
        mem.cells[addr] = m.fregs[s]
        return None
    return step


def _compile_cvtif(machine: Machine, instr: Instruction, _index):
    dest = machine.slot_of(instr.dest)
    src = instr.srcs[0]
    if isinstance(src, Imm):
        value = float(src.signed)

        def step(m, d=dest, v=value):
            m.fregs[d] = v
            return None
        return step
    slot = machine.slot_of(src)

    def step(m, d=dest, s=slot):
        m.fregs[d] = float(_signed(m.regs[s]))
        return None
    return step


def _compile_cvtfi(machine: Machine, instr: Instruction, _index):
    dest = machine.slot_of(instr.dest)
    slot = machine.slot_of(instr.srcs[0])

    def step(m, d=dest, s=slot):
        value = m.fregs[s]
        if value != value or value in (float("inf"), float("-inf")):
            raise GuestTrap(TrapKind.BAD_CONVERT, f"cvtfi of {value}")
        return_value = int(value)
        m.regs[d] = return_value & MASK64
        return None
    return step


_COMPILERS = {
    Opcode.ADD: _binop_factory(_op_add),
    Opcode.SUB: _binop_factory(_op_sub),
    Opcode.MUL: _binop_factory(_op_mul),
    Opcode.DIV: _binop_factory(_op_div),
    Opcode.REM: _binop_factory(_op_rem),
    Opcode.AND: _binop_factory(_op_and),
    Opcode.OR: _binop_factory(_op_or),
    Opcode.XOR: _binop_factory(_op_xor),
    Opcode.SHL: _binop_factory(_op_shl),
    Opcode.SHR: _binop_factory(_op_shr),
    Opcode.SRA: _binop_factory(_op_sra),
    Opcode.CMPEQ: _binop_factory(_op_cmpeq),
    Opcode.CMPNE: _binop_factory(_op_cmpne),
    Opcode.CMPLT: _binop_factory(_op_cmplt),
    Opcode.CMPLE: _binop_factory(_op_cmple),
    Opcode.CMPGT: _binop_factory(_op_cmpgt),
    Opcode.CMPGE: _binop_factory(_op_cmpge),
    Opcode.CMPLTU: _binop_factory(_op_cmpltu),
    Opcode.CMPGEU: _binop_factory(_op_cmpgeu),
    Opcode.NEG: _compile_unop(lambda a: (-a) & MASK64),
    Opcode.NOT: _compile_unop(lambda a: (~a) & MASK64),
    Opcode.LI: _compile_li,
    Opcode.MOV: _compile_mov,
    Opcode.LOAD: _compile_load,
    Opcode.STORE: _compile_store,
    Opcode.BEQ: _branch_factory(_test_eq),
    Opcode.BNE: _branch_factory(_test_ne),
    Opcode.BLT: _branch_factory(_test_lt),
    Opcode.BGE: _branch_factory(_test_ge),
    Opcode.JMP: _compile_jmp,
    Opcode.CALL: _compile_call,
    Opcode.RET: _compile_ret,
    Opcode.PARAM: _compile_param,
    Opcode.PRINT: _compile_print,
    Opcode.FPRINT: _compile_fprint,
    Opcode.EXIT: _compile_exit,
    Opcode.DETECT: _compile_detect,
    Opcode.NOP: _compile_nop,
    Opcode.FADD: _fbinop_factory(_fop_add),
    Opcode.FSUB: _fbinop_factory(_fop_sub),
    Opcode.FMUL: _fbinop_factory(_fop_mul),
    Opcode.FDIV: _fbinop_factory(_fop_div),
    Opcode.FNEG: _compile_fneg,
    Opcode.FMOV: _compile_fmov,
    Opcode.FLI: _compile_fli,
    Opcode.FLOAD: _compile_fload,
    Opcode.FSTORE: _compile_fstore,
    Opcode.FCMPEQ: _fcmp_factory(lambda a, b: a == b),
    Opcode.FCMPLT: _fcmp_factory(lambda a, b: a < b),
    Opcode.FCMPLE: _fcmp_factory(lambda a, b: a <= b),
    Opcode.CVTIF: _compile_cvtif,
    Opcode.CVTFI: _compile_cvtfi,
}


def run_program(program: Program, max_instructions: int = 10_000_000
                ) -> RunResult:
    """Convenience: compile and execute a program once."""
    machine = Machine(program, max_instructions=max_instructions)
    return machine.run_to_completion()
