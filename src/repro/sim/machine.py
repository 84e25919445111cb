"""The functional architectural simulator.

Programs are compiled once into per-instruction Python closures, each
reading the machine it is passed, then executed by a tight run loop.
Equal instructions share one closure, across machines too (``_shared``).
Opcodes whose meaning is one expression get closures rendered at import
time from the table the JIT also renders from
(:mod:`repro.sim.semantics`), one factory per operand shape.  The design
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

import weakref
from dataclasses import dataclass
from itertools import product
from types import MappingProxyType

from ..analysis.frames import check_frames
from ..analysis.liveness import live_in_masks
from ..errors import SimulationError
from ..isa.instruction import REPAIR_ROLES, Instruction, Role
from ..isa.opcodes import Opcode
from ..isa.operands import FImm, Imm, MASK64
from ..isa.program import Program, STACK_TOP
from ..isa.registers import NUM_GPRS, STACK_POINTER_INDEX, Register
from ..obs.spans import span
from .events import GuestTrap, RunResult, RunStatus, TrapKind
from .loop import (
    ACT_CALL,
    ACT_DETECT,
    ACT_EXIT,
    ACT_RECOVER,
    ACT_RET,
    exec_source,
    run_jit,
    run_plain,
    run_profile,
    run_profile_seek,
    run_seek,
    run_taint,
)
from .memory import Memory, bits_to_float, float_to_bits
from .semantics import (
    BRANCHES,
    FLOAT_BINOPS,
    FLOAT_COMPARES,
    FLOAT_UNOPS,
    INT_BINOPS,
    INT_UNOPS,
    RAW,
    imm_operand,
    reg_operand,
)


#: Instruction cap of a run; the largest fault-free one runs about 0.5M.
#: Faulty runs get a tighter :func:`repro.faults.injector.hang_budget`.
MAX_INSTRUCTIONS = 20_000_000

_TWO63 = 1 << 63
_TWO64 = 1 << 64
#: Stands for a cell absent from ``Memory.cells`` (``_live_cells_match``).
_ABSENT = object()
#: ``CompiledBlock.late_srcs`` of a block without a late source.
_NO_LATE_SRCS = MappingProxyType({})


def _signed(x: int) -> int:
    return x - _TWO64 if x >= _TWO63 else x


class CompiledBlock:
    """Executable form of one basic block.

    ``meta`` is the timing model's tuple of rows, one per instruction:
    ``(is_load, out, a, b, latency, offset, role)``.  ``out`` and the
    sources ``a`` and ``b`` index its ready table, float slots from
    ``Machine.float_slot_base`` on; -1 is none, and as a source reads
    the table's last entry, which is never written.  ``offset`` is a
    LOAD/FLOAD/STORE/FSTORE's signed address offset (``None`` in any
    other row), whose base register is ``a``.  ``late_srcs`` holds a
    CALL's sources past two, by index (an empty read-only mapping in a
    block without one).  ``role`` indexes ``Role``.

    ``instrs`` is the IR block's own instruction list; nothing here
    changes it.  The entries of ``steps`` are shared with every machine
    that compiled the same instruction (see :func:`_shared`), and
    ``meta`` and its rows with every machine that has equal ones (see
    :func:`_hold`).  Swap a ``steps`` entry to change a block; never
    mutate the entry itself.
    """

    __slots__ = ("name", "steps", "instrs", "meta", "late_srcs")

    def __init__(self, name: str, steps: list,
                 instrs: list[Instruction]) -> None:
        self.name = name
        self.steps = steps
        self.instrs = instrs
        self.meta: tuple = ()
        self.late_srcs = _NO_LATE_SRCS


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
    same program -- is undefined.  Campaign shard workers therefore
    fork with their parent's machine and checkpoints (see
    :mod:`repro.faults.parallel`).
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

    def __init__(self, program: Program,
                 max_instructions: int = MAX_INSTRUCTIONS):
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
            # Timing rows need the final slot counts.  Each block holds
            # its rows in the shared table until this machine is
            # collected (tuples take no weak references).
            self.float_slot_base = max(self._next_virtual_slot, NUM_GPRS)
            held: list[tuple] = []
            weakref.finalize(self, _release, held)
            new_rows = 0
            for cf in self.functions.values():
                self._current_function = cf.name
                for blk in cf.blocks:
                    rows = tuple([self._instruction_meta(blk, i)
                                  for i in range(len(blk.instrs))])
                    if rows not in _HOLDERS:
                        # The table's first copy of a block's rows holds
                        # each row in it.
                        new_rows += len(set(rows).difference(_HOLDERS))
                        rows = tuple(map(_hold, rows))
                    blk.meta = _hold(rows)
                    held.append(blk.meta)
            blocks = [blk for cf in self.functions.values()
                      for blk in cf.blocks]
            sp.set(instructions=sum(len(blk.instrs) for blk in blocks),
                   distinct_steps=len({id(step) for blk in blocks
                                       for step in blk.steps}),
                   new_rows=new_rows)
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
        # Engine hooks.  Each is None (the default) or the object that
        # selects its variant of the run loop (repro.sim.loop): a
        # repro.sim.taint.TaintTracker, a repro.obs.profile.SimProfiler,
        # a repro.sim.jit.JitProgram.  run() reads each gate once per
        # call, never per instruction, and a hook that is off renders no
        # code into the loop that runs, so execution is bit-identical
        # and costs nothing extra either way.  Taint and profile take
        # precedence over the JIT: their hooks must see every step.
        self.taint = None
        self.profile = None
        self.jit = None
        # Per-position live-register bitmasks and the frame check they
        # rest on, built on demand by state_matches (see
        # repro.analysis.liveness.live_in_masks), and the last live
        # memory cell a state compare found different.
        self._live_masks = None
        self._frames = None
        self._live_cell = None
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
        a precise dynamic instruction, flip a bit, and resume.  Each
        attached hook selects its variant of the one run loop
        (:mod:`repro.sim.loop`), in the order taint, profile, JIT.
        """
        if self._finished is not None:
            return self._finished
        if self._position is None:
            raise SimulationError("machine not reset")
        taint = self.taint
        if taint is not None and not taint.exhausted:
            return run_taint(self, limit, taint)
        profile = self.profile
        if profile is not None:
            return run_profile(self, limit, profile)
        jit = self.jit
        if jit is not None:
            return run_jit(self, limit, jit)
        return run_plain(self, limit, None)

    def seek(self, position: tuple, limit: int) -> RunResult:
        """Run on until the first later arrival at ``position`` (a
        paused state's ``(function, block index, instruction index)``),
        or until ``icount`` reaches ``limit``, and pause there.

        The starting position itself does not count as an arrival.
        The seek loop interprets even with the JIT attached, and counts
        into an attached profiler; it does not trace taint.
        """
        if self._finished is not None:
            return self._finished
        profile = self.profile
        if profile is not None:
            return run_profile_seek(self, limit, profile, position)
        return run_seek(self, limit, position)

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

    def _return(self) -> tuple:
        """Pop the innermost call frame, write the callee's return value
        into the frame's destination register, and return the frame."""
        frame = self.call_stack.pop()
        self.arg_stack.pop()
        dest = frame[3]
        if dest >= 0:
            value = self.ret_value
            if frame[4]:
                self.fregs[dest] = float(value) if value is not None else 0.0
            else:
                self.regs[dest] = (int(value) & MASK64
                                   if value is not None else 0)
        return frame

    def run_to_completion(self) -> RunResult:
        return self.run(None)

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
        run: resume position and call/argument stacks exactly, the
        register files on their *live* slots, and memory except the
        stack cells below SP.  A register the rest of the run
        overwrites before reading cannot change it.  The live set is
        the current position's live-in plus, for every call-stack
        frame, the live-in at its return point minus the frame's
        ``dest`` (see :func:`repro.analysis.liveness.live_in_masks`: a
        callee-saved register passes through a call).  Once position,
        stacks, live registers and SP all match, memory cells that
        differ only below SP are ignored: they belong to popped frames,
        which no later activation reads before writing.  Both rules
        rest on :func:`repro.analysis.frames.check_frames`, computed
        with the masks on the first mismatch that needs them and kept
        for the machine's lifetime; a program that fails the check, a
        machine with a taint tracker attached (forensics tells dead
        values apart by running them out), and code that still holds
        virtual registers compare registers and memory exactly.
        Counters (icount, recoveries) and already-produced output are
        excluded -- they record the past, not the future.  The caller
        decides which icount offset the match implies.  Cheap fields
        are compared first so diverged states bail early.
        """
        if (self._position != snap.position
                or self.call_stack != snap.call_stack
                or self.arg_stack != snap.arg_stack):
            return False
        if ((self.regs != snap.regs or self.fregs != snap.fregs)
                and not self._live_registers_match(snap)):
            return False
        return (self.memory.cells == snap.cells
                or self._live_cells_match(snap))

    def _liveness_exact(self) -> bool:
        """Must registers and memory be compared exactly?  Builds the
        live masks and the frame check on first use."""
        if (self.taint is not None or self._next_virtual_slot > NUM_GPRS
                or self._fnext_virtual_slot > NUM_GPRS):
            return True
        if self._live_masks is None:
            self._frames = check_frames(self.program)
            self._live_masks = live_in_masks(self.program, self._frames)
        return False

    def _live_registers_match(self, snap: MachineSnapshot) -> bool:
        """Do the register files agree on every live slot?"""
        if self._liveness_exact():
            return False
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

    def _live_cells_match(self, snap: MachineSnapshot) -> bool:
        """Does memory differ from ``snap``'s only in stack cells below
        an SP both states share?  The last live cell found different is
        tried first: a corrupted live cell usually stays so."""
        if self._liveness_exact() or not self._frames.ok:
            return False
        sp = self.regs[STACK_POINTER_INDEX]
        if sp != snap.regs[STACK_POINTER_INDEX]:
            return False
        mine, theirs = self.memory.cells, snap.cells
        low = self.memory.stack_lo
        cell = self._live_cell
        if cell is not None and not low <= cell < sp:
            value, other = mine.get(cell, _ABSENT), theirs.get(cell, _ABSENT)
            if value is not other and value != other:
                return False
        for cell, _ in mine.items() ^ theirs.items():
            if not low <= cell < sp:
                self._live_cell = cell
                return False
        return True

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
        resumes.  The plain run loop executes it, swapped in for the
        pending step for one instruction.  Returns a final
        :class:`RunResult` when the injected instruction terminates the
        run, else ``None`` (call ``run`` to continue).
        """
        if self._finished is not None:
            return self._finished
        if self._position is None:
            raise SimulationError("machine not paused")
        func, block_idx, i = self._position
        self._current_function = func.name

        def injected(m):
            try:
                return self._compile_instruction(instr, func.block_index)(m)
            except (AttributeError, TypeError, KeyError, IndexError) as exc:
                # A mutated encoding slipped past decode validation into
                # an operand combination the pipeline cannot execute: on
                # real hardware this is undefined behaviour; model it as
                # a trap.
                raise GuestTrap(TrapKind.ILLEGAL,
                                f"unexecutable mutation: {exc}") from None

        steps = func.blocks[block_idx].steps
        original, steps[i] = steps[i], injected
        try:
            result = run_plain(self, self.icount + 1, None)
        finally:
            steps[i] = original
        return None if result.status is RunStatus.PAUSED else result

    # -------------------------------------------------------------- compilation
    def _compile_function(self, fn) -> CompiledFunction:
        index = fn.block_index()
        self._current_function = fn.name
        blocks = []
        for blk in fn.blocks:
            steps = [self._compile_instruction(instr, index)
                     for instr in blk.instructions]
            blocks.append(CompiledBlock(blk.name, steps, blk.instructions))
        return CompiledFunction(fn.name, blocks, fn.num_params)

    def _instruction_meta(self, blk: CompiledBlock, index: int) -> tuple:
        """``blk.instrs[index]`` as a ``meta`` row (see CompiledBlock)."""
        instr = blk.instrs[index]
        op = instr.op
        base = self.float_slot_base
        slots = []
        for reg in instr.srcs:
            if isinstance(reg, Register):
                slots.append(self.slot_of(reg) + base * reg.is_float)
        dest = instr.dest
        out = -1 if dest is None else self.slot_of(dest) + base * dest.is_float
        if len(slots) > 2:
            # The destination first: on_call reads the late sources
            # after before_step has written the destination.
            slots.sort(key=out.__ne__)
            if blk.late_srcs is _NO_LATE_SRCS:
                blk.late_srcs = {}
            blk.late_srcs[index] = tuple(slots[2:])
        slots += (-1, -1)
        offset = None
        if op in _MEMORY_OPS:
            # The base register is the first source, so its slot is a.
            offset = instr.srcs[1].signed
        return (op in _LOAD_OPS, out, slots[0], slots[1],
                op.info.latency, offset, _ROLE_NUMBER[instr.role])

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
        if instr.role in REPAIR_ROLES:
            return _count_recovery(step, instr)
        return step


_ROLE_NUMBER = {role: number for number, role in enumerate(Role)}
#: Opcodes whose row has an ``offset``, and those the cache times.
#: (Sets: a tuple of ``Opcode.X`` lookups costs about 1 µs a row.)
_MEMORY_OPS = frozenset((Opcode.LOAD, Opcode.FLOAD,
                         Opcode.STORE, Opcode.FSTORE))
_LOAD_OPS = frozenset((Opcode.LOAD, Opcode.FLOAD))

#: Every timing row in use, and every block's tuple of rows, as the one
#: copy all machines share, and the number of its holders: a block's
#: rows are held by each compiled block with them, and a row by each
#: entry of a block's rows with it.  A machine's blocks let go when it
#: is collected, and an entry goes with its last holder.
_ROWS: dict[tuple, tuple] = {}
_HOLDERS: dict[tuple, int] = {}


def _hold(value: tuple) -> tuple:
    """The table's copy of ``value``, with one more holder.

    No object the cycle collector tracks is allocated in here, in
    :func:`_drop`, or between a caller's test that a block's rows are
    in the table and its call, so a collection, and the
    :func:`_release` it may run, never falls in between.
    """
    value = _ROWS.setdefault(value, value)
    _HOLDERS[value] = _HOLDERS.get(value, 0) + 1
    return value


def _drop(value: tuple) -> bool:
    """Take one holder from ``value``; did its entry go?"""
    holders = _HOLDERS[value] - 1
    if holders:
        _HOLDERS[value] = holders
        return False
    del _ROWS[value], _HOLDERS[value]
    return True


def _release(blocks: list[tuple]) -> None:
    """Let go of a collected machine's blocks' rows (``meta``)."""
    for rows in blocks:
        if _drop(rows):
            for row in rows:
                _drop(row)


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
# Per-opcode closure factories.  Each returns step(machine) -> action, a
# closure that reads only its argument and the values bound into it, so
# one step serves every instruction it was built for (_shared).
# --------------------------------------------------------------------------

#: Every step in use, by ``_shared`` key.  Weak values: an entry goes
#: with the last block that holds its step.
_STEPS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
#: Types whose values are equal only to values of the same type.
_EXACT_TYPES = frozenset((int, str))


def _content(value):
    """``value`` as part of a step key: equal only to a value of the
    same type, a float by its bit pattern (``0.0`` and ``-0.0`` differ,
    as do ``1``, ``1.0`` and ``True``, and NaN payloads)."""
    kind = type(value)
    if kind is float:
        return kind, float_to_bits(value)
    if kind is tuple:
        return kind, tuple(map(_content, value))
    return kind, value


def _shared(factory, *values):
    """The step ``factory(*values)`` builds, built once for all
    machines: the step of an earlier call with the same factory and
    equal values of the same types, while any block still holds it.

    The key is the factory and the values, each as itself when every
    value is an ``int`` or ``str`` (neither equals a value of another
    type), else as its :func:`_content`, a tuple, which no ``int`` or
    ``str`` equals.
    """
    if _EXACT_TYPES.issuperset(map(type, values)):
        key = (factory, *values)
    else:
        key = (factory, *map(_content, values))
    step = _STEPS.get(key)
    if step is None:
        step = _STEPS[key] = factory(*values)
    return step


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


#: Opcodes whose semantics are one expression, rendered into step
#: closures from :mod:`repro.sim.semantics`, as
#: ``(opcode, lead, statement, readers, modes)``.  ``lead`` is the
#: step's first bound value (``d`` the destination slot, ``t`` a
#: branch's target block).  ``readers`` has one letter per source:
#: ``r`` an integer register or immediate, ``f`` a float register or
#: immediate, ``F`` a float register only.
_TEMPLATED = (
    *((op, "d", "r[d] = " + fmt, "rr", modes)
      for op, (fmt, modes) in INT_BINOPS.items()),
    (Opcode.DIV, "d", "r[d] = _op_div({a}, {b})", "rr", (RAW, RAW)),
    (Opcode.REM, "d", "r[d] = _op_rem({a}, {b})", "rr", (RAW, RAW)),
    *((op, "d", "r[d] = " + fmt, "r", (RAW,))
      for op, fmt in INT_UNOPS.items()),
    *((op, "t", f"return t if {cond} else None", "rr", modes)
      for op, (cond, modes) in BRANCHES.items()),
    *((op, "d", "fr[d] = " + fmt, "ff", (RAW, RAW))
      for op, fmt in FLOAT_BINOPS.items()),
    *((op, "d", "fr[d] = " + fmt, "F", (RAW,))
      for op, fmt in FLOAT_UNOPS.items()),
    *((op, "d", "r[d] = " + fmt, "FF", (RAW, RAW))
      for op, fmt in FLOAT_COMPARES.items()),
)


def _render_step_factories() -> dict:
    """Compile one step factory per templated opcode and operand shape.

    Returns ``{opcode: (lead, readers, modes, factories)}`` where
    ``factories[shape](lead, a[, b])`` builds the step closure.  A shape
    holds one is-register flag per source.  Slots and immediates are
    bound as default arguments (local loads, the cheapest reads CPython
    has), and each register file the step touches is loaded once into
    ``r`` (integer) or ``fr`` (float).
    """
    lines: list[str] = []
    shapes_of: dict = {}
    for op, lead, stmt, readers, modes in _TEMPLATED:
        names = "ab"[:len(readers)]
        params = ", ".join((lead, *names))
        bound = ", ".join(f"{p}={p}" for p in (lead, *names))
        shapes_of[op] = []
        for shape in product(*((True,) if r == "F" else (True, False)
                               for r in readers)):
            fields = {name: (reg_operand(f"{'r' if r == 'r' else 'fr'}"
                                         f"[{name}]", mode)
                             if is_reg else name)
                      for name, r, mode, is_reg
                      in zip(names, readers, modes, shape)}
            body = stmt.format(M=MASK64, **fields)
            files = {"r" if reader == "r" else "fr"
                     for reader, is_reg in zip(readers, shape) if is_reg}
            if lead == "d":
                files.add(stmt.partition("[")[0])
            setup = [f"{file} = m.{'regs' if file == 'r' else 'fregs'}"
                     for file in sorted(files)]
            name = f"_{op.name}_{''.join('ri'[not f] for f in shape)}"
            shapes_of[op].append((shape, name))
            lines += [f"def {name}({params}):",
                      f"    def step(m, {bound}):",
                      *(f"        {line}" for line in (*setup, body)),
                      "    return step"]
    namespace = exec_source("\n".join(lines) + "\n", "<sim.steps>",
                            {"_op_div": _op_div, "_op_rem": _op_rem,
                             "_fdiv": _fop_div})
    return {op: (lead, readers, modes,
                 {shape: namespace[name] for shape, name in shapes_of[op]})
            for op, lead, _stmt, readers, modes in _TEMPLATED}


def _compile_templated(machine: Machine, instr: Instruction, block_index):
    """Bind one instruction's slots and immediates into the step
    factory for its operand shape."""
    lead, readers, modes, factories = _STEP_FACTORIES[instr.op]
    values = [block_index[instr.label] if lead == "t"
              else machine.slot_of(instr.dest)]
    shape = []
    for k, (reader, mode) in enumerate(zip(readers, modes)):
        operand = instr.srcs[k]
        if reader == "r":
            is_reg, value = machine._int_operand(operand)
            if not is_reg:
                value = imm_operand(value, mode)
        elif reader == "f" and isinstance(operand, FImm):
            is_reg, value = False, operand.value
        else:
            is_reg, value = True, machine.slot_of(operand)
        shape.append(is_reg)
        values.append(value)
    return _shared(factories[tuple(shape)], *values)


def _li_step(d, v):
    def step(m, d=d, v=v):
        m.regs[d] = v
        return None
    return step


def _compile_li(machine: Machine, instr: Instruction, _index):
    return _shared(_li_step, machine.slot_of(instr.dest),
                   instr.srcs[0].value)


def _mov_step(d, s):
    def step(m, d=d, s=s):
        r = m.regs
        r[d] = r[s]
        return None
    return step


def _compile_mov(machine: Machine, instr: Instruction, _index):
    src = instr.srcs[0]
    if isinstance(src, Imm):
        return _compile_li(machine, instr, _index)
    return _shared(_mov_step, machine.slot_of(instr.dest),
                   machine.slot_of(src))


def _load_step(d, b, off):
    def step(m, d=d, b=b, off=off):
        addr = (m.regs[b] + off) & MASK64
        # ``cells`` holds exactly the data image plus validly stored
        # words, so a hit proves the address valid: only a miss needs
        # the check, and a valid miss reads 0 (the JIT's rule too).
        try:
            value = m.memory.cells[addr]
        except KeyError:
            m.memory.check(addr)
            value = 0
        if type(value) is float:
            value = float_to_bits(value)
        m.regs[d] = value
    return step


def _compile_load(machine: Machine, instr: Instruction, _index):
    return _shared(_load_step, machine.slot_of(instr.dest),
                   machine.slot_of(instr.srcs[0]), instr.srcs[1].signed)


def _store_imm_step(b, off, v):
    def step(m, b=b, off=off, v=v):
        addr = (m.regs[b] + off) & MASK64
        cells = m.memory.cells
        if addr not in cells:
            m.memory.check(addr)
        cells[addr] = v
    return step


def _store_step(b, off, s):
    def step(m, b=b, off=off, s=s):
        addr = (m.regs[b] + off) & MASK64
        cells = m.memory.cells
        if addr not in cells:
            m.memory.check(addr)
        cells[addr] = m.regs[s]
    return step


def _compile_store(machine: Machine, instr: Instruction, _index):
    """Only an address not yet in ``cells`` is checked: one already
    there was checked by whoever stored it first (see
    :func:`_load_step`)."""
    base = machine.slot_of(instr.srcs[0])
    offset = instr.srcs[1].signed
    value_operand = instr.srcs[2]
    if isinstance(value_operand, Imm):
        return _shared(_store_imm_step, base, offset, value_operand.value)
    return _shared(_store_step, base, offset,
                   machine.slot_of(value_operand))


def _jmp_step(t):
    def step(m, t=t):
        return t
    return step


def _compile_jmp(machine: Machine, instr: Instruction, block_index):
    return _shared(_jmp_step, block_index[instr.label])


def _call_step(name, specs, d, df):
    def step(m, name=name, specs=specs, d=d, df=df):
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


def _compile_call(machine: Machine, instr: Instruction, _index):
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
    return _shared(_call_step, instr.callee, tuple(arg_specs), dest,
                   dest_float)


def _ret_value_step(v):
    def step(m, v=v):
        m.ret_value = v
        return ACT_RET
    return step


def _ret_step(s):
    def step(m, s=s):
        m.ret_value = m.regs[s]
        return ACT_RET
    return step


def _fret_step(s):
    def step(m, s=s):
        m.ret_value = m.fregs[s]
        return ACT_RET
    return step


def _ret_none_step():
    def step(m):
        m.ret_value = None
        return ACT_RET
    return step


def _compile_ret(machine: Machine, instr: Instruction, _index):
    if not instr.srcs:
        return _shared(_ret_none_step)
    src = instr.srcs[0]
    if isinstance(src, Imm) or isinstance(src, FImm):
        return _shared(_ret_value_step, src.value)
    return _shared(_fret_step if src.is_float else _ret_step,
                   machine.slot_of(src))


def _param_arg(m, i):
    # Out-of-range parameter reads only happen under injected opcode
    # faults; treat them like the hardware would (a trap).
    if not m.arg_stack or i >= len(m.arg_stack[-1]):
        raise GuestTrap(TrapKind.ILLEGAL, f"param {i} out of range")
    return m.arg_stack[-1][i]


def _param_step(d, i):
    def step(m, d=d, i=i):
        m.regs[d] = int(_param_arg(m, i)) & MASK64
        return None
    return step


def _fparam_step(d, i):
    def step(m, d=d, i=i):
        m.fregs[d] = float(_param_arg(m, i))
        return None
    return step


def _compile_param(machine: Machine, instr: Instruction, _index):
    return _shared(_fparam_step if instr.dest.is_float else _param_step,
                   machine.slot_of(instr.dest), instr.srcs[0].value)


def _print_value_step(v):
    def step(m, v=v):
        m.output.append(v)
        return None
    return step


def _print_step(s):
    def step(m, s=s):
        m.output.append(_signed(m.regs[s]))
        return None
    return step


def _compile_print(machine: Machine, instr: Instruction, _index):
    src = instr.srcs[0]
    if isinstance(src, Imm):
        return _shared(_print_value_step, src.signed)
    return _shared(_print_step, machine.slot_of(src))


def _fprint_step(s):
    def step(m, s=s):
        m.output.append(m.fregs[s])
        return None
    return step


def _compile_fprint(machine: Machine, instr: Instruction, _index):
    src = instr.srcs[0]
    if isinstance(src, FImm):
        return _shared(_print_value_step, float(src.value))
    return _shared(_fprint_step, machine.slot_of(src))


def _exit_value_step(c):
    def step(m, c=c):
        m.exit_code = c
        return ACT_EXIT
    return step


def _exit_step(s):
    def step(m, s=s):
        m.exit_code = _signed(m.regs[s])
        return ACT_EXIT
    return step


def _compile_exit(machine: Machine, instr: Instruction, _index):
    src = instr.srcs[0]
    if isinstance(src, Imm):
        return _shared(_exit_value_step, src.signed)
    return _shared(_exit_step, machine.slot_of(src))


def _detect_step():
    def step(m):
        return ACT_DETECT
    return step


def _compile_detect(machine: Machine, instr: Instruction, _index):
    return _shared(_detect_step)


def _nop_step():
    def step(m):
        return None
    return step


def _compile_nop(machine: Machine, instr: Instruction, _index):
    return _shared(_nop_step)


# ----------------------------------------------------------------- FP ops
def _fop_div(a, b):
    # Emulate IEEE-754 semantics, which Python's ``/`` turns into
    # ``ZeroDivisionError``: x/0 is +/-inf, 0/0 and nan/0 are nan.
    if b == 0.0:
        if a == 0.0 or a != a:
            return float("nan")
        return float("inf") if a > 0 else float("-inf")
    return a / b


def _fli_step(d, v):
    def step(m, d=d, v=v):
        m.fregs[d] = v
        return None
    return step


def _compile_fli(machine: Machine, instr: Instruction, _index):
    return _shared(_fli_step, machine.slot_of(instr.dest),
                   float(instr.srcs[0].value))


def _fmov_step(d, s):
    def step(m, d=d, s=s):
        fr = m.fregs
        fr[d] = fr[s]
        return None
    return step


def _compile_fmov(machine: Machine, instr: Instruction, _index):
    src = instr.srcs[0]
    if isinstance(src, FImm):
        return _compile_fli(machine, instr, _index)
    return _shared(_fmov_step, machine.slot_of(instr.dest),
                   machine.slot_of(src))


def _fload_step(d, b, off):
    def step(m, d=d, b=b, off=off):
        addr = (m.regs[b] + off) & MASK64
        try:
            value = m.memory.cells[addr]
        except KeyError:
            m.memory.check(addr)
            value = 0
        if type(value) is not float:
            value = bits_to_float(value)
        m.fregs[d] = value
    return step


def _compile_fload(machine: Machine, instr: Instruction, _index):
    return _shared(_fload_step, machine.slot_of(instr.dest),
                   machine.slot_of(instr.srcs[0]), instr.srcs[1].signed)


def _fstore_step(b, off, s):
    def step(m, b=b, off=off, s=s):
        addr = (m.regs[b] + off) & MASK64
        cells = m.memory.cells
        if addr not in cells:
            m.memory.check(addr)
        cells[addr] = m.fregs[s]
    return step


def _compile_fstore(machine: Machine, instr: Instruction, _index):
    """Checks the address as :func:`_compile_store` does."""
    base = machine.slot_of(instr.srcs[0])
    offset = instr.srcs[1].signed
    value_operand = instr.srcs[2]
    if isinstance(value_operand, FImm):
        return _shared(_store_imm_step, base, offset,
                       float(value_operand.value))
    return _shared(_fstore_step, base, offset,
                   machine.slot_of(value_operand))


def _cvtif_step(d, s):
    def step(m, d=d, s=s):
        m.fregs[d] = float(_signed(m.regs[s]))
        return None
    return step


def _compile_cvtif(machine: Machine, instr: Instruction, _index):
    src = instr.srcs[0]
    if isinstance(src, Imm):
        return _shared(_fli_step, machine.slot_of(instr.dest),
                       float(src.signed))
    return _shared(_cvtif_step, machine.slot_of(instr.dest),
                   machine.slot_of(src))


def _cvtfi_step(d, s):
    def step(m, d=d, s=s):
        value = m.fregs[s]
        if value != value or value in (float("inf"), float("-inf")):
            raise GuestTrap(TrapKind.BAD_CONVERT, f"cvtfi of {value}")
        return_value = int(value)
        m.regs[d] = return_value & MASK64
        return None
    return step


def _compile_cvtfi(machine: Machine, instr: Instruction, _index):
    return _shared(_cvtfi_step, machine.slot_of(instr.dest),
                   machine.slot_of(instr.srcs[0]))


_STEP_FACTORIES = _render_step_factories()

_COMPILERS = {
    **{op: _compile_templated for op in _STEP_FACTORIES},
    Opcode.LI: _compile_li,
    Opcode.MOV: _compile_mov,
    Opcode.LOAD: _compile_load,
    Opcode.STORE: _compile_store,
    Opcode.JMP: _compile_jmp,
    Opcode.CALL: _compile_call,
    Opcode.RET: _compile_ret,
    Opcode.PARAM: _compile_param,
    Opcode.PRINT: _compile_print,
    Opcode.FPRINT: _compile_fprint,
    Opcode.EXIT: _compile_exit,
    Opcode.DETECT: _compile_detect,
    Opcode.NOP: _compile_nop,
    Opcode.FMOV: _compile_fmov,
    Opcode.FLI: _compile_fli,
    Opcode.FLOAD: _compile_fload,
    Opcode.FSTORE: _compile_fstore,
    Opcode.CVTIF: _compile_cvtif,
    Opcode.CVTFI: _compile_cvtfi,
}


def run_program(program: Program, max_instructions: int = MAX_INSTRUCTIONS
                ) -> RunResult:
    """Convenience: compile and execute a program once."""
    machine = Machine(program, max_instructions=max_instructions)
    return machine.run_to_completion()
