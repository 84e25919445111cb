"""The functional architectural simulator.

Programs are compiled once into per-instruction Python closures over the
machine's register lists, then executed by a tight run loop.  Opcodes
whose meaning is one expression get closures rendered at import time
from the table the JIT also renders from (:mod:`repro.sim.semantics`),
one factory per operand shape.  The design
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
from itertools import product

from ..analysis.liveness import live_in_masks
from ..errors import SimulationError
from ..isa.instruction import Instruction, Role
from ..isa.opcodes import Opcode
from ..isa.operands import FImm, Imm, MASK64
from ..isa.program import Program, STACK_TOP
from ..isa.registers import NUM_GPRS, Register
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


_TWO63 = 1 << 63
_TWO64 = 1 << 64


def _signed(x: int) -> int:
    return x - _TWO64 if x >= _TWO63 else x


class CompiledBlock:
    """Executable form of one basic block.

    ``meta`` is a per-instruction tuple list consumed by the timing
    model: ``(is_load, out, a, b, latency, mem, role)``.  ``out`` and
    the sources ``a`` and ``b`` index its ready table, float slots from
    ``Machine.float_slot_base`` on; -1 is none, and as a source reads
    the table's last entry, which is never written.  ``late_srcs`` holds
    a CALL's sources past two, by index.  ``role`` indexes ``Role``.
    """

    __slots__ = ("name", "steps", "instrs", "meta", "late_srcs")

    def __init__(self, name: str, steps: list,
                 instrs: list[Instruction]) -> None:
        self.name = name
        self.steps = steps
        self.instrs = instrs
        self.meta: list[tuple] = []
        self.late_srcs: dict[int, tuple[int, ...]] = {}


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
            # Timing metadata needs the final slot counts.
            self.float_slot_base = max(self._next_virtual_slot, NUM_GPRS)
            for cf in self.functions.values():
                self._current_function = cf.name
                for blk in cf.blocks:
                    blk.meta = [self._instruction_meta(blk, index)
                                for index in range(len(blk.instrs))]
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
            blocks.append(
                CompiledBlock(blk.name, steps, list(blk.instructions)))
        return CompiledFunction(fn.name, blocks, fn.num_params)

    def _instruction_meta(self, blk: CompiledBlock, index: int) -> tuple:
        """``blk.instrs[index]`` as a ``meta`` entry (see CompiledBlock)."""
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
            blk.late_srcs[index] = tuple(slots[2:])
        slots += (-1, -1)
        mem = None
        if op in (Opcode.LOAD, Opcode.FLOAD, Opcode.STORE, Opcode.FSTORE):
            mem = (self.slot_of(instr.srcs[0]), instr.srcs[1].signed)
        return (op in (Opcode.LOAD, Opcode.FLOAD), out, slots[0], slots[1],
                op.info.latency, mem, _ROLE_NUMBER[instr.role])

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


_ROLE_NUMBER = {role: number for number, role in enumerate(Role)}


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
    return factories[tuple(shape)](*values)


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


def _compile_store(machine: Machine, instr: Instruction, _index):
    """Only an address not yet in ``cells`` is checked: one already
    there was checked by whoever stored it first (see
    :func:`_compile_load`)."""
    base = machine.slot_of(instr.srcs[0])
    offset = instr.srcs[1].signed
    value_operand = instr.srcs[2]
    if isinstance(value_operand, Imm):
        def step(m, b=base, off=offset, v=value_operand.value):
            addr = (m.regs[b] + off) & MASK64
            cells = m.memory.cells
            if addr not in cells:
                m.memory.check(addr)
            cells[addr] = v
        return step
    src = machine.slot_of(value_operand)

    def step(m, b=base, off=offset, s=src):
        addr = (m.regs[b] + off) & MASK64
        cells = m.memory.cells
        if addr not in cells:
            m.memory.check(addr)
        cells[addr] = m.regs[s]
    return step


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
def _fop_div(a, b):
    # Emulate IEEE-754 semantics, which Python's ``/`` turns into
    # ``ZeroDivisionError``: x/0 is +/-inf, 0/0 and nan/0 are nan.
    if b == 0.0:
        if a == 0.0 or a != a:
            return float("nan")
        return float("inf") if a > 0 else float("-inf")
    return a / b


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


def _compile_fload(machine: Machine, instr: Instruction, _index):
    dest = machine.slot_of(instr.dest)
    base = machine.slot_of(instr.srcs[0])
    offset = instr.srcs[1].signed

    def step(m, d=dest, b=base, off=offset):
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


def _compile_fstore(machine: Machine, instr: Instruction, _index):
    """Checks the address as :func:`_compile_store` does."""
    base = machine.slot_of(instr.srcs[0])
    offset = instr.srcs[1].signed
    value_operand = instr.srcs[2]
    if isinstance(value_operand, FImm):
        def step(m, b=base, off=offset, v=float(value_operand.value)):
            addr = (m.regs[b] + off) & MASK64
            cells = m.memory.cells
            if addr not in cells:
                m.memory.check(addr)
            cells[addr] = v
        return step
    src = machine.slot_of(value_operand)

    def step(m, b=base, off=offset, s=src):
        addr = (m.regs[b] + off) & MASK64
        cells = m.memory.cells
        if addr not in cells:
            m.memory.check(addr)
        cells[addr] = m.fregs[s]
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


def run_program(program: Program, max_instructions: int = 10_000_000
                ) -> RunResult:
    """Convenience: compile and execute a program once."""
    machine = Machine(program, max_instructions=max_instructions)
    return machine.run_to_completion()
