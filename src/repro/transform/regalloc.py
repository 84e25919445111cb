"""Linear-scan register allocation with spilling.

The protection passes run before register allocation, exactly as in the
paper (Section 7: "our additional compilation phase occurs ... immediately
before register allocation and scheduling").  This allocator then maps
the virtual registers -- tripled in number by SWIFT-R -- onto the 32
architectural GPRs (31 allocatable: ``r1`` is the stack pointer), spilling
to the stack frame when pressure demands it.

Two paper-relevant consequences fall out naturally:

* spill and frame traffic is emitted *after* protection and is therefore
  unprotected, mirroring the paper's unprotected stack-pointer uses;
* spilled values live in ECC-protected memory and are immune to register
  faults while spilled.

Conventions:

* every function preserves every register it writes (all-callee-saved);
  the prologue stores used registers into the frame, epilogues restore
  them, and the return value travels through a reserved scratch;
* ``r29``-``r31`` (and ``f30``-``f31``) are reserved as spill scratches
  and never allocated;
* intervals are coarse (single ``[start, end]`` span per register),
  which over-approximates liveness and is therefore safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.cfg import CFG
from ..analysis.liveness import Liveness
from ..errors import RegisterAllocationError
from ..isa.function import Function
from ..isa.instruction import Instruction, Role
from ..isa.opcodes import Opcode, OpKind
from ..isa.operands import Imm
from ..isa.program import Program, WORD
from ..isa.registers import Register, SP, fpr, gpr
from ..isa.verify import verify_program
from ..obs.spans import span
from .base import transform_program

#: Integer scratch registers reserved for spill code (never allocated).
INT_SCRATCH = (gpr(29), gpr(30), gpr(31))
#: Float scratch registers reserved for spill code.
FLOAT_SCRATCH = (fpr(30), fpr(31))

#: Allocatable pools (SP and scratches excluded).
ALLOC_INT = tuple(
    gpr(i) for i in range(32) if i != SP.index and gpr(i) not in INT_SCRATCH
)
ALLOC_FLOAT = tuple(fpr(i) for i in range(30))


@dataclass
class AllocationStats:
    """Bookkeeping for reports and tests."""

    spilled_registers: int = 0
    spill_slots: int = 0
    saved_registers: int = 0
    frame_words: int = 0
    functions: dict[str, int] = field(default_factory=dict)


@dataclass
class _Interval:
    reg: Register
    start: int
    end: int
    phys: Register | None = None
    slot: int | None = None  # spill slot index
    weight: float = 0.0      # Chaitin-style spill cost (uses x 10^depth)


def _build_intervals(function: Function) -> list[_Interval]:
    from ..analysis.loops import loop_depths

    cfg = CFG(function)
    liveness = Liveness(function, cfg)
    depths = loop_depths(function, cfg)
    position = 0
    intervals: dict[Register, _Interval] = {}

    def first_touch(reg: Register, pos: int, weight: float) -> None:
        if not reg.is_virtual:
            if reg is not SP:
                raise RegisterAllocationError(
                    f"{function.name}: physical register {reg} in pre-RA code"
                )
            return
        intervals[reg] = _Interval(reg, pos, pos, weight=weight)

    for blk in function.blocks:
        block_start = position
        # Spilling a register touched in a deep loop costs a reload or
        # store-back per iteration: weight occurrences exponentially by
        # loop depth so the allocator evicts cold intervals first.
        occurrence_weight = 10.0 ** min(depths.get(blk.name, 0), 6)
        for instr in blk.instructions:
            for reg in instr.registers():
                interval = intervals.get(reg)
                if interval is None:
                    first_touch(reg, position, occurrence_weight)
                else:
                    # No earlier touch lies past this position.
                    interval.end = position
                    interval.weight += occurrence_weight
            position += 2
        block_end = position - 2 if blk.instructions else block_start
        # Liveness stretches an interval over the block but adds no weight.
        for regs, pos in ((liveness.live_in[blk.name], block_start),
                          (liveness.live_out[blk.name], block_end)):
            for reg in regs:
                interval = intervals.get(reg)
                if interval is None:
                    first_touch(reg, pos, 0.0)
                elif pos < interval.start:
                    interval.start = pos
                elif pos > interval.end:
                    interval.end = pos
    return sorted(intervals.values(), key=lambda iv: (iv.start, iv.end))


def _linear_scan(intervals: list[_Interval]) -> int:
    """Assign physical registers or spill slots in place.

    Returns the number of spill slots used.  Integer and float register
    classes are scanned independently against their own pools.
    """
    next_slot = 0
    for is_float in (False, True):
        pool = list(ALLOC_FLOAT if is_float else ALLOC_INT)
        active: list[_Interval] = []
        for interval in intervals:
            if interval.reg.is_float != is_float:
                continue
            # Expire old intervals.
            still_active = []
            for act in active:
                if act.end < interval.start:
                    pool.append(act.phys)
                else:
                    still_active.append(act)
            active = still_active
            if pool:
                interval.phys = pool.pop()
                active.append(interval)
                continue
            # Spill the interval with the lowest reload-cost *density*
            # (weight per unit of live range): evicting a long, rarely
            # touched value frees a register for the longest time at the
            # smallest dynamic cost.  Tie-break toward the classic
            # furthest-end choice.
            victim = min(
                active + [interval],
                key=lambda iv: (iv.weight / (iv.end - iv.start + 1),
                                -iv.end),
            )
            if victim is interval:
                interval.slot = next_slot
            else:
                interval.phys = victim.phys
                victim.phys = None
                victim.slot = next_slot
                active.remove(victim)
                active.append(interval)
            next_slot += 1
    return next_slot


class _Rewriter:
    """Rewrites one function's instructions to physical registers."""

    def __init__(self, function: Function, intervals: list[_Interval],
                 spill_slots: int) -> None:
        self.function = function
        self.map: dict[Register, _Interval] = {iv.reg: iv for iv in intervals}
        self.spill_slots = spill_slots
        self.used_phys: set[Register] = set()

    def rewrite(self) -> Function:
        # First pass: rewrite instructions, collecting used registers;
        # spill offsets need the saved-register count, which depends on
        # used registers, so spill code uses a placeholder base resolved
        # in a second pass.
        new_blocks: list[tuple[str, list[Instruction]]] = []
        spill_fixups: list[Instruction] = []
        for blk in self.function.blocks:
            out: list[Instruction] = []
            for instr in blk.instructions:
                self._rewrite_instruction(instr, out, spill_fixups)
            new_blocks.append((blk.name, out))
        saved = sorted(self.used_phys - set(INT_SCRATCH) - set(FLOAT_SCRATCH),
                       key=lambda r: (r.cls, r.index))
        # Scratches hold only intra-instruction temporaries, so they do
        # not need saving -- except that the caller's *own* scratch use
        # never spans a call, which makes this sound.
        saved_count = len(saved)
        for instr in spill_fixups:
            base, off, *rest = instr.srcs
            instr.srcs = (
                base,
                Imm(off.value + saved_count * WORD),
                *rest,
            )
        frame_words = saved_count + self.spill_slots
        result = Function(
            self.function.name,
            num_params=self.function.num_params,
            returns_float=self.function.returns_float,
            param_is_float=self.function.param_is_float,
        )
        result.frame_words = frame_words
        prologue = self._prologue(saved, frame_words)
        epilogue = self._epilogue(saved, frame_words)
        for i, (name, instrs) in enumerate(new_blocks):
            blk = result.add_block(name)
            if i == 0:
                blk.extend(prologue)
            final: list[Instruction] = []
            for instr in instrs:
                if instr.op.kind == OpKind.RET:
                    final.extend(self._expand_ret(instr, epilogue))
                else:
                    final.append(instr)
            blk.extend(final)
        return result

    # ------------------------------------------------------------ prologue
    def _prologue(self, saved: list[Register], frame_words: int
                  ) -> list[Instruction]:
        if frame_words == 0:
            return []
        out = [Instruction(Opcode.SUB, dest=SP,
                           srcs=(SP, Imm(frame_words * WORD)),
                           role=Role.FRAME)]
        for i, reg in enumerate(saved):
            op = Opcode.FSTORE if reg.is_float else Opcode.STORE
            out.append(Instruction(op, srcs=(SP, Imm(i * WORD), reg),
                                   role=Role.FRAME))
        return out

    def _epilogue(self, saved: list[Register], frame_words: int
                  ) -> list[Instruction]:
        if frame_words == 0:
            return []
        out: list[Instruction] = []
        for i, reg in enumerate(saved):
            op = Opcode.FLOAD if reg.is_float else Opcode.LOAD
            out.append(Instruction(op, dest=reg, srcs=(SP, Imm(i * WORD)),
                                   role=Role.FRAME))
        out.append(Instruction(Opcode.ADD, dest=SP,
                               srcs=(SP, Imm(frame_words * WORD)),
                               role=Role.FRAME))
        return out

    def _expand_ret(self, ret: Instruction, epilogue: list[Instruction]
                    ) -> list[Instruction]:
        """Restore saved registers, keeping the return value in a scratch."""
        out: list[Instruction] = []
        srcs = ret.srcs
        if srcs and isinstance(srcs[0], Register):
            value = srcs[0]
            scratch = FLOAT_SCRATCH[0] if value.is_float else INT_SCRATCH[0]
            if epilogue:
                op = Opcode.FMOV if value.is_float else Opcode.MOV
                out.append(Instruction(op, dest=scratch, srcs=(value,),
                                       role=Role.FRAME))
                srcs = (scratch,)
        out.extend(instr.clone() for instr in epilogue)
        out.append(Instruction(Opcode.RET, srcs=srcs, role=ret.role))
        return out

    # ---------------------------------------------------------- instructions
    def _rewrite_instruction(
        self,
        instr: Instruction,
        out: list[Instruction],
        spill_fixups: list[Instruction],
    ) -> None:
        new = instr.clone()
        scratch_map: dict[Register, Register] = {}
        int_scratch_iter = iter(INT_SCRATCH)
        float_scratch_iter = iter(FLOAT_SCRATCH)

        def resolve(reg: Register, for_def: bool) -> Register:
            if not reg.is_virtual:
                if reg is not SP:
                    self.used_phys.add(reg)
                return reg
            interval = self.map.get(reg)
            if interval is None:
                raise RegisterAllocationError(
                    f"{self.function.name}: no interval for {reg}"
                )
            if interval.phys is not None:
                self.used_phys.add(interval.phys)
                return interval.phys
            # Spilled: assign (or reuse) a scratch for this instruction.
            if reg in scratch_map:
                return scratch_map[reg]
            try:
                scratch = (next(float_scratch_iter) if reg.is_float
                           else next(int_scratch_iter))
            except StopIteration:
                raise RegisterAllocationError(
                    f"{self.function.name}: more spilled operands than "
                    f"scratch registers in {instr!r}"
                ) from None
            scratch_map[reg] = scratch
            if not for_def:
                load_op = Opcode.FLOAD if reg.is_float else Opcode.LOAD
                fill = Instruction(
                    load_op, dest=scratch,
                    srcs=(SP, Imm(interval.slot * WORD)),
                    role=Role.SPILL,
                )
                out.append(fill)
                spill_fixups.append(fill)
            return scratch

        # Sources first (they need fills before the instruction).
        new.srcs = tuple(
            resolve(src, for_def=False) if isinstance(src, Register) else src
            for src in new.srcs
        )
        store_back: Instruction | None = None
        if new.dest is not None:
            dest_interval = self.map.get(new.dest) if new.dest.is_virtual else None
            new.dest = resolve(new.dest, for_def=True)
            if (dest_interval is not None and dest_interval.phys is None):
                store_op = (Opcode.FSTORE if dest_interval.reg.is_float
                            else Opcode.STORE)
                store_back = Instruction(
                    store_op,
                    srcs=(SP, Imm(dest_interval.slot * WORD), new.dest),
                    role=Role.SPILL,
                )
                spill_fixups.append(store_back)
        out.append(new)
        if store_back is not None:
            out.append(store_back)


def _ensure_entry_not_targeted(function: Function) -> None:
    """The prologue goes into the entry block, so it must execute once:
    if any branch targets the entry label, interpose a fresh entry."""
    entry_name = function.entry.name
    targeted = any(
        instr.label == entry_name
        for instr in function.instructions()
        if instr.label is not None
    )
    if not targeted:
        return
    from ..isa.block import BasicBlock

    preface = BasicBlock(function.new_label("entry"))
    preface.append(Instruction(Opcode.JMP, label=entry_name, role=Role.FRAME))
    function.blocks.insert(0, preface)


def allocate_function(function: Function, program: Program | None = None
                      ) -> Function:
    """Run linear-scan allocation on one function (input left untouched)."""
    from .base import clone_function

    function = clone_function(function)
    _ensure_entry_not_targeted(function)
    intervals = _build_intervals(function)
    spill_slots = _linear_scan(intervals)
    rewriter = _Rewriter(function, intervals, spill_slots)
    return rewriter.rewrite()


def allocate_program(program: Program) -> Program:
    """Allocate every function; the result uses physical registers only,
    which is verified here, once."""
    with span("regalloc", functions=len(program.functions)):
        binary = transform_program(
            program, lambda fn, prog: allocate_function(fn, prog),
            verify=False,
        )
        verify_program(binary, require_physical=True)
        return binary


def allocation_stats(program: Program) -> AllocationStats:
    """Summarise spill/frame behaviour of an *allocated* program."""
    stats = AllocationStats()
    for fn in program:
        spill_sites = [
            instr for instr in fn.instructions()
            if instr.role is Role.SPILL
        ]
        saved = sum(
            1 for instr in fn.instructions()
            if instr.role is Role.FRAME and instr.op is Opcode.STORE
        )
        stats.functions[fn.name] = len(spill_sites)
        stats.frame_words += fn.frame_words
        stats.saved_registers += saved
        spilled_slots = {
            instr.srcs[1].value for instr in spill_sites
        }
        stats.spill_slots += len(spilled_slots)
        stats.spilled_registers += len(spilled_slots)
    return stats
