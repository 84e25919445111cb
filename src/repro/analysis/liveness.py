"""Backward liveness analysis over registers.

Produces per-block live-in/live-out sets and, on demand, per-instruction
live-out sets.  Used by the register allocator (live intervals), the MASK
pass (insertion points for loop-carried invariants), the evaluation
tooling (live-register statistics for fault-site realism checks), and,
through :func:`live_in_masks`, the fault injector's convergence test
(which registers a paused machine's future can still read).
"""

from __future__ import annotations

from ..isa.block import BasicBlock
from ..isa.function import Function
from ..isa.instruction import Instruction
from ..isa.program import Program
from ..isa.registers import Register
from .cfg import CFG
from .frames import FrameCheck, check_frames


def instruction_uses(instr: Instruction) -> set[Register]:
    return set(instr.source_registers())


def instruction_defs(instr: Instruction) -> set[Register]:
    return {instr.dest} if instr.dest is not None else set()


class Liveness:
    """Fixed-point live-variable analysis for one function.

    ``call_reads`` optionally maps a callee name to the registers that
    callee reads; a ``CALL`` then reads those too, on top of its
    arguments.  ``saves`` optionally names stores whose value register
    is not a read (pass-through saves; see :func:`live_in_masks`).
    """

    def __init__(self, function: Function, cfg: CFG | None = None,
                 call_reads: dict[str, frozenset[Register]] | None = None,
                 saves: frozenset[Instruction] = frozenset()) -> None:
        self.function = function
        self.cfg = cfg or CFG(function)
        self.call_reads = call_reads or {}
        self.saves = saves
        self.live_in: dict[str, frozenset[Register]] = {}
        self.live_out: dict[str, frozenset[Register]] = {}
        self._use: dict[str, frozenset[Register]] = {}
        self._def: dict[str, frozenset[Register]] = {}
        self._compute()

    def uses(self, instr: Instruction) -> set[Register]:
        """Registers ``instr`` reads, a call's callee reads included."""
        uses = instruction_uses(instr)
        if instr.is_call:
            uses |= self.call_reads.get(instr.callee, frozenset())
        elif instr in self.saves:
            uses.discard(instr.srcs[2])
        return uses

    def _local_sets(self, block: BasicBlock) -> tuple[frozenset, frozenset]:
        upward_uses: set[Register] = set()
        defined: set[Register] = set()
        for instr in block.instructions:
            for reg in self.uses(instr):
                if reg not in defined:
                    upward_uses.add(reg)
            if instr.dest is not None:
                defined.add(instr.dest)
        return frozenset(upward_uses), frozenset(defined)

    def _compute(self) -> None:
        blocks = self.function.blocks
        for blk in blocks:
            use, defs = self._local_sets(blk)
            self._use[blk.name] = use
            self._def[blk.name] = defs
            self.live_in[blk.name] = frozenset()
            self.live_out[blk.name] = frozenset()
        changed = True
        # Iterate in reverse layout order for faster convergence.
        while changed:
            changed = False
            for blk in reversed(blocks):
                out: set[Register] = set()
                for succ in self.cfg.successors[blk.name]:
                    out |= self.live_in[succ]
                new_out = frozenset(out)
                new_in = frozenset(
                    self._use[blk.name] | (new_out - self._def[blk.name])
                )
                if (new_out != self.live_out[blk.name]
                        or new_in != self.live_in[blk.name]):
                    self.live_out[blk.name] = new_out
                    self.live_in[blk.name] = new_in
                    changed = True

    def per_instruction_live_out(
        self, block: BasicBlock
    ) -> list[frozenset[Register]]:
        """Live-out set after each instruction of ``block``, in order."""
        result: list[frozenset[Register]] = [frozenset()] * len(block.instructions)
        live = set(self.live_out[block.name])
        for idx in range(len(block.instructions) - 1, -1, -1):
            instr = block.instructions[idx]
            result[idx] = frozenset(live)
            if instr.dest is not None:
                live.discard(instr.dest)
            live.update(self.uses(instr))
        return result

    def live_through_block(self, block: BasicBlock) -> frozenset[Register]:
        """Registers live on entry, on exit, and never redefined inside."""
        return frozenset(
            (self.live_in[block.name] & self.live_out[block.name])
            - self._def[block.name]
        )


def live_in_masks(program: Program, frames: FrameCheck | None = None
                  ) -> dict[str, list[tuple[list, list]]]:
    """Per-position live-in register bitmasks of a physical-register program.

    ``masks[fn][b]`` is ``(ints, floats)`` for block ``b`` of function
    ``fn``: bit ``k`` of ``ints[i]`` (``floats[i]``) is set when ``rk``
    (``fk``) is live just before instruction ``i``, and the extra entry
    ``ints[len(block)]`` is the block's live-out.  A ``CALL`` reads
    every register its callee reads, transitively -- the callee's entry
    live-in, iterated to a fixed point over the call graph.  A
    prologue store that :func:`~repro.analysis.frames.check_frames`
    proves a pass-through save (``frames``, checked here when not
    given) is not a read: the callee restores the register from the
    same slot before every return, so the register passes through the
    call and is live before it only if the caller reads it after.  In a
    program that fails the check every store is a read.  Registers are
    never killed across a call except its ``dest``: the summary
    over-approximates, which is the safe direction for every consumer.
    """
    saves = (frames or check_frames(program)).saves
    reads = {name: frozenset() for name in program.functions}
    while True:
        # Keep only each pass's entry summaries: holding every
        # function's analysis at once would multiply the peak memory.
        entries = {name: Liveness(function, call_reads=reads, saves=saves)
                   .live_in[function.entry.name]
                   for name, function in program.functions.items()}
        if entries == reads:
            break
        reads = entries
    shared: dict[int, int] = {}    # one int object per distinct mask

    def masks(regs: frozenset[Register]) -> tuple[int, int]:
        ints = floats = 0
        for reg in regs:
            if reg.is_float:
                floats |= 1 << reg.index
            else:
                ints |= 1 << reg.index
        return shared.setdefault(ints, ints), shared.setdefault(floats, floats)

    table = {}
    for name, function in program.functions.items():
        analysis = Liveness(function, call_reads=reads, saves=saves)
        blocks = []
        for block in function.blocks:
            pairs = [masks(regs) for regs in
                     (analysis.live_in[block.name],
                      *analysis.per_instruction_live_out(block))]
            blocks.append(([ints for ints, _ in pairs],
                           [floats for _, floats in pairs]))
        table[name] = blocks
    return table
