"""The stack-frame check behind two convergence rules.

The fault injector splices a faulty run onto the golden run once their
states agree on everything the rest of the run can read
(:meth:`repro.sim.machine.Machine.state_matches`).  Two parts of the
state are provably unread when a physical-register program keeps the
frame discipline the register allocator emits
(:mod:`repro.transform.regalloc`), and :func:`check_frames` proves that
discipline statically, once per program:

* **SP.**  ``r1`` is lowered only by ``sub r1, r1, N`` as the first
  instruction of the entry block (which no branch targets) and raised
  only by ``add r1, r1, N`` right before a ``ret``, with the same ``N``
  in every exit of the function; otherwise it is read only as the base
  of a load or store at a word offset inside ``[0, N)``.  SP is never
  copied, so no register of the program derives a stack address from
  it, and every activation's SP-relative cells lie in its own frame.
* **Written before read.**  Every SP-relative load reads a slot that
  every path from the function's entry stores first (a forward
  must-written analysis).  A cell below SP therefore belongs to no live
  activation, and any activation that later reuses it writes it before
  reading it: cells below SP are dead.
* **Pass-through saves.**  A ``role=frame`` store of register ``r`` to
  slot ``k`` is a *save* when the restore run before every ``ret``
  (the ``role=frame`` loads just ahead of the SP raise) ends by loading
  ``r`` from ``k``, the ``ret`` does not read ``r``, and no other load
  reads ``k``.  The saved value then only flows back into ``r`` at the
  return, so the store is not a read of ``r``: the register passes
  through the call, live before it only if the caller reads it after.

A program that breaks any rule gets ``ok=False`` and no saves, and the
convergence test keeps its exact comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.function import Function
from ..isa.instruction import Instruction, Role
from ..isa.opcodes import Opcode
from ..isa.operands import Imm
from ..isa.program import Program, WORD
from ..isa.registers import SP, Register
from .cfg import CFG

_LOADS = (Opcode.LOAD, Opcode.FLOAD)
_STORES = (Opcode.STORE, Opcode.FSTORE)


@dataclass(frozen=True)
class FrameCheck:
    """Outcome of :func:`check_frames`.

    ``ok``: every function keeps the frame discipline, so stack cells
    below SP are dead.  ``saves``: the prologue stores that are not
    reads of their register (empty unless ``ok``).
    """

    ok: bool
    saves: frozenset[Instruction] = frozenset()


def check_frames(program: Program) -> FrameCheck:
    """Prove the frame discipline for every function of ``program``."""
    saves: set[Instruction] = set()
    for function in program.functions.values():
        found = _function_saves(function)
        if found is None:
            return FrameCheck(False)
        saves |= found
    return FrameCheck(True, frozenset(saves))


def _sp_step(instr: Instruction, op: Opcode) -> int:
    """``N`` when ``instr`` is ``op r1, r1, N`` for a positive multiple
    ``N`` of the word size, else 0."""
    if (instr.op is op and instr.dest is SP and len(instr.srcs) == 2
            and instr.srcs[0] is SP and isinstance(instr.srcs[1], Imm)):
        step = instr.srcs[1].signed
        if step > 0 and step % WORD == 0:
            return step
    return 0


def _function_saves(function: Function) -> set[Instruction] | None:
    """The pass-through saves of one function, or ``None`` when it
    breaks the frame discipline."""
    cfg = CFG(function)
    entry = function.entry
    if cfg.predecessors[entry.name]:
        return None
    first = entry.instructions[0] if entry.instructions else None
    size = _sp_step(first, Opcode.SUB) if first is not None else 0
    loads: dict[int, list[Instruction]] = {}
    exits: list[dict[Register, Instruction]] = []
    for block in function.blocks:
        instrs = block.instructions
        for i, instr in enumerate(instrs):
            if instr is first and size:
                continue
            if instr.op is Opcode.RET:
                restored = _restores(instrs, i, size)
                if restored is None or SP in instr.srcs:
                    return None
                exits.append(restored)
                continue
            if instr.dest is SP:
                # Only the epilogue raise, directly before a ret.
                if not (size and _sp_step(instr, Opcode.ADD) == size
                        and i + 1 < len(instrs)
                        and instrs[i + 1].op is Opcode.RET):
                    return None
                continue
            if not any(src is SP for src in instr.srcs):
                continue
            if (instr.op not in _LOADS + _STORES or instr.srcs[0] is not SP
                    or any(src is SP for src in instr.srcs[2:])):
                return None
            offset = instr.srcs[1].signed
            if not 0 <= offset < size or offset % WORD:
                return None
            if instr.op in _LOADS:
                loads.setdefault(offset, []).append(instr)
    if not _written_before_read(function, cfg):
        return None
    saves = set()
    for instr in function.instructions():
        if not (instr.op in _STORES and instr.role is Role.FRAME
                and instr.srcs[0] is SP
                and isinstance(instr.srcs[2], Register)):
            continue
        reg, offset = instr.srcs[2], instr.srcs[1].signed
        load_op = _LOADS[_STORES.index(instr.op)]
        restores = {restored.get(reg) for restored in exits}
        if (None not in restores
                and all(load.op is load_op and load.srcs[1].signed == offset
                        for load in restores)
                and all(load in restores for load in loads.get(offset, ()))):
            saves.add(instr)
    return saves


def _restores(instrs: list[Instruction], ret: int, size: int
              ) -> dict[Register, Instruction] | None:
    """The restore run ahead of the ``ret`` at ``instrs[ret]``: each
    register the run leaves restored (and the ``ret`` does not read)
    mapped to its last restoring load.  ``None`` when a function with a
    frame returns without raising SP first."""
    if not size:
        return {}
    if ret < 1 or _sp_step(instrs[ret - 1], Opcode.ADD) != size:
        return None
    restored: dict[Register, Instruction] = {}
    for load in reversed(instrs[:ret - 1]):
        if not (load.op in _LOADS and load.role is Role.FRAME
                and load.srcs[0] is SP):
            break
        restored.setdefault(load.dest, load)
    for src in instrs[ret].srcs:
        restored.pop(src, None)
    return restored


def _written_before_read(function: Function, cfg: CFG) -> bool:
    """Does every SP-relative load read a slot that every path from the
    entry has stored?  A forward must-written analysis over slot
    offsets; ``None`` marks a block no path has reached yet."""
    written: dict[str, frozenset[int] | None] = {
        block.name: None for block in function.blocks}
    written[function.entry.name] = frozenset()

    def visit(block, check: bool) -> frozenset[int] | None:
        slots = set(written[block.name])
        for instr in block.instructions:
            if not instr.srcs or instr.srcs[0] is not SP:
                continue
            if instr.op in _STORES:
                slots.add(instr.srcs[1].signed)
            elif (check and instr.op in _LOADS
                    and instr.srcs[1].signed not in slots):
                return None
        return frozenset(slots)

    changed = True
    while changed:
        changed = False
        for block in function.blocks:
            if written[block.name] is None:
                continue
            out = visit(block, False)
            for succ in cfg.successors[block.name]:
                old = written[succ]
                new = out if old is None else old & out
                if new != old:
                    written[succ] = new
                    changed = True
    return all(written[block.name] is None or visit(block, True) is not None
               for block in function.blocks)
