"""Classic scalar optimisations (the -O2 the paper's input code had).

The paper protects code that gcc already optimised at -O2 (Section 7).
Our mini-C code generator is deliberately simple, so this module
supplies the standard cleanups that make its output representative:

* **constant folding** with algebraic identities,
* **block-local copy/constant propagation**,
* **block-local common-subexpression elimination** (primarily the
  ``shl``/``add`` address arithmetic the code generator repeats),
* **dead-code elimination** driven by liveness.

All passes run to a joint fixed point, *before* protection, exactly
where -O2 sits in the paper's pipeline.  Conservatism rules: anything
that can trap (loads, integer division) or has side effects is never
removed or reordered; ``mov`` instructions carrying a ``value_bits``
annotation (explicit ``(int)`` casts) are opaque to copy propagation so
the width assertion survives.
"""

from __future__ import annotations

from ..analysis.liveness import Liveness
from ..isa.function import Function
from ..isa.instruction import Instruction, Role
from ..isa.opcodes import (
    DIVISION_OPS,
    MEMORY_OPS,
    SHIFT_OPS,
    Opcode,
    OpKind,
)
from ..isa.operands import Imm, MASK64, to_signed
from ..isa.program import Program
from ..isa.registers import Register
from .base import clone_function, transform_program

# ------------------------------------------------------------ constant eval
_TWO63 = 1 << 63


def _sdiv(a: int, b: int) -> int:
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


_FOLDERS = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: (a & MASK64) << (b & 63),
    Opcode.SHR: lambda a, b: (a & MASK64) >> (b & 63),
    Opcode.SRA: lambda a, b: to_signed(a & MASK64) >> (b & 63),
    Opcode.CMPEQ: lambda a, b: int(a == b),
    Opcode.CMPNE: lambda a, b: int(a != b),
    Opcode.CMPLT: lambda a, b: int(to_signed(a) < to_signed(b)),
    Opcode.CMPLE: lambda a, b: int(to_signed(a) <= to_signed(b)),
    Opcode.CMPGT: lambda a, b: int(to_signed(a) > to_signed(b)),
    Opcode.CMPGE: lambda a, b: int(to_signed(a) >= to_signed(b)),
    Opcode.CMPLTU: lambda a, b: int((a & MASK64) < (b & MASK64)),
    Opcode.CMPGEU: lambda a, b: int((a & MASK64) >= (b & MASK64)),
    Opcode.NEG: lambda a: -a,
    Opcode.NOT: lambda a: ~a,
    # DIV/REM fold only with a non-zero divisor (checked below).
    Opcode.DIV: _sdiv,
    Opcode.REM: lambda a, b: a - _sdiv(a, b) * b,
}

#: Pure integer operations safe to fold, CSE, and eliminate when dead.
_PURE_OPS = frozenset(_FOLDERS) | {Opcode.MOV, Opcode.LI}

#: Operations with 0 as an identity on either side (``x | 0 = x``).
_OR_XOR = frozenset({Opcode.OR, Opcode.XOR})

#: Operations whose every source may be an immediate.
_IMMEDIATE_ANYWHERE = frozenset(
    {Opcode.CALL, Opcode.RET, Opcode.PRINT, Opcode.EXIT})


def _signed_of(operand: Imm) -> int:
    return operand.signed


def fold_constants(function: Function) -> bool:
    """Fold all-immediate pure operations and algebraic identities."""
    changed = False
    for blk in function.blocks:
        for idx, instr in enumerate(blk.instructions):
            op = instr.op
            # Normalise constant movs to li so later rounds see them.
            if op is Opcode.MOV and isinstance(instr.srcs[0], Imm):
                blk.instructions[idx] = Instruction(
                    Opcode.LI, dest=instr.dest, srcs=instr.srcs,
                    role=instr.role, value_bits=instr.value_bits,
                )
                changed = True
                continue
            folder = _FOLDERS.get(op)
            if folder is None or instr.dest is None:
                continue
            srcs = instr.srcs
            if all(isinstance(s, Imm) for s in srcs):
                if op in DIVISION_OPS and srcs[1].value == 0:
                    continue   # keep the trap
                value = folder(*[_signed_of(s) for s in srcs])
                blk.instructions[idx] = Instruction(
                    Opcode.LI, dest=instr.dest, srcs=(Imm(value),),
                    role=instr.role, value_bits=instr.value_bits,
                )
                changed = True
                continue
            simplified = _simplify_identity(instr)
            if simplified is not None:
                blk.instructions[idx] = simplified
                changed = True
    return changed


def _simplify_identity(instr: Instruction) -> Instruction | None:
    """x+0, x-0, x*1, x*0, x&~0, x|0, x^0, shifts by 0 -> mov/li."""
    op = instr.op
    if len(instr.srcs) != 2:
        return None
    a, b = instr.srcs

    def mov_of(src) -> Instruction:
        return Instruction(Opcode.MOV, dest=instr.dest, srcs=(src,),
                           role=instr.role, value_bits=instr.value_bits)

    def li_of(value: int) -> Instruction:
        return Instruction(Opcode.LI, dest=instr.dest, srcs=(Imm(value),),
                           role=instr.role, value_bits=instr.value_bits)

    if isinstance(b, Imm):
        bv = b.signed
        if op is Opcode.ADD and bv == 0:
            return mov_of(a)
        if op is Opcode.SUB and bv == 0:
            return mov_of(a)
        if op is Opcode.MUL and bv == 1:
            return mov_of(a)
        if op is Opcode.MUL and bv == 0:
            return li_of(0)
        if op in SHIFT_OPS and bv == 0:
            return mov_of(a)
        if op is Opcode.AND and b.value == MASK64:
            return mov_of(a)
        if op is Opcode.AND and bv == 0:
            return li_of(0)
        if op in _OR_XOR and bv == 0:
            return mov_of(a)
    if isinstance(a, Imm) and isinstance(b, Register):
        av = a.signed
        if op is Opcode.ADD and av == 0:
            return mov_of(b)
        if op is Opcode.MUL and av == 1:
            return mov_of(b)
        if op is Opcode.MUL and av == 0:
            return li_of(0)
        if op in _OR_XOR and av == 0:
            return mov_of(b)
    return None


# -------------------------------------------------------- copy propagation
def propagate_copies(function: Function) -> bool:
    """Block-local forward propagation of movs and constants."""
    changed = False
    for blk in function.blocks:
        # reg -> replacement operand (Register or Imm), still valid.
        available: dict[Register, object] = {}
        for instr in blk.instructions:
            # Rewrite sources first.
            if instr.srcs:
                new_srcs = []
                for slot, src in enumerate(instr.srcs):
                    replacement = available.get(src) \
                        if isinstance(src, Register) else None
                    if replacement is not None and _slot_accepts(
                            instr, slot, replacement):
                        new_srcs.append(replacement)
                        changed = True
                    else:
                        new_srcs.append(src)
                instr.srcs = tuple(new_srcs)
            # Kill mappings broken by this definition.
            dest = instr.dest
            if dest is not None:
                available.pop(dest, None)
                for key in [k for k, v in available.items() if v is dest]:
                    available.pop(key)
                # Record new copies.  Movs with width annotations are
                # deliberate assertions: leave their uses alone.
                if instr.op is Opcode.MOV and instr.value_bits is None \
                        and isinstance(instr.srcs[0], Register) \
                        and instr.srcs[0] is not dest:
                    available[dest] = instr.srcs[0]
                elif instr.op is Opcode.LI:
                    available[dest] = instr.srcs[0]
    return changed


def _slot_accepts(instr: Instruction, slot: int, replacement) -> bool:
    """May this operand slot hold the replacement operand?"""
    if isinstance(replacement, Register):
        return True
    op = instr.op
    # Memory bases and offsets, and shift amounts already immediate,
    # have structural constraints; be conservative with immediates.
    if op in MEMORY_OPS:
        return slot == 2 and op is Opcode.STORE
    if op in _IMMEDIATE_ANYWHERE:
        return True
    if op.kind in (OpKind.ARITH, OpKind.LOGICAL, OpKind.SHIFT,
                   OpKind.COMPARE, OpKind.BRANCH, OpKind.MOVE):
        return True
    return False


# ------------------------------------------------------------------- CSE
def local_cse(function: Function) -> bool:
    """Block-local value numbering over pure integer operations.

    Expression keys embed each operand's *version* (bumped on every
    redefinition), so a key only ever matches while its operands are
    unchanged; the stored result also remembers the version it was
    defined at, so reuse is refused once the result register has been
    overwritten.
    """
    changed = False
    for blk in function.blocks:
        version: dict[Register, int] = {}
        expressions: dict[tuple, tuple[Register, int]] = {}

        def key_of(instr: Instruction) -> tuple | None:
            if instr.op not in _FOLDERS or instr.dest is None:
                return None
            parts: list = [instr.op.name]
            for src in instr.srcs:
                if isinstance(src, Register):
                    parts.append(("r", src.name, version.get(src, 0)))
                else:
                    parts.append(("i", src.value))
            return tuple(parts)

        for idx, instr in enumerate(blk.instructions):
            key = key_of(instr)
            reused = False
            if key is not None:
                prior = expressions.get(key)
                if prior is not None:
                    prior_reg, prior_version = prior
                    if (version.get(prior_reg, 0) == prior_version
                            and prior_reg is not instr.dest):
                        blk.instructions[idx] = Instruction(
                            Opcode.MOV, dest=instr.dest, srcs=(prior_reg,),
                            role=instr.role, value_bits=instr.value_bits,
                        )
                        changed = True
                        reused = True
            dest = instr.dest
            if dest is not None:
                version[dest] = version.get(dest, 0) + 1
                if key is not None and not reused:
                    expressions[key] = (dest, version[dest])
    return changed


# ------------------------------------------------------------------- DCE
#: Opcodes that must never be deleted even when their result is dead.
_SIDE_EFFECTS = frozenset({
    Opcode.STORE, Opcode.FSTORE, Opcode.CALL, Opcode.PRINT, Opcode.FPRINT,
    Opcode.EXIT, Opcode.DETECT, Opcode.RET, Opcode.JMP, Opcode.BEQ,
    Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.PARAM,
    # Potentially trapping: removing them would hide a crash.
    Opcode.LOAD, Opcode.FLOAD, Opcode.DIV, Opcode.REM, Opcode.CVTFI,
})


def eliminate_dead_code(function: Function) -> bool:
    """Remove pure instructions whose results are never used."""
    changed = False
    liveness = Liveness(function)
    for blk in function.blocks:
        live_out = liveness.per_instruction_live_out(blk)
        keep: list[Instruction] = []
        for idx, instr in enumerate(blk.instructions):
            if instr.op in _SIDE_EFFECTS or instr.dest is None:
                keep.append(instr)
                continue
            if instr.dest in live_out[idx]:
                keep.append(instr)
                continue
            # Keep div/rem with immediate zero divisors (trap!), though
            # the side-effect set above already excludes div/rem.
            changed = True
        blk.instructions = keep
    return changed


# ------------------------------------------------------------------ driver
def optimize_function(function: Function, program: Program | None = None,
                      max_rounds: int = 4) -> Function:
    """Run the scalar optimisations to a fixed point (new function)."""
    fn = clone_function(function)
    for _ in range(max_rounds):
        changed = fold_constants(fn)
        changed |= propagate_copies(fn)
        changed |= local_cse(fn)
        changed |= eliminate_dead_code(fn)
        if not changed:
            break
    return fn


def optimize_program(program: Program) -> Program:
    """Apply -O2-style cleanup to every function."""
    return transform_program(
        program, lambda fn, prog: optimize_function(fn, prog)
    )
