"""TRUMP: Triple Redundancy Using Multiplication Protection (Section 4).

One shadow per register, but AN-encoded (``rt = A * r`` with ``A = 3``),
so two stored versions carry enough information to both detect *and*
repair a single-bit fault: on a mismatch, divisibility of the codeword
by ``A`` identifies the corrupted copy (Figure 4).

TRUMP is not universally applicable (Section 4.3): AN-codes do not
propagate through logical operations, and values must provably stay
small enough that the codeword cannot overflow.  The applicability
analysis below computes, per register, whether TRUMP may protect it;
the rest of the program is left unprotected (pure TRUMP) or handed to
SWIFT-R (hybrid, Section 6.1).
"""

from __future__ import annotations

import weakref

from ..analysis.valuerange import UNBOUNDED, ValueBounds
from ..isa.function import Function
from ..isa.instruction import Instruction
from ..isa.opcodes import ANTransparency, Opcode
from ..isa.program import Program
from ..isa.registers import Register
from .base import transform_program
from .engine import (
    DuplicationEngine,
    Form,
    ProtectionConfig,
    REENCODE_OPS,
    ShadowAssignment,
)

#: ``ValueBounds.bits`` per source function, shared by every technique
#: built from it (passes return new functions, never rewrite their
#: input); a transient function takes its own along when it dies.
_VALUE_BOUNDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def value_bounds(function: Function) -> dict[Register, int]:
    """``function``'s value bounds, analysed once per function object."""
    bits = _VALUE_BOUNDS.get(function)
    if bits is None:
        bits = _VALUE_BOUNDS[function] = ValueBounds(function).bits
    return bits


def compute_an_candidates(
    function: Function,
    config: ProtectionConfig | None = None,
    hybrid: bool = False,
) -> set[Register]:
    """Registers TRUMP may protect in ``function``.

    A register qualifies when (a) the value-bound analysis proves its
    codeword cannot overflow, and (b) every definition can produce an
    AN-coded companion: an AN-transparent operation over AN-codable
    operands, or a re-encoding point (load/param/call/FP-crossing)
    where the shadow is rebuilt by multiplication.

    In hybrid mode operands need not themselves be AN-codable (SWIFT-R
    redundancy is converted at the transition, Figure 7), but a register
    consumed by a non-AN instruction must stay SWIFT-R, because the
    reverse conversion would require expensive division -- the paper's
    rule that the TRUMP segment must contain the *end* of the chain.
    """
    config = config or ProtectionConfig()
    bits = value_bounds(function)
    defs: dict[Register, list[Instruction]] = {}
    for instr in function.instructions():
        dest = instr.dest
        if dest is not None and dest.is_virtual and dest.is_int:
            defs.setdefault(dest, []).append(instr)
    limit = 63 - config.an_power  # as in ``ValueBounds.fits_an_code``
    candidates = {reg for reg in defs if bits.get(reg, UNBOUNDED) <= limit}
    changed = True
    while changed:
        changed = False
        for reg in list(candidates):
            if not all(_def_is_an_capable(d, candidates, hybrid)
                       for d in defs[reg]):
                candidates.discard(reg)
                changed = True
        if hybrid:
            # Use constraint: sources of a SWIFT-R-form computation must
            # themselves be SWIFT-R (no TRUMP->SWIFT-R conversion).
            for instr in function.instructions():
                dest = instr.dest
                if dest is None or not (dest.is_virtual and dest.is_int):
                    continue
                if dest in candidates or instr.op in REENCODE_OPS:
                    continue
                for src in instr.source_registers():
                    if src in candidates:
                        candidates.discard(src)
                        changed = True
    return candidates


def _def_is_an_capable(
    instr: Instruction, candidates: set[Register], hybrid: bool
) -> bool:
    if instr.op in REENCODE_OPS:
        return True
    transparency = instr.op.info.an
    if transparency is ANTransparency.NONE:
        return False
    reg_srcs = list(instr.source_registers())
    if transparency is ANTransparency.CONST:
        # Codewords survive multiplication by a constant only: exactly
        # one register source, the other a compile-time immediate, and
        # for shifts the *amount* must be the immediate.
        if len(reg_srcs) != 1:
            return False
        if instr.op is Opcode.SHL and isinstance(instr.srcs[1], Register):
            return False
    if hybrid:
        return True
    return all(src in candidates for src in reg_srcs)


def trump_assignment(
    function: Function,
    config: ProtectionConfig | None = None,
    hybrid: bool = False,
) -> ShadowAssignment:
    """Shadow assignment for pure TRUMP or the TRUMP/SWIFT-R hybrid."""
    candidates = compute_an_candidates(function, config, hybrid)
    assignment = ShadowAssignment()
    for instr in function.instructions():
        for reg in instr.registers():
            if not (reg.is_virtual and reg.is_int):
                continue
            if reg in candidates:
                assignment.form[reg] = Form.AN
            elif hybrid:
                assignment.form[reg] = Form.TMR
            else:
                assignment.form[reg] = Form.NONE
    return assignment


def trump_function(
    function: Function,
    program: Program,
    config: ProtectionConfig | None = None,
    hybrid: bool = False,
) -> Function:
    """Apply TRUMP (or TRUMP/SWIFT-R when ``hybrid``) to one function."""
    assignment = trump_assignment(function, config, hybrid)
    return DuplicationEngine(function, assignment, config).run()


def apply_trump(
    program: Program, config: ProtectionConfig | None = None
) -> Program:
    """Apply pure TRUMP to every function of a program."""
    return transform_program(
        program, lambda fn, prog: trump_function(fn, prog, config)
    )


def coverage_report(function: Function,
                    config: ProtectionConfig | None = None) -> dict[str, int]:
    """How many registers/instructions TRUMP can protect (for eval)."""
    candidates = compute_an_candidates(function, config)
    total_regs = 0
    total_defs = 0
    covered_defs = 0
    seen: set[Register] = set()
    for instr in function.instructions():
        dest = instr.dest
        if dest is not None and dest.is_virtual and dest.is_int:
            total_defs += 1
            if dest in candidates:
                covered_defs += 1
            if dest not in seen:
                seen.add(dest)
                total_regs += 1
    return {
        "registers": total_regs,
        "an_registers": len(candidates),
        "definitions": total_defs,
        "an_definitions": covered_defs,
    }
