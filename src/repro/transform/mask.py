"""MASK: enforcing statically known invariants (paper Section 5).

The known-zero-bits analysis proves, for some registers at some program
points, that most bits must be zero on any fault-free execution.  MASK
re-asserts those invariants at run time with ``and`` instructions, so a
transient fault that flips a provably-dead bit is squashed before it can
steer a branch or corrupt an address -- without any redundant
computation at all.

Following the paper's adpcmdec example (Figure 6), invariants are
enforced at natural loop headers for registers that are live around the
loop: a single ``and r, r, keep`` there cleans the register once per
iteration, protecting the whole loop body downstream.
"""

from __future__ import annotations

import weakref
from typing import Callable

from ..analysis.cfg import CFG
from ..analysis.knownbits import KnownBits
from ..analysis.liveness import Liveness
from ..analysis.loops import find_loops
from ..isa.function import Function
from ..isa.instruction import Instruction, Role
from ..isa.opcodes import Opcode
from ..isa.operands import Imm, MASK64
from ..isa.program import Program
from ..isa.registers import Register
from .base import clone_function, transform_program

#: Only enforce invariants worth enforcing: at least this many bits of
#: the register must be provably zero (the paper's example pins 63).
MIN_MASKED_BITS = 16


def _popcount(value: int) -> int:
    return bin(value).count("1")


#: Per source function: each loop header's live virtual integer
#: registers with their known-zero masks at entry.  Every technique
#: built from one function shares them.
_LOOP_INVARIANTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def loop_invariants(function: Function
                    ) -> dict[str, tuple[tuple[Register, int], ...]]:
    """Header name -> ``(register, known-zero mask)`` pairs, analysed once
    per function object.  Registers survive around the loop: they are
    live into the header both from outside and along the back edge."""
    facts = _LOOP_INVARIANTS.get(function)
    if facts is None:
        cfg = CFG(function)
        knownbits = KnownBits(function, cfg)
        liveness = Liveness(function, cfg)
        facts = _LOOP_INVARIANTS[function] = {}
        for loop in find_loops(function, cfg):
            if loop.header in facts:
                continue
            live = sorted(liveness.live_in[loop.header],
                          key=lambda r: (r.cls, r.index))
            facts[loop.header] = tuple(
                (reg, knownbits.known_zero_at_entry(loop.header, reg))
                for reg in live if reg.is_virtual and reg.is_int)
    return facts


def mask_function(
    function: Function,
    program: Program,
    skip: Callable[[Register], bool] | None = None,
    min_bits: int = MIN_MASKED_BITS,
) -> Function:
    """Insert invariant-enforcement ``and`` instructions in one function.

    ``skip`` suppresses masking of specific registers; the TRUMP/MASK
    hybrid uses it to leave TRUMP-protected chains alone (Section 6.2:
    instructions already tolerant of faults need no masking).
    """
    new_fn = clone_function(function)
    for header_name, live in loop_invariants(function).items():
        header = new_fn.block(header_name)
        for reg, known_zero in live:
            if skip is not None and skip(reg):
                continue
            if _popcount(known_zero) < min_bits:
                continue
            keep = MASK64 & ~known_zero
            header.instructions.insert(
                0,
                Instruction(
                    Opcode.AND, dest=reg, srcs=(reg, Imm(keep)),
                    role=Role.MASK,
                ),
            )
    return new_fn


def apply_mask(
    program: Program,
    skip_by_function: dict[str, Callable[[Register], bool]] | None = None,
    min_bits: int = MIN_MASKED_BITS,
) -> Program:
    """Apply MASK to every function of a program."""

    def transform(fn: Function, prog: Program) -> Function:
        skip = (skip_by_function or {}).get(fn.name)
        return mask_function(fn, prog, skip=skip, min_bits=min_bits)

    return transform_program(program, transform)


def count_masks(program: Program) -> int:
    """Number of MASK instructions present (for tests and reports)."""
    return sum(
        1
        for fn in program
        for instr in fn.instructions()
        if instr.role is Role.MASK
    )
