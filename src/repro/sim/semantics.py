"""Opcode semantics as Python expression templates, shared by both engines.

Each format is a Python expression over the source operands ``{a}`` and
``{b}`` (``{M}`` is the 64-bit mask).  The block JIT
(:mod:`repro.sim.jit`) substitutes register locals and immediate
literals and emits one statement per instruction.  The interpreter
(:mod:`repro.sim.machine`) substitutes register-file reads and bound
immediates and compiles one step-closure factory per opcode and operand
shape at import time.  With one table the engines cannot disagree on
what an opcode computes; a wrong template is wrong in both, which is
why ``tests/test_sim_machine.py`` checks every template against
hand-written expected values.

Integer operands are read in one of three modes:

* ``RAW`` -- the register's 64-bit value as is;
* ``BIASED`` -- XORed with ``2**63``, which maps signed order onto
  unsigned order, so a signed compare costs one XOR per operand instead
  of a sign-extension ternary (only valid for comparisons);
* ``SEXT`` -- sign-extended to a Python int (SRA's shifted value).

An immediate is transformed the same way once, when the instruction is
compiled (:func:`imm_operand`); a register operand is wrapped in the
expression that transforms it at run time (:func:`reg_operand`).
"""

from __future__ import annotations

from ..isa.opcodes import Opcode
from ..isa.operands import MASK64, to_signed

_TWO63 = 1 << 63
_TWO64 = 1 << 64

RAW, BIASED, SEXT = "raw", "biased", "sext"

_SIGNED = (BIASED, BIASED)
_UNSIGNED = (RAW, RAW)

#: Integer ALU and compare ops: opcode -> (expression, operand modes).
#: DIV and REM are absent: their divide-by-zero trap and truncating
#: rounding need statements, not one expression.
INT_BINOPS = {
    Opcode.ADD: ("({a} + {b}) & {M}", _UNSIGNED),
    Opcode.SUB: ("({a} - {b}) & {M}", _UNSIGNED),
    Opcode.MUL: ("({a} * {b}) & {M}", _UNSIGNED),
    Opcode.AND: ("{a} & {b}", _UNSIGNED),
    Opcode.OR: ("{a} | {b}", _UNSIGNED),
    Opcode.XOR: ("{a} ^ {b}", _UNSIGNED),
    Opcode.SHL: ("({a} << ({b} & 63)) & {M}", _UNSIGNED),
    Opcode.SHR: ("{a} >> ({b} & 63)", _UNSIGNED),
    Opcode.SRA: ("({a} >> ({b} & 63)) & {M}", (SEXT, RAW)),
    Opcode.CMPEQ: ("1 if {a} == {b} else 0", _UNSIGNED),
    Opcode.CMPNE: ("1 if {a} != {b} else 0", _UNSIGNED),
    Opcode.CMPLT: ("1 if {a} < {b} else 0", _SIGNED),
    Opcode.CMPLE: ("1 if {a} <= {b} else 0", _SIGNED),
    Opcode.CMPGT: ("1 if {a} > {b} else 0", _SIGNED),
    Opcode.CMPGE: ("1 if {a} >= {b} else 0", _SIGNED),
    Opcode.CMPLTU: ("1 if {a} < {b} else 0", _UNSIGNED),
    Opcode.CMPGEU: ("1 if {a} >= {b} else 0", _UNSIGNED),
}

#: Integer unary ops: opcode -> expression over ``{a}`` (read raw).
INT_UNOPS = {
    Opcode.NEG: "(-{a}) & {M}",
    Opcode.NOT: "(~{a}) & {M}",
}

#: Conditional branches: opcode -> (taken condition, operand modes).
BRANCHES = {
    Opcode.BEQ: ("{a} == {b}", _UNSIGNED),
    Opcode.BNE: ("{a} != {b}", _UNSIGNED),
    Opcode.BLT: ("{a} < {b}", _SIGNED),
    Opcode.BGE: ("{a} >= {b}", _SIGNED),
}

#: Float arithmetic: opcode -> expression.  ``_fdiv`` is
#: :func:`repro.sim.machine._fop_div` (IEEE division by zero).
FLOAT_BINOPS = {
    Opcode.FADD: "{a} + {b}",
    Opcode.FSUB: "{a} - {b}",
    Opcode.FMUL: "{a} * {b}",
    Opcode.FDIV: "_fdiv({a}, {b})",
}

#: Float unary ops: opcode -> expression over a float register.
FLOAT_UNOPS = {
    Opcode.FNEG: "-{a}",
}

#: Float compares into an integer register: opcode -> expression over
#: two float registers.
FLOAT_COMPARES = {
    Opcode.FCMPEQ: "1 if {a} == {b} else 0",
    Opcode.FCMPLT: "1 if {a} < {b} else 0",
    Opcode.FCMPLE: "1 if {a} <= {b} else 0",
}


def reg_operand(expr: str, mode: str) -> str:
    """The expression reading register expression ``expr`` in ``mode``."""
    if mode == BIASED:
        return f"({expr} ^ {_TWO63})"
    if mode == SEXT:
        return f"(({expr} - {_TWO64}) if {expr} >= {_TWO63} else {expr})"
    return expr


def imm_operand(value: int, mode: str) -> int:
    """An immediate's value as an operand in ``mode``."""
    if mode == BIASED:
        return (value & MASK64) ^ _TWO63
    if mode == SEXT:
        return to_signed(value)
    return value
