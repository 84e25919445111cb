"""Textual assembly printer (the inverse of :mod:`repro.isa.parser`).

The format round-trips: ``parse_program(print_program(p))`` reconstructs
a structurally equal program, including instruction roles and value-bits
annotations (emitted as ``;`` suffix comments).
"""

from __future__ import annotations

from .block import BasicBlock
from .function import Function
from .instruction import Instruction, Role
from .opcodes import LOAD_OPS, STORE_OPS, OpKind
from .operands import FImm, Imm
from .program import Program
from .registers import Register


def _fmt_operand(operand) -> str:
    if isinstance(operand, Register):
        return operand.name
    if isinstance(operand, Imm):
        return str(operand.signed)
    if isinstance(operand, FImm):
        return repr(operand.value)
    raise TypeError(f"unprintable operand: {operand!r}")


def _annotations(instr: Instruction) -> str:
    parts = []
    if instr.role is not Role.ORIGINAL:
        parts.append(f"role={instr.role.value}")
    if instr.value_bits is not None:
        parts.append(f"bits={instr.value_bits}")
    if not parts:
        return ""
    return "    ; " + " ".join(parts)


def format_instruction(instr: Instruction) -> str:
    """One instruction as assembly text (without trailing annotations)."""
    op = instr.op
    kind = op.kind
    name = op.info.mnemonic
    if op in LOAD_OPS:
        base, off = instr.srcs
        return f"{name} {instr.dest.name}, [{_fmt_operand(base)} + {_fmt_operand(off)}]"
    if op in STORE_OPS:
        base, off, value = instr.srcs
        return f"{name} [{_fmt_operand(base)} + {_fmt_operand(off)}], {_fmt_operand(value)}"
    if kind == OpKind.BRANCH:
        a, b = instr.srcs
        return f"{name} {_fmt_operand(a)}, {_fmt_operand(b)}, {instr.label}"
    if kind == OpKind.JUMP:
        return f"{name} {instr.label}"
    if kind == OpKind.CALL:
        args = ", ".join(_fmt_operand(s) for s in instr.srcs)
        if instr.dest is not None:
            return f"{name} {instr.dest.name}, {instr.callee}({args})"
        return f"{name} {instr.callee}({args})"
    if kind == OpKind.RET:
        if instr.srcs:
            return f"{name} {_fmt_operand(instr.srcs[0])}"
        return name
    if kind == OpKind.NOP:
        return name
    parts = []
    if instr.dest is not None:
        parts.append(instr.dest.name)
    parts.extend(_fmt_operand(s) for s in instr.srcs)
    if parts:
        return f"{name} " + ", ".join(parts)
    return name


def print_instruction(instr: Instruction) -> str:
    """Instruction text including role / value-bits annotations."""
    return format_instruction(instr) + _annotations(instr)


def print_block(block: BasicBlock, indent: str = "    ",
                annotate=None) -> str:
    """``annotate``, when given, is called as ``annotate(index, instr)``
    and its return value prefixes that instruction's line -- a gutter
    hook used by reporting layers (e.g. the atlas heatmap).  The label
    line is not annotated and ``annotate=None`` keeps the classic
    round-trippable output."""
    lines = [f"{block.name}:"]
    if annotate is None:
        lines.extend(indent + print_instruction(i)
                     for i in block.instructions)
    else:
        lines.extend(annotate(index, instr) + indent
                     + print_instruction(instr)
                     for index, instr in enumerate(block.instructions))
    return "\n".join(lines)


def print_function(function: Function, annotate=None) -> str:
    header = f"func {function.name}({function.num_params})"
    if any(function.param_is_float):
        flags = "".join("f" if f else "i" for f in function.param_is_float)
        header += f" [{flags}]"
    if function.returns_float:
        header += " -> float"
    header += ":"
    parts = [header]
    if annotate is None:
        parts.extend(print_block(blk) for blk in function.blocks)
    else:
        parts.extend(
            print_block(blk, annotate=(
                lambda index, instr, _name=blk.name:
                annotate(_name, index, instr)))
            for blk in function.blocks)
    return "\n".join(parts)


def print_program(program: Program, annotate=None) -> str:
    lines = []
    for var in program.globals.values():
        keyword = "globalf" if var.is_float else "global"
        decl = f"{keyword} {var.name}[{var.num_words}]"
        if var.init:
            decl += " = " + ", ".join(repr(v) if var.is_float else str(v)
                                      for v in var.init)
        lines.append(decl)
    if program.entry != "main":
        lines.append(f"entrypoint {program.entry}")
    if lines:
        lines.append("")
    for fn in program:
        if annotate is None:
            lines.append(print_function(fn))
        else:
            lines.append(print_function(fn, annotate=(
                lambda block, index, instr, _name=fn.name:
                annotate(_name, block, index, instr))))
        lines.append("")
    return "\n".join(lines)
