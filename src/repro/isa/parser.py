"""Assembly-text parser (the inverse of :mod:`repro.isa.printer`).

Grammar (line oriented; ``#`` starts a full-line comment, ``;`` starts a
trailing annotation comment carrying ``role=``/``bits=`` metadata)::

    program   := (global | entrypoint | function)*
    global    := ("global" | "globalf") NAME "[" INT "]" ("=" value ("," value)*)?
    function  := "func" NAME "(" INT ")" flags? ("->" "float")? ":" block+
    flags     := "[" [if]+ "]"
    block     := LABEL ":" instr*
"""

from __future__ import annotations

import re

from ..errors import ParseError
from .function import Function
from .instruction import Instruction, Role
from .opcodes import (
    LOAD_OPS,
    MNEMONIC_TO_OPCODE,
    STORE_OPS,
    Opcode,
    OpKind,
)
from .operands import FImm, Imm, Operand
from .program import Program
from .registers import parse_register

_MEM_RE = re.compile(r"\[\s*(\S+)\s*\+\s*(-?\d+)\s*\]")
_CALL_RE = re.compile(r"^(?:(\S+)\s*,\s*)?([A-Za-z_][\w]*)\((.*)\)$")
_GLOBAL_RE = re.compile(
    r"^(global|globalf)\s+([A-Za-z_][\w]*)\s*\[\s*(\d+)\s*\]\s*(?:=\s*(.+))?$"
)
_FUNC_RE = re.compile(
    r"^func\s+([A-Za-z_][\w.]*)\s*\(\s*(\d+)\s*\)"
    r"(?:\s*\[([if]+)\])?(?:\s*->\s*float)?\s*:\s*$"
)

_ROLE_BY_VALUE = {role.value: role for role in Role}


def _parse_operand(text: str) -> Operand:
    text = text.strip()
    if not text:
        raise ValueError("empty operand")
    first = text[0]
    if first.isdigit() or first == "-":
        if "." in text or "e" in text or "E" in text or text in ("inf", "-inf"):
            return FImm(float(text))
        return Imm(int(text))
    return parse_register(text)


def parse_instruction(text: str, line: int = 0) -> Instruction:
    """Parse one instruction line (annotations allowed)."""
    role = Role.ORIGINAL
    value_bits: int | None = None
    if ";" in text:
        text, annotation = text.split(";", 1)
        for token in annotation.split():
            if token.startswith("role="):
                try:
                    role = _ROLE_BY_VALUE[token[5:]]
                except KeyError:
                    raise ParseError(f"unknown role {token[5:]!r}", line)
            elif token.startswith("bits="):
                value_bits = int(token[5:])
    text = text.strip()
    mnemonic, _, rest = text.partition(" ")
    rest = rest.strip()
    op = MNEMONIC_TO_OPCODE.get(mnemonic)
    if op is None:
        raise ParseError(f"unknown mnemonic {mnemonic!r}", line)
    try:
        instr = _parse_body(op, rest)
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad instruction {text!r}: {exc}", line) from exc
    instr.role = role
    instr.value_bits = value_bits
    instr.source_line = line
    return instr


def _split_commas(text: str) -> list[str]:
    return [part.strip() for part in text.split(",")] if text else []


def _parse_body(op: Opcode, rest: str) -> Instruction:
    kind = op.kind
    if op in LOAD_OPS:
        dest_text, mem_text = rest.split(",", 1)
        match = _MEM_RE.search(mem_text)
        if not match:
            raise ValueError("expected [base + offset]")
        base = parse_register(match.group(1))
        return Instruction(op, dest=parse_register(dest_text.strip()),
                           srcs=(base, Imm(int(match.group(2)))))
    if op in STORE_OPS:
        match = _MEM_RE.search(rest)
        if not match:
            raise ValueError("expected [base + offset]")
        base = parse_register(match.group(1))
        value_text = rest[match.end():].lstrip(", ").strip()
        return Instruction(op, srcs=(base, Imm(int(match.group(2))),
                                     _parse_operand(value_text)))
    if kind == OpKind.BRANCH:
        a, b, label = _split_commas(rest)
        return Instruction(op, srcs=(_parse_operand(a), _parse_operand(b)),
                           label=label)
    if kind == OpKind.JUMP:
        return Instruction(op, label=rest.strip())
    if kind == OpKind.CALL:
        match = _CALL_RE.match(rest)
        if not match:
            raise ValueError("expected call [dest,] name(args)")
        dest_text, callee, args_text = match.groups()
        dest = parse_register(dest_text) if dest_text else None
        srcs = tuple(_parse_operand(a) for a in _split_commas(args_text))
        return Instruction(op, dest=dest, srcs=srcs, callee=callee)
    if kind == OpKind.RET:
        if rest:
            return Instruction(op, srcs=(_parse_operand(rest),))
        return Instruction(op)
    if kind == OpKind.NOP:
        return Instruction(op)
    parts = _split_commas(rest)
    if op.info.has_dest:
        dest = parse_register(parts[0])
        srcs = tuple(_parse_operand(p) for p in parts[1:])
        return Instruction(op, dest=dest, srcs=srcs)
    return Instruction(op, srcs=tuple(_parse_operand(p) for p in parts))


def parse_program(text: str) -> Program:
    """Parse a full program from assembly text."""
    program = Program()
    function: Function | None = None
    block = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        match = _GLOBAL_RE.match(stripped)
        if match:
            keyword, name, words, init_text = match.groups()
            is_float = keyword == "globalf"
            init: list[int | float] = []
            if init_text:
                for piece in init_text.split(","):
                    piece = piece.strip()
                    init.append(float(piece) if is_float else int(piece))
            program.add_global(name, int(words), init, is_float=is_float)
            continue
        if stripped.startswith("entrypoint "):
            program.entry = stripped.split()[1]
            continue
        match = _FUNC_RE.match(stripped)
        if match:
            name, nparams, flags = match.groups()
            num_params = int(nparams)
            param_is_float = None
            if flags:
                param_is_float = tuple(ch == "f" for ch in flags)
            function = Function(
                name,
                num_params,
                returns_float="-> float" in stripped,
                param_is_float=param_is_float,
            )
            program.add_function(function)
            block = None
            continue
        if stripped.endswith(":") and " " not in stripped:
            if function is None:
                raise ParseError("label outside function", line_no)
            block = function.add_block(stripped[:-1])
            continue
        if block is None:
            raise ParseError(f"instruction outside block: {stripped!r}", line_no)
        block.append(parse_instruction(stripped, line_no))
    for fn in program:
        fn.renumber_pool()
    program.assign_addresses()
    return program
