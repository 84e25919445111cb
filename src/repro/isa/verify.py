"""Structural IR verifier.

Run after construction, after each protection pass, and after register
allocation.  Catches malformed IR early instead of deep inside the
simulator: arity mismatches, register-class confusion, dangling labels,
blocks without terminators, falling off the end of a function, and calls
that do not match their callee's signature.
"""

from __future__ import annotations

from ..errors import VerificationError
from ..obs.spans import span
from .function import Function
from .instruction import Instruction
from .opcodes import (FP_RESULT_OPS, FP_TO_INT_OPS, TERMINATOR_OPS, Opcode,
                      OpKind)
from .operands import FImm, Imm
from .program import Program
from .registers import Register


def verify_program(program: Program, require_physical: bool = False) -> None:
    """Raise :class:`VerificationError` on the first violation found."""
    with span("verify", functions=len(program.functions)):
        if program.entry not in program.functions:
            raise VerificationError(
                f"entry function {program.entry!r} missing")
        for fn in program:
            verify_function(fn, program=program,
                            require_physical=require_physical)


def verify_function(
    function: Function,
    program: Program | None = None,
    require_physical: bool = False,
) -> None:
    if not function.blocks:
        raise VerificationError(f"{function.name}: function has no blocks")
    labels = {blk.name for blk in function.blocks}
    if len(labels) != len(function.blocks):
        raise VerificationError(f"{function.name}: duplicate block labels")
    for idx, blk in enumerate(function.blocks):
        where = f"{function.name}/{blk.name}"
        if not blk.instructions:
            raise VerificationError(f"{where}: empty block")
        term = blk.instructions[-1]
        if not term.is_terminator:
            raise VerificationError(
                f"{where}: block does not end with a terminator "
                f"(ends with {term!r})"
            )
        last = len(blk.instructions) - 1
        for pos, instr in enumerate(blk.instructions):
            if pos != last and instr.op in TERMINATOR_OPS:
                raise VerificationError(
                    f"{where}: terminator {instr!r} not at end of block"
                )
            _verify_instruction(instr, where, labels, program, require_physical)
        if term.is_branch and idx == len(function.blocks) - 1:
            raise VerificationError(
                f"{where}: conditional branch in final block would fall "
                f"off the end of the function"
            )


def _class_error(reg: Register, want_float: bool, where: str,
                 what: str) -> VerificationError:
    want = "float" if want_float else "int"
    return VerificationError(
        f"{where}: {what} must be a {want} register, got {reg}")


def _verify_instruction(
    instr: Instruction,
    where: str,
    labels: set[str],
    program: Program | None,
    require_physical: bool,
) -> None:
    op = instr.op
    info = op.info
    kind = op.kind
    dest = instr.dest
    if info.num_srcs >= 0 and len(instr.srcs) != info.num_srcs:
        raise VerificationError(
            f"{where}: {op.name} expects {info.num_srcs} sources, "
            f"got {len(instr.srcs)} in {instr!r}"
        )
    if info.has_dest and kind is not OpKind.CALL and dest is None:
        raise VerificationError(f"{where}: {op.name} requires a destination")
    if not info.has_dest and dest is not None:
        raise VerificationError(f"{where}: {op.name} cannot have a destination")
    if require_physical:
        for reg in instr.registers():
            if reg.is_virtual:
                raise VerificationError(
                    f"{where}: virtual register {reg} after register allocation"
                )
    # Label checks.
    if kind is OpKind.BRANCH or kind is OpKind.JUMP:
        if instr.label not in labels:
            raise VerificationError(f"{where}: dangling label {instr.label!r}")
    elif instr.label is not None:
        raise VerificationError(f"{where}: {op.name} cannot carry a label")
    # Callee checks.
    if kind is OpKind.CALL:
        if instr.callee is None:
            raise VerificationError(f"{where}: call without callee")
        if program is not None:
            callee = program.functions.get(instr.callee)
            if callee is None:
                raise VerificationError(f"{where}: call to unknown {instr.callee!r}")
            if len(instr.srcs) != callee.num_params:
                raise VerificationError(
                    f"{where}: call to {instr.callee} with {len(instr.srcs)} "
                    f"args, expected {callee.num_params}"
                )
            if dest is not None and dest.is_float != callee.returns_float:
                raise _class_error(dest, callee.returns_float, where,
                                   f"result of call to {instr.callee}")
    _verify_register_classes(instr, where)


#: Kinds whose register sources must all be integer registers.
_INT_SOURCE_KINDS = (OpKind.ARITH, OpKind.LOGICAL, OpKind.SHIFT,
                     OpKind.COMPARE, OpKind.BRANCH)


def _verify_register_classes(instr: Instruction, where: str) -> None:
    op = instr.op
    kind = op.kind
    # Destination class.
    dest = instr.dest
    if dest is not None and kind is not OpKind.CALL and kind is not OpKind.PARAM:
        want_float = op in FP_RESULT_OPS and op not in FP_TO_INT_OPS
        if dest.is_float != want_float:
            raise _class_error(dest, want_float, where, "destination")
    # Source classes.
    if kind in _INT_SOURCE_KINDS:
        for src in instr.srcs:
            if isinstance(src, Register):
                if src.is_float:
                    raise _class_error(src, False, where,
                                       f"source of {op.name}")
            elif isinstance(src, FImm):
                raise VerificationError(f"{where}: float immediate in int op")
    elif op is Opcode.LOAD or op is Opcode.FLOAD:
        base, off = instr.srcs
        if base.is_float:
            raise _class_error(base, False, where, "load base")
        if not isinstance(off, Imm):
            raise VerificationError(f"{where}: load offset must be an immediate")
    elif op is Opcode.STORE or op is Opcode.FSTORE:
        base, off, value = instr.srcs
        if base.is_float:
            raise _class_error(base, False, where, "store base")
        if not isinstance(off, Imm):
            raise VerificationError(f"{where}: store offset must be an immediate")
        if isinstance(value, Register):
            if value.is_float != (op is Opcode.FSTORE):
                raise _class_error(value, op is Opcode.FSTORE, where,
                                   "store value")
        elif op is Opcode.FSTORE and not isinstance(value, FImm):
            raise VerificationError(f"{where}: fstore of non-float immediate")
    elif kind is OpKind.FP and op is not Opcode.CVTIF and op is not Opcode.FLI:
        for src in instr.srcs:
            if isinstance(src, Register) and not src.is_float:
                raise _class_error(src, True, where, f"source of {op.name}")
    elif op is Opcode.CVTIF:
        src = instr.srcs[0]
        if isinstance(src, Register) and src.is_float:
            raise _class_error(src, False, where, "cvtif source")
    elif op is Opcode.PRINT or op is Opcode.EXIT:
        src = instr.srcs[0]
        if isinstance(src, Register) and src.is_float:
            raise _class_error(src, False, where, f"{op.name} operand")
    elif op is Opcode.FPRINT:
        src = instr.srcs[0]
        if isinstance(src, Register) and not src.is_float:
            raise _class_error(src, True, where, "fprint operand")
    elif op is Opcode.PARAM:
        if not isinstance(instr.srcs[0], Imm):
            raise VerificationError(f"{where}: param index must be an immediate")
