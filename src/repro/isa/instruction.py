"""The three-address :class:`Instruction` and its provenance metadata.

Every instruction records a :class:`Role` describing *why* it exists:
original program instruction, redundant copy inserted by a protection
pass, check, vote, recovery code, mask, conversion, or register-allocator
frame/spill traffic.  Roles drive both the evaluation (e.g. counting
protection overhead) and correctness rules (spill traffic must never be
validated like program stores; paper Section 2.2 forbids adding loads
and stores that perform I/O, while frame traffic goes to the ECC-protected
stack and is exempt).
"""

from __future__ import annotations

import enum

from .opcodes import TERMINATOR_OPS, Opcode, OpKind
from .operands import FImm, Imm, Operand
from .registers import Register


class Role(enum.Enum):
    """Provenance of an instruction."""

    ORIGINAL = "orig"        # came from the source program
    REDUNDANT = "dup"        # first redundant copy (SWIFT / SWIFT-R / TRUMP)
    REDUNDANT2 = "dup2"      # second redundant copy (SWIFT-R only)
    COPY = "copy"            # replication move after load/call (mov r' = r)
    CHECK = "check"          # comparison guarding an output boundary
    VOTE = "vote"            # SWIFT-R majority-voting sequence
    RECOVERY = "recover"     # TRUMP cold-path recovery sequence
    MASK = "mask"            # MASK invariant-enforcement instruction
    CONVERT = "convert"      # SWIFT-R -> TRUMP redundancy conversion
    FRAME = "frame"          # prologue/epilogue stack adjustment
    SPILL = "spill"          # register-allocator spill load/store


#: Roles whose instructions were added by a protection pass.
PROTECTION_ROLES = frozenset(
    {
        Role.REDUNDANT,
        Role.REDUNDANT2,
        Role.COPY,
        Role.CHECK,
        Role.VOTE,
        Role.RECOVERY,
        Role.MASK,
        Role.CONVERT,
    }
)

#: Roles of repair code: SWIFT-R's votes and TRUMP's recovery sequences.
REPAIR_ROLES = frozenset({Role.VOTE, Role.RECOVERY})


class Instruction:
    """One three-address instruction.

    Attributes:
        op: the :class:`Opcode`.
        dest: destination register, or ``None``.
        srcs: tuple of source operands (registers and immediates).
        label: branch/jump target block name, for control-flow opcodes.
        callee: called function name, for ``CALL``.
        role: provenance (see :class:`Role`).
        value_bits: optional upper bound on the number of significant bits
            of the *result* (attached by the mini-C code generator from
            type information; e.g. a load of a C ``int`` carries 32).
            TRUMP's range analysis consumes this, mirroring the paper's
            observation that 32-bit data on a 64-bit machine leaves spare
            bits for AN-encoding.
        source_line: mini-C source line for diagnostics.
    """

    __slots__ = ("op", "dest", "srcs", "label", "callee", "role",
                 "value_bits", "source_line")

    def __init__(
        self,
        op: Opcode,
        dest: Register | None = None,
        srcs: tuple[Operand, ...] = (),
        label: str | None = None,
        callee: str | None = None,
        role: Role = Role.ORIGINAL,
        value_bits: int | None = None,
        source_line: int = 0,
    ) -> None:
        self.op = op
        self.dest = dest
        self.srcs = tuple(srcs)
        self.label = label
        self.callee = callee
        self.role = role
        self.value_bits = value_bits
        self.source_line = source_line

    # ------------------------------------------------------------------ reads
    def source_registers(self) -> list[Register]:
        """Registers read by this instruction."""
        return [src for src in self.srcs if isinstance(src, Register)]

    def registers(self) -> list[Register]:
        """All registers mentioned (sources first, then dest)."""
        regs = [src for src in self.srcs if isinstance(src, Register)]
        if self.dest is not None:
            regs.append(self.dest)
        return regs

    # ------------------------------------------------------------- predicates
    @property
    def is_terminator(self) -> bool:
        return self.op in TERMINATOR_OPS

    @property
    def is_branch(self) -> bool:
        return self.op.kind == OpKind.BRANCH

    @property
    def is_call(self) -> bool:
        return self.op is Opcode.CALL

    @property
    def is_output(self) -> bool:
        """True for instructions at the program's output boundary."""
        return self.op.kind == OpKind.IO

    @property
    def writes_memory(self) -> bool:
        return self.op.kind in (OpKind.STORE,) or self.op is Opcode.FSTORE

    @property
    def reads_memory(self) -> bool:
        return self.op.kind == OpKind.LOAD or self.op is Opcode.FLOAD

    @property
    def is_protection(self) -> bool:
        return self.role in PROTECTION_ROLES

    # ----------------------------------------------------------------- rewrite
    def replace_sources(self, mapping: dict[Register, Operand]) -> None:
        """Rewrite source registers in place according to ``mapping``."""
        if not self.srcs:
            return
        self.srcs = tuple(
            mapping.get(src, src) if isinstance(src, Register) else src
            for src in self.srcs
        )

    def clone(self) -> "Instruction":
        """A shallow copy (operands are immutable / interned)."""
        return Instruction(
            self.op,
            dest=self.dest,
            srcs=self.srcs,
            label=self.label,
            callee=self.callee,
            role=self.role,
            value_bits=self.value_bits,
            source_line=self.source_line,
        )

    # ------------------------------------------------------------------- debug
    def __repr__(self) -> str:
        from .printer import format_instruction

        return format_instruction(self)

    def __eq__(self, other: object) -> bool:
        """Structural equality (used by round-trip tests)."""
        if not isinstance(other, Instruction):
            return NotImplemented
        return (
            self.op is other.op
            and self.dest == other.dest
            and self.srcs == other.srcs
            and self.label == other.label
            and self.callee == other.callee
        )

    # Identity hashing: instructions are mutable nodes in the IR, and
    # analyses key maps by *instruction instance*, not by structure.
    __hash__ = object.__hash__


def make_mov(dest: Register, src: Register, role: Role) -> Instruction:
    """A register-to-register move of the appropriate class."""
    op = Opcode.FMOV if dest.is_float else Opcode.MOV
    return Instruction(op, dest=dest, srcs=(src,), role=role)


def make_li(dest: Register, value: int, role: Role = Role.ORIGINAL) -> Instruction:
    return Instruction(Opcode.LI, dest=dest, srcs=(Imm(value),), role=role)


def make_fli(dest: Register, value: float, role: Role = Role.ORIGINAL) -> Instruction:
    return Instruction(Opcode.FLI, dest=dest, srcs=(FImm(value),), role=role)
