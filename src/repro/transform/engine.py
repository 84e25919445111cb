"""The shared duplication/validation engine behind SWIFT, SWIFT-R,
TRUMP, and the TRUMP/SWIFT-R hybrid.

All four transformations share a skeleton (paper Sections 2.2, 3.1, 4.2,
6.1): every computation instruction is replicated into shadow registers;
values entering from outside the redundant sphere (loads, incoming
parameters, call results, FP-domain crossings) are *copied* into the
shadows; and values leaving the sphere (store addresses and data, branch
operands, call arguments, return values, program output) are *validated*
against the shadows immediately before the escaping instruction.

What differs per technique is the per-register *form* of redundancy:

=========  =========================  ==============================
Form       shadow state               validation
=========  =========================  ==============================
``DMR``    one copy ``r'``            compare, branch to ``detect``
``TMR``    two copies ``r'``,``r''``  majority vote (repairs!)
``AN``     one codeword ``rt = A*r``  ``A*r == rt``; divisibility
                                      recovery (repairs!)
``NONE``   nothing                    nothing
=========  =========================  ==============================

The engine takes a :class:`ShadowAssignment` mapping each virtual
integer register to a form and runs the rewrite; the technique passes
(:mod:`repro.transform.swift` and friends) only choose assignments.
Floating-point registers are never assigned shadows (paper Section 7.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import TransformError
from ..isa.block import BasicBlock
from ..isa.function import Function
from ..isa.instruction import Instruction, Role, make_mov
from ..isa.opcodes import (
    LOAD_OPS,
    STORE_OPS,
    ANTransparency,
    Opcode,
    OpKind,
)
from ..isa.operands import Imm, MASK64, Operand
from ..isa.program import Program
from ..isa.registers import Register
from .base import clone_function_shell


class Form(enum.Enum):
    """Redundancy form of one register."""

    NONE = "none"
    DMR = "dmr"    # SWIFT: detection only
    TMR = "tmr"    # SWIFT-R: triple modular redundancy
    AN = "an"      # TRUMP: AN-coded shadow


class VoteStyle(enum.Enum):
    """How TMR majority votes are emitted (ablation in the benches)."""

    BRANCHING = "branching"      # 2 hot instructions, cold repair paths
    BRANCHFREE = "branchfree"    # 6 straight-line bitwise-majority ops


@dataclass(frozen=True)
class ProtectionConfig:
    """Tunables shared by the duplication-based passes."""

    vote_style: VoteStyle = VoteStyle.BRANCHING
    an_power: int = 2              # A = 2**an_power - 1; the paper uses A=3

    @property
    def an_factor(self) -> int:
        return (1 << self.an_power) - 1


@dataclass
class ShadowAssignment:
    """Form and shadow registers for every protected register."""

    form: dict[Register, Form] = field(default_factory=dict)
    shadow1: dict[Register, Register] = field(default_factory=dict)
    shadow2: dict[Register, Register] = field(default_factory=dict)

    def form_of(self, reg: Register) -> Form:
        return self.form.get(reg, Form.NONE)


def uniform_assignment(function: Function, form: Form) -> ShadowAssignment:
    """Assign the same form to every virtual integer register."""
    assignment = ShadowAssignment()
    regs: set[Register] = set()
    for instr in function.instructions():
        for reg in instr.registers():
            if reg.is_virtual and reg.is_int:
                regs.add(reg)
    for reg in regs:
        assignment.form[reg] = form
    return assignment


#: Opcodes whose integer destination enters the program from outside the
#: sphere of replication and must be copied into shadows afterwards.
REENCODE_OPS = frozenset(
    {
        Opcode.LOAD,
        Opcode.PARAM,
        Opcode.CALL,
        Opcode.CVTFI,
        Opcode.FCMPEQ,
        Opcode.FCMPLT,
        Opcode.FCMPLE,
    }
)

#: Integer output-boundary opcodes: their operand is validated (and
#: repaired) before it leaves the sphere of replication.
_CHECKED_OUTPUT_OPS = frozenset({Opcode.PRINT, Opcode.EXIT})


class _Emitter:
    """Streams instructions into a new function, supporting block splits
    with cold (rarely executed) repair paths appended after the hot code.
    """

    def __init__(self, out: Function) -> None:
        self.out = out
        self.current: BasicBlock | None = None
        self._cold: list[BasicBlock] = []

    def open(self, name: str) -> None:
        self.current = self.out.add_block(name)

    def emit(self, instr: Instruction) -> Instruction:
        if self.current is None:
            raise TransformError("emitter has no open block")
        self.current.append(instr)
        return instr

    def split(self) -> str:
        """Terminate here implicitly and continue in a fresh block.

        The caller must have just emitted a conditional branch; the new
        block is its fallthrough.  Returns the new block's label.
        """
        label = self.out.new_label()
        self.open(label)
        return label

    def add_cold_group(self, blocks: list[BasicBlock]) -> None:
        """Blocks appended after all hot code, preserving internal order
        (internal fallthroughs stay adjacent)."""
        self._cold.extend(blocks)

    def new_cold_block(self, hint: str = "cold") -> BasicBlock:
        return BasicBlock(self.out.new_label(hint))

    def finish(self) -> None:
        self.out.blocks.extend(self._cold)
        self._cold = []


class DuplicationEngine:
    """Rewrites one function according to a shadow assignment."""

    def __init__(
        self,
        function: Function,
        assignment: ShadowAssignment,
        config: ProtectionConfig | None = None,
    ) -> None:
        self.source = function
        self.assignment = assignment
        self.config = config or ProtectionConfig()
        self.out = clone_function_shell(function)
        self.emitter = _Emitter(self.out)
        self._detect_label: str | None = None
        self._materialise_shadows()

    # ----------------------------------------------------------------- set-up
    def _materialise_shadows(self) -> None:
        pool = self.out.pool
        for reg, form in self.assignment.form.items():
            if form is Form.NONE:
                continue
            if reg not in self.assignment.shadow1:
                self.assignment.shadow1[reg] = pool.new_int()
            if form is Form.TMR and reg not in self.assignment.shadow2:
                self.assignment.shadow2[reg] = pool.new_int()

    # ------------------------------------------------------------------ public
    def run(self) -> Function:
        for blk in self.source.blocks:
            self.emitter.open(blk.name)
            for instr in blk.instructions:
                self._process(instr)
        self.emitter.finish()
        if self._detect_label is not None:
            detect_block = self.out.add_block(self._detect_label)
            detect_block.append(Instruction(Opcode.DETECT, role=Role.CHECK))
        return self.out

    # ------------------------------------------------------------- dispatcher
    def _process(self, instr: Instruction) -> None:
        op = instr.op
        kind = op.kind
        emit = self.emitter.emit
        if op in LOAD_OPS:
            self._validate_operand(instr.srcs[0])
            emit(instr.clone())
            if op is Opcode.LOAD:
                self._copy_into_shadows(instr.dest)
            return
        if op in STORE_OPS:
            self._validate_operand(instr.srcs[0])
            if op is Opcode.STORE:
                self._validate_operand(instr.srcs[2])
            emit(instr.clone())
            return
        if kind == OpKind.BRANCH:
            self._validate_operand(instr.srcs[0])
            self._validate_operand(instr.srcs[1])
            emit(instr.clone())
            return
        if kind == OpKind.CALL:
            for src in instr.srcs:
                self._validate_operand(src)
            emit(instr.clone())
            if instr.dest is not None and instr.dest.is_int:
                self._copy_into_shadows(instr.dest)
            return
        if kind == OpKind.RET:
            if instr.srcs:
                self._validate_operand(instr.srcs[0])
            emit(instr.clone())
            return
        if op in _CHECKED_OUTPUT_OPS:
            self._validate_operand(instr.srcs[0])
            emit(instr.clone())
            return
        if op is Opcode.PARAM:
            emit(instr.clone())
            if instr.dest.is_int:
                self._copy_into_shadows(instr.dest)
            return
        if op is Opcode.CVTIF:
            # Integer value escapes into the unprotected FP domain.
            self._validate_operand(instr.srcs[0])
            emit(instr.clone())
            return
        if op in REENCODE_OPS and instr.dest is not None and instr.dest.is_int:
            # FP compares / conversions produce integer values from the
            # unprotected domain: copy them into the shadows.
            emit(instr.clone())
            self._copy_into_shadows(instr.dest)
            return
        if instr.dest is not None and instr.dest.is_int:
            # Ordinary integer computation: replicate per the dest's form.
            emit(instr.clone())
            self._emit_redundant_computation(instr)
            return
        # FP computation, jumps, nops, detect: pass through untouched.
        emit(instr.clone())

    # ----------------------------------------------------- redundant compute
    def _emit_redundant_computation(self, instr: Instruction) -> None:
        dest = instr.dest
        form = self.assignment.form_of(dest)
        if form is Form.NONE:
            return
        if form in (Form.DMR, Form.TMR):
            self._emit_copy_clone(instr, self.assignment.shadow1, Role.REDUNDANT)
            if form is Form.TMR:
                self._emit_copy_clone(instr, self.assignment.shadow2,
                                      Role.REDUNDANT2)
            return
        self._emit_an_clone(instr)

    def _emit_copy_clone(
        self,
        instr: Instruction,
        shadow_map: dict[Register, Register],
        role: Role,
    ) -> None:
        clone = instr.clone()
        clone.role = role
        clone.dest = self._shadow_or_fail(instr.dest, shadow_map)
        clone.srcs = tuple(
            shadow_map.get(src, src) if isinstance(src, Register) else src
            for src in clone.srcs
        )
        self.emitter.emit(clone)

    def _shadow_or_fail(
        self, reg: Register, shadow_map: dict[Register, Register]
    ) -> Register:
        shadow = shadow_map.get(reg)
        if shadow is None:
            raise TransformError(f"no shadow register for {reg}")
        return shadow

    # ------------------------------------------------------------------- AN
    def _an_operand(self, operand: Operand) -> Operand:
        """The AN-coded version of an operand of a FULL-transparent op."""
        if isinstance(operand, Imm):
            return Imm((operand.signed * self.config.an_factor) & MASK64)
        form = self.assignment.form_of(operand)
        if form is Form.AN:
            return self.assignment.shadow1[operand]
        if form is Form.TMR:
            return self._convert_tmr_to_an(operand)
        raise TransformError(
            f"operand {operand} (form {form.value}) feeds an AN-coded "
            f"instruction but has no convertible redundancy"
        )

    def _convert_tmr_to_an(self, reg: Register) -> Register:
        """SWIFT-R -> TRUMP conversion (paper Figure 7): ``2*r' + r''``.

        Any single-bit fault in either SWIFT-R copy leaves the result
        indivisible by 3, so the conversion preserves detectability.
        Only valid for A = 3.
        """
        if self.config.an_factor != 3:
            raise TransformError(
                "TMR->AN conversion requires A = 3 (2*r' + r'')"
            )
        prime = self.assignment.shadow1[reg]
        second = self.assignment.shadow2[reg]
        tmp = self.out.pool.new_int()
        result = self.out.pool.new_int()
        self.emitter.emit(Instruction(
            Opcode.SHL, dest=tmp, srcs=(prime, Imm(1)), role=Role.CONVERT))
        self.emitter.emit(Instruction(
            Opcode.ADD, dest=result, srcs=(tmp, second), role=Role.CONVERT))
        return result

    def _emit_an_clone(self, instr: Instruction) -> None:
        """Emit the AN-coded companion of a computation instruction."""
        op = instr.op
        an_dest = self.assignment.shadow1[instr.dest]
        transparency = op.info.an
        if op is Opcode.LI:
            value = (instr.srcs[0].signed * self.config.an_factor) & MASK64
            self.emitter.emit(Instruction(
                Opcode.LI, dest=an_dest, srcs=(Imm(value),),
                role=Role.REDUNDANT))
            return
        if transparency is ANTransparency.FULL:
            srcs = tuple(
                self._an_operand(src) if isinstance(src, Register) else
                self._an_operand(src)
                for src in instr.srcs
            )
            self.emitter.emit(Instruction(
                op, dest=an_dest, srcs=srcs, role=Role.REDUNDANT))
            return
        if transparency is ANTransparency.CONST:
            # mul/shl by a compile-time constant: codeword times the same
            # constant.  Exactly one source is a register.
            srcs = []
            for src in instr.srcs:
                if isinstance(src, Register):
                    srcs.append(self._an_operand(src))
                else:
                    srcs.append(src)
            self.emitter.emit(Instruction(
                op, dest=an_dest, srcs=tuple(srcs), role=Role.REDUNDANT))
            return
        raise TransformError(
            f"{op.name} is not AN-transparent; assignment bug for "
            f"{instr.dest}"
        )

    def _emit_an_encode(self, value: Register, dest: Register, role: Role
                        ) -> None:
        """dest = A * value, via shift-and-subtract (paper Section 4.1)."""
        tmp = self.out.pool.new_int()
        self.emitter.emit(Instruction(
            Opcode.SHL, dest=tmp, srcs=(value, Imm(self.config.an_power)),
            role=role))
        self.emitter.emit(Instruction(
            Opcode.SUB, dest=dest, srcs=(tmp, value), role=role))

    # ---------------------------------------------------------------- copies
    def _copy_into_shadows(self, reg: Register) -> None:
        """Replicate an externally produced value into its shadows."""
        form = self.assignment.form_of(reg)
        if form is Form.NONE:
            return
        if form is Form.AN:
            self._emit_an_encode(reg, self.assignment.shadow1[reg], Role.COPY)
            return
        self.emitter.emit(
            make_mov(self.assignment.shadow1[reg], reg, Role.COPY))
        if form is Form.TMR:
            self.emitter.emit(
                make_mov(self.assignment.shadow2[reg], reg, Role.COPY))

    # ------------------------------------------------------------ validation
    def _validate_operand(self, operand: Operand) -> None:
        if not isinstance(operand, Register) or operand.is_float:
            return
        form = self.assignment.form_of(operand)
        if form is Form.NONE:
            return
        if form is Form.DMR:
            self._emit_detection_check(operand)
        elif form is Form.TMR:
            self._emit_vote(operand)
        else:
            self._emit_an_check(operand)

    # --- SWIFT ---------------------------------------------------------------
    def _emit_detection_check(self, reg: Register) -> None:
        """``bne r, r', faultDet`` (paper Figure 1)."""
        if self._detect_label is None:
            self._detect_label = self.out.new_label("faultdet")
        shadow = self.assignment.shadow1[reg]
        self.emitter.emit(Instruction(
            Opcode.BNE, srcs=(reg, shadow), label=self._detect_label,
            role=Role.CHECK))
        self.emitter.split()

    # --- SWIFT-R -------------------------------------------------------------
    def _emit_vote(self, reg: Register) -> None:
        if self.config.vote_style is VoteStyle.BRANCHFREE:
            self._emit_branchfree_vote(reg)
        else:
            self._emit_branching_vote(reg)

    def _emit_branchfree_vote(self, reg: Register) -> None:
        """Bitwise majority: ``maj = (a&b) | (a&c) | (b&c)``.

        Straight-line (no block splits) and corrects arbitrary multi-bit
        corruption of any single copy; costlier per vote than the
        branching style's hot path.
        """
        a = reg
        b = self.assignment.shadow1[reg]
        c = self.assignment.shadow2[reg]
        pool = self.out.pool
        t1, t2, t3, t4 = (pool.new_int() for _ in range(4))
        emit = self.emitter.emit
        emit(Instruction(Opcode.AND, dest=t1, srcs=(a, b), role=Role.VOTE))
        emit(Instruction(Opcode.AND, dest=t2, srcs=(a, c), role=Role.VOTE))
        emit(Instruction(Opcode.AND, dest=t3, srcs=(b, c), role=Role.VOTE))
        emit(Instruction(Opcode.OR, dest=t4, srcs=(t1, t2), role=Role.VOTE))
        emit(Instruction(Opcode.OR, dest=a, srcs=(t4, t3), role=Role.VOTE))
        # Repair the copies too so later votes stay meaningful.
        emit(make_mov(b, a, Role.VOTE))
        emit(make_mov(c, a, Role.VOTE))

    def _emit_branching_vote(self, reg: Register) -> None:
        """Majority vote with a fast path (2 hot instructions).

        Hot path (no fault): ``bne a, b`` falls through, then ``mov c = a``
        refreshes the third copy.  Cold paths use ``c`` as tie-breaker to
        repair whichever copy disagrees (paper Section 3.1).
        """
        a = reg
        b = self.assignment.shadow1[reg]
        c = self.assignment.shadow2[reg]
        emitter = self.emitter
        decide = emitter.new_cold_block("vote")
        fix_a = emitter.new_cold_block("vfixa")
        fix_b = emitter.new_cold_block("vfixb")
        emitter.emit(Instruction(
            Opcode.BNE, srcs=(a, b), label=decide.name, role=Role.VOTE))
        cont_label = emitter.split()
        # Hot continuation starts by refreshing c; the cold paths jump
        # back to this same label, and re-executing the mov is harmless
        # (all three copies agree after repair).
        emitter.emit(make_mov(c, a, Role.VOTE))
        # Cold: a != b, so c breaks the tie.
        decide.append(Instruction(Opcode.NOP, role=Role.VOTE))
        decide.append(Instruction(
            Opcode.BEQ, srcs=(a, c), label=fix_b.name, role=Role.VOTE))
        # fallthrough: a disagrees with both -> a is corrupt.
        fix_a.append(make_mov(a, b, Role.VOTE))
        fix_a.append(Instruction(Opcode.JMP, label=cont_label, role=Role.VOTE))
        fix_b.append(make_mov(b, a, Role.VOTE))
        fix_b.append(Instruction(Opcode.JMP, label=cont_label, role=Role.VOTE))
        emitter.add_cold_group([decide, fix_a, fix_b])

    # --- TRUMP -----------------------------------------------------------------
    def _emit_an_check(self, reg: Register) -> None:
        """``A*r == rt`` check with divisibility-based repair (Figures 4/5)."""
        shadow = self.assignment.shadow1[reg]
        pool = self.out.pool
        emitter = self.emitter
        a_value = self.config.an_factor
        encoded = pool.new_int()
        tmp = pool.new_int()
        emitter.emit(Instruction(
            Opcode.SHL, dest=tmp, srcs=(reg, Imm(self.config.an_power)),
            role=Role.CHECK))
        emitter.emit(Instruction(
            Opcode.SUB, dest=encoded, srcs=(tmp, reg), role=Role.CHECK))
        recover = emitter.new_cold_block("anrec")
        fix_shadow = emitter.new_cold_block("anfixt")
        emitter.emit(Instruction(
            Opcode.BNE, srcs=(encoded, shadow), label=recover.name,
            role=Role.CHECK))
        cont_label = emitter.split()
        # Cold recovery, paper Figure 4: if the codeword is divisible by
        # A the original copy was hit (restore it from the codeword);
        # otherwise the codeword was hit (re-encode from the original).
        remainder = pool.new_int()
        recover.append(Instruction(Opcode.NOP, role=Role.RECOVERY))
        recover.append(Instruction(
            Opcode.REM, dest=remainder, srcs=(shadow, Imm(a_value)),
            role=Role.RECOVERY))
        recover.append(Instruction(
            Opcode.BNE, srcs=(remainder, Imm(0)), label=fix_shadow.name,
            role=Role.RECOVERY))
        fix_orig = emitter.new_cold_block("anfixr")
        fix_orig.append(Instruction(
            Opcode.DIV, dest=reg, srcs=(shadow, Imm(a_value)),
            role=Role.RECOVERY))
        fix_orig.append(Instruction(
            Opcode.JMP, label=cont_label, role=Role.RECOVERY))
        tmp2 = pool.new_int()
        fix_shadow.append(Instruction(
            Opcode.SHL, dest=tmp2, srcs=(reg, Imm(self.config.an_power)),
            role=Role.RECOVERY))
        fix_shadow.append(Instruction(
            Opcode.SUB, dest=shadow, srcs=(tmp2, reg), role=Role.RECOVERY))
        fix_shadow.append(Instruction(
            Opcode.JMP, label=cont_label, role=Role.RECOVERY))
        emitter.add_cold_group([recover, fix_orig, fix_shadow])
