"""Signed-magnitude bound analysis (TRUMP's applicability oracle).

TRUMP (paper Section 4.3) may only protect a dependence chain when the
compiler can prove the chain's values never exceed ``2**M / A``;
otherwise the AN-encoded shadow would overflow and the divisibility-based
recovery of Figure 4 would mis-identify the corrupted copy.  We use the
*signed* formulation: a value ``x`` is safe when ``|x| <= (2**63-1)/A``,
i.e. its signed magnitude fits in ``63 - n`` bits for ``A = 2**n - 1``.

The analysis computes, flow-insensitively with a fixed point, an upper
bound ``bits[reg]`` on the signed magnitude (in bits) of every integer
register.  Sources of boundedness, mirroring the paper's arguments:

* constants (``li``),
* ``value_bits`` annotations attached by the mini-C code generator from
  static types -- loads/params of 32-bit-typed data and of pointers
  (the address space tops out below 2**31; the paper makes exactly this
  argument for why pointer chains are almost always protectable),
* arithmetic over bounded values (an add of two B-bit values is B+1 bits),
* a guarded-induction heuristic: a register whose definitions are one
  constant initialiser plus one self-increment, and which is compared
  against a bounded operand by some conditional branch, is pinned to the
  bound implied by the comparison limit.  This stands in for the loop
  analysis the paper leaves unspecified.  An unsound pin can never break
  fault-free semantics (the AN check itself wraps consistently); it can
  only degrade recovery for out-of-range values, and the test suite
  validates all pins empirically on every workload.

Anything else is unbounded (64).
"""

from __future__ import annotations

from ..isa.function import Function
from ..isa.instruction import Instruction
from ..isa.opcodes import DIVISION_OPS, FP_COMPARE_OPS, Opcode, OpKind
from ..isa.operands import Imm, to_signed
from ..isa.registers import Register

#: "Unbounded" sentinel: magnitude may need all 64 bits.
UNBOUNDED = 64

#: Integer add and subtract: one bit wider than the wider operand.
_ADD_SUB = frozenset({Opcode.ADD, Opcode.SUB})

#: Logical operations whose result width this analysis does not bound.
_UNBOUNDED_LOGICAL = frozenset({Opcode.OR, Opcode.XOR, Opcode.NOT})

#: Results whose width only the code generator's ``value_bits``
#: annotation bounds.
_ANNOTATED_SOURCES = frozenset(
    {Opcode.LOAD, Opcode.PARAM, Opcode.CALL, Opcode.CVTFI})


def _imm_bits(imm: Imm) -> int:
    return abs(imm.signed).bit_length()


class ValueBounds:
    """Per-register signed-magnitude bit bounds for one function."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.bits: dict[Register, int] = {}
        self._pinned: dict[Register, int] = {}
        self._defs: dict[Register, list[Instruction]] = {}
        self._collect_defs()
        self._pin_guarded_induction()
        self._fixed_point()

    # ------------------------------------------------------------------ setup
    def _collect_defs(self) -> None:
        for instr in self.function.instructions():
            if instr.dest is not None and instr.dest.is_int:
                self._defs.setdefault(instr.dest, []).append(instr)

    def _branch_limits(self) -> dict[Register, int]:
        """Best magnitude bound implied by any compare-branch on a register.

        ``blt i, bound`` / ``bge i, bound`` bounds ``i`` by ``bound`` on
        one side; we take ``bits(bound) + 1`` to absorb one step past the
        limit (the increment that exits the loop).
        """
        limits: dict[Register, int] = {}
        for instr in self.function.instructions():
            if instr.op.kind != OpKind.BRANCH:
                continue
            a, b = instr.srcs
            for reg, other in ((a, b), (b, a)):
                if not isinstance(reg, Register):
                    continue
                bound = self._operand_static_bits(other)
                if bound is None:
                    continue
                best = limits.get(reg, UNBOUNDED)
                limits[reg] = min(best, min(bound + 1, UNBOUNDED))
        return limits

    def _operand_static_bits(self, operand) -> int | None:
        """Bits of an operand that is constant or defined only by ``li``."""
        if isinstance(operand, Imm):
            return _imm_bits(operand)
        if isinstance(operand, Register):
            defs = self._defs.get(operand, [])
            if defs and all(d.op is Opcode.LI for d in defs):
                return max(_imm_bits(d.srcs[0]) for d in defs)
            bits = [d.value_bits for d in defs]
            if defs and all(b is not None for b in bits):
                return max(bits)  # type: ignore[arg-type]
        return None

    def _pin_guarded_induction(self) -> None:
        limits = self._branch_limits()
        for reg, defs in self._defs.items():
            if reg not in limits:
                continue
            init_bits: list[int] = []
            step_bits: list[int] = []
            is_induction = True
            for d in defs:
                if d.op is Opcode.LI:
                    init_bits.append(_imm_bits(d.srcs[0]))
                elif d.op in _ADD_SUB and len(d.srcs) == 2:
                    a, b = d.srcs
                    if a is reg and isinstance(b, Imm):
                        step_bits.append(_imm_bits(b))
                    elif d.op is Opcode.ADD and b is reg and isinstance(a, Imm):
                        step_bits.append(_imm_bits(a))
                    else:
                        is_induction = False
                        break
                else:
                    is_induction = False
                    break
            if not is_induction or not init_bits or not step_bits:
                continue
            pinned = max(max(init_bits), limits[reg], max(step_bits) + 1) + 1
            self._pinned[reg] = min(pinned, UNBOUNDED)

    # ------------------------------------------------------------ fixed point
    def _operand_bits(self, operand) -> int:
        if isinstance(operand, Imm):
            return _imm_bits(operand)
        if isinstance(operand, Register):
            if operand.is_float:
                return UNBOUNDED
            return self.bits.get(operand, 0)
        return UNBOUNDED

    def _transfer(self, instr: Instruction) -> int:
        op = instr.op
        if op is Opcode.LI:
            return _imm_bits(instr.srcs[0])
        if op is Opcode.MOV:
            bits = self._operand_bits(instr.srcs[0])
            if instr.value_bits is not None:
                # Explicit (int) casts re-assert a width annotation.
                bits = min(bits, instr.value_bits)
            return bits
        if op in _ADD_SUB:
            a, b = instr.srcs
            return min(max(self._operand_bits(a), self._operand_bits(b)) + 1,
                       UNBOUNDED)
        if op is Opcode.NEG:
            return min(self._operand_bits(instr.srcs[0]) + 1, UNBOUNDED)
        if op is Opcode.MUL:
            a, b = instr.srcs
            return min(self._operand_bits(a) + self._operand_bits(b), UNBOUNDED)
        if op is Opcode.SHL:
            a, b = instr.srcs
            if isinstance(b, Imm):
                return min(self._operand_bits(a) + (b.value & 63), UNBOUNDED)
            return UNBOUNDED
        if op is Opcode.SHR:
            a, b = instr.srcs
            if isinstance(b, Imm) and (b.value & 63) > 0:
                # A logical right shift by k produces a non-negative
                # value below 2**(64-k) regardless of the input.
                return min(self._operand_bits(a), 64 - (b.value & 63) + 1)
            return UNBOUNDED
        if op is Opcode.SRA:
            return self._operand_bits(instr.srcs[0])
        if op.kind == OpKind.COMPARE or op in FP_COMPARE_OPS:
            return 1
        if op is Opcode.AND:
            a, b = instr.srcs
            best = UNBOUNDED
            for operand in (a, b):
                if isinstance(operand, Imm) and operand.signed >= 0:
                    best = min(best, _imm_bits(operand))
            # AND with a non-negative value cannot increase magnitude when
            # the other side is non-negative; be conservative otherwise.
            return best
        if op in _UNBOUNDED_LOGICAL:
            return UNBOUNDED
        if op in DIVISION_OPS:
            return self._operand_bits(instr.srcs[0])
        if op in _ANNOTATED_SOURCES:
            if instr.value_bits is not None:
                return min(instr.value_bits, UNBOUNDED)
            return UNBOUNDED
        return UNBOUNDED

    def _fixed_point(self) -> None:
        # Round-robin over ``_defs`` in order, updating in place.  A
        # register is re-evaluated only when a register its definitions
        # read has changed since its own last evaluation: any other
        # evaluation would return its current value.  So the bounds, the
        # round count and the widening below are those of re-evaluating
        # every register in every round.
        self.bits = dict(self._pinned)
        order = [reg for reg in self._defs if reg not in self._pinned]
        readers: dict[Register, list[Register]] = {}
        for reg in order:
            for src in dict.fromkeys(src for d in self._defs[reg]
                                     for src in d.srcs
                                     if isinstance(src, Register)):
                readers.setdefault(src, []).append(reg)
        dirty = set(order)
        for _ in range(80):
            changed = False
            for reg in order:
                if reg not in dirty:
                    continue
                dirty.discard(reg)
                new_bits = max(self._transfer(d) for d in self._defs[reg])
                if new_bits != self.bits.get(reg, 0):
                    self.bits[reg] = new_bits
                    changed = True
                    dirty.update(readers.get(reg, ()))
            if not changed:
                return
        # Did not converge: widen every non-pinned register to unbounded.
        for reg in order:
            self.bits[reg] = UNBOUNDED

    # ---------------------------------------------------------------- queries
    def magnitude_bits(self, reg: Register) -> int:
        """Upper bound on signed-magnitude bits of ``reg`` (64 = unknown)."""
        return self.bits.get(reg, UNBOUNDED)

    def fits_an_code(self, reg: Register, n: int = 2) -> bool:
        """Can ``reg`` carry an AN-code with ``A = 2**n - 1`` safely?"""
        return self.magnitude_bits(reg) <= 63 - n

    def pinned_registers(self) -> dict[Register, int]:
        """Registers bounded by the guarded-induction heuristic."""
        return dict(self._pinned)
