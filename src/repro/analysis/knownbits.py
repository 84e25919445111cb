"""Known-zero-bits dataflow analysis (the engine behind MASK).

For every program point the analysis computes, per integer register, a
64-bit mask of bits that are *provably zero* on every fault-free
execution reaching that point.  MASK (paper Section 5) then enforces
these invariants at run time with ``and`` instructions so that a
transient fault flipping a provably-zero bit is squashed before it can
propagate -- the adpcmdec example keeps 63 of 64 bits of a loop guard
permanently clean.

The analysis is a forward fixed point over the CFG.  Join is bitwise
AND of known-zero masks (a bit stays known-zero only if it is zero on
every incoming path).  Transfer functions follow two's-complement
arithmetic; anything not understood maps to "nothing known".
"""

from __future__ import annotations

from ..isa.function import Function
from ..isa.instruction import Instruction
from ..isa.opcodes import DIVISION_OPS, FP_COMPARE_OPS, Opcode, OpKind
from ..isa.operands import Imm, MASK64
from ..isa.registers import Register
from .cfg import CFG

#: Known-zero mask meaning "nothing known".
NOTHING = 0
#: Known-zero mask of the constant zero.
ALL_ZERO = MASK64

#: Bitwise or/xor: a bit is known zero only where both sides' are.
_OR_XOR = frozenset({Opcode.OR, Opcode.XOR})

State = dict[Register, int]


def _high_zeros(max_value: int) -> int:
    """Known-zero mask for a value known to be ``<= max_value``."""
    if max_value <= 0:
        return ALL_ZERO
    bits = max_value.bit_length()
    if bits >= 64:
        return NOTHING
    return MASK64 & ~((1 << bits) - 1)


def _max_from_kz(kz: int) -> int:
    """Largest value consistent with a known-zero mask."""
    return MASK64 & ~kz


def _operand_kz(operand, state: State) -> int:
    if isinstance(operand, Imm):
        return MASK64 & ~operand.value
    if isinstance(operand, Register) and operand.is_int:
        return state.get(operand, NOTHING)
    return NOTHING


def _const_shift(operand, state: State) -> int | None:
    """Shift amount if it is a compile-time constant, else None."""
    if isinstance(operand, Imm):
        return operand.value & 63
    return None


def transfer(instr: Instruction, state: State) -> int | None:
    """Known-zero mask of ``instr.dest`` given incoming ``state``.

    Returns ``None`` for instructions without an integer destination.
    """
    dest = instr.dest
    if dest is None or dest.is_float:
        return None
    op = instr.op
    kind = op.kind
    if op is Opcode.LI:
        return MASK64 & ~instr.srcs[0].value
    if op is Opcode.MOV:
        return _operand_kz(instr.srcs[0], state)
    if kind == OpKind.COMPARE or op in FP_COMPARE_OPS:
        return MASK64 & ~1  # result is 0 or 1
    if op is Opcode.AND:
        a, b = instr.srcs
        return _operand_kz(a, state) | _operand_kz(b, state)
    if op in _OR_XOR:
        a, b = instr.srcs
        return _operand_kz(a, state) & _operand_kz(b, state)
    if op is Opcode.SHL:
        amount = _const_shift(instr.srcs[1], state)
        if amount is None:
            return NOTHING
        kz = _operand_kz(instr.srcs[0], state)
        return ((kz << amount) | ((1 << amount) - 1)) & MASK64
    if op is Opcode.SHR:
        amount = _const_shift(instr.srcs[1], state)
        if amount is None:
            return NOTHING
        kz = _operand_kz(instr.srcs[0], state)
        high = MASK64 & ~(MASK64 >> amount) if amount else 0
        return (kz >> amount) | high
    if op is Opcode.SRA:
        amount = _const_shift(instr.srcs[1], state)
        if amount is None:
            return NOTHING
        kz = _operand_kz(instr.srcs[0], state)
        if kz & (1 << 63):  # sign bit known zero: behaves like SHR
            high = MASK64 & ~(MASK64 >> amount) if amount else 0
            return (kz >> amount) | high
        return NOTHING
    if op is Opcode.ADD:
        a, b = instr.srcs
        kza, kzb = _operand_kz(a, state), _operand_kz(b, state)
        max_sum = _max_from_kz(kza) + _max_from_kz(kzb)
        high = _high_zeros(max_sum) if max_sum <= MASK64 else NOTHING
        # Common low zero run survives addition (no carries below it).
        low_common = kza & kzb
        low_run = 0
        while low_common & (1 << low_run):
            low_run += 1
        low = (1 << low_run) - 1
        return high | low
    if op is Opcode.MUL:
        a, b = instr.srcs
        maxa = _max_from_kz(_operand_kz(a, state))
        maxb = _max_from_kz(_operand_kz(b, state))
        if maxa and maxb and maxa.bit_length() + maxb.bit_length() <= 64:
            return _high_zeros(maxa * maxb)
        return NOTHING
    if op in DIVISION_OPS:
        a, b = instr.srcs
        kza, kzb = _operand_kz(a, state), _operand_kz(b, state)
        sign = 1 << 63
        if kza & sign and kzb & sign:  # both provably non-negative
            if op is Opcode.DIV:
                return _high_zeros(_max_from_kz(kza))
            return _high_zeros(max(_max_from_kz(kzb) - 1, 0))
        return NOTHING
    # Note: ``value_bits`` annotations are *signed magnitude* bounds (a
    # loaded ``int`` may be negative, with its top bits all ones), so
    # they must NOT be turned into known-zero facts here; only genuine
    # bit-level reasoning is sound for MASK.
    return NOTHING


class KnownBits:
    """Fixed-point known-zero-bits analysis for one function.

    Attributes:
        block_in: state at entry of each block (by name).
        dest_kz: known-zero mask of each instruction's destination, at
            the point immediately after the instruction executes.
    """

    def __init__(self, function: Function, cfg: CFG | None = None) -> None:
        self.function = function
        self.cfg = cfg or CFG(function)
        self.block_in: dict[str, State] = {}
        self.dest_kz: dict[Instruction, int] = {}
        self._compute()

    def _apply_block(self, block, state: State) -> State:
        """Out-state of ``block`` from in-state ``state`` (not modified),
        recording each integer destination's mask in ``dest_kz``."""
        state = dict(state)
        dest_kz = self.dest_kz
        for instr in block.instructions:
            dest = instr.dest
            if dest is not None and dest.is_int:
                kz = transfer(instr, state)
                state[dest] = dest_kz[instr] = (
                    kz if kz is not None else NOTHING)
        return state

    @staticmethod
    def _join(a: State, b: State) -> State:
        # Registers missing from a state have mask NOTHING there, so a
        # register is only known in the join if known in both.
        joined = {}
        for reg in a.keys() & b.keys():
            mask = a[reg] & b[reg]
            if mask:
                joined[reg] = mask
        return joined

    def _compute(self) -> None:
        rpo = self.cfg.reverse_postorder()
        entry = self.function.entry.name
        predecessors = self.cfg.predecessors
        successors = self.cfg.successors
        self.block_in = {blk.name: {} for blk in self.function.blocks}
        block_out: dict[str, State] = {}
        # Round-robin in reverse postorder.  Optimistic initialisation:
        # unknown (absent) means "not yet computed", so first-visit
        # joins take the incoming state as-is.  A block is re-evaluated
        # only when a predecessor's out-state has changed since its own
        # last evaluation: any other evaluation would return the states
        # it already has.  So the states, the round count and the cap
        # are those of re-evaluating every block in every round, even
        # where a transfer (MUL's) is not monotone.  ``dest_kz`` keeps
        # each block's last evaluation, which read its final in-state.
        dirty = {blk.name for blk in rpo}
        for _ in range(100):
            changed = False
            for blk in rpo:
                name = blk.name
                if name not in dirty:
                    continue
                dirty.discard(name)
                preds = [p for p in predecessors[name] if p in block_out]
                if name == entry or not preds:
                    in_state: State = {}
                else:
                    in_state = dict(block_out[preds[0]])
                    for pred in preds[1:]:
                        in_state = self._join(in_state, block_out[pred])
                out_state = self._apply_block(blk, in_state)
                if name not in block_out or block_out[name] != out_state:
                    block_out[name] = out_state
                    changed = True
                    dirty.update(successors[name])
                self.block_in[name] = in_state
            if not changed:
                break

    def known_zero_at_entry(self, block_name: str, reg: Register) -> int:
        """Known-zero mask of ``reg`` at entry to the named block."""
        return self.block_in.get(block_name, {}).get(reg, NOTHING)
