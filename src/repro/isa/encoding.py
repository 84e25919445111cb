"""Binary instruction encoding (for opcode-bit fault injection).

The paper's third window of vulnerability (Section 3.2) is faults to
*instruction opcode bits*: a flipped bit can turn an arithmetic
instruction into a store or a branch, which no register-level scheme
catches.  The paper discusses but does not inject these; this module
makes the experiment possible by giving every instruction a concrete
64-bit encoding that can be bit-flipped and decoded back -- possibly
into a different, still-legal instruction, or into garbage (an illegal
instruction fault).

Format (64 bits, little-endian fields; post-register-allocation code):

====== ======= =====================================================
bits   field   meaning
====== ======= =====================================================
0-5    opcode  index into the opcode table (illegal if out of range)
6-11   dest    destination register (0-31 int, 32-63 float, 63=none)
12-17  src0    register operand or 63 = none
18-23  src1    register operand or 63 = none
24-29  src2    register operand or 63 = none
30-32  imm?    per-source "is immediate" flags (selects pool operand)
33-42  imm0    pool index of the first immediate source
43-52  imm1    pool index of the second immediate source
53-62  target  label / callee table index
63     --      reserved (flips here are silent, like real spare bits)
====== ======= =====================================================

Immediates and call targets are indirected through per-function pools
(like a literal pool / PLT), so a bit flip in those fields selects a
*different* constant or callee -- a realistic fault behaviour -- rather
than needing 64-bit inline fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import IRError
from .function import Function
from .instruction import Instruction
from .opcodes import MEMORY_OPS, Opcode
from .operands import FImm, Imm
from .registers import Register, fpr, gpr

#: Stable opcode numbering (enum definition order).
OPCODE_LIST = list(Opcode)
OPCODE_INDEX = {op: i for i, op in enumerate(OPCODE_LIST)}

_NONE_REG = 63

#: Opcodes whose every source is an FP register or float immediate: an
#: integer immediate there is illegal.
_FLOAT_SOURCE_OPS = frozenset({
    Opcode.FPRINT, Opcode.FMOV, Opcode.FNEG, Opcode.FADD, Opcode.FSUB,
    Opcode.FMUL, Opcode.FDIV, Opcode.FCMPEQ, Opcode.FCMPLT, Opcode.FCMPLE,
    Opcode.FLI,
})
_IMM_BITS = 10
_TARGET_BITS = 10


class IllegalEncoding(IRError):
    """A bit pattern that does not decode to a legal instruction."""


def _encode_reg(reg: Register | None) -> int:
    if reg is None:
        return _NONE_REG
    if reg.is_virtual:
        raise IRError(f"cannot encode virtual register {reg}")
    return reg.index + (32 if reg.is_float else 0)


def _decode_reg(code: int) -> Register | None:
    if code == _NONE_REG:
        return None
    if code < 32:
        return gpr(code)
    if code < 63:
        return fpr(code - 32)
    return None


@dataclass
class EncodedFunction:
    """One function's code and the pools its encodings index into."""

    name: str
    words: list[int] = field(default_factory=list)
    #: (block index, instr index) per word, parallel to ``words``.
    positions: list[tuple[int, int]] = field(default_factory=list)
    pool: list[Imm | FImm] = field(default_factory=list)
    targets: list[str] = field(default_factory=list)  # labels then callees
    _pool_index: dict = field(default_factory=dict)
    _target_index: dict = field(default_factory=dict)

    def intern_constant(self, operand: Imm | FImm) -> int:
        key = (type(operand).__name__, operand.value)
        index = self._pool_index.get(key)
        if index is None:
            index = len(self.pool)
            if index >= (1 << _IMM_BITS):
                raise IRError(f"{self.name}: constant pool overflow")
            self.pool.append(operand)
            self._pool_index[key] = index
        return index

    def intern_target(self, name: str) -> int:
        index = self._target_index.get(name)
        if index is None:
            index = len(self.targets)
            if index >= (1 << _TARGET_BITS):
                raise IRError(f"{self.name}: target table overflow")
            self.targets.append(name)
            self._target_index[name] = index
        return index


def encode_instruction(instr: Instruction, enc: EncodedFunction) -> int:
    """Pack one instruction into a 64-bit word."""
    word = OPCODE_INDEX[instr.op]
    word |= _encode_reg(instr.dest) << 6
    imm_flags = 0
    imm_indices = []
    if len(instr.srcs) > 3:
        raise IRError(f"cannot encode {len(instr.srcs)}-source instruction "
                      f"{instr!r} (encode after register allocation)")
    # Unused source slots carry the NONE marker.
    for slot in range(len(instr.srcs), 3):
        word |= _NONE_REG << (12 + 6 * slot)
    for slot, src in enumerate(instr.srcs):
        shift = 12 + 6 * slot
        if isinstance(src, Register):
            word |= _encode_reg(src) << shift
        else:
            word |= _NONE_REG << shift
            imm_flags |= 1 << slot
            imm_indices.append(enc.intern_constant(src))
    if len(imm_indices) > 2:
        raise IRError(f"cannot encode instruction with more than two "
                      f"immediates: {instr!r}")
    word |= imm_flags << 30
    if imm_indices:
        word |= imm_indices[0] << 33
    if len(imm_indices) > 1:
        word |= imm_indices[1] << 43
    target = instr.label if instr.label is not None else instr.callee
    if target is not None:
        word |= enc.intern_target(target) << 53
    return word


def decode_instruction(word: int, enc: EncodedFunction) -> Instruction:
    """Unpack a 64-bit word; raises :class:`IllegalEncoding` on garbage."""
    opcode_id = word & 0x3F
    if opcode_id >= len(OPCODE_LIST):
        raise IllegalEncoding(f"opcode id {opcode_id} out of range")
    op = OPCODE_LIST[opcode_id]
    info = op.info
    dest = _decode_reg((word >> 6) & 0x3F)
    imm_flags = (word >> 30) & 0x7
    imm_indices = [(word >> 33) & ((1 << _IMM_BITS) - 1),
                   (word >> 43) & ((1 << _IMM_BITS) - 1)]
    target_index = (word >> 53) & ((1 << _TARGET_BITS) - 1)

    num_srcs = info.num_srcs
    if num_srcs < 0:
        # Variadic (call/ret): take every populated slot.
        num_srcs = 0
        for slot in range(3):
            reg_code = (word >> (12 + 6 * slot)) & 0x3F
            if reg_code != _NONE_REG or imm_flags & (1 << slot):
                num_srcs = slot + 1
    srcs = []
    imm_cursor = 0
    for slot in range(num_srcs):
        reg_code = (word >> (12 + 6 * slot)) & 0x3F
        if imm_flags & (1 << slot):
            if imm_cursor >= 2:
                raise IllegalEncoding("too many immediate sources")
            imm_index = imm_indices[imm_cursor]
            imm_cursor += 1
            if imm_index >= len(enc.pool):
                raise IllegalEncoding("immediate pool index out of range")
            srcs.append(enc.pool[imm_index])
        else:
            reg = _decode_reg(reg_code)
            if reg is None:
                raise IllegalEncoding(f"source slot {slot} empty")
            srcs.append(reg)
    label = None
    callee = None
    if op.kind.value in ("branch", "jump"):
        if target_index >= len(enc.targets):
            raise IllegalEncoding("branch target index out of range")
        label = enc.targets[target_index]
    elif op is Opcode.CALL:
        if target_index >= len(enc.targets):
            raise IllegalEncoding("callee index out of range")
        callee = enc.targets[target_index]
    if info.has_dest and op is not Opcode.CALL and dest is None:
        raise IllegalEncoding(f"{op.name} requires a destination")
    if not info.has_dest:
        dest = None   # stale dest bits are ignored by the hardware
    instr = Instruction(op, dest=dest, srcs=tuple(srcs), label=label,
                        callee=callee)
    _validate_decoded(instr)
    return instr


def _validate_decoded(instr: Instruction) -> None:
    """Reject operand combinations a real decoder would fault on."""
    from .verify import VerificationError, _verify_register_classes

    op = instr.op
    kind = op.kind
    # Immediate kinds must match the operand domain.
    fp_domain = kind.value in ("fp", "fmem") or op is Opcode.FPRINT
    for slot, src in enumerate(instr.srcs):
        if isinstance(src, FImm) and not fp_domain:
            raise IllegalEncoding("float immediate in integer context")
        if isinstance(src, Imm) and op in _FLOAT_SOURCE_OPS:
            raise IllegalEncoding("integer immediate in float context")
    if op is Opcode.LI and not isinstance(instr.srcs[0], Imm):
        raise IllegalEncoding("li requires an integer immediate")
    if op is Opcode.FLI and not isinstance(instr.srcs[0], FImm):
        raise IllegalEncoding("fli requires a float immediate")
    # Structural shape first (the class verifier assumes it).
    if op in MEMORY_OPS:
        if not isinstance(instr.srcs[0], Register):
            raise IllegalEncoding("memory base must be a register")
        if not isinstance(instr.srcs[1], Imm):
            raise IllegalEncoding("memory offset must be an immediate")
    if op is Opcode.PARAM and not isinstance(instr.srcs[0], Imm):
        raise IllegalEncoding("param index must be an immediate")
    # Register classes, reusing the verifier's rules.
    try:
        _verify_register_classes(instr, "decoded")
    except VerificationError as exc:
        raise IllegalEncoding(str(exc)) from exc


def encode_function(function: Function) -> EncodedFunction:
    """Encode every instruction of a (physical-register) function."""
    enc = EncodedFunction(function.name)
    # Pre-intern every block label so branch targets resolve even when
    # a flipped index lands on a label the original instruction never
    # used (realistic wild-branch behaviour).
    for blk in function.blocks:
        enc.intern_target(blk.name)
    for block_index, blk in enumerate(function.blocks):
        for instr_index, instr in enumerate(blk.instructions):
            enc.words.append(encode_instruction(instr, enc))
            enc.positions.append((block_index, instr_index))
    return enc


def roundtrip_function(function: Function) -> list[Instruction]:
    """Decode an encoded function back (used by tests)."""
    enc = encode_function(function)
    return [decode_instruction(word, enc) for word in enc.words]
