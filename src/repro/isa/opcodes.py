"""Opcode definitions and semantic metadata for the virtual ISA.

The ISA is a three-address, 64-bit, load/store RISC in the spirit of the
PowerPC 970 target used by the paper, reduced to what the protection
passes, the register allocator, and the simulator need:

* integer arithmetic, logical, shift, and compare instructions,
* a separate floating-point register class (the paper neither protects
  nor injects faults into FP registers, and we preserve that),
* explicit ``LOAD``/``STORE`` for memory, which is assumed ECC-protected,
* compare-and-branch instructions (``BEQ``/``BNE``/``BLT``/``BGE``),
  because SWIFT-style checks are exactly one such instruction,
* ``CALL``/``RET``/``PARAM`` with an argument-buffer calling convention
  (values in flight during a call live outside the injectable register
  file, mirroring memory-passed parameters, which the paper notes need
  no re-checking),
* ``PRINT``/``FPRINT``/``EXIT`` as the program's *output boundary*: SWIFT
  semantics require operands of output-producing instructions to be
  validated, so these are treated like external calls.

Each opcode carries metadata used throughout the code base: operand
counts, structural kind, issue latency for the timing model, and how
AN-codes propagate through it (for TRUMP).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpKind(enum.Enum):
    """Structural classification of an opcode."""

    ARITH = "arith"        # +, -, *, /, % and unary negate
    LOGICAL = "logical"    # and, or, xor, not
    SHIFT = "shift"        # shl, shr, sra
    COMPARE = "compare"    # set-on-condition
    MOVE = "move"          # mov / li
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"      # conditional, two register sources
    JUMP = "jump"          # unconditional
    CALL = "call"
    RET = "ret"
    PARAM = "param"        # read incoming argument i
    IO = "io"              # print / exit: the output boundary
    FP = "fp"              # floating-point compute / moves
    FMEM = "fmem"          # floating-point load/store
    NOP = "nop"


class ANTransparency(enum.Enum):
    """How an AN-coded (codeword = A * value) operand behaves.

    ``FULL``   - the operation maps codewords to codewords
                 (e.g. ``A*x + A*y = A*(x+y)``).
    ``CONST``  - codewords are preserved only if exactly one source is a
                 compile-time constant (``(A*x) * k = A*(x*k)``; shifts
                 left by a constant are multiplications by ``2**k``).
    ``NONE``   - AN-codes do not propagate (logical ops, right shifts,
                 compares, division) -- paper Section 4.3, citing
                 Peterson & Rabin.
    """

    FULL = "full"
    CONST = "const"
    NONE = "none"


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one opcode."""

    mnemonic: str
    kind: OpKind
    num_srcs: int
    has_dest: bool
    latency: int
    an: ANTransparency = ANTransparency.NONE
    commutative: bool = False

    @property
    def is_terminator(self) -> bool:
        if self.kind in (OpKind.BRANCH, OpKind.JUMP, OpKind.RET):
            return True
        # EXIT and DETECT end the run, so control never continues past them.
        return self.mnemonic in ("exit", "detect")

    @property
    def touches_memory(self) -> bool:
        return self.kind in (OpKind.LOAD, OpKind.STORE, OpKind.FMEM)


class Opcode(enum.Enum):
    """All opcodes of the virtual ISA.

    Members are singletons: they compare and hash by identity, in C
    (``Enum``'s own ``__hash__`` is a Python call that hashes the
    member's name).  Their static metadata is read from plain member
    attributes, ``info`` and ``kind``, set once at import.
    """

    # --- integer arithmetic -------------------------------------------------
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"            # signed, truncating; divide-by-zero is a fault
    REM = "rem"
    NEG = "neg"
    # --- logical ------------------------------------------------------------
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    # --- shifts (shift amounts taken mod 64) ---------------------------------
    SHL = "shl"
    SHR = "shr"            # logical right shift
    SRA = "sra"            # arithmetic right shift
    # --- compares: dest = 1 if true else 0 (signed unless suffixed U) --------
    CMPEQ = "cmpeq"
    CMPNE = "cmpne"
    CMPLT = "cmplt"
    CMPLE = "cmple"
    CMPGT = "cmpgt"
    CMPGE = "cmpge"
    CMPLTU = "cmpltu"
    CMPGEU = "cmpgeu"
    # --- moves ----------------------------------------------------------------
    LI = "li"              # dest = immediate
    MOV = "mov"            # dest = src register
    # --- memory (byte addresses, 8-byte aligned words) ------------------------
    LOAD = "load"          # dest = mem[src0 + imm_src1]
    STORE = "store"        # mem[src0 + imm_src1] = src2
    # --- control flow ----------------------------------------------------------
    BEQ = "beq"            # branch to label if src0 == src1
    BNE = "bne"
    BLT = "blt"            # signed
    BGE = "bge"            # signed
    JMP = "jmp"
    CALL = "call"          # dest? = callee(srcs...)
    RET = "ret"            # optional value in src0
    PARAM = "param"        # dest = incoming argument number imm_src0
    # --- I/O: the output boundary ----------------------------------------------
    PRINT = "print"        # emit integer src0
    FPRINT = "fprint"      # emit float src0 (FP register)
    EXIT = "exit"          # terminate with status src0
    DETECT = "detect"      # SWIFT's faultDet: signal a detected fault (DUE)
    # --- floating point ----------------------------------------------------------
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    FMOV = "fmov"
    FLI = "fli"            # dest = float immediate
    FLOAD = "fload"        # fdest = mem[src0 + imm_src1]
    FSTORE = "fstore"      # mem[src0 + imm_src1] = fsrc2
    FCMPEQ = "fcmpeq"      # GPR dest = compare of two FPRs
    FCMPLT = "fcmplt"
    FCMPLE = "fcmple"
    CVTIF = "cvtif"        # FPR dest = float(GPR src)
    CVTFI = "cvtfi"        # GPR dest = trunc(FPR src)
    # --- misc -----------------------------------------------------------------
    NOP = "nop"

    __hash__ = object.__hash__

    #: Static metadata (:class:`OpInfo`) and its ``kind``, set from
    #: ``_OP_INFO`` below.
    info: OpInfo
    kind: OpKind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Opcode.{self.name}"


_A = ANTransparency
_K = OpKind

_OP_INFO: dict[Opcode, OpInfo] = {
    Opcode.ADD: OpInfo("add", _K.ARITH, 2, True, 1, _A.FULL, commutative=True),
    Opcode.SUB: OpInfo("sub", _K.ARITH, 2, True, 1, _A.FULL),
    Opcode.MUL: OpInfo("mul", _K.ARITH, 2, True, 3, _A.CONST, commutative=True),
    Opcode.DIV: OpInfo("div", _K.ARITH, 2, True, 20),
    Opcode.REM: OpInfo("rem", _K.ARITH, 2, True, 20),
    Opcode.NEG: OpInfo("neg", _K.ARITH, 1, True, 1, _A.FULL),
    Opcode.AND: OpInfo("and", _K.LOGICAL, 2, True, 1, commutative=True),
    Opcode.OR: OpInfo("or", _K.LOGICAL, 2, True, 1, commutative=True),
    Opcode.XOR: OpInfo("xor", _K.LOGICAL, 2, True, 1, commutative=True),
    Opcode.NOT: OpInfo("not", _K.LOGICAL, 1, True, 1),
    Opcode.SHL: OpInfo("shl", _K.SHIFT, 2, True, 1, _A.CONST),
    Opcode.SHR: OpInfo("shr", _K.SHIFT, 2, True, 1),
    Opcode.SRA: OpInfo("sra", _K.SHIFT, 2, True, 1),
    Opcode.CMPEQ: OpInfo("cmpeq", _K.COMPARE, 2, True, 1, commutative=True),
    Opcode.CMPNE: OpInfo("cmpne", _K.COMPARE, 2, True, 1, commutative=True),
    Opcode.CMPLT: OpInfo("cmplt", _K.COMPARE, 2, True, 1),
    Opcode.CMPLE: OpInfo("cmple", _K.COMPARE, 2, True, 1),
    Opcode.CMPGT: OpInfo("cmpgt", _K.COMPARE, 2, True, 1),
    Opcode.CMPGE: OpInfo("cmpge", _K.COMPARE, 2, True, 1),
    Opcode.CMPLTU: OpInfo("cmpltu", _K.COMPARE, 2, True, 1),
    Opcode.CMPGEU: OpInfo("cmpgeu", _K.COMPARE, 2, True, 1),
    Opcode.LI: OpInfo("li", _K.MOVE, 1, True, 1, _A.FULL),
    Opcode.MOV: OpInfo("mov", _K.MOVE, 1, True, 1, _A.FULL),
    Opcode.LOAD: OpInfo("load", _K.LOAD, 2, True, 3),
    Opcode.STORE: OpInfo("store", _K.STORE, 3, False, 1),
    Opcode.BEQ: OpInfo("beq", _K.BRANCH, 2, False, 1),
    Opcode.BNE: OpInfo("bne", _K.BRANCH, 2, False, 1),
    Opcode.BLT: OpInfo("blt", _K.BRANCH, 2, False, 1),
    Opcode.BGE: OpInfo("bge", _K.BRANCH, 2, False, 1),
    Opcode.JMP: OpInfo("jmp", _K.JUMP, 0, False, 1),
    Opcode.CALL: OpInfo("call", _K.CALL, -1, True, 2),
    Opcode.RET: OpInfo("ret", _K.RET, -1, False, 1),
    Opcode.PARAM: OpInfo("param", _K.PARAM, 1, True, 1),
    Opcode.PRINT: OpInfo("print", _K.IO, 1, False, 1),
    Opcode.FPRINT: OpInfo("fprint", _K.IO, 1, False, 1),
    Opcode.EXIT: OpInfo("exit", _K.IO, 1, False, 1),
    Opcode.DETECT: OpInfo("detect", _K.IO, 0, False, 1),
    Opcode.FADD: OpInfo("fadd", _K.FP, 2, True, 4, commutative=True),
    Opcode.FSUB: OpInfo("fsub", _K.FP, 2, True, 4),
    Opcode.FMUL: OpInfo("fmul", _K.FP, 2, True, 4, commutative=True),
    Opcode.FDIV: OpInfo("fdiv", _K.FP, 2, True, 25),
    Opcode.FNEG: OpInfo("fneg", _K.FP, 1, True, 1),
    Opcode.FMOV: OpInfo("fmov", _K.FP, 1, True, 1),
    Opcode.FLI: OpInfo("fli", _K.FP, 1, True, 1),
    Opcode.FLOAD: OpInfo("fload", _K.FMEM, 2, True, 3),
    Opcode.FSTORE: OpInfo("fstore", _K.FMEM, 3, False, 1),
    Opcode.FCMPEQ: OpInfo("fcmpeq", _K.FP, 2, True, 4, commutative=True),
    Opcode.FCMPLT: OpInfo("fcmplt", _K.FP, 2, True, 4),
    Opcode.FCMPLE: OpInfo("fcmple", _K.FP, 2, True, 4),
    Opcode.CVTIF: OpInfo("cvtif", _K.FP, 1, True, 4),
    Opcode.CVTFI: OpInfo("cvtfi", _K.FP, 1, True, 4),
    Opcode.NOP: OpInfo("nop", _K.NOP, 0, False, 1),
}

for _op, _info in _OP_INFO.items():
    _op.info = _info
    _op.kind = _info.kind
del _op, _info

#: Opcodes that end a basic block (``OpInfo.is_terminator``).
TERMINATOR_OPS = frozenset(op for op in Opcode if op.info.is_terminator)

#: Mapping from mnemonic text back to opcode, used by the assembly parser.
MNEMONIC_TO_OPCODE: dict[str, Opcode] = {
    info.mnemonic: op for op, info in _OP_INFO.items()
}

#: Branches, by opcode, as (python comparison name) -- used by the simulator.
BRANCH_OPS = (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE)

#: Opcodes whose *integer destination* is written from an FP source or
#: vice versa; the register classes of operands are checked by the verifier.
FP_RESULT_OPS = frozenset(
    {
        Opcode.FADD,
        Opcode.FSUB,
        Opcode.FMUL,
        Opcode.FDIV,
        Opcode.FNEG,
        Opcode.FMOV,
        Opcode.FLI,
        Opcode.FLOAD,
        Opcode.CVTIF,
    }
)

#: FP-compare opcodes produce a 0/1 *integer* result.
FP_TO_INT_OPS = frozenset(
    {Opcode.FCMPEQ, Opcode.FCMPLT, Opcode.FCMPLE, Opcode.CVTFI}
)
