"""A fluent builder for constructing IR by hand (tests, examples, codegen).

Example::

    fn = Function("main")
    b = IRBuilder(fn)
    b.start_block("entry")
    x = b.li(41)
    y = b.add(x, Imm(1))
    b.print_(y)
    b.ret()
"""

from __future__ import annotations

from ..errors import IRError
from .block import BasicBlock
from .function import Function
from .instruction import Instruction, Role
from .opcodes import Opcode
from .operands import FImm, Imm, Operand
from .registers import Register


class IRBuilder:
    """Appends instructions to a current block of a function."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.block: BasicBlock | None = None

    # ----------------------------------------------------------- block plumbing
    def start_block(self, name: str | None = None) -> BasicBlock:
        """Create a new block and make it current."""
        self.block = self.function.add_block(name)
        return self.block

    def emit(self, instr: Instruction) -> Instruction:
        if self.block is None:
            raise IRError("no current block; call start_block first")
        self.block.append(instr)
        return instr

    # ------------------------------------------------------------ register help
    def new_reg(self) -> Register:
        return self.function.pool.new_int()

    def new_freg(self) -> Register:
        return self.function.pool.new_float()

    @staticmethod
    def _operand(value: Operand | int | float) -> Operand:
        if isinstance(value, int):
            return Imm(value)
        if isinstance(value, float):
            return FImm(value)
        return value

    # --------------------------------------------------------------- three-addr
    def _binop(
        self,
        op: Opcode,
        a: Operand | int,
        b: Operand | int,
        dest: Register | None,
        is_float: bool = False,
    ) -> Register:
        if dest is None:
            dest = self.new_freg() if is_float else self.new_reg()
        self.emit(Instruction(op, dest=dest, srcs=(self._operand(a), self._operand(b))))
        return dest

    def add(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.ADD, a, b, dest)

    def sub(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.SUB, a, b, dest)

    def mul(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.MUL, a, b, dest)

    def div(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.DIV, a, b, dest)

    def rem(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.REM, a, b, dest)

    def and_(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.AND, a, b, dest)

    def or_(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.OR, a, b, dest)

    def xor(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.XOR, a, b, dest)

    def shl(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.SHL, a, b, dest)

    def shr(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.SHR, a, b, dest)

    def sra(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.SRA, a, b, dest)

    def cmpeq(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.CMPEQ, a, b, dest)

    def cmpne(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.CMPNE, a, b, dest)

    def cmplt(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.CMPLT, a, b, dest)

    def cmple(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.CMPLE, a, b, dest)

    def cmpgt(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.CMPGT, a, b, dest)

    def cmpge(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.CMPGE, a, b, dest)

    def cmpltu(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.CMPLTU, a, b, dest)

    def cmpgeu(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.CMPGEU, a, b, dest)

    def fadd(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.FADD, a, b, dest, is_float=True)

    def fsub(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.FSUB, a, b, dest, is_float=True)

    def fmul(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.FMUL, a, b, dest, is_float=True)

    def fdiv(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.FDIV, a, b, dest, is_float=True)

    def fcmplt(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.FCMPLT, a, b, dest)

    def fcmple(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.FCMPLE, a, b, dest)

    def fcmpeq(self, a, b, dest=None) -> Register:
        return self._binop(Opcode.FCMPEQ, a, b, dest)

    # --------------------------------------------------------------------- unary
    def neg(self, a, dest=None) -> Register:
        dest = dest or self.new_reg()
        self.emit(Instruction(Opcode.NEG, dest=dest, srcs=(self._operand(a),)))
        return dest

    def not_(self, a, dest=None) -> Register:
        dest = dest or self.new_reg()
        self.emit(Instruction(Opcode.NOT, dest=dest, srcs=(self._operand(a),)))
        return dest

    def fneg(self, a, dest=None) -> Register:
        dest = dest or self.new_freg()
        self.emit(Instruction(Opcode.FNEG, dest=dest, srcs=(self._operand(a),)))
        return dest

    def li(self, value: int, dest=None) -> Register:
        dest = dest or self.new_reg()
        self.emit(Instruction(Opcode.LI, dest=dest, srcs=(Imm(value),)))
        return dest

    def fli(self, value: float, dest=None) -> Register:
        dest = dest or self.new_freg()
        self.emit(Instruction(Opcode.FLI, dest=dest, srcs=(FImm(value),)))
        return dest

    def mov(self, src: Register, dest=None) -> Register:
        dest = dest or self.new_reg()
        self.emit(Instruction(Opcode.MOV, dest=dest, srcs=(src,)))
        return dest

    def fmov(self, src: Register, dest=None) -> Register:
        dest = dest or self.new_freg()
        self.emit(Instruction(Opcode.FMOV, dest=dest, srcs=(src,)))
        return dest

    def cvtif(self, src: Register, dest=None) -> Register:
        dest = dest or self.new_freg()
        self.emit(Instruction(Opcode.CVTIF, dest=dest, srcs=(src,)))
        return dest

    def cvtfi(self, src: Register, dest=None) -> Register:
        dest = dest or self.new_reg()
        self.emit(Instruction(Opcode.CVTFI, dest=dest, srcs=(src,)))
        return dest

    # -------------------------------------------------------------------- memory
    def load(self, base: Register, offset: int = 0, dest=None,
             value_bits: int | None = None) -> Register:
        dest = dest or self.new_reg()
        self.emit(
            Instruction(Opcode.LOAD, dest=dest, srcs=(base, Imm(offset)),
                        value_bits=value_bits)
        )
        return dest

    def store(self, base: Register, value: Register, offset: int = 0) -> None:
        self.emit(Instruction(Opcode.STORE, srcs=(base, Imm(offset), value)))

    def fload(self, base: Register, offset: int = 0, dest=None) -> Register:
        dest = dest or self.new_freg()
        self.emit(Instruction(Opcode.FLOAD, dest=dest, srcs=(base, Imm(offset))))
        return dest

    def fstore(self, base: Register, value: Register, offset: int = 0) -> None:
        self.emit(Instruction(Opcode.FSTORE, srcs=(base, Imm(offset), value)))

    # ---------------------------------------------------------------- control flow
    def beq(self, a, b, label: str) -> None:
        self.emit(Instruction(Opcode.BEQ, srcs=(self._operand(a), self._operand(b)),
                              label=label))

    def bne(self, a, b, label: str) -> None:
        self.emit(Instruction(Opcode.BNE, srcs=(self._operand(a), self._operand(b)),
                              label=label))

    def blt(self, a, b, label: str) -> None:
        self.emit(Instruction(Opcode.BLT, srcs=(self._operand(a), self._operand(b)),
                              label=label))

    def bge(self, a, b, label: str) -> None:
        self.emit(Instruction(Opcode.BGE, srcs=(self._operand(a), self._operand(b)),
                              label=label))

    def jmp(self, label: str) -> None:
        self.emit(Instruction(Opcode.JMP, label=label))

    def call(self, callee: str, args: list[Operand] = (), dest=None,
             returns_float: bool = False, want_result: bool = True) -> Register | None:
        if want_result and dest is None:
            dest = self.new_freg() if returns_float else self.new_reg()
        self.emit(
            Instruction(
                Opcode.CALL,
                dest=dest,
                srcs=tuple(self._operand(a) for a in args),
                callee=callee,
            )
        )
        return dest

    def ret(self, value: Register | None = None) -> None:
        srcs = (value,) if value is not None else ()
        self.emit(Instruction(Opcode.RET, srcs=srcs))

    def param(self, index: int, dest=None, is_float: bool = False,
              value_bits: int | None = None) -> Register:
        dest = dest or (self.new_freg() if is_float else self.new_reg())
        self.emit(Instruction(Opcode.PARAM, dest=dest, srcs=(Imm(index),),
                              value_bits=value_bits))
        return dest

    # ------------------------------------------------------------------------ I/O
    def print_(self, value: Register) -> None:
        self.emit(Instruction(Opcode.PRINT, srcs=(value,)))

    def fprint(self, value: Register) -> None:
        self.emit(Instruction(Opcode.FPRINT, srcs=(value,)))

    def exit_(self, value: Operand | int = 0) -> None:
        self.emit(Instruction(Opcode.EXIT, srcs=(self._operand(value),)))

    def nop(self) -> None:
        self.emit(Instruction(Opcode.NOP))
