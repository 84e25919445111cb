"""Mini-C code generation: AST -> virtual-ISA IR.

Semantic analysis (symbol resolution, type checking) is folded into the
single code-generation walk; every expression yields a ``Value`` (an IR
operand plus its mini-C type).

Design points relevant to the paper reproduction:

* **Width annotations.**  Loads, parameters, call results, and explicit
  ``(int)`` casts of ``int``- and pointer-typed data carry
  ``value_bits=32``; ``long`` carries none.  TRUMP's applicability
  analysis trusts these, mirroring the paper's type/address-space
  argument (Section 4.3).
* **Scalars live in virtual registers** (the code is "post-optimisation"
  like the paper's -O2 input); arrays and address-taken data live in
  memory.  Local arrays get static storage (hoisted to globals with a
  mangled name) -- fine for our non-reentrant benchmarks.
* **Branch fusion.**  ``if (a < b)`` compiles to a single
  compare-and-branch so that SWIFT-style operand validation before
  branches exercises the paper's Figure 2 pattern.
* **Heap.**  ``alloc(n)`` bump-allocates ``n`` words from the heap
  segment via a generated ``__alloc`` routine -- ordinary protected IR,
  not a machine primitive.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CodegenError, SemanticError
from ..isa.builder import IRBuilder
from ..isa.function import Function
from ..isa.instruction import Instruction, Role
from ..isa.opcodes import Opcode
from ..isa.operands import FImm, Imm
from ..isa.program import HEAP_BASE, Program
from ..isa.registers import Register
from ..obs.spans import span
from . import cast as ast
from .cparser import parse

WORD_SHIFT = 3  # 8-byte words


@dataclass
class Value:
    """An expression result: an IR operand plus its mini-C type."""

    operand: Register | Imm | FImm
    type: ast.Type


@dataclass
class _RegVar:
    reg: Register
    type: ast.Type


@dataclass
class _ArrayVar:
    global_name: str
    elem: ast.Type
    size: int


@dataclass
class _GlobalVarSym:
    name: str
    type: ast.Type
    is_array: bool
    size: int


_Sym = _RegVar | _ArrayVar | _GlobalVarSym


@dataclass
class _Signature:
    name: str
    return_type: ast.Type
    params: list[ast.Type]


class Compiler:
    """Compiles one translation unit into a :class:`Program`."""

    def __init__(self, unit: ast.TranslationUnit) -> None:
        self.unit = unit
        self.program = Program()
        self.signatures: dict[str, _Signature] = {}
        self.global_syms: dict[str, _GlobalVarSym] = {}
        self._alloc_emitted = False
        self._static_counter = 0

    # ------------------------------------------------------------------ entry
    def compile(self) -> Program:
        for decl in self.unit.globals:
            self._declare_global(decl)
        for fndef in self.unit.functions:
            if fndef.name in self.signatures:
                raise SemanticError(f"redefinition of {fndef.name}",
                                    fndef.line)
            self.signatures[fndef.name] = _Signature(
                fndef.name, fndef.return_type,
                [p.type for p in fndef.params],
            )
        if "main" not in self.signatures:
            raise SemanticError("no main function")
        for fndef in self.unit.functions:
            self.program.add_function(_FunctionCodegen(self, fndef).run())
        self.program.assign_addresses()
        return self.program

    def _declare_global(self, decl: ast.GlobalDecl) -> None:
        if decl.name in self.global_syms:
            raise SemanticError(f"redefinition of global {decl.name}",
                                decl.line)
        size = decl.array_size if decl.array_size is not None else 1
        if size <= 0:
            raise SemanticError(f"global {decl.name}: bad size", decl.line)
        init = list(decl.init)
        if decl.type.is_float:
            init = [float(v) for v in init]
        self.program.add_global(decl.name, size, init,
                                is_float=decl.type.is_float)
        self.global_syms[decl.name] = _GlobalVarSym(
            decl.name, decl.type, decl.array_size is not None, size
        )

    # ----------------------------------------------------------------- statics
    def new_static_array(self, fn_name: str, var_name: str, size: int,
                         is_float: bool) -> str:
        """Hoist a local array to static storage with a unique name."""
        self._static_counter += 1
        name = f"{fn_name}.{var_name}.{self._static_counter}"
        self.program.add_global(name, size, is_float=is_float)
        return name

    # ------------------------------------------------------------------- alloc
    def ensure_alloc(self) -> None:
        """Generate the bump-allocator runtime on first use of alloc()."""
        if self._alloc_emitted:
            return
        self._alloc_emitted = True
        self.program.add_global("__heap_ptr", 1, [HEAP_BASE])
        fn = Function("__alloc", num_params=1)
        builder = IRBuilder(fn)
        builder.start_block("entry")
        nwords = builder.param(0, value_bits=32)
        hp_addr = builder.li(0)  # patched after address assignment
        self._heap_ptr_li = fn.entry.instructions[-1]
        current = builder.load(hp_addr, 0, value_bits=32)
        nbytes = builder.shl(nwords, WORD_SHIFT)
        new_ptr = builder.add(current, nbytes)
        builder.store(hp_addr, new_ptr, 0)
        builder.ret(current)
        self.program.add_function(fn)
        self.signatures["__alloc"] = _Signature(
            "__alloc", ast.Type("long", pointer=True), [ast.INT]
        )

    def finalize_alloc(self) -> None:
        if self._alloc_emitted:
            self.program.assign_addresses()
            address = self.program.address_of("__heap_ptr")
            self._heap_ptr_li.srcs = (Imm(address),)


class _FunctionCodegen:
    """Generates IR for one function."""

    def __init__(self, compiler: Compiler, fndef: ast.FunctionDef) -> None:
        self.compiler = compiler
        self.fndef = fndef
        self.fn = Function(
            fndef.name,
            num_params=len(fndef.params),
            returns_float=fndef.return_type.is_float,
            param_is_float=tuple(p.type.is_float for p in fndef.params),
        )
        self.b = IRBuilder(self.fn)
        self.scopes: list[dict[str, _Sym]] = []
        self.break_stack: list[str] = []
        self.continue_stack: list[str] = []
        self._terminated = False
        # Global addresses are materialised once, in the entry block,
        # and kept live in a register thereafter (gcc -O2 hoists base
        # addresses the same way).  Besides saving instructions, this
        # keeps address registers live across loops -- a prerequisite
        # for the paper's NOFT fault profile, where corrupted pointers
        # dominate and mostly cause SEGVs.
        self._addr_regs: dict[str, Register] = {}

    # ------------------------------------------------------------------- main
    def run(self) -> Function:
        self.b.start_block("entry")
        self.scopes.append({})
        for index, param in enumerate(self.fndef.params):
            reg = self.b.param(
                index,
                is_float=param.type.is_float,
                value_bits=param.type.value_bits,
            )
            self._declare(param.name, _RegVar(reg, param.type), param.line)
        self._gen_block(self.fndef.body)
        self.scopes.pop()
        self._seal_blocks()
        self._materialise_addresses()
        self.compiler.finalize_alloc()
        return self.fn

    def _materialise_addresses(self) -> None:
        """Prepend the hoisted global-address loads to the entry block."""
        if not self._addr_regs:
            return
        self.compiler.program.assign_addresses()
        loads = [
            Instruction(
                Opcode.LI, dest=reg,
                srcs=(Imm(self.compiler.program.address_of(name)),),
            )
            for name, reg in self._addr_regs.items()
        ]
        self.fn.entry.instructions[0:0] = loads

    def _seal_blocks(self) -> None:
        """Give every unterminated block an implicit return."""
        for blk in self.fn.blocks:
            if blk.terminator is None:
                if self.fn.returns_float:
                    zero = self.fn.pool.new_float()
                    blk.append(Instruction(Opcode.FLI, dest=zero,
                                           srcs=(FImm(0.0),)))
                    blk.append(Instruction(Opcode.RET, srcs=(zero,)))
                elif self.fndef.return_type.is_void:
                    blk.append(Instruction(Opcode.RET))
                else:
                    zero = self.fn.pool.new_int()
                    blk.append(Instruction(Opcode.LI, dest=zero,
                                           srcs=(Imm(0),)))
                    blk.append(Instruction(Opcode.RET, srcs=(zero,)))

    # ------------------------------------------------------------------ scopes
    def _declare(self, name: str, sym: _Sym, line: int) -> None:
        scope = self.scopes[-1]
        if name in scope:
            raise SemanticError(f"redefinition of {name}", line)
        scope[name] = sym

    def _lookup(self, name: str, line: int) -> _Sym:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        sym = self.compiler.global_syms.get(name)
        if sym is not None:
            return sym
        raise SemanticError(f"undefined name {name!r}", line)

    # -------------------------------------------------------------- blockkeeping
    def _ensure_open(self) -> None:
        """Statements after a terminator open an unreachable block."""
        if self._terminated:
            self.b.start_block()
            self._terminated = False

    def _start_labeled(self, label: str) -> None:
        self.b.start_block(label)
        self._terminated = False

    def _jmp(self, label: str) -> None:
        self._ensure_open()
        self.b.jmp(label)
        self._terminated = True

    # --------------------------------------------------------------- statements
    def _gen_block(self, block: ast.Block) -> None:
        self.scopes.append({})
        for stmt in block.statements:
            self._gen_stmt(stmt)
        self.scopes.pop()

    def _gen_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._gen_block(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._ensure_open()
            self._gen_expr(stmt.expr)
        elif isinstance(stmt, ast.VarDecl):
            self._gen_decl(stmt)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt)
        elif isinstance(stmt, ast.For):
            self._gen_for(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.break_stack:
                raise SemanticError("break outside loop", stmt.line)
            self._jmp(self.break_stack[-1])
        elif isinstance(stmt, ast.Continue):
            if not self.continue_stack:
                raise SemanticError("continue outside loop", stmt.line)
            self._jmp(self.continue_stack[-1])
        elif isinstance(stmt, ast.Return):
            self._gen_return(stmt)
        else:
            raise CodegenError(f"unhandled statement {stmt!r}")

    def _gen_decl(self, decl: ast.VarDecl) -> None:
        self._ensure_open()
        if decl.type.is_void:
            raise SemanticError(f"void variable {decl.name}", decl.line)
        if decl.array_size is not None:
            if decl.type.pointer:
                raise SemanticError("array of pointers unsupported",
                                    decl.line)
            gname = self.compiler.new_static_array(
                self.fn.name, decl.name, decl.array_size,
                decl.type.is_float,
            )
            self._declare(decl.name,
                          _ArrayVar(gname, decl.type, decl.array_size),
                          decl.line)
            if decl.init is not None:
                raise SemanticError("local array initialisers unsupported",
                                    decl.line)
            return
        if decl.type.is_float:
            reg = self.fn.pool.new_float()
        else:
            reg = self.fn.pool.new_int()
        var = _RegVar(reg, decl.type)
        self._declare(decl.name, var, decl.line)
        if decl.init is not None:
            value = self._gen_expr(decl.init)
            self._store_reg_var(var, value, decl.line)
        else:
            # Deterministic zero-initialisation.
            if decl.type.is_float:
                self.b.fli(0.0, dest=reg)
            else:
                self.b.li(0, dest=reg)

    def _gen_return(self, stmt: ast.Return) -> None:
        self._ensure_open()
        want = self.fndef.return_type
        if stmt.value is None:
            if not want.is_void:
                raise SemanticError("return without value", stmt.line)
            self.b.ret()
        else:
            if want.is_void:
                raise SemanticError("return value in void function",
                                    stmt.line)
            value = self._gen_expr(stmt.value)
            value = self._convert(value, want, stmt.line)
            self.b.ret(self._as_reg(value))
        self._terminated = True

    # --------------------------------------------------------------- control flow
    def _gen_if(self, stmt: ast.If) -> None:
        self._ensure_open()
        else_label = self.fn.new_label("else")
        end_label = self.fn.new_label("endif")
        target = else_label if stmt.otherwise is not None else end_label
        self._branch_if_false(stmt.cond, target)
        # A branch that returned or broke out jumps nowhere: a jump after
        # it would open a block that nothing reaches.
        self._gen_stmt(stmt.then)
        if stmt.otherwise is not None:
            if not self._terminated:
                self._jmp(end_label)
            self._start_labeled(else_label)
            self._gen_stmt(stmt.otherwise)
        if not self._terminated:
            self._jmp(end_label)
        self._start_labeled(end_label)

    def _gen_while(self, stmt: ast.While) -> None:
        cond_label = self.fn.new_label("wcond")
        body_label = self.fn.new_label("wbody")
        end_label = self.fn.new_label("wend")
        if stmt.is_do_while:
            self._jmp(body_label)
        else:
            self._jmp(cond_label)
        if stmt.is_do_while:
            self._start_labeled(body_label)
            self.break_stack.append(end_label)
            self.continue_stack.append(cond_label)
            self._gen_stmt(stmt.body)
            self.break_stack.pop()
            self.continue_stack.pop()
            self._jmp(cond_label)
            self._start_labeled(cond_label)
            self._branch_if_true(stmt.cond, body_label)
            self._jmp(end_label)
        else:
            self._start_labeled(cond_label)
            self._branch_if_false(stmt.cond, end_label)
            self.break_stack.append(end_label)
            self.continue_stack.append(cond_label)
            self._gen_stmt(stmt.body)
            self.break_stack.pop()
            self.continue_stack.pop()
            self._jmp(cond_label)
        self._start_labeled(end_label)

    def _gen_for(self, stmt: ast.For) -> None:
        self.scopes.append({})
        if stmt.init is not None:
            self._gen_stmt(stmt.init)
        cond_label = self.fn.new_label("fcond")
        step_label = self.fn.new_label("fstep")
        end_label = self.fn.new_label("fend")
        self._jmp(cond_label)
        self._start_labeled(cond_label)
        if stmt.cond is not None:
            self._branch_if_false(stmt.cond, end_label)
        self.break_stack.append(end_label)
        self.continue_stack.append(step_label)
        self._gen_stmt(stmt.body)
        self.break_stack.pop()
        self.continue_stack.pop()
        self._jmp(step_label)
        self._start_labeled(step_label)
        if stmt.step is not None:
            self._gen_expr(stmt.step)
        self._jmp(cond_label)
        self._start_labeled(end_label)
        self.scopes.pop()

    # Branch fusion: int comparisons compile to compare-and-branch.
    _FUSE_TRUE = {"==": Opcode.BEQ, "!=": Opcode.BNE, "<": Opcode.BLT,
                  ">=": Opcode.BGE}
    _FUSE_FALSE = {"==": Opcode.BNE, "!=": Opcode.BEQ, "<": Opcode.BGE,
                   ">=": Opcode.BLT}

    def _branch_if_true(self, cond: ast.Expr, label: str) -> None:
        self._gen_cond_branch(cond, label, want_true=True)

    def _branch_if_false(self, cond: ast.Expr, label: str) -> None:
        self._gen_cond_branch(cond, label, want_true=False)

    def _gen_cond_branch(self, cond: ast.Expr, label: str,
                         want_true: bool) -> None:
        self._ensure_open()
        fused = self._try_fused_branch(cond, label, want_true)
        if fused:
            return
        value = self._gen_expr(cond)
        if value.type.is_float:
            raise SemanticError("float condition needs a comparison",
                                cond.line)
        reg = self._as_reg(value)
        op = Opcode.BNE if want_true else Opcode.BEQ
        self.b.emit(Instruction(op, srcs=(reg, Imm(0)), label=label))
        self.b.start_block()

    def _try_fused_branch(self, cond: ast.Expr, label: str,
                          want_true: bool) -> bool:
        if not isinstance(cond, ast.Binary):
            return False
        swap = False
        if cond.op == ">":
            op, swap = "<", True        # a > b  ==  b < a
        elif cond.op == "<=":
            op, swap = ">=", True       # a <= b ==  b >= a
        else:
            op = cond.op
        table = self._FUSE_TRUE if want_true else self._FUSE_FALSE
        branch_op = table.get(op)
        if branch_op is None:
            return False
        left = self._gen_expr(cond.left)
        right = self._gen_expr(cond.right)
        if left.type.is_float or right.type.is_float:
            return False  # float compares materialise a 0/1 value instead
        a, b = (right, left) if swap else (left, right)
        self.b.emit(Instruction(
            branch_op, srcs=(self._operand(a), self._operand(b)), label=label
        ))
        self.b.start_block()
        return True

    # ------------------------------------------------------------- expressions
    def _gen_expr(self, expr: ast.Expr) -> Value:
        if isinstance(expr, ast.IntLit):
            return Value(Imm(expr.value), ast.INT if
                         abs(expr.value) < (1 << 31) else ast.LONG)
        if isinstance(expr, ast.FloatLit):
            return Value(FImm(expr.value), ast.FLOAT)
        if isinstance(expr, ast.Name):
            return self._gen_name(expr)
        if isinstance(expr, ast.Unary):
            return self._gen_unary(expr)
        if isinstance(expr, ast.Postfix):
            return self._gen_incdec(expr.operand, expr.op, expr.line,
                                    return_old=True)
        if isinstance(expr, ast.Binary):
            return self._gen_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._gen_assign(expr)
        if isinstance(expr, ast.Conditional):
            return self._gen_conditional(expr)
        if isinstance(expr, ast.Index):
            address, elem = self._gen_address_of_index(expr)
            return self._load(address, elem)
        if isinstance(expr, ast.Call):
            return self._gen_call(expr)
        if isinstance(expr, ast.Cast):
            return self._gen_cast(expr)
        raise CodegenError(f"unhandled expression {expr!r}")

    def _gen_name(self, expr: ast.Name) -> Value:
        sym = self._lookup(expr.ident, expr.line)
        if isinstance(sym, _RegVar):
            return Value(sym.reg, sym.type)
        if isinstance(sym, _ArrayVar):
            return Value(self._address_reg(sym.global_name),
                         sym.elem.pointer_to())
        # Global symbol.
        address = self._address_reg(sym.name)
        if sym.is_array:
            return Value(address, sym.type.pointer_to())
        return self._load(address, sym.type)

    def _address_reg(self, name: str) -> Register:
        """The hoisted register holding a global's address."""
        reg = self._addr_regs.get(name)
        if reg is None:
            reg = self.fn.pool.new_int()
            self._addr_regs[name] = reg
        return reg

    def _load(self, address: Register, elem: ast.Type) -> Value:
        if elem.is_float:
            return Value(self.b.fload(address), elem)
        dest = self.b.load(address, value_bits=elem.value_bits)
        return Value(dest, elem)

    # ------------------------------------------------------------------ lvalues
    def _gen_address_of_index(self, expr: ast.Index
                              ) -> tuple[Register, ast.Type]:
        base = self._gen_expr(expr.base)
        if not base.type.pointer:
            raise SemanticError("indexing a non-pointer", expr.line)
        index = self._gen_expr(expr.index)
        if index.type.is_float:
            raise SemanticError("float array index", expr.line)
        offset = self.b.shl(self._operand(index), WORD_SHIFT)
        address = self.b.add(self._as_reg(base), offset)
        return address, base.type.element()

    def _gen_assign(self, expr: ast.Assign) -> Value:
        if expr.op != "=":
            # Compound assignment: rewrite a @= b into a = a @ b on a
            # single evaluation of the address (duplicated evaluation is
            # fine for our side-effect-free lvalue expressions).
            binary = ast.Binary(line=expr.line, op=expr.op[:-1],
                                left=expr.target, right=expr.value)
            expr = ast.Assign(line=expr.line, op="=", target=expr.target,
                              value=binary)
        value = self._gen_expr(expr.value)
        return self._store_lvalue(expr.target, value, expr.line)

    def _store_lvalue(self, target: ast.Expr, value: Value, line: int
                      ) -> Value:
        if isinstance(target, ast.Name):
            sym = self._lookup(target.ident, line)
            if isinstance(sym, _RegVar):
                return self._store_reg_var(sym, value, line)
            if isinstance(sym, _ArrayVar):
                raise SemanticError(f"cannot assign to array {target.ident}",
                                    line)
            if sym.is_array:
                raise SemanticError(f"cannot assign to array {sym.name}",
                                    line)
            address = self._address_reg(sym.name)
            converted = self._convert(value, sym.type, line)
            self._emit_store(address, converted)
            return converted
        if isinstance(target, ast.Index):
            address, elem = self._gen_address_of_index(target)
            converted = self._convert(value, elem, line)
            self._emit_store(address, converted)
            return converted
        if isinstance(target, ast.Unary) and target.op == "*":
            pointer = self._gen_expr(target.operand)
            if not pointer.type.pointer:
                raise SemanticError("dereferencing a non-pointer", line)
            elem = pointer.type.element()
            converted = self._convert(value, elem, line)
            self._emit_store(self._as_reg(pointer), converted)
            return converted
        raise SemanticError("expression is not assignable", line)

    def _store_reg_var(self, var: _RegVar, value: Value, line: int) -> Value:
        converted = self._convert(value, var.type, line)
        operand = converted.operand
        if var.type.is_float:
            if isinstance(operand, FImm):
                self.b.fli(operand.value, dest=var.reg)
            else:
                self.b.fmov(operand, dest=var.reg)
        else:
            if isinstance(operand, Imm):
                self.b.li(operand.signed, dest=var.reg)
            else:
                self.b.mov(operand, dest=var.reg)
        return Value(var.reg, var.type)

    def _emit_store(self, address: Register, value: Value) -> None:
        if value.type.is_float:
            operand = value.operand
            if isinstance(operand, FImm):
                operand = self.b.fli(operand.value)
            self.b.fstore(address, operand)
        else:
            operand = self._as_reg(value)
            self.b.store(address, operand)

    # -------------------------------------------------------------------- unary
    def _gen_unary(self, expr: ast.Unary) -> Value:
        op = expr.op
        if op in ("++", "--"):
            return self._gen_incdec(expr.operand, op, expr.line,
                                    return_old=False)
        if op == "&":
            return self._gen_address_of(expr.operand, expr.line)
        if op == "*":
            pointer = self._gen_expr(expr.operand)
            if not pointer.type.pointer:
                raise SemanticError("dereferencing a non-pointer", expr.line)
            return self._load(self._as_reg(pointer), pointer.type.element())
        value = self._gen_expr(expr.operand)
        if op == "-":
            if value.type.is_float:
                if isinstance(value.operand, FImm):
                    return Value(FImm(-value.operand.value), ast.FLOAT)
                dest = self.fn.pool.new_float()
                self.b.emit(Instruction(Opcode.FNEG, dest=dest,
                                        srcs=(value.operand,)))
                return Value(dest, ast.FLOAT)
            if isinstance(value.operand, Imm):
                return Value(Imm(-value.operand.signed), value.type)
            return Value(self.b.neg(value.operand), value.type)
        if op == "!":
            if value.type.is_float:
                raise SemanticError("! on float", expr.line)
            return Value(self.b.cmpeq(self._operand(value), 0), ast.INT)
        if op == "~":
            if value.type.is_float:
                raise SemanticError("~ on float", expr.line)
            return Value(self.b.not_(self._as_reg(value)), ast.LONG)
        raise CodegenError(f"unhandled unary {op}")

    def _gen_address_of(self, operand: ast.Expr, line: int) -> Value:
        if isinstance(operand, ast.Name):
            sym = self._lookup(operand.ident, line)
            if isinstance(sym, _ArrayVar):
                address = self._address_reg(sym.global_name)
                return Value(address, sym.elem.pointer_to())
            if isinstance(sym, _GlobalVarSym):
                address = self._address_reg(sym.name)
                return Value(address, sym.type.pointer_to())
            raise SemanticError(
                f"cannot take the address of register variable "
                f"{operand.ident}", line,
            )
        if isinstance(operand, ast.Index):
            address, elem = self._gen_address_of_index(operand)
            return Value(address, elem.pointer_to())
        raise SemanticError("cannot take the address of this expression",
                            line)

    def _gen_incdec(self, target: ast.Expr, op: str, line: int,
                    return_old: bool) -> Value:
        old = self._gen_expr(target)
        if old.type.is_float:
            raise SemanticError("++/-- on float", line)
        old_reg = self._as_reg(old)
        saved = self.b.mov(old_reg) if return_old else old_reg
        delta = 1 if op == "++" else -1
        step = 8 if old.type.pointer else 1
        new_reg = self.b.add(old_reg, delta * step)
        self._store_lvalue(target, Value(new_reg, old.type), line)
        return Value(saved if return_old else new_reg, old.type)

    # ------------------------------------------------------------------- binary
    _INT_OPS = {
        "+": Opcode.ADD, "-": Opcode.SUB, "*": Opcode.MUL,
        "/": Opcode.DIV, "%": Opcode.REM,
        "&": Opcode.AND, "|": Opcode.OR, "^": Opcode.XOR,
        "<<": Opcode.SHL, ">>": Opcode.SRA,
        "==": Opcode.CMPEQ, "!=": Opcode.CMPNE, "<": Opcode.CMPLT,
        "<=": Opcode.CMPLE, ">": Opcode.CMPGT, ">=": Opcode.CMPGE,
    }
    _FLOAT_OPS = {
        "+": Opcode.FADD, "-": Opcode.FSUB, "*": Opcode.FMUL,
        "/": Opcode.FDIV,
    }
    _FLOAT_CMPS = {"==": (Opcode.FCMPEQ, False), "!=": (Opcode.FCMPEQ, False),
                   "<": (Opcode.FCMPLT, False), "<=": (Opcode.FCMPLE, False),
                   ">": (Opcode.FCMPLT, True), ">=": (Opcode.FCMPLE, True)}

    def _gen_binary(self, expr: ast.Binary) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            return self._gen_logical(expr)
        left = self._gen_expr(expr.left)
        right = self._gen_expr(expr.right)
        if left.type.is_float or right.type.is_float:
            return self._gen_float_binary(op, left, right, expr.line)
        # Pointer arithmetic scales by the word size.
        if op in ("+", "-") and (left.type.pointer or right.type.pointer):
            return self._gen_pointer_arith(op, left, right, expr.line)
        opcode = self._INT_OPS.get(op)
        if opcode is None:
            raise CodegenError(f"unhandled binary {op}")
        dest = self.fn.pool.new_int()
        self.b.emit(Instruction(
            opcode, dest=dest,
            srcs=(self._operand(left), self._operand(right)),
        ))
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return Value(dest, ast.INT)
        result_type = ast.LONG if (left.type.base == "long"
                                   or right.type.base == "long") else ast.INT
        return Value(dest, result_type)

    def _gen_pointer_arith(self, op: str, left: Value, right: Value,
                           line: int) -> Value:
        if left.type.pointer and right.type.pointer:
            if op != "-":
                raise SemanticError("pointer + pointer", line)
            diff = self.b.sub(self._as_reg(left), self._as_reg(right))
            return Value(self.b.sra(diff, WORD_SHIFT), ast.INT)
        if right.type.pointer:
            left, right = right, left
            if op == "-":
                raise SemanticError("int - pointer", line)
        scaled = self.b.shl(self._operand(right), WORD_SHIFT)
        opcode = Opcode.ADD if op == "+" else Opcode.SUB
        dest = self.fn.pool.new_int()
        self.b.emit(Instruction(opcode, dest=dest,
                                srcs=(self._as_reg(left), scaled)))
        return Value(dest, left.type)

    def _gen_float_binary(self, op: str, left: Value, right: Value,
                          line: int) -> Value:
        left = self._convert(left, ast.FLOAT, line)
        right = self._convert(right, ast.FLOAT, line)
        if op in self._FLOAT_OPS:
            dest = self.fn.pool.new_float()
            self.b.emit(Instruction(
                self._FLOAT_OPS[op], dest=dest,
                srcs=(self._as_freg(left), self._as_freg(right)),
            ))
            return Value(dest, ast.FLOAT)
        if op in self._FLOAT_CMPS:
            opcode, swap = self._FLOAT_CMPS[op]
            a, b = (right, left) if swap else (left, right)
            dest = self.fn.pool.new_int()
            self.b.emit(Instruction(
                opcode, dest=dest,
                srcs=(self._as_freg(a), self._as_freg(b)),
            ))
            if op == "!=":
                return Value(self.b.xor(dest, 1), ast.INT)
            return Value(dest, ast.INT)
        raise SemanticError(f"operator {op} undefined on float", line)

    def _gen_logical(self, expr: ast.Binary) -> Value:
        result = self.fn.pool.new_int()
        false_label = self.fn.new_label("lfalse")
        true_label = self.fn.new_label("ltrue")
        end_label = self.fn.new_label("lend")
        if expr.op == "&&":
            self._branch_if_false(expr.left, false_label)
            self._branch_if_false(expr.right, false_label)
            self._jmp(true_label)
        else:
            self._branch_if_true(expr.left, true_label)
            self._branch_if_true(expr.right, true_label)
            self._jmp(false_label)
        self._start_labeled(true_label)
        self.b.li(1, dest=result)
        self._jmp(end_label)
        self._start_labeled(false_label)
        self.b.li(0, dest=result)
        self._jmp(end_label)
        self._start_labeled(end_label)
        return Value(result, ast.INT)

    def _gen_conditional(self, expr: ast.Conditional) -> Value:
        then_value_type = None
        else_label = self.fn.new_label("celse")
        end_label = self.fn.new_label("cend")
        self._branch_if_false(expr.cond, else_label)
        then_value = self._gen_expr(expr.then)
        result: Register
        if then_value.type.is_float:
            result = self.fn.pool.new_float()
            self.b.fmov(self._as_freg(then_value), dest=result)
        else:
            result = self.fn.pool.new_int()
            operand = then_value.operand
            if isinstance(operand, Imm):
                self.b.li(operand.signed, dest=result)
            else:
                self.b.mov(operand, dest=result)
        then_value_type = then_value.type
        self._jmp(end_label)
        self._start_labeled(else_label)
        else_value = self._gen_expr(expr.otherwise)
        else_value = self._convert(else_value, then_value_type, expr.line)
        if else_value.type.is_float:
            self.b.fmov(self._as_freg(else_value), dest=result)
        else:
            operand = else_value.operand
            if isinstance(operand, Imm):
                self.b.li(operand.signed, dest=result)
            else:
                self.b.mov(operand, dest=result)
        self._jmp(end_label)
        self._start_labeled(end_label)
        return Value(result, then_value_type)

    # --------------------------------------------------------------------- call
    def _gen_call(self, expr: ast.Call) -> Value:
        name = expr.callee
        if name == "print":
            return self._builtin_print(expr)
        if name == "exit":
            if len(expr.args) != 1:
                raise SemanticError("exit takes one argument", expr.line)
            value = self._gen_expr(expr.args[0])
            self._ensure_open()
            self.b.exit_(self._operand(value))
            self._terminated = True
            return Value(Imm(0), ast.INT)
        if name == "alloc":
            self.compiler.ensure_alloc()
            name = "__alloc"
        if name == "lsr":
            if len(expr.args) != 2:
                raise SemanticError("lsr takes two arguments", expr.line)
            a = self._gen_expr(expr.args[0])
            b = self._gen_expr(expr.args[1])
            return Value(self.b.shr(self._operand(a), self._operand(b)),
                         ast.LONG)
        sig = self.compiler.signatures.get(name)
        if sig is None:
            raise SemanticError(f"call to undefined function {name!r}",
                                expr.line)
        if len(expr.args) != len(sig.params):
            raise SemanticError(
                f"{name} expects {len(sig.params)} arguments, got "
                f"{len(expr.args)}", expr.line,
            )
        args = []
        for arg_expr, want in zip(expr.args, sig.params):
            value = self._convert(self._gen_expr(arg_expr), want, expr.line)
            args.append(self._operand(value))
        if sig.return_type.is_void:
            self.b.call(name, args, want_result=False)
            return Value(Imm(0), ast.INT)
        dest = self.b.call(name, args,
                           returns_float=sig.return_type.is_float)
        call_instr = self.b.block.instructions[-1]
        call_instr.value_bits = sig.return_type.value_bits
        return Value(dest, sig.return_type)

    def _builtin_print(self, expr: ast.Call) -> Value:
        if len(expr.args) != 1:
            raise SemanticError("print takes one argument", expr.line)
        value = self._gen_expr(expr.args[0])
        self._ensure_open()
        if value.type.is_float:
            self.b.fprint(self._as_freg(value))
        else:
            operand = value.operand
            if isinstance(operand, Imm):
                operand = self.b.li(operand.signed)
            self.b.print_(operand)
        return Value(Imm(0), ast.INT)

    def _gen_cast(self, expr: ast.Cast) -> Value:
        value = self._gen_expr(expr.operand)
        return self._convert(value, expr.target, expr.line, explicit=True)

    # -------------------------------------------------------------- conversions
    def _convert(self, value: Value, want: ast.Type, line: int,
                 explicit: bool = False) -> Value:
        have = value.type
        if have == want:
            return value
        if want.is_float:
            if have.is_float:
                return value
            if have.pointer:
                raise SemanticError("pointer to float conversion", line)
            operand = value.operand
            if isinstance(operand, Imm):
                return Value(FImm(float(operand.signed)), ast.FLOAT)
            return Value(self.b.cvtif(operand), ast.FLOAT)
        if have.is_float:
            if not explicit:
                raise SemanticError(
                    "implicit float to integer conversion (use a cast)", line
                )
            operand = value.operand
            if isinstance(operand, FImm):
                return Value(Imm(int(operand.value)), want)
            dest = self.b.cvtfi(self._as_freg(value))
            return Value(dest, want)
        # Integer-ish to integer-ish: same representation.  An explicit
        # (int) cast of a long re-asserts the 32-bit width annotation.
        if explicit and want.base == "int" and not want.pointer:
            operand = value.operand
            if isinstance(operand, Imm):
                return Value(operand, want)
            dest = self.fn.pool.new_int()
            mov = Instruction(Opcode.MOV, dest=dest, srcs=(operand,),
                              value_bits=32)
            self.b.emit(mov)
            return Value(dest, want)
        return Value(value.operand, want)

    # ------------------------------------------------------------------ helpers
    def _operand(self, value: Value):
        return value.operand

    def _as_reg(self, value: Value) -> Register:
        operand = value.operand
        if isinstance(operand, Register):
            return operand
        if isinstance(operand, Imm):
            return self.b.li(operand.signed)
        raise CodegenError(f"expected integer operand, got {operand!r}")

    def _as_freg(self, value: Value) -> Register:
        operand = value.operand
        if isinstance(operand, Register):
            return operand
        if isinstance(operand, FImm):
            return self.b.fli(operand.value)
        raise CodegenError(f"expected float operand, got {operand!r}")


def compile_source(source: str) -> Program:
    """Compile mini-C source text into a virtual-ISA program."""
    with span("lang.parse", source_bytes=len(source)):
        unit = parse(source)
    with span("lang.codegen", functions=len(unit.functions)):
        return Compiler(unit).compile()
