"""AST node definitions for mini-C."""

from __future__ import annotations

from dataclasses import dataclass, field


# ------------------------------------------------------------------- types
@dataclass(frozen=True)
class Type:
    """A mini-C type.

    ``base`` is ``int``, ``long``, ``float``, or ``void``; ``pointer``
    adds one level of indirection (``int*``).  All values occupy one
    8-byte machine word; ``int`` differs from ``long`` only as a *width
    annotation*: loads and parameters of ``int``-typed data are tagged
    ``value_bits=32``, which the TRUMP applicability analysis trusts,
    mirroring the paper's "32-bit data types on 64-bit architectures"
    argument.  ``long`` carries no bound (use it for values that need
    the full 64 bits, e.g. LCG state).
    """

    base: str
    pointer: bool = False

    @property
    def is_void(self) -> bool:
        return self.base == "void" and not self.pointer

    @property
    def is_float(self) -> bool:
        return self.base == "float" and not self.pointer

    @property
    def value_bits(self) -> int | None:
        """Width annotation for loads/params of this type (None = 64)."""
        if self.pointer:
            return 32          # our address space tops out below 2**31
        if self.base == "int":
            return 32
        return None

    def element(self) -> "Type":
        if not self.pointer:
            raise ValueError(f"dereference of non-pointer type {self}")
        return Type(self.base)

    def pointer_to(self) -> "Type":
        if self.pointer:
            raise ValueError("mini-C supports one level of indirection")
        return Type(self.base, pointer=True)

    def __str__(self) -> str:
        return self.base + ("*" if self.pointer else "")


INT = Type("int")
LONG = Type("long")
FLOAT = Type("float")
VOID = Type("void")


# --------------------------------------------------------------- expressions
@dataclass
class Expr:
    line: int = 0


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class FloatLit(Expr):
    value: float = 0.0


@dataclass
class Name(Expr):
    ident: str = ""


@dataclass
class Unary(Expr):
    op: str = ""                 # -  !  ~  *  &  ++ -- (pre)
    operand: Expr | None = None


@dataclass
class Postfix(Expr):
    op: str = ""                 # ++ --
    operand: Expr | None = None


@dataclass
class Binary(Expr):
    op: str = ""
    left: Expr | None = None
    right: Expr | None = None


@dataclass
class Assign(Expr):
    op: str = "="                # = += -= *= /= %= &= |= ^= <<= >>=
    target: Expr | None = None
    value: Expr | None = None


@dataclass
class Conditional(Expr):
    cond: Expr | None = None
    then: Expr | None = None
    otherwise: Expr | None = None


@dataclass
class Index(Expr):
    base: Expr | None = None
    index: Expr | None = None


@dataclass
class Call(Expr):
    callee: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class Cast(Expr):
    target: Type | None = None
    operand: Expr | None = None


# ---------------------------------------------------------------- statements
@dataclass
class Stmt:
    line: int = 0


@dataclass
class ExprStmt(Stmt):
    expr: Expr | None = None


@dataclass
class VarDecl(Stmt):
    name: str = ""
    type: Type | None = None
    array_size: int | None = None      # fixed-size local array
    init: Expr | None = None


@dataclass
class Block(Stmt):
    statements: list[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr | None = None
    then: Stmt | None = None
    otherwise: Stmt | None = None


@dataclass
class While(Stmt):
    cond: Expr | None = None
    body: Stmt | None = None
    is_do_while: bool = False


@dataclass
class For(Stmt):
    init: Stmt | None = None
    cond: Expr | None = None
    step: Expr | None = None
    body: Stmt | None = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Return(Stmt):
    value: Expr | None = None


# ----------------------------------------------------------------- top level
@dataclass
class Param:
    name: str
    type: Type
    line: int = 0


@dataclass
class FunctionDef:
    name: str
    return_type: Type
    params: list[Param]
    body: Block
    line: int = 0


@dataclass
class GlobalDecl:
    name: str
    type: Type
    array_size: int | None = None
    init: list[int | float] = field(default_factory=list)
    line: int = 0


@dataclass
class TranslationUnit:
    globals: list[GlobalDecl] = field(default_factory=list)
    functions: list[FunctionDef] = field(default_factory=list)
