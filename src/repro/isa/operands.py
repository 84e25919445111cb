"""Non-register operands: integer and floating-point immediates.

Instructions hold a tuple of sources, each either a :class:`Register`
or an immediate.  Immediates are tiny frozen wrappers rather than bare
``int``/``float`` so that operand kinds are always distinguishable when
walking the IR (``isinstance(src, Register)``) and so the printer/parser
can round-trip them unambiguously.
"""

from __future__ import annotations

from .registers import Register

#: 64-bit wrap-around mask used everywhere integers are materialised.
MASK64 = (1 << 64) - 1

#: Values >= SIGN_BIT are negative in two's complement.
SIGN_BIT = 1 << 63


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned value as signed two's complement."""
    value &= MASK64
    if value >= SIGN_BIT:
        return value - (1 << 64)
    return value


def to_unsigned(value: int) -> int:
    """Wrap an arbitrary Python int into a 64-bit unsigned value."""
    return value & MASK64


class Imm:
    """A 64-bit integer immediate (stored in unsigned representation)."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value & MASK64

    @property
    def signed(self) -> int:
        return to_signed(self.value)

    def __repr__(self) -> str:
        return str(self.signed)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Imm) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("imm", self.value))


class FImm:
    """A floating-point immediate."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:
        return repr(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FImm) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("fimm", self.value))


#: An instruction source operand.
Operand = Register | Imm | FImm
