"""Register objects for the virtual ISA.

Two register classes exist, integer (GPR) and floating point (FPR), each
in a *virtual* flavour (unbounded, produced by code generation and by the
protection passes, which run before register allocation exactly as in the
paper) and a *physical* flavour (``r0``..``r31`` / ``f0``..``f31``,
produced by the linear-scan allocator and executed by the simulator).

Register objects are interned: ``gpr(3) is gpr(3)``, so one register is
one object.  :class:`Register` therefore keeps ``object``'s identity
equality and identity hash: both run in C, so registers key dictionaries
and sets cheaply in the hot paths of the simulator, the dataflow
analyses and the register allocator.  The hash is an address, so the
iteration order of a *set* of registers can differ between runs; no
output may depend on it (a build-determinism test checks that printed
binaries do not).

Convention (mirroring the paper's PPC970 setup):

* ``r1`` is the stack pointer.  The paper's infrastructure could not
  protect the stack pointer and excluded it from fault injection; ours
  emits unprotected frame/spill code through ``r1`` and likewise excludes
  it (see :mod:`repro.faults.model`).
* There is no TOC register in this ISA.
* FP registers are neither duplicated nor injected (paper Section 7.1).
"""

from __future__ import annotations

#: Number of architectural registers per class (PPC970 has 32 GPRs).
NUM_GPRS = 32
NUM_FPRS = 32

#: Index of the stack pointer within the GPR file.
STACK_POINTER_INDEX = 1


class Register:
    """A single (class, flavour, index) register, interned.

    Every other attribute is derived once, when the register is first
    made, and stored: registers are immutable, so reading ``is_float``
    or ``name`` costs no call.
    """

    __slots__ = ("cls", "is_virtual", "index", "name", "is_int", "is_float",
                 "is_physical", "is_stack_pointer")

    _interned: dict[tuple[str, bool, int], "Register"] = {}

    GPR_CLASS = "int"
    FPR_CLASS = "float"

    def __new__(cls, reg_class: str, is_virtual: bool, index: int) -> "Register":
        key = (reg_class, is_virtual, index)
        existing = cls._interned.get(key)
        if existing is not None:
            return existing
        self = super().__new__(cls)
        self.cls = reg_class
        self.is_virtual = is_virtual
        self.index = index
        self.is_int = reg_class == cls.GPR_CLASS
        self.is_float = reg_class == cls.FPR_CLASS
        self.is_physical = not is_virtual
        self.is_stack_pointer = (self.is_int and not is_virtual
                                 and index == STACK_POINTER_INDEX)
        if self.is_int:
            self.name = (f"v{index}" if is_virtual else f"r{index}")
        else:
            self.name = (f"fv{index}" if is_virtual else f"f{index}")
        cls._interned[key] = self
        return self

    def __repr__(self) -> str:
        return self.name

    # Interned objects survive deepcopy as themselves.
    def __deepcopy__(self, memo: dict) -> "Register":
        return self

    def __copy__(self) -> "Register":
        return self


def gpr(index: int) -> Register:
    """The physical integer register ``r<index>``."""
    if not 0 <= index < NUM_GPRS:
        raise ValueError(f"GPR index out of range: {index}")
    return Register(Register.GPR_CLASS, False, index)


def fpr(index: int) -> Register:
    """The physical floating-point register ``f<index>``."""
    if not 0 <= index < NUM_FPRS:
        raise ValueError(f"FPR index out of range: {index}")
    return Register(Register.FPR_CLASS, False, index)


def vreg(index: int) -> Register:
    """The virtual integer register ``v<index>``."""
    return Register(Register.GPR_CLASS, True, index)


def fvreg(index: int) -> Register:
    """The virtual floating-point register ``fv<index>``."""
    return Register(Register.FPR_CLASS, True, index)


#: The stack pointer register object.
SP = gpr(STACK_POINTER_INDEX)


def parse_register(text: str) -> Register:
    """Parse a register name (``r5``, ``v12``, ``f3``, ``fv7``)."""
    if text.startswith("fv"):
        return fvreg(int(text[2:]))
    if text.startswith("f"):
        return fpr(int(text[1:]))
    if text.startswith("v"):
        return vreg(int(text[1:]))
    if text.startswith("r"):
        return gpr(int(text[1:]))
    raise ValueError(f"not a register name: {text!r}")


class RegisterPool:
    """Hands out fresh virtual registers; one per :class:`Function`."""

    __slots__ = ("_next_int", "_next_float")

    def __init__(self, next_int: int = 0, next_float: int = 0) -> None:
        self._next_int = next_int
        self._next_float = next_float

    def new_int(self) -> Register:
        reg = vreg(self._next_int)
        self._next_int += 1
        return reg

    def new_float(self) -> Register:
        reg = fvreg(self._next_float)
        self._next_float += 1
        return reg

    def new_like(self, model: Register) -> Register:
        """A fresh virtual register of the same class as ``model``."""
        if model.is_float:
            return self.new_float()
        return self.new_int()

    @property
    def num_int(self) -> int:
        return self._next_int

    @property
    def num_float(self) -> int:
        return self._next_float

    def reserve_at_least(self, num_int: int, num_float: int = 0) -> None:
        """Ensure future registers do not collide with indices below these."""
        self._next_int = max(self._next_int, num_int)
        self._next_float = max(self._next_float, num_float)


def allocatable_gprs() -> list[Register]:
    """Physical GPRs the register allocator may use (everything but SP)."""
    return [gpr(i) for i in range(NUM_GPRS) if i != STACK_POINTER_INDEX]


def allocatable_fprs() -> list[Register]:
    return [fpr(i) for i in range(NUM_FPRS)]
