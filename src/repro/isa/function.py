"""Functions: ordered basic blocks plus a virtual-register pool."""

from __future__ import annotations

from typing import Iterator

from ..errors import IRError
from .block import BasicBlock
from .instruction import Instruction
from .registers import RegisterPool


class Function:
    """A function: layout-ordered basic blocks and register bookkeeping.

    Attributes:
        name: function name (globally unique in a :class:`Program`).
        num_params: number of incoming arguments (read via ``PARAM``).
        blocks: basic blocks in layout order; ``blocks[0]`` is the entry.
        pool: source of fresh virtual registers for passes.
        frame_words: stack-frame size in 8-byte words (set by the register
            allocator: spill slots plus saved registers).
        returns_float: whether the return value is floating point.
    """

    __slots__ = ("name", "num_params", "blocks", "pool", "frame_words",
                 "returns_float", "param_is_float", "_label_counter",
                 "_reserved_labels", "__weakref__")

    def __init__(
        self,
        name: str,
        num_params: int = 0,
        returns_float: bool = False,
        param_is_float: tuple[bool, ...] | None = None,
    ) -> None:
        self.name = name
        self.num_params = num_params
        self.blocks: list[BasicBlock] = []
        self.pool = RegisterPool()
        self.frame_words = 0
        self.returns_float = returns_float
        self.param_is_float = param_is_float or tuple([False] * num_params)
        self._label_counter = 0
        self._reserved_labels: set[str] = set()

    # ------------------------------------------------------------- structure
    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def block(self, name: str) -> BasicBlock:
        for blk in self.blocks:
            if blk.name == name:
                return blk
        raise IRError(f"function {self.name}: no block named {name}")

    def block_index(self) -> dict[str, int]:
        """Map block name -> position in layout order."""
        return {blk.name: i for i, blk in enumerate(self.blocks)}

    def add_block(self, name: str | None = None) -> BasicBlock:
        if name is None:
            name = self.new_label()
        for blk in self.blocks:
            if blk.name == name:
                raise IRError(f"duplicate block name {name} in {self.name}")
        blk = BasicBlock(name)
        self.blocks.append(blk)
        return blk

    def insert_block_after(self, after: BasicBlock, name: str | None = None) -> BasicBlock:
        """Create a block immediately following ``after`` in layout order."""
        if name is None:
            name = self.new_label()
        blk = BasicBlock(name)
        idx = self.blocks.index(after)
        self.blocks.insert(idx + 1, blk)
        return blk

    def reserve_labels(self, names: set[str]) -> None:
        """Names :meth:`new_label` must avoid (e.g. blocks yet to be
        copied in by a transformation pass)."""
        self._reserved_labels |= names

    def new_label(self, hint: str = "L") -> str:
        """A fresh, unused block label."""
        existing = {blk.name for blk in self.blocks} | self._reserved_labels
        while True:
            self._label_counter += 1
            candidate = f".{hint}{self._label_counter}"
            if candidate not in existing:
                return candidate

    # ------------------------------------------------------------ traversals
    def instructions(self) -> Iterator[Instruction]:
        for blk in self.blocks:
            yield from blk.instructions

    def num_instructions(self) -> int:
        return sum(len(blk) for blk in self.blocks)

    def renumber_pool(self) -> None:
        """Make the pool safe after external IR construction or parsing."""
        max_int = -1
        max_float = -1
        for instr in self.instructions():
            for reg in instr.registers():
                if not reg.is_virtual:
                    continue
                if reg.is_float:
                    max_float = max(max_float, reg.index)
                else:
                    max_int = max(max_int, reg.index)
        self.pool.reserve_at_least(max_int + 1, max_float + 1)

    def __repr__(self) -> str:
        return (
            f"<Function {self.name}({self.num_params} params): "
            f"{len(self.blocks)} blocks, {self.num_instructions()} instrs>"
        )
