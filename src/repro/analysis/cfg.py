"""Control-flow graph over a function's layout-ordered basic blocks."""

from __future__ import annotations

from ..isa.block import BasicBlock
from ..isa.function import Function
from ..isa.opcodes import OpKind


class CFG:
    """Successor/predecessor maps and standard orderings for a function.

    Successor order is meaningful: for a conditional branch, the *taken*
    target comes first and the fallthrough block second.
    """

    def __init__(self, function: Function) -> None:
        self.function = function
        self.successors: dict[str, list[str]] = {}
        self.predecessors: dict[str, list[str]] = {}
        self._build()

    def _build(self) -> None:
        blocks = self.function.blocks
        for blk in blocks:
            self.successors[blk.name] = []
            self.predecessors.setdefault(blk.name, [])
        for idx, blk in enumerate(blocks):
            term = blk.terminator
            succs: list[str] = []
            if term is None:
                if idx + 1 < len(blocks):
                    succs.append(blocks[idx + 1].name)
            elif term.op.kind == OpKind.BRANCH:
                succs.append(term.label)
                if idx + 1 < len(blocks):
                    succs.append(blocks[idx + 1].name)
            elif term.op.kind == OpKind.JUMP:
                succs.append(term.label)
            # RET / EXIT: no successors.
            self.successors[blk.name] = succs
            for succ in succs:
                self.predecessors.setdefault(succ, []).append(blk.name)

    # --------------------------------------------------------------- orderings
    def reverse_postorder(self) -> list[BasicBlock]:
        """Blocks in reverse postorder from the entry (unreachable excluded)."""
        seen: set[str] = set()
        postorder: list[str] = []
        by_name = {blk.name: blk for blk in self.function.blocks}

        entry = self.function.entry.name
        stack: list[tuple[str, int]] = [(entry, 0)]
        seen.add(entry)
        while stack:
            name, child_idx = stack[-1]
            succs = self.successors[name]
            if child_idx < len(succs):
                stack[-1] = (name, child_idx + 1)
                child = succs[child_idx]
                if child not in seen:
                    seen.add(child)
                    stack.append((child, 0))
            else:
                stack.pop()
                postorder.append(name)
        return [by_name[name] for name in reversed(postorder)]

    def reachable(self) -> set[str]:
        return {blk.name for blk in self.reverse_postorder()}
