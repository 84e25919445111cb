"""Block-compiling JIT for the virtual ISA.

The interpreter in :mod:`repro.sim.machine` dispatches one Python
closure per dynamic instruction.  That per-instruction dispatch -- a
list index, a call, an action check -- dominates campaign runtime now
that checkpointing and adaptive stopping have squeezed out redundant
*trials*.  This module removes it: every function is rendered into one
generated Python driver via opcode templates (the one-expression
formats, shared with the interpreter, live in
:mod:`repro.sim.semantics`) -- registers held in
Python locals across basic-block transitions, the instruction counter
carried as a local, block-to-block control flow as a binary-dispatch
``while`` loop -- then ``compile()``d once and cached per *program
identity*, so one compilation is amortised over the golden run and
every trial of every campaign on that binary.

Execution model ("side exits"):

* The JIT is the ``jit`` variant of the shared run loop
  (:mod:`repro.sim.loop`), selected by the ``Machine.jit`` gate: one
  attribute check per ``run()`` call.  Its ``dispatch`` hook calls the
  current function's compiled driver at every block boundary; the
  driver executes whole blocks fused (no per-instruction dispatch) and
  returns the loop's action protocol at every event the loop must own:
  calls, returns, program exit, detection.
* **Pause safety (fault injection, hangs):** the driver checks, at
  every block entry, that the whole block fits under ``stop_at``
  (``ic + len(block) <= stop``).  If not it returns with control at
  that block boundary and the loop interprets that block instruction
  by instruction -- so the pause at a fault site's exact dynamic
  icount, the instruction-budget hang, and snapshot boundaries are
  always taken by the interpreted loop, bit-identically.
* **Mid-block entry:** a ``CALL`` side-exits the driver (pushing its
  return frame directly); the post-call suffix of the block is
  compiled as a separate *resume segment* keyed ``(block, index)``.
  Restores into any other mid-block position (checkpoint restore,
  opcode-fault stepping) are interpreted until the next control
  transfer, then splice back into compiled dispatch.
* **Cold paths bail to the interpreter:** a same-base access run whose
  hoisted span check fails, a load or store at an address that is not
  a mapped, aligned word, and every other path that would trap are
  not compiled.  The code *bails* instead: it writes back its dirty
  locals, records the exact icount and ``(function, block, index)`` of
  the instruction it stopped before, and returns ``ACT_BAIL``; the run
  loop interprets from there in the same iteration.  (A single load
  that misses ``cells`` at a mapped, aligned word reads zero.)
  SWIFT-R/TRUMP repair blocks (entered only after a vote mismatch) are
  never compiled at all: each one's dispatch entry is a fuel stop, so
  the run loop, the one place recoveries are counted, interprets every
  repair.
* **Run-once code stays interpreted:** outside the *hot* functions
  (those called from a loop, from a hot function, or from
  themselves), every block outside a loop runs a bounded number of
  times per run.  It is a fuel stop like a repair block: about a
  quarter of the paper grid's static code outside repair blocks, and
  under 0.5% of any golden run's instructions.
* **Traps:** memory traps -- and every other guest trap (DIV/REM by
  zero, CVTFI of a non-finite value, PARAM out of range, falling off
  the function's end) -- come only from the interpreter, after a
  bail, so a trapped ``RunResult`` is the interpreter's own.
* Taint tracing and profiling take precedence over the JIT in
  ``Machine.run``: their hooks must see every instruction, so compiled
  execution is bypassed while either is attached (the profiler marks
  the blocks the JIT would run compiled, ``JitProgram.interpreted``
  being the rest; see :mod:`repro.obs.profile`).

Code size stays linear in program size: every compiled block is
rendered once.  A block that nothing dispatches to -- reached only by
its unique predecessor's fallthrough or ``JMP`` (``_owners``) -- is
rendered only inside that predecessor's straight-line chain, and its
own dispatch entry is a fuel stop.  Every other compiled block heads a
chain at its own entry.  A dispatch range of nothing but fuel stops is
one shared leaf, and a function with nothing compiled has no driver.
A leaf callee is expanded in place at a call site only while the
caller stays within ``_INLINE_BUDGET``; past it the call is a plain
side exit.  The CFG facts all of this reads (``_Facts``) are computed
once per function per compile.

Generated code holds no per-run state: drivers read the register files
and memory afresh from the ``Machine`` argument on every activation,
write dirty registers back once on the way out (one shared ``finally``
per function), and push call frames through ``m.functions`` so frames
are identical to interpreter frames.
Sharing one :class:`JitProgram` across machines is sound because slot
assignment (``Machine.slot_of``) is deterministic per program compile
order.
"""

from __future__ import annotations

import weakref

from ..isa.instruction import Instruction, Role
from ..isa.opcodes import Opcode, OpKind
from ..isa.operands import FImm, Imm, MASK64, to_signed
from ..isa.registers import Register
from ..obs.spans import span
from .loop import ACT_BAIL
from .machine import Machine, _fop_div
from .memory import bits_to_float, float_to_bits
from .semantics import (
    BRANCHES,
    FLOAT_BINOPS,
    FLOAT_COMPARES,
    FLOAT_UNOPS,
    INT_BINOPS,
    INT_UNOPS,
    RAW,
    SEXT,
    imm_operand,
    reg_operand,
)

_TWO63 = 1 << 63
_TWO64 = 1 << 64


def _bail(m, icount, func, block, index):
    """Leave compiled code before instruction ``index`` of ``block``,
    with ``icount`` retired; the run loop interprets on from there."""
    m.icount = icount
    m._position = (m.functions[func], block, index)
    return ACT_BAIL


def _unmapped(m, a):
    """``a`` is not a mapped, aligned word of ``m``'s memory."""
    mem = m.memory
    return a & 7 or not (mem.global_lo <= a < mem.global_hi
                         or mem.heap_lo <= a < mem.heap_hi
                         or mem.stack_lo <= a < mem.stack_hi)

# Namespace the generated code executes in.  Builtins are emptied so the
# templates are explicit about every name they touch; helpers keep IEEE
# float division byte-compatible with the interpreter's closures.
_GLOBALS = {
    "__builtins__": {},
    "_f2b": float_to_bits,
    "_b2f": bits_to_float,
    "_fdiv": _fop_div,
    "_bail": _bail,
    "_unmapped": _unmapped,
    "abs": abs,
    "_INF": float("inf"),
    "_NINF": float("-inf"),
    "_NAN": float("nan"),
    "type": type,
    "int": int,
    "float": float,
    "len": len,
    # Only evaluated when a LOAD's cells-subscript fast path misses
    # (exception clauses resolve the handler name lazily), so keep it
    # exported explicitly like everything else the templates touch.
    "KeyError": KeyError,
}

# Memory ops eligible for hoisted span checks (access runs).
_ACCESS_OPS = (Opcode.LOAD, Opcode.STORE, Opcode.FLOAD, Opcode.FSTORE)


class JitProgram:
    """Compiled drivers for one :class:`~repro.isa.program.Program`.

    ``tables(name)`` returns ``(driver, resumes)`` for one function:
    ``driver(m, ic, stop, bi)`` executes from block ``bi`` (instruction
    0) and ``resumes[(block, i)]`` maps each post-``CALL`` resume point
    to ``(segment_fn, need)`` where ``need`` is the most instructions
    the segment can retire (the dispatch loop's pause-safety precheck);
    a function with nothing compiled has ``(None, {})``.
    ``sources`` keeps the generated Python per function for debugging.
    ``interpreted`` holds the ``(function, block name)`` pairs the
    interpreter always runs: every block of a function with no driver,
    every SWIFT-R/TRUMP repair block, and every block of run-once code
    (``_Facts.interpreted``).
    """

    __slots__ = ("tables_by_name", "sources", "interpreted")

    def __init__(self, tables_by_name: dict, sources: dict[str, str],
                 interpreted: frozenset[tuple[str, str]]) -> None:
        self.tables_by_name = tables_by_name
        self.sources = sources
        self.interpreted = interpreted

    def tables(self, func_name: str):
        return self.tables_by_name[func_name]


class _Uncompilable(Exception):
    """An opcode with no template; the function stays interpreted."""


def _flit(value: float) -> str:
    """A source literal that evaluates to exactly ``value``."""
    value = float(value)
    if value != value:
        return "_NAN"
    if value == float("inf"):
        return "_INF"
    if value == float("-inf"):
        return "_NINF"
    return repr(value)


class _Emitter:
    """Renders instruction templates into Python source lines.

    Two modes share the templates:

    * ``whole=True`` -- emitting one block body of a function driver.
      ``ic`` is a *running* local (advanced at block transitions);
      taken branches stay inside the driver (``ic += d; bi = T;
      continue``) with **no register writeback**, because the function
      preamble loads every slot the function touches and locals stay
      live across blocks.
    * ``whole=False`` -- emitting a standalone post-``CALL`` resume
      segment.  ``ic`` is fixed at entry; every control transfer is a
      side exit returning the interpreter action protocol.
    """

    def __init__(self, machine: Machine, func_name: str,
                 block_index: dict[str, int], whole: bool,
                 int_cells: bool = False,
                 local_int: set[int] | None = None,
                 local_float: set[int] | None = None,
                 facts: dict | None = None) -> None:
        self.machine = machine
        self.func_name = func_name
        self.block_index = block_index
        self.whole = whole
        # True when memory cells provably never hold floats (no FSTORE
        # anywhere, no float in the initial data image): LOAD can skip
        # the per-access float-coercion check.
        self.int_cells = int_cells
        # Slots promoted to Python locals (read in the preamble, written
        # back at side exits).  Cold slots -- outside these sets --
        # access the register file in place, costing one index per use
        # but nothing at activation boundaries.  ``None`` = promote all
        # (resume segments are too short to be worth planning).
        self.local_int = local_int
        self.local_float = local_float
        # Per-function CFG facts (``_Facts``): a CALL to an inline leaf
        # expands the callee's whole block structure in place, running
        # on the caller's locals (the register file is shared, so no
        # state crosses the boundary).
        self.facts = facts
        # Function objects referenced by emitted frames, hoisted to the
        # prologue as ``_fnN = m.functions[name]`` (one load per
        # activation instead of one dict lookup per call).
        self.fn_syms: dict[str, str] = {}
        # Return frames for inline call sites are static tuples, built
        # once per activation in the prologue (``_frN = (...)``) and
        # pushed by reference at each call -- frames compare by value,
        # so sharing one tuple across pushes is observationally
        # identical to the interpreter's per-call tuples.
        self.frame_consts: list[str] = []
        # Inside an inline-expanded callee: the static kinds of the
        # argument list the call site just pushed (``_args``), letting
        # PARAM skip its bounds check and known-type coercions.
        self.inline_arg_kinds: list[str] | None = None
        # Name of the block-dispatch variable transfers assign
        # (``bi`` in the driver, ``_cb`` inside an inlined callee).
        self.dispatch_var = "bi"
        # RET emission mode: a driver returns -4 to the dispatcher; an
        # inlined callee body exits its dispatch loop and falls through
        # to the call-site continuation.
        self.ret_break = False
        self.block = 0        # current block index being emitted
        self.entry = 0        # absolute index of instruction 0 of the body
        # Index of the block a leaf's inner loop re-enters at (whole
        # mode): branches back to it are a bare ``continue``.
        self.chain_entry = -1
        # Chain-fusion signal (whole mode): an unconditional top-level
        # transfer sets this instead of emitting a dispatch round trip,
        # and the driver renderer either emits the successor inline (a
        # block it owns, see ``_owners``) or dispatches to it.
        self.chain_next: tuple[int, int] | None = None
        # Instructions rendered so far (inline expansions included)
        # against the most the inline budget allows this function; a
        # leaf call that would overrun it is emitted as a plain side
        # exit instead of expanded.
        self.rendered = 0
        self.inline_limit = 0
        self.int_slots: set[int] = set()
        self.float_slots: set[int] = set()
        self.int_writes: set[int] = set()
        self.float_writes: set[int] = set()
        self.uses_int_file = False
        self.uses_float_file = False
        self.uses_mem = False
        self._indent = ""
        self.lines: list[str] = []

    # ------------------------------------------------------------ operands
    def ireg(self, operand) -> str:
        slot = self.machine.slot_of(operand)
        self.uses_int_file = True
        if self.local_int is not None and slot not in self.local_int:
            return f"regs[{slot}]"
        self.int_slots.add(slot)
        return f"r{slot}"

    def freg(self, operand) -> str:
        slot = self.machine.slot_of(operand)
        self.uses_float_file = True
        if self.local_float is not None and slot not in self.local_float:
            return f"fregs[{slot}]"
        self.float_slots.add(slot)
        return f"f{slot}"

    def iwrite(self, operand) -> str:
        slot = self.machine.slot_of(operand)
        self.uses_int_file = True
        if self.local_int is not None and slot not in self.local_int:
            return f"regs[{slot}]"
        self.int_slots.add(slot)
        self.int_writes.add(slot)
        return f"r{slot}"

    def fwrite(self, operand) -> str:
        slot = self.machine.slot_of(operand)
        self.uses_float_file = True
        if self.local_float is not None and slot not in self.local_float:
            return f"fregs[{slot}]"
        self.float_slots.add(slot)
        self.float_writes.add(slot)
        return f"f{slot}"

    def operand(self, operand, mode: str = RAW) -> str:
        """An integer operand read in ``mode`` (see
        :mod:`repro.sim.semantics`): a literal or a register expression."""
        if isinstance(operand, Imm):
            return repr(imm_operand(operand.value, mode))
        return reg_operand(self.ireg(operand), mode)

    def float_expr(self, operand) -> str:
        if isinstance(operand, FImm):
            return _flit(operand.value)
        return self.freg(operand)

    # ------------------------------------------------------------- helpers
    def emit(self, line: str) -> None:
        self.lines.append(self._indent + line)

    def fn_sym(self, name: str) -> str:
        """Prologue-hoisted symbol for the function object ``name``."""
        sym = self.fn_syms.get(name)
        if sym is None:
            sym = f"_fn{len(self.fn_syms)}"
            self.fn_syms[name] = sym
        return sym

    def emit_exit(self, delta: int, action: str, indent: str = "") -> None:
        """Exact icount + return ``action`` (a side exit; the shared
        ``finally`` writes the dirty locals back)."""
        self.emit(f"{indent}m.icount = ic + {delta}")
        self.emit(f"{indent}return {action}")

    def emit_transfer(self, delta: int, target: int,
                      indent: str = "") -> None:
        """Control reaches block ``target`` after ``delta`` retired.

        In whole mode an *unconditional* (top-level) transfer signals
        the renderer to keep emitting the successor inline -- no
        dispatch round trip; conditional (indented) transfers re-enter
        the dispatch loop.
        """
        if self.whole:
            if not indent:
                self.chain_next = (delta, target)
                return
            self.emit(f"{indent}ic += {delta}")
            if target == self.chain_entry:
                # Back-edge to the leaf's own entry: loop locally inside
                # the leaf's inner ``while`` -- re-runs the entry fuel
                # check without a dispatch round trip.
                self.emit(f"{indent}continue")
            else:
                self.emit(f"{indent}{self.dispatch_var} = {target}")
                self.emit(f"{indent}break")
        else:
            self.emit_exit(delta, str(target), indent)

    def emit_bail(self, delta: int, indent: str = "") -> None:
        """A cold path: hand the rest of the block, from the instruction
        after ``delta`` retired ones, to the interpreter."""
        icount = f"ic + {delta}" if delta else "ic"
        self.emit(f"{indent}return _bail(m, {icount}, {self.func_name!r}, "
                  f"{self.block}, {self.entry + delta})")

    def in_segment(self, span: int = 0) -> str:
        """Condition: ``_a`` through ``_a + span`` lie in one segment."""
        mem = self.machine.memory
        bounds = ((mem.global_lo, mem.global_hi),
                  (mem.heap_lo, mem.heap_hi),
                  (mem.stack_lo, mem.stack_hi))
        if span:
            return " or ".join(f"{lo} <= _a and _a + {span} < {hi}"
                               for lo, hi in bounds)
        return " or ".join(f"{lo} <= _a < {hi}" for lo, hi in bounds)

    # ----------------------------------------------------- access runs
    def _access_run_length(self, seg: list[Instruction],
                           start: int) -> int:
        """Length of the hoistable load/store run starting at ``start``.

        A run is a maximal sequence of LOAD/STORE/FLOAD/FSTORE off one
        integer base register (not rewritten mid-run; a load that
        overwrites the base ends the run *after* itself) whose offsets
        share an 8-byte residue, so one aligned span check covers every
        access.
        """
        first = seg[start]
        if first.op not in _ACCESS_OPS:
            return 1
        base = first.srcs[0]
        if not isinstance(base, Register) or base.is_float:
            return 1
        base_slot = self.machine.slot_of(base)
        residue = first.srcs[1].signed % 8
        k = start
        while k < len(seg):
            instr = seg[k]
            if instr.op not in _ACCESS_OPS:
                break
            b = instr.srcs[0]
            if (not isinstance(b, Register) or b.is_float
                    or self.machine.slot_of(b) != base_slot
                    or instr.srcs[1].signed % 8 != residue):
                break
            k += 1
            dest = instr.dest
            if (isinstance(dest, Register) and not dest.is_float
                    and self.machine.slot_of(dest) == base_slot):
                break
        return k - start

    def _emit_access_run(self, seg: list[Instruction], start: int,
                         count: int) -> None:
        """One span check for a run of same-base accesses.

        Fast path: every address in the run's span lies aligned inside
        one segment, so each access is a bare ``cells`` op.  Otherwise
        the run bails before its first access and the interpreter
        checks each access, trapping at the exact icount of the first
        bad one -- the hoisted check is sufficient-but-not-necessary.
        """
        instrs = seg[start:start + count]
        base_expr = self.ireg(instrs[0].srcs[0])
        offs = [i.srcs[1].signed for i in instrs]
        lo, hi = min(offs), max(offs)
        self.uses_mem = True
        if lo:
            self.emit(f"_a = ({base_expr} + {lo}) & {MASK64}")
        else:
            self.emit(f"_a = {base_expr}")
        self.emit(f"if _a & 7 or not ({self.in_segment(hi - lo)}):")
        self.emit_bail(start, indent="    ")
        for instr, off in zip(instrs, offs):
            delta_off = off - lo
            addr = f"_a + {delta_off}" if delta_off else "_a"
            op = instr.op
            if op is Opcode.STORE:
                value = instr.srcs[2]
                expr = (repr(value.value) if isinstance(value, Imm)
                        else self.ireg(value))
                self.emit(f"cells[{addr}] = {expr}")
            elif op is Opcode.FSTORE:
                value = instr.srcs[2]
                expr = (_flit(float(value.value))
                        if isinstance(value, FImm)
                        else self.freg(value))
                self.emit(f"cells[{addr}] = {expr}")
            elif op is Opcode.LOAD:
                if self.int_cells:
                    dest = self.iwrite(instr.dest)
                    self.emit("try:")
                    self.emit(f"    {dest} = cells[{addr}]")
                    self.emit("except KeyError:")
                    self.emit(f"    {dest} = 0")
                else:
                    self.emit("try:")
                    self.emit(f"    _v = cells[{addr}]")
                    self.emit("except KeyError:")
                    self.emit("    _v = 0")
                    self.emit("if type(_v) is float:")
                    self.emit("    _v = _f2b(_v)")
                    self.emit(f"{self.iwrite(instr.dest)} = _v")
            else:  # FLOAD
                self.emit("try:")
                self.emit(f"    _v = cells[{addr}]")
                self.emit("except KeyError:")
                self.emit("    _v = 0")
                self.emit("if type(_v) is not float:")
                self.emit("    _v = _b2f(_v)")
                self.emit(f"{self.fwrite(instr.dest)} = _v")

    # ------------------------------------------------------------- body
    def emit_instruction(self, instr: Instruction, delta: int) -> bool:
        """Emit one instruction; True when it always leaves the body."""
        handler = _EMITTERS.get(instr.op)
        if handler is None:  # pragma: no cover - every opcode is mapped
            raise _Uncompilable(instr.op)
        return handler(self, instr, delta)

    def emit_body(self, block: int, entry: int,
                  instrs: list[Instruction], nblocks: int) -> list[str]:
        """Emit a block (suffix) body; returns and clears the lines."""
        self.block = block
        self.entry = entry
        seg = instrs[entry:]
        self.rendered += len(seg)
        left = False
        offset = 0
        while offset < len(seg):
            run = self._access_run_length(seg, offset)
            if run >= 3:
                self._emit_access_run(seg, offset, run)
                offset += run
                continue
            if self.emit_instruction(seg[offset], offset + 1):
                left = True
                break
            offset += 1
        if not left:
            # Fell off the end of the block: layout fallthrough.
            if block + 1 < nblocks:
                self.emit_transfer(len(seg), block + 1)
            else:
                # Off the last block: the interpreter traps (a wild PC).
                self.emit_bail(len(seg))
        lines = self.lines
        self.lines = []
        return lines

    # ------------------------------------------------------------ assembly
    def prologue_lines(self) -> list[str]:
        lines = [f"{sym} = m.functions[{name!r}]"
                 for name, sym in self.fn_syms.items()]
        lines += self.frame_consts
        if self.uses_int_file:
            lines.append("regs = m.regs")
            lines += [f"r{s} = regs[{s}]" for s in sorted(self.int_slots)]
        if self.uses_float_file:
            lines.append("fregs = m.fregs")
            lines += [f"f{s} = fregs[{s}]"
                      for s in sorted(self.float_slots)]
        if self.uses_mem:
            lines.append("cells = m.memory.cells")
        return lines

    def writeback_lines(self) -> list[str]:
        lines = [f"regs[{s}] = r{s}" for s in sorted(self.int_writes)]
        lines += [f"fregs[{s}] = f{s}" for s in sorted(self.float_writes)]
        return lines

    def assemble(self, name: str, args: str, body: list[str]) -> str:
        """Wrap a body in the def/prologue/try skeleton.

        Every way out -- side exit, fuel stop, bail -- writes back the
        same dirty locals, so the writeback is emitted once, as the
        ``finally`` of a ``try`` around the whole body.  Inlined callee
        code shares it: its dirty slots are in this function's set.
        """
        writeback = self.writeback_lines()
        out = [f"def {name}({args}):"]
        out += ["    " + line for line in self.prologue_lines()]
        if not writeback:
            out += ["    " + line for line in body]
            return "\n".join(out)
        out.append("    try:")
        out += ["        " + line for line in body]
        out.append("    finally:")
        out += ["        " + line for line in writeback]
        return "\n".join(out)


# ---------------------------------------------------------------- templates
# Each emitter returns True when the instruction unconditionally leaves
# the body.  ``delta`` counts instructions retired through (and
# including) this one, relative to the body's first instruction.

def _emit_binop(fmt: str, modes: tuple[str, str]):
    def emit(e: _Emitter, instr: Instruction, delta: int) -> bool:
        a = e.operand(instr.srcs[0], modes[0])
        b = e.operand(instr.srcs[1], modes[1])
        e.emit(f"{e.iwrite(instr.dest)} = {fmt.format(a=a, b=b, M=MASK64)}")
        return False
    return emit


def _emit_divrem(is_rem: bool):
    # Inlined two's-complement truncating division, exactly the
    # interpreter's _op_div/_op_rem; a zero divisor bails, so the
    # interpreter traps (no check at all for a provably nonzero
    # constant divisor).
    def emit(e: _Emitter, instr: Instruction, delta: int) -> bool:
        divisor = instr.srcs[1]
        d = e.iwrite(instr.dest)
        if isinstance(divisor, Imm) and divisor.value == 0:
            e.emit_bail(delta - 1)
            return True
        if isinstance(divisor, Imm) and to_signed(divisor.value) > 0:
            # Positive constant divisor: for a non-negative dividend,
            # Python's floor division/modulo equal the truncating
            # forms; for a negative one, negate through the identity
            # trunc(x/b) = -((-x)//b), x rem b = -((-x) mod b).
            bval = to_signed(divisor.value)
            e.emit(f"_x = {e.operand(instr.srcs[0])}")
            e.emit(f"if _x < {_TWO63}:")
            op = "%" if is_rem else "//"
            e.emit(f"    {d} = _x {op} {bval}")
            e.emit("else:")
            e.emit(f"    _x = {_TWO64} - _x")
            e.emit(f"    {d} = (-(_x {op} {bval})) & {MASK64}")
            return False
        if not isinstance(divisor, Imm):
            e.emit(f"if {e.ireg(divisor)} == 0:")
            e.emit_bail(delta - 1, indent="    ")
        e.emit(f"_x = {e.operand(instr.srcs[0], SEXT)}")
        e.emit(f"_y = {e.operand(divisor, SEXT)}")
        e.emit("_q = abs(_x) // abs(_y)")
        e.emit("if (_x < 0) != (_y < 0):")
        e.emit("    _q = -_q")
        if is_rem:
            e.emit(f"{d} = (_x - _q * _y) & {MASK64}")
        else:
            e.emit(f"{d} = _q & {MASK64}")
        return False
    return emit


def _emit_unop(fmt: str):
    def emit(e: _Emitter, instr: Instruction, delta: int) -> bool:
        a = e.operand(instr.srcs[0])
        e.emit(f"{e.iwrite(instr.dest)} = {fmt.format(a=a, M=MASK64)}")
        return False
    return emit


def _emit_li(e, instr, delta):
    e.emit(f"{e.iwrite(instr.dest)} = {instr.srcs[0].value!r}")
    return False


def _emit_mov(e, instr, delta):
    src = instr.srcs[0]
    if isinstance(src, Imm):
        return _emit_li(e, instr, delta)
    e.emit(f"{e.iwrite(instr.dest)} = {e.ireg(src)}")
    return False


def _emit_addr(e, base, offset: int) -> None:
    e.uses_mem = True
    if offset:
        e.emit(f"_a = ({e.ireg(base)} + {offset}) & {MASK64}")
    else:
        e.emit(f"_a = {e.ireg(base)}")


def _emit_load_miss(e, delta: int, dest: str) -> None:
    # ``cells`` keys are exactly the validly stored (aligned,
    # in-segment) addresses plus the initial data image, so a
    # subscript hit *proves* the address valid -- no per-load
    # alignment/segment check on the hot path (zero-cost try on
    # 3.11+).  A miss at a mapped, aligned word (one never stored)
    # reads zero; a bad address bails, and the interpreter traps.  The
    # test is a call: it runs only on a miss, and inline it would be
    # compiled into every load.
    e.emit("except KeyError:")
    e.emit("    if _unmapped(m, _a):")
    e.emit_bail(delta - 1, indent="        ")
    e.emit(f"    {dest} = 0")


def _emit_load(e, instr, delta):
    _emit_addr(e, instr.srcs[0], instr.srcs[1].signed)
    if e.int_cells:
        dest = e.iwrite(instr.dest)
        e.emit("try:")
        e.emit(f"    {dest} = cells[_a]")
        _emit_load_miss(e, delta, dest)
        return False
    e.emit("try:")
    e.emit("    _v = cells[_a]")
    _emit_load_miss(e, delta, "_v")
    e.emit("if type(_v) is float:")
    e.emit("    _v = _f2b(_v)")
    e.emit(f"{e.iwrite(instr.dest)} = _v")
    return False


def _emit_store_checked(e, expr: str, delta: int) -> None:
    # A store must validate before inserting (it would otherwise
    # corrupt the keys-are-valid-addresses invariant loads rely on),
    # but an address already present was validated by whoever stored
    # it first -- repeated stores (stack slots, accumulators) skip the
    # check entirely.  A bad new address bails to the interpreter.
    e.emit(f"if _a not in cells and (_a & 7 or not ({e.in_segment()})):")
    e.emit_bail(delta - 1, indent="    ")
    e.emit(f"cells[_a] = {expr}")


def _emit_store(e, instr, delta):
    value = instr.srcs[2]
    expr = repr(value.value) if isinstance(value, Imm) else e.ireg(value)
    _emit_addr(e, instr.srcs[0], instr.srcs[1].signed)
    _emit_store_checked(e, expr, delta)
    return False


def _emit_branch(cond: str, modes: tuple[str, str]):
    def emit(e: _Emitter, instr: Instruction, delta: int) -> bool:
        target = e.block_index[instr.label]
        a_src, b_src = instr.srcs[0], instr.srcs[1]
        a = e.operand(a_src, modes[0])
        b = e.operand(b_src, modes[1])
        if isinstance(a_src, Imm) and isinstance(b_src, Imm):
            # Constant branch: decided now, on the operand literals.
            taken = eval(cond.format(a=a, b=b), {"__builtins__": {}})
            if taken:
                e.emit_transfer(delta, target)
                return True
            return False
        e.emit(f"if {cond.format(a=a, b=b)}:")
        e.emit_transfer(delta, target, indent="    ")
        return False
    return emit


def _emit_jmp(e, instr, delta):
    e.emit_transfer(delta, e.block_index[instr.label])
    return True


def _emit_call(e, instr, delta):
    args = []
    for src in instr.srcs:
        if isinstance(src, Imm):
            args.append(repr(src.value))
        elif isinstance(src, FImm):
            args.append(_flit(src.value))
        elif src.is_float:
            args.append(e.freg(src))
        else:
            args.append(e.ireg(src))
    dest = -1
    dest_float = False
    if instr.dest is not None:
        dest = e.machine.slot_of(instr.dest)
        dest_float = instr.dest.is_float
    resume = e.entry + delta    # absolute index within the block
    callee_facts = (e.facts.get(instr.callee)
                    if e.whole and e.facts is not None else None)
    # An expansion renders each callee block once.
    inline = (callee_facts is not None and callee_facts.inline
              and e.rendered + callee_facts.size <= e.inline_limit)
    if not inline:
        # Push the return frame directly -- identical to the frame the
        # interpreter's run loop builds (state_matches compares call
        # stacks between jitted and interpreted runs) -- and side-exit
        # to the dispatcher, which swaps in the callee.
        e.emit(f"m.arg_stack.append([{', '.join(args)}])")
        e.emit(f"m.call_stack.append((m.functions[{e.func_name!r}], "
               f"{e.block}, {resume}, {dest}, {dest_float}))")
        e.emit(f"m.pending_callee = m.functions[{instr.callee!r}]")
        e.emit_exit(delta, "-2")
        return True
    caller_sym = e.fn_sym(e.func_name)
    frame = f"_fr{len(e.frame_consts)}"
    e.frame_consts.append(
        f"{frame} = ({caller_sym}, {e.block}, {resume}, "
        f"{dest}, {dest_float})")
    kinds = []
    for src in instr.srcs:
        if isinstance(src, Imm):
            kinds.append("int" if src.value & MASK64 == src.value
                         else "raw")
        elif isinstance(src, FImm) or src.is_float:
            kinds.append("float")
        else:
            kinds.append("int")
    e.emit(f"_args = [{', '.join(args)}]")
    e.emit("m.arg_stack.append(_args)")
    e.emit(f"m.call_stack.append({frame})")
    # Inline leaf call: expand the callee's entire block structure in
    # place, running on this function's locals -- the register file is
    # shared between caller and callee, so no writeback, no preamble,
    # and no reloads cross the boundary.  The frame pushed above is
    # only consumed by side exits: a fuel stop at a callee block entry
    # returns ``-7 - block`` with the callee pending (the dispatcher
    # resumes the callee's standalone driver there), and bails/detect/
    # exit leave mid-callee frames exactly as the interpreter would.
    # A leaf contains no CALL, so inline expansion depth is one.  RET
    # exits the callee dispatch loop and falls through to the
    # continuation below, which hands back to the dispatcher (-4, frame
    # still pushed) if the rest of this block no longer fits under
    # ``stop``.
    callee = instr.callee
    cfunc = e.machine.functions[callee]
    sym = e.fn_sym(callee)
    need = (len(e.machine.functions[e.func_name].blocks[e.block].instrs)
            - resume)
    e.emit(f"ic += {delta}")
    e.emit("_cb = 0")
    e.emit("while True:")
    e.emit("    if _cb < 0:")
    e.emit("        break")
    saved = (e.func_name, e.block_index, e.block, e.entry,
             e.chain_entry, e.chain_next, e.dispatch_var, e.ret_break,
             e.inline_arg_kinds, e.lines, e._indent,
             e.machine._current_function)
    e.func_name = callee
    e.block_index = cfunc.block_index
    e.dispatch_var = "_cb"
    e.ret_break = True
    e.inline_arg_kinds = kinds
    e.lines = []
    e._indent = ""
    e.machine._current_function = callee
    tree = _render_block_loops(
        e, cfunc,
        lambda cur: [f"m.pending_callee = {sym}", f"return -7 - {cur}"])
    (e.func_name, e.block_index, e.block, e.entry,
     e.chain_entry, e.chain_next, e.dispatch_var, e.ret_break,
     e.inline_arg_kinds, e.lines, e._indent,
     e.machine._current_function) = saved
    for line in tree:
        e.emit(line)
    if need:
        e.emit(f"if ic + {need} > stop:")
        e.emit("    m.icount = ic")
        e.emit("    return -4")
    e.emit("m.call_stack.pop()")
    e.emit("m.arg_stack.pop()")
    # Rebase: continuation deltas are relative to this block's entry;
    # fold the callee's retired count (and the call prefix already in
    # ``ic``) back into the base.
    e.emit(f"ic -= {delta}")
    if dest >= 0:
        e.emit("_rv = m.ret_value")
        if dest_float:
            d = e.fwrite(instr.dest)
            e.emit(f"{d} = float(_rv) if _rv is not None else 0.0")
        else:
            d = e.iwrite(instr.dest)
            e.emit(f"{d} = int(_rv) & {MASK64} if _rv is not None else 0")
    return False


def _emit_ret(e, instr, delta):
    if instr.srcs:
        src = instr.srcs[0]
        if isinstance(src, Imm):
            expr = repr(src.value)
        elif isinstance(src, FImm):
            expr = _flit(src.value)
        elif src.is_float:
            expr = e.freg(src)
        else:
            expr = e.ireg(src)
    else:
        expr = "None"
    e.emit(f"m.ret_value = {expr}")
    if e.ret_break:
        # Inlined callee: leave the callee dispatch loop; the call-site
        # continuation pops the frame and coerces the return value.
        e.emit(f"ic += {delta}")
        e.emit(f"{e.dispatch_var} = -1")
        e.emit("break")
        return True
    e.emit_exit(delta, "-4")
    return True


def _emit_param(e, instr, delta):
    idx = instr.srcs[0].value
    kinds = e.inline_arg_kinds
    if kinds is not None:
        # Inline-expanded callee: the call site just pushed ``_args``
        # with a statically known shape, so the bounds check resolves
        # at compile time and known-kind arguments skip the coercion
        # (int registers are invariantly masked; float registers are
        # Python floats).
        if idx >= len(kinds):
            e.emit_bail(delta - 1)
            return True
        if instr.dest.is_float:
            expr = (f"_args[{idx}]" if kinds[idx] == "float"
                    else f"float(_args[{idx}])")
            e.emit(f"{e.fwrite(instr.dest)} = {expr}")
        else:
            expr = (f"_args[{idx}]" if kinds[idx] == "int"
                    else f"int(_args[{idx}]) & {MASK64}")
            e.emit(f"{e.iwrite(instr.dest)} = {expr}")
        return False
    e.emit("_s = m.arg_stack")
    e.emit(f"if not _s or {idx} >= len(_s[-1]):")
    e.emit_bail(delta - 1, indent="    ")
    if instr.dest.is_float:
        e.emit(f"{e.fwrite(instr.dest)} = float(_s[-1][{idx}])")
    else:
        e.emit(f"{e.iwrite(instr.dest)} = int(_s[-1][{idx}]) & {MASK64}")
    return False


def _emit_print(e, instr, delta):
    src = instr.srcs[0]
    if isinstance(src, Imm):
        e.emit(f"m.output.append({src.signed!r})")
    else:
        e.emit(f"m.output.append({e.operand(src, SEXT)})")
    return False


def _emit_fprint(e, instr, delta):
    src = instr.srcs[0]
    if isinstance(src, FImm):
        e.emit(f"m.output.append({_flit(float(src.value))})")
    else:
        e.emit(f"m.output.append({e.freg(src)})")
    return False


def _emit_exit_op(e, instr, delta):
    src = instr.srcs[0]
    if isinstance(src, Imm):
        e.emit(f"m.exit_code = {src.signed!r}")
    else:
        e.emit(f"m.exit_code = {e.operand(src, SEXT)}")
    e.emit_exit(delta, "-3")
    return True


def _emit_detect(e, instr, delta):
    e.emit_exit(delta, "-5")
    return True


def _emit_nop(e, instr, delta):
    return False


def _emit_fbinop(fmt: str):
    def emit(e: _Emitter, instr: Instruction, delta: int) -> bool:
        a = e.float_expr(instr.srcs[0])
        b = e.float_expr(instr.srcs[1])
        e.emit(f"{e.fwrite(instr.dest)} = {fmt.format(a=a, b=b)}")
        return False
    return emit


def _emit_funop(fmt: str):
    def emit(e: _Emitter, instr: Instruction, delta: int) -> bool:
        a = e.freg(instr.srcs[0])
        e.emit(f"{e.fwrite(instr.dest)} = {fmt.format(a=a)}")
        return False
    return emit


def _emit_fcmp(fmt: str):
    def emit(e: _Emitter, instr: Instruction, delta: int) -> bool:
        a = e.freg(instr.srcs[0])
        b = e.freg(instr.srcs[1])
        e.emit(f"{e.iwrite(instr.dest)} = {fmt.format(a=a, b=b)}")
        return False
    return emit


def _emit_fli(e, instr, delta):
    e.emit(f"{e.fwrite(instr.dest)} = {_flit(float(instr.srcs[0].value))}")
    return False


def _emit_fmov(e, instr, delta):
    src = instr.srcs[0]
    if isinstance(src, FImm):
        return _emit_fli(e, instr, delta)
    e.emit(f"{e.fwrite(instr.dest)} = {e.freg(src)}")
    return False


def _emit_fload(e, instr, delta):
    _emit_addr(e, instr.srcs[0], instr.srcs[1].signed)
    e.emit("try:")
    e.emit("    _v = cells[_a]")
    _emit_load_miss(e, delta, "_v")
    e.emit("if type(_v) is not float:")
    e.emit("    _v = _b2f(_v)")
    e.emit(f"{e.fwrite(instr.dest)} = _v")
    return False


def _emit_fstore(e, instr, delta):
    value = instr.srcs[2]
    if isinstance(value, FImm):
        expr = _flit(float(value.value))
    else:
        expr = e.freg(value)
    _emit_addr(e, instr.srcs[0], instr.srcs[1].signed)
    _emit_store_checked(e, expr, delta)
    return False


def _emit_cvtif(e, instr, delta):
    src = instr.srcs[0]
    if isinstance(src, Imm):
        e.emit(f"{e.fwrite(instr.dest)} = {_flit(float(src.signed))}")
    else:
        e.emit(f"{e.fwrite(instr.dest)} = float({e.operand(src, SEXT)})")
    return False


def _emit_cvtfi(e, instr, delta):
    s = e.freg(instr.srcs[0])
    e.emit(f"if {s} != {s} or {s} == _INF or {s} == _NINF:")
    e.emit_bail(delta - 1, indent="    ")
    e.emit(f"{e.iwrite(instr.dest)} = int({s}) & {MASK64}")
    return False


_EMITTERS = {
    **{op: _emit_binop(fmt, modes)
       for op, (fmt, modes) in INT_BINOPS.items()},
    **{op: _emit_unop(fmt) for op, fmt in INT_UNOPS.items()},
    **{op: _emit_branch(cond, modes)
       for op, (cond, modes) in BRANCHES.items()},
    **{op: _emit_fbinop(fmt) for op, fmt in FLOAT_BINOPS.items()},
    **{op: _emit_funop(fmt) for op, fmt in FLOAT_UNOPS.items()},
    **{op: _emit_fcmp(fmt) for op, fmt in FLOAT_COMPARES.items()},
    Opcode.DIV: _emit_divrem(False),
    Opcode.REM: _emit_divrem(True),
    Opcode.LI: _emit_li,
    Opcode.MOV: _emit_mov,
    Opcode.LOAD: _emit_load,
    Opcode.STORE: _emit_store,
    Opcode.JMP: _emit_jmp,
    Opcode.CALL: _emit_call,
    Opcode.RET: _emit_ret,
    Opcode.PARAM: _emit_param,
    Opcode.PRINT: _emit_print,
    Opcode.FPRINT: _emit_fprint,
    Opcode.EXIT: _emit_exit_op,
    Opcode.DETECT: _emit_detect,
    Opcode.NOP: _emit_nop,
    Opcode.FMOV: _emit_fmov,
    Opcode.FLI: _emit_fli,
    Opcode.FLOAD: _emit_fload,
    Opcode.FSTORE: _emit_fstore,
    Opcode.CVTIF: _emit_cvtif,
    Opcode.CVTFI: _emit_cvtfi,
}


# ----------------------------------------------------------------- drivers
def _dispatch_tree(bodies: dict[int, list[str]], lo: int, hi: int,
                   indent: str, var: str, stop: list[str]) -> list[str]:
    """Binary dispatch over block indices [lo, hi): O(log n) compares
    per transition instead of a linear if-chain.  A block with no body
    is a fuel stop, and a range of nothing but fuel stops is one shared
    ``stop`` leaf, which returns the dispatch variable's block."""
    if not any(b in bodies for b in range(lo, hi)):
        return [indent + line for line in stop]
    if hi - lo == 1:
        return [indent + line for line in bodies[lo]]
    mid = (lo + hi) // 2
    out = [f"{indent}if {var} < {mid}:"]
    out += _dispatch_tree(bodies, lo, mid, indent + "    ", var, stop)
    out.append(f"{indent}else:")
    out += _dispatch_tree(bodies, mid, hi, indent + "    ", var, stop)
    return out


# Most instructions one function's driver may render, per static
# instruction of the function, before leaf calls stop being expanded
# in place.  Without inlining a driver renders each block once, so
# this bounds generated code linearly in program size.
_INLINE_BUDGET = 64


def _flow_edges(cfunc) -> list[tuple[int, int, bool]]:
    """Block-to-block ``(src, dst, is_branch)`` edges of ``cfunc``.

    Conditional-branch (``is_branch``) and jump targets plus layout
    fallthrough, minus RECOVERY/VOTE branches: SWIFT-R/TRUMP vote and
    repair blocks live past the function tail and branch *back* into
    the main flow on rarely-taken edges, which would otherwise make
    every repaired block a loop body and a join point.
    """
    index = cfunc.block_index
    nblocks = len(cfunc.blocks)
    edges = []
    for j, blk in enumerate(cfunc.blocks):
        for instr in blk.instrs:
            if (instr.op.kind in (OpKind.BRANCH, OpKind.JUMP)
                    and instr.role not in (Role.RECOVERY, Role.VOTE)):
                edges.append((j, index[instr.label],
                              instr.op.kind is OpKind.BRANCH))
        last = blk.instrs[-1] if blk.instrs else None
        if j + 1 < nblocks and (last is None or not last.is_terminator
                                or last.op.kind is OpKind.BRANCH):
            edges.append((j, j + 1, False))
    return edges


def _owners(cfunc, edges) -> list[int | None]:
    """Per block: the block whose chain renders it, or None.

    A block is owned -- *chain-interior* -- when its unique predecessor
    over ``edges`` (``_flow_edges``) reaches it by fallthrough or
    ``JMP`` and nothing else can dispatch to it: it is not the function
    entry, not a conditional-branch target, and its predecessor holds
    no ``CALL`` (returns and resume segments land on that block's
    successors).  Every other block (None) keeps a dispatch entry and
    heads a chain.  The owned-by relation is a forest, so every block
    is rendered once.
    """
    preds: list[set[int]] = [set() for _ in cfunc.blocks]
    heads = {0}
    calls = {b for b, blk in enumerate(cfunc.blocks)
             if any(instr.op is Opcode.CALL for instr in blk.instrs)}
    for src, dst, branch in edges:
        preds[dst].add(src)
        if branch or src in calls:
            heads.add(dst)
    return [next(iter(p)) if len(p) == 1 and b not in p and b not in heads
            else None for b, p in enumerate(preds)]


def _with_owned(blocks: set[int], owners: list[int | None]) -> set[int]:
    """``blocks`` plus every block their chains own, transitively."""
    blocks = set(blocks)
    while True:
        owned = {b for b, owner in enumerate(owners) if owner in blocks}
        if owned <= blocks:
            return blocks
        blocks |= owned


class _Facts:
    """What codegen needs to know about one function, computed once per
    :func:`compile_program` and read by its driver, its resume segments
    and every inline expansion of it.

    * ``owners`` -- :func:`_owners`;
    * ``loops[b]`` -- block ``b`` lies inside a backward-edge interval
      of ``_flow_edges`` (the classic interval approximation of a loop
      body; every CFG cycle lies inside one);
    * ``repair`` -- the SWIFT-R/TRUMP repair blocks: each one holding
      the RECOVERY/VOTE NOP that opens a repair, every block past the
      entry that no ``_flow_edges`` edge reaches (a SWIFT-R ``vfixb`` or
      TRUMP ``anfixt`` fix-up, entered only by a RECOVERY/VOTE branch),
      and the blocks these own.  Only a vote mismatch enters one, and
      the run loop is the one place recoveries are counted;
    * ``interpreted`` -- the repair blocks and, unless the function is
      hot (:func:`_hot_functions`), every block outside its loops, with
      the blocks these own: never rendered, each one's dispatch entry
      is a fuel stop;
    * ``calls`` -- ``(block, callee)`` of every CALL;
    * ``inline`` -- a CALL to the function may be expanded in place: it
      is a leaf (bounding expansion depth at one) and every opcode has
      a template (so the ``-7 - block`` fuel-stop protocol has a
      standalone driver to resume into);
    * ``size`` -- static instructions, an expansion's budget charge;
    * ``icounts``/``fcounts`` -- an inline leaf's :func:`_use_counts`,
      merged into its callers' local plans (inlined code runs on the
      caller's locals).
    """

    __slots__ = ("owners", "loops", "repair", "interpreted", "calls",
                 "inline", "size", "icounts", "fcounts")

    def __init__(self, cfunc) -> None:
        edges = _flow_edges(cfunc)
        self.owners = _owners(cfunc, edges)
        self.loops = [False] * len(cfunc.blocks)
        for j, t, _branch in edges:
            if t <= j:
                for b in range(t, j + 1):
                    self.loops[b] = True
        reached = {dst for _src, dst, _branch in edges}
        self.repair = _with_owned(
            {b for b, blk in enumerate(cfunc.blocks)
             if (b and b not in reached)
             or any(instr.op is Opcode.NOP
                    and instr.role in (Role.RECOVERY, Role.VOTE)
                    for instr in blk.instrs)}, self.owners)
        self.interpreted = self.repair
        self.calls = [(b, instr.callee)
                      for b, blk in enumerate(cfunc.blocks)
                      for instr in blk.instrs if instr.op is Opcode.CALL]
        self.inline = not self.calls and all(
            instr.op in _EMITTERS
            for blk in cfunc.blocks for instr in blk.instrs)
        self.size = sum(len(blk.instrs) for blk in cfunc.blocks)
        self.icounts: dict[int, int] = {}
        self.fcounts: dict[int, int] = {}


def _callees(facts: dict, names) -> set[str]:
    """``names`` and every function they call, transitively."""
    seen: set[str] = set()
    work = list(names)
    while work:
        name = work.pop()
        if name not in seen and name in facts:
            seen.add(name)
            work += [callee for _b, callee in facts[name].calls]
    return seen


def _hot_functions(facts: dict) -> set[str]:
    """Functions that may run more than a bounded number of times per
    program run: those called from a loop block, from a hot function,
    or from themselves (directly or through other calls).

    Every other function's blocks outside its loops run at most once
    per activation, and it is activated a bounded number of times, so
    that code stays interpreted (see ``_Facts.interpreted``).  Over the
    paper grid it is about a quarter of the static instructions outside
    repair blocks, and under 0.5% of every golden run's instructions
    (CI step "JIT coverage pin").
    """
    seeds = {callee for f in facts.values()
             for b, callee in f.calls if f.loops[b]}
    seeds |= {name for name, f in facts.items()
              if name in _callees(facts, [c for _b, c in f.calls])}
    return _callees(facts, seeds)


def _program_facts(machine: Machine) -> dict[str, _Facts]:
    """:class:`_Facts` of every function of ``machine``'s program."""
    facts = {name: _Facts(cfunc) for name, cfunc in machine.functions.items()}
    hot = _hot_functions(facts)
    for name, f in facts.items():
        if name not in hot:
            f.interpreted = _with_owned(
                f.repair | {b for b, loop in enumerate(f.loops)
                            if not loop}, f.owners)
    saved = machine._current_function
    try:
        for name, f in facts.items():
            if f.inline:
                machine._current_function = name
                f.icounts, f.fcounts = _use_counts(
                    machine, machine.functions[name], facts)
    finally:
        machine._current_function = saved
    return facts


def _use_counts(machine: Machine, cfunc, facts: dict
                ) -> tuple[dict[int, int], dict[int, int]]:
    """Loop-weighted static register-use counts for ``cfunc``.

    Uses in rendered blocks are counted, with an 8x weight inside a
    loop (``_Facts.loops``).  Each inline-expanded CALL merges the
    callee's own counts at the site's weight -- inlined code runs on
    the caller's locals, so the callee's hot slots are the caller's.
    """
    f = facts[cfunc.name]
    icounts: dict[int, int] = {}
    fcounts: dict[int, int] = {}
    for j, blk in enumerate(cfunc.blocks):
        if j in f.interpreted:
            continue
        weight = 8 if f.loops[j] else 1
        for instr in blk.instrs:
            for operand in (*instr.srcs, instr.dest):
                if isinstance(operand, Register):
                    slot = machine.slot_of(operand)
                    counts = fcounts if operand.is_float else icounts
                    counts[slot] = counts.get(slot, 0) + weight
            if instr.op is Opcode.CALL:
                callee = facts.get(instr.callee)
                if callee is not None and callee.inline:
                    for s, c in callee.icounts.items():
                        icounts[s] = icounts.get(s, 0) + weight * c
                    for s, c in callee.fcounts.items():
                        fcounts[s] = fcounts.get(s, 0) + weight * c
    return icounts, fcounts


def _plan_locals(machine: Machine, cfunc,
                 facts: dict) -> tuple[set[int], set[int]]:
    """Choose the register slots a driver promotes to Python locals.

    A promoted slot costs one preamble read plus one writeback line at
    every side exit, on *every* activation.  An in-place ``regs[s]``
    access costs one extra index per use but nothing at activation
    boundaries.  A slot is promoted when its weighted uses (including
    uses inside inline-expanded callees, which share this function's
    locals) beat the activation overhead.
    """
    icounts, fcounts = _use_counts(machine, cfunc, facts)
    local_int = {s for s, c in icounts.items() if c >= 3}
    local_float = {s for s, c in fcounts.items() if c >= 3}
    return local_int, local_float


def _render_driver(machine: Machine, cfunc, int_cells: bool,
                   facts: dict) -> str:
    """One generated function executing whole blocks of ``cfunc``.

    ``driver(m, ic, stop, bi)`` runs from block ``bi`` until a side
    exit, checking at each block entry that the block fits under
    ``stop`` (else it returns ``bi`` with ``m.icount`` synced, and the
    interpreter takes over at that exact boundary).  A fallthrough/JMP
    successor the current block owns (``_owners``) is emitted inline --
    registers stay in locals and no dispatch happens across it -- which
    is what fuses SWIFT-R's tiny check-and-branch blocks into
    straight-line code; any other successor is reached through
    dispatch.  Every block still performs its own fuel check, at its
    place in the chain, so the pause-safety predicate is
    per-block-activation regardless of fusion.
    """
    local_int, local_float = _plan_locals(machine, cfunc, facts)
    emitter = _Emitter(machine, cfunc.name, cfunc.block_index, whole=True,
                       int_cells=int_cells, local_int=local_int,
                       local_float=local_float, facts=facts)
    emitter.inline_limit = _INLINE_BUDGET * facts[cfunc.name].size
    loop = ["while True:"] + _render_block_loops(
        emitter, cfunc, lambda cur: [f"return {cur}"])
    return emitter.assemble("_driver", "m, ic, stop, bi", loop)


def _render_block_loops(emitter: _Emitter, cfunc, fuel_stop) -> list[str]:
    """The dispatch tree over every block of ``cfunc``, one level in.

    Each block's dispatch entry is its own inner loop: a back-edge to
    the entry block is a bare ``continue`` (no dispatch round trip,
    re-running the entry fuel check); transfers anywhere else ``break``
    back out to the binary dispatch after assigning
    ``emitter.dispatch_var``.  Each unowned block's entry runs the
    chain of owned (chain-interior) successors it heads, so each block
    is rendered exactly once.  ``fuel_stop(cur)`` supplies the exit
    lines for a block ``cur`` (a literal or the dispatch variable) that
    cannot complete under ``stop`` (emitted after the icount sync): a
    driver returns the block index; an inlined callee returns the ``-7
    - block`` encoding with the callee pending.  An interpreted block's
    entry (``_Facts.interpreted``) is nothing but that fuel stop, and no
    chain runs into one, so the interpreter runs it.  An owned block's
    entry is the same fuel stop: only the interpreter dispatches there
    (a repair's ``JMP`` back, a pause, bail or restore inside the
    chain), and it interprets on to the next block with an entry.
    """
    f = emitter.facts[cfunc.name]
    owners, interpreted = f.owners, f.interpreted
    nblocks = len(cfunc.blocks)
    bodies: dict[int, list[str]] = {}
    for b, owner in enumerate(owners):
        if b in interpreted or owner is not None:
            continue
        chain: list[str] = []
        emitter.chain_entry = b
        cur = b
        while True:
            blk = cfunc.blocks[cur]
            n = len(blk.instrs)
            if n:
                # Pause-safety fuel check: never start a block that
                # could cross the stop boundary; the interpreter owns
                # pauses (and any early branch out of the block).
                chain.append(f"if ic + {n} > stop:")
                chain.append("    m.icount = ic")
                chain += ["    " + line for line in fuel_stop(cur)]
            emitter.chain_next = None
            chain += emitter.emit_body(cur, 0, blk.instrs, nblocks)
            nxt = emitter.chain_next
            if nxt is None:
                break
            delta, target = nxt
            if delta:
                chain.append(f"ic += {delta}")
            if target == b:
                chain.append("continue")
                break
            if owners[target] != cur or target in interpreted:
                chain.append(f"{emitter.dispatch_var} = {target}")
                chain.append("break")
                break
            cur = target
        bodies[b] = ["while True:"] + ["    " + line for line in chain]
    var = emitter.dispatch_var
    return _dispatch_tree(bodies, 0, nblocks, "    ", var,
                          ["m.icount = ic", *fuel_stop(var)])


def _render_resume(machine: Machine, cfunc, b: int, entry: int,
                   name: str, int_cells: bool) -> str:
    """A standalone segment for the post-``CALL`` suffix of a block."""
    emitter = _Emitter(machine, cfunc.name, cfunc.block_index, whole=False,
                       int_cells=int_cells)
    body = emitter.emit_body(b, entry, cfunc.blocks[b].instrs,
                             len(cfunc.blocks))
    return emitter.assemble(name, "m, ic", body)


def _compile_function(machine: Machine, cfunc, int_cells: bool,
                      facts: dict):
    interpreted = facts[cfunc.name].interpreted
    if len(interpreted) == len(cfunc.blocks):
        # Nothing to compile: the function runs interpreted, exactly as
        # if it had no template (the dispatch loop handles a missing
        # driver).
        return (None, {}), ""
    machine._current_function = cfunc.name
    pieces: list[str] = []
    resume_specs: list[tuple[int, int, str, int]] = []
    try:
        pieces.append(_render_driver(machine, cfunc, int_cells, facts))
        for b, blk in enumerate(cfunc.blocks):
            if b in interpreted:
                continue
            for j, instr in enumerate(blk.instrs):
                if instr.op is Opcode.CALL and j + 1 < len(blk.instrs):
                    name = f"_resume_{b}_{j + 1}"
                    pieces.append(_render_resume(
                        machine, cfunc, b, j + 1, name, int_cells))
                    resume_specs.append((b, j + 1, name,
                                         len(blk.instrs) - (j + 1)))
    except _Uncompilable:
        # An opcode without a template: leave the whole function to the
        # interpreter.
        return (None, {}), ""
    source = "\n\n".join(pieces)
    namespace = dict(_GLOBALS)
    code = compile(source, f"<jit:{cfunc.name}>", "exec")
    exec(code, namespace)  # noqa: S102 - our own generated source
    resumes = {(b, i): (namespace[name], need)
               for b, i, name, need in resume_specs}
    return (namespace["_driver"], resumes), source


def compile_program(machine: Machine) -> JitProgram:
    """Compile every function of ``machine``'s program."""
    saved = machine._current_function
    tables = {}
    sources = {}
    interpreted = set()
    # Floats can only reach memory via FSTORE or the initial data
    # image; absent both, every LOAD can skip its coercion check.
    int_cells = not any(
        instr.op is Opcode.FSTORE
        for cf in machine.functions.values()
        for blk in cf.blocks for instr in blk.instrs
    ) and not any(
        isinstance(v, float) for v in machine._initial_cells.values()
    )
    try:
        facts = _program_facts(machine)
        for name, cfunc in machine.functions.items():
            table, source = _compile_function(machine, cfunc, int_cells,
                                              facts)
            tables[name] = table
            sources[name] = source
            left = (range(len(cfunc.blocks)) if table[0] is None
                    else facts[name].interpreted)
            interpreted.update((name, cfunc.blocks[b].name) for b in left)
    finally:
        machine._current_function = saved
    return JitProgram(tables, sources, frozenset(interpreted))


# One compiled JitProgram per *program identity*, shared by every
# Machine (and so every campaign trial) executing that program.  Keyed
# by id() with a weakref reaper so entries die with their programs;
# slot assignment is deterministic per program, making the shared code
# machine-independent.
_CACHE: dict[int, tuple] = {}


def jit_program_for(machine: Machine) -> JitProgram:
    """The cached (or freshly compiled, under a ``jit.codegen`` span)
    :class:`JitProgram`."""
    program = machine.program
    key = id(program)
    cached = _CACHE.get(key)
    if cached is not None and cached[0]() is program:
        return cached[1]
    with span("jit.codegen", functions=len(machine.functions)) as sp:
        compiled = compile_program(machine)
        sp.set(source_lines=sum(source.count("\n")
                                for source in compiled.sources.values()))
    try:
        ref = weakref.ref(program, lambda _r, k=key: _CACHE.pop(k, None))
    except TypeError:  # pragma: no cover - Program is always weakref-able
        ref = (lambda p=program: p)
    _CACHE[key] = (ref, compiled)
    return compiled


def attach_jit(machine: Machine) -> JitProgram:
    """Attach (and cache-compile) a JIT to ``machine``; returns it."""
    compiled = jit_program_for(machine)
    machine.jit = compiled
    return compiled
