"""The run loop, written once and rendered per engine.

The plain interpreter, taint tracing, the profiler, the block JIT and
the timing model all run the fetch/step/act loop in :data:`TEMPLATE`.
An engine adds its work as snippets for the template's named slots (the
``#@name`` lines); :func:`render` splices them in at each slot's
indentation and compiles the result, at import time, into
``run_<name>(self, limit, <hooks>)``, under the file name
``<sim.loop:NAME>`` (registered with :mod:`linecache`, so tracebacks
show the rendered lines).  Snippets use the loop's locals directly, and
an empty slot renders to nothing.  ``docs/performance.md`` ("Dispatch
loop") lists the slots and how to add one.
"""

from __future__ import annotations

import linecache
from textwrap import dedent

# The rendered loops run in this module's globals and use these names.
from ..errors import SimulationError
from .events import GuestTrap, RunResult, RunStatus, TrapKind

# The step-closure action protocol (see repro.sim.machine).  ACT_BAIL
# is compiled code's alone: it stopped before a cold path and recorded
# where the interpreter takes over (see repro.sim.jit).
ACT_BAIL = -1
ACT_CALL = -2
ACT_EXIT = -3
ACT_RET = -4
ACT_DETECT = -5
ACT_RECOVER = -6

TEMPLATE = '''\
    hard_limit = self.max_instructions
    stop_at = hard_limit if limit is None else min(limit, hard_limit)
    func, block_idx, i = self._position
    icount = self.icount
    #@setup
    try:
        while True:
            #@dispatch
            block = func.blocks[block_idx]
            steps = block.steps
            n = len(steps)
            #@enter_block
            advanced = False
            while i < n:
                if icount >= stop_at:
                    self.icount = icount
                    self._position = (func, block_idx, i)
                    if icount >= hard_limit:
                        #@on_hang
                        return self._finish(RunStatus.HANG)
                    return RunResult(RunStatus.PAUSED, instructions=icount)
                #@before_count
                icount += 1
                #@before_step
                act = steps[i](self)
                if act is None:
                    i += 1
                    continue
                if act >= 0:
                    #@on_branch
                    block_idx = act
                    i = 0
                    advanced = True
                    break
                if act == ACT_CALL:
                    self.call_stack.append((func, block_idx, i + 1,
                        self.pending_dest, self.pending_dest_float))
                    func = self.pending_callee
                    #@on_call
                    block_idx = 0
                    i = 0
                    advanced = True
                    break
                if act == ACT_RET:
                    #@on_ret
                    if not self.call_stack:
                        self.icount = icount
                        return self._finish(RunStatus.EXITED)
                    func, block_idx, i, dest, dest_float = self._return()
                    #@after_ret
                    advanced = True
                    break
                if act == ACT_EXIT:
                    #@on_exit
                    self.icount = icount
                    return self._finish(RunStatus.EXITED)
                if act == ACT_DETECT:
                    #@on_detect
                    self.icount = icount
                    return self._finish(RunStatus.DETECTED)
                if act == ACT_RECOVER:
                    # Repair-block entry: counted here, because only the
                    # loop knows the exact dynamic icount.
                    #@on_recovery
                    self.recoveries += 1
                    if self.first_recovery_icount is None:
                        self.first_recovery_icount = icount
                    i += 1
                    continue
                raise SimulationError(f"bad step action {act}")
            if not advanced:
                # Fell off the end of the block: fallthrough in layout.
                block_idx += 1
                i = 0
                if block_idx >= len(func.blocks):
                    # Unreachable for verified code; an opcode fault that
                    # destroys a terminator makes it a wild PC (a crash).
                    raise GuestTrap(
                        TrapKind.SEGFAULT,
                        f"control fell off the end of {func.name}")
                #@on_fall
    except GuestTrap as trap:
        #@on_trap
        self.icount = icount
        return self._finish(RunStatus.TRAPPED, trap)
    #@on_leave finally:
'''

SLOTS = tuple(line.strip()[2:].partition(" ")[0]
              for line in TEMPLATE.splitlines()
              if line.strip().startswith("#@"))


def exec_source(source: str, filename: str, namespace: dict) -> dict:
    """Compile generated ``source`` as ``filename``, run it in
    ``namespace``, and register the text with :mod:`linecache` so
    tracebacks and debuggers can show its lines."""
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    return namespace


def hooks(**snippets: str) -> dict[str, str]:
    """A variant: slot name -> snippet (indentation-insensitive)."""
    return {slot: dedent(code).strip("\n") for slot, code in snippets.items()}


def merge(*variants: dict[str, str]) -> dict[str, str]:
    """Concatenate variants slot by slot, in argument order."""
    merged: dict[str, str] = {}
    for variant in variants:
        for slot, code in variant.items():
            merged[slot] = "\n".join(filter(None, (merged.get(slot), code)))
    return merged


def render(name: str, hook: str, variant: dict[str, str],
           namespace: dict | None = None):
    """Render :data:`TEMPLATE` with ``variant``'s snippets and compile
    it as ``run_<name>(self, limit, <hook>)``, in this module's globals
    plus ``namespace``.  ``hook`` names the hook parameters, comma
    separated when a merged variant takes more than one."""
    unknown = set(variant) - set(SLOTS)
    if unknown:
        raise ValueError(f"unknown loop slots: {sorted(unknown)}")
    lines = [f"def run_{name}(self, limit, {hook}):"]
    for line in TEMPLATE.splitlines():
        marker = line.strip()
        if not marker.startswith("#@"):
            lines.append(line)
            continue
        slot, _, header = marker[2:].partition(" ")
        code = variant.get(slot)
        if not code:
            continue
        indent = line[:len(line) - len(line.lstrip())]
        if header:
            lines.append(indent + header)
            indent += "    "
        lines += [indent + text if text else "" for text in code.splitlines()]
    filename = f"<sim.loop:{name}>"
    scope = exec_source("\n".join(lines) + "\n", filename,
                        {**globals(), **(namespace or {})})
    return scope[f"run_{name}"]


# ----------------------------------------------------------- the variants
#: Taint tracing: the tracker sees every instruction before it runs and
#: leaves through the plain loop once its step budget is spent.
TAINT = hooks(
    setup="self._current_function = func.name",
    enter_block="""
        instrs = block.instrs
        name = block.name
    """,
    before_count="""
        if taint.exhausted:
            # Step budget spent: the rest of the run goes untraced, from
            # this exact state (identical results).
            self.icount = icount
            self._position = (func, block_idx, i)
            return self.run(limit)
    """,
    before_step="""
        loc = (func.name, name, i)
        taint.before_step(self, instrs[i], icount, loc)
    """,
    on_call="""
        taint.on_call()
        self._current_function = func.name
    """,
    after_ret="""
        taint.on_ret(dest, dest_float)
        self._current_function = func.name
    """,
    on_detect="taint.on_detect(icount, loc)",
    on_recovery="taint.on_recovery(icount, loc)",
)

#: The hot-path profiler: a count per executed instruction, the block
#: bookkeeping and wall sampler once per block activation, and how each
#: activation ended.
PROFILE = hooks(
    setup="index_counts = prof.index_counts",
    enter_block="""
        key = (func.name, block.name)
        counts = index_counts.get(key)
        if counts is None:
            counts = prof.register_block(key, block)
        prof.block_tick(key, n)
    """,
    before_step="counts[i] += 1",
    on_recovery="prof.record_recovery(key)",
    **{slot: f'prof.record_exit(key, "{kind}")' for slot, kind in (
        ("on_hang", "hang"), ("on_branch", "branch"), ("on_call", "call"),
        ("on_ret", "ret"), ("on_exit", "exit"), ("on_detect", "detect"),
        ("on_fall", "fall"), ("on_trap", "trap"))},
)

#: The block JIT: at a block boundary (or a post-CALL resume point) run
#: the function's compiled code, which returns only at side exits and
#: bails.
JIT = hooks(
    setup="driver, resumes = jit.tables(func.name)",
    dispatch="""
        act = None
        if i:
            entry = resumes.get((block_idx, i))
            if entry is not None and icount + entry[1] <= stop_at:
                act = entry[0](self, icount)
                icount = self.icount
        elif driver is not None:
            act = driver(self, icount, stop_at, block_idx)
            icount = self.icount
            if act >= 0:
                # Fuel stop: block ``act`` cannot finish before stop_at
                # (the loop below interprets it and takes the pause), or
                # it is a repair block, which is always interpreted.
                block_idx = act
                act = None
        if act == ACT_BAIL:
            # A cold path: interpret on, in this iteration, from the
            # instruction compiled code stopped before.
            func, block_idx, i = self._position
            driver, resumes = jit.tables(func.name)
        elif act is not None:
            if act >= 0:
                block_idx = act
                i = 0
                continue
            if act == ACT_CALL or act <= -7:
                # Compiled calls push their own frame.  Action -7 - b is
                # a fuel stop at block b of an inline-called leaf.
                func = self.pending_callee
                block_idx = 0 if act == ACT_CALL else -7 - act
                i = 0
            elif act == ACT_RET:
                if not self.call_stack:
                    return self._finish(RunStatus.EXITED)
                func, block_idx, i, dest, dest_float = self._return()
            elif act == ACT_EXIT:
                return self._finish(RunStatus.EXITED)
            elif act == ACT_DETECT:
                return self._finish(RunStatus.DETECTED)
            else:
                raise SimulationError(f"bad jit action {act}")
            driver, resumes = jit.tables(func.name)
            continue
    """,
    on_call="driver, resumes = jit.tables(func.name)",
    after_ret="driver, resumes = jit.tables(func.name)",
)

#: Position seek: pause at the first arrival at ``target``, a
#: ``(function, block index, instruction index)`` position, after at
#: least one instruction -- where single-stepping would first stand
#: there -- or at the limit.  Compiled code never stops mid-run at a
#: position, so a seek always interprets.
SEEK = hooks(
    setup="""
        target_func, target_block, target_i = target
        start = icount
    """,
    before_count="""
        if (i == target_i and block_idx == target_block
                and func is target_func and icount != start):
            self.icount = icount
            self._position = (func, block_idx, i)
            return RunResult(RunStatus.PAUSED, instructions=icount)
    """,
)

run_plain = render("plain", "hook", {})
run_taint = render("taint", "taint", TAINT)
run_profile = render("profile", "prof", PROFILE)
run_jit = render("jit", "jit", JIT)
run_seek = render("seek", "target", SEEK)
run_profile_seek = render("profile_seek", "prof, target",
                          merge(PROFILE, SEEK))
