"""Generated-code size of the block JIT (repro.sim.jit).

Every compiled block is rendered once -- a block nothing dispatches to
only in its owner's chain, every other block only at its own dispatch
entry -- code that runs a bounded number of times per run and repair
blocks are not rendered at all, the dirty-local writeback is one shared
``finally`` per function, and leaf inlining stops at a per-function
budget: together these keep generated Python linear in program size.
These tests hold that bound and the render-once rule on every paper
cell and on random programs, pin which code stays interpreted, and pin
the budget's fallback: a leaf call past the budget is a plain side
exit, still bit-identical to the interpreter.
"""

from collections import Counter

import pytest

from irgen import random_program
from repro.eval import prepare_machine
from repro.faults.injector import golden_run, run_with_fault
from repro.faults.model import sample_sites
from repro.lang import compile_source
from repro.sim import Machine
from repro.sim import jit
from repro.transform import (PAPER_TECHNIQUES, Technique, allocate_program,
                             protect)
from repro.workloads import PAPER_BENCHMARKS

# Generated source lines allowed per static instruction of a program.
# Every paper cell renders at most ~8 today: each block is rendered
# once, and cold paths (access-run slow paths, bad loads and stores,
# SWIFT-R/TRUMP repair blocks, run-once code) are left to the
# interpreter instead of being compiled.
LINES_PER_INSTRUCTION = 12


@pytest.fixture
def render_counts(monkeypatch):
    """Record whole-mode ``emit_body`` calls per block, one ``(cfunc,
    facts, Counter)`` entry per driver and per inline expansion."""
    renders = []
    open_counts = []
    real_loops = jit._render_block_loops
    real_body = jit._Emitter.emit_body

    def loops(emitter, cfunc, fuel_stop):
        renders.append((cfunc, emitter.facts[cfunc.name], Counter()))
        open_counts.append(renders[-1][2])
        try:
            return real_loops(emitter, cfunc, fuel_stop)
        finally:
            open_counts.pop()

    def body(self, block, entry, instrs, nblocks):
        if self.whole:
            open_counts[-1][block] += 1
        return real_body(self, block, entry, instrs, nblocks)

    monkeypatch.setattr(jit, "_render_block_loops", loops)
    monkeypatch.setattr(jit._Emitter, "emit_body", body)
    return renders


def _assert_rendered_once(renders):
    """Every compiled block once per driver or expansion; no
    interpreted block at all."""
    assert renders
    for cfunc, facts, counts in renders:
        assert {b: counts[b] for b in range(len(cfunc.blocks))} == {
            b: int(b not in facts.interpreted)
            for b in range(len(cfunc.blocks))
        }, cfunc.name


@pytest.mark.parametrize("technique", PAPER_TECHNIQUES,
                         ids=lambda t: t.value)
@pytest.mark.parametrize("bench", PAPER_BENCHMARKS)
def test_paper_cell_codegen_is_linear(bench, technique, render_counts):
    machine = prepare_machine(bench, technique)
    compiled = jit.compile_program(machine)
    _assert_rendered_once(render_counts)
    # A function has a driver unless all of it runs interpreted.
    facts = jit._program_facts(machine)
    for name, (driver, _resumes) in compiled.tables_by_name.items():
        assert (driver is None) == (
            len(facts[name].interpreted)
            == len(machine.functions[name].blocks)), name
    lines = sum(src.count("\n") for src in compiled.sources.values())
    assert lines <= LINES_PER_INSTRUCTION * machine.program.num_instructions()
    # Recoveries are counted, and memory traps raised, only by the
    # interpreter.
    assert not any("m.recoveries" in src or "m.memory.check" in src
                   for src in compiled.sources.values())


@pytest.mark.parametrize("seed", range(6))
def test_random_programs_render_each_block_once(seed, render_counts):
    program = random_program(seed, num_blocks=4, instrs_per_block=10)
    for binary in [program] + [allocate_program(protect(program, technique))
                               for technique in (Technique.SWIFTR,
                                                 Technique.TRUMP)]:
        machine = Machine(binary)
        assert jit.compile_program(machine).tables("main")[0] is not None
        # Only the entry and exit blocks lie outside the one-pass loop
        # that holds a random program.
        facts = jit._program_facts(machine)["main"]
        blocks = machine.functions["main"].blocks
        assert {blocks[b].name for b in facts.interpreted - facts.repair} \
            == {"entry", "exit"}
    _assert_rendered_once(render_counts)


_HOT_SOURCE = """
int data[8] = { 3, 1, 4, 1, 5, 9, 2, 6 };
int sq(int x) { return x * x; }
int half(int x) { return x / 2; }
int depth(int n) {
    if (n > 0) { return depth(n - 1) + half(n); n = 0; }
    return 0;
}
int setup(int n) {
    int t = n;
    for (int i = 0; i < n; i++) { t = t * 3 + data[i]; }
    return t & 255;
}
int main() {
    int s = setup(3);
    for (int i = 0; i < 8; i++) { s += sq(data[i]); }
    print(s + depth(3));
    return 0;
}
"""


def test_run_once_code_stays_interpreted(render_counts):
    """A function called from a loop block (``sq``), from itself
    (``depth``) or from a hot function (``half``) is hot, and all of it
    but its repair blocks (here the unreachable block that the dead
    statement after ``depth``'s first ``return`` opens) is rendered.  In
    every other function (``main``, ``setup``) only the loop blocks are
    rendered: each block outside its loops is a fuel stop listed in
    ``JitProgram.interpreted``.  The program runs as it does on the
    interpreter."""
    machine = Machine(compile_source(_HOT_SOURCE))
    compiled = jit.compile_program(machine)
    facts = jit._program_facts(machine)
    assert jit._hot_functions(facts) == {"sq", "half", "depth"}
    interpreted = set()
    for name, cfunc in machine.functions.items():
        f = facts[name]
        if name in ("sq", "half", "depth"):
            assert f.interpreted == f.repair
        else:
            assert any(f.loops) and not all(f.loops)
            assert f.interpreted == {b for b, loop in enumerate(f.loops)
                                     if not loop}
        interpreted |= {(name, cfunc.blocks[b].name)
                        for b in f.interpreted}
    assert compiled.interpreted == interpreted
    _assert_rendered_once(render_counts)
    # ``sq`` is expanded in ``main``'s loop; ``depth`` is not a leaf.
    assert [cfunc.name for cfunc, _f, _c in render_counts].count("sq") == 2
    assert "_cb = 0" in compiled.sources["main"]

    jit_machine = Machine(machine.program)
    jit_machine.jit = compiled
    assert golden_run(jit_machine) == golden_run(Machine(machine.program))


def test_inline_budget_falls_back_to_side_exit_call(monkeypatch):
    """crc32's ``main`` calls two leaves.  Within budget they expand in
    place; with a budget too small for either, each call side-exits
    to the dispatcher, and the program still matches the interpreter
    on the golden run and on every faulty run."""
    machine = prepare_machine("crc32", Technique.TRUMP)
    exit_call = "m.pending_callee = m.functions['nextrand']"
    inlined = jit.compile_program(machine).sources["main"]
    assert "_cb = 0" in inlined and exit_call not in inlined

    monkeypatch.setattr(jit, "_INLINE_BUDGET", 0)
    # compile_program bypasses the per-program cache, so the
    # small-budget code never leaks into other tests' machines.
    compiled = jit.compile_program(machine)
    main = compiled.sources["main"]
    assert "_cb = 0" not in main and exit_call in main
    assert main.count("\n") < inlined.count("\n")

    jit_machine = Machine(machine.program,
                          max_instructions=machine.max_instructions)
    jit_machine.jit = compiled
    ref_machine = Machine(machine.program,
                          max_instructions=machine.max_instructions)
    golden = golden_run(ref_machine)
    assert golden_run(jit_machine) == golden
    for site in sample_sites(2006, golden.instructions, 12):
        assert run_with_fault(jit_machine, site) == run_with_fault(
            ref_machine, site), site
