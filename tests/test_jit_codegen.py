"""Generated-code size of the block JIT (repro.sim.jit).

Every block is rendered once -- a block nothing dispatches to only in
its owner's chain, every other block only at its own dispatch entry --
the dirty-local writeback is one shared ``finally`` per function, and
leaf inlining stops at a per-function budget: together these keep
generated Python linear in program size.  These tests hold that bound
and the render-once rule on every paper cell and on random programs,
and pin the budget's fallback: a leaf call past the budget is a plain
side exit, still bit-identical to the interpreter.
"""

from collections import Counter

import pytest

from irgen import random_program
from repro.eval import prepare_machine
from repro.faults.injector import golden_run, run_with_fault
from repro.faults.model import sample_sites
from repro.sim import Machine
from repro.sim import jit
from repro.transform import (PAPER_TECHNIQUES, Technique, allocate_program,
                             protect)
from repro.workloads import PAPER_BENCHMARKS

# Generated source lines allowed per static instruction of a program.
# Every paper cell renders at most ~8 today: each block is rendered
# once, and cold paths (access-run slow paths, load misses, bad stores,
# SWIFT-R/TRUMP repair blocks) bail to the interpreter instead of being
# compiled.
LINES_PER_INSTRUCTION = 12


@pytest.fixture
def render_counts(monkeypatch):
    """Record whole-mode ``emit_body`` calls per block, one ``(cfunc,
    Counter)`` entry per driver and per inline expansion."""
    renders = []
    open_counts = []
    real_loops = jit._render_block_loops
    real_body = jit._Emitter.emit_body

    def loops(emitter, cfunc, fuel_stop):
        renders.append((cfunc, Counter()))
        open_counts.append(renders[-1][1])
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
    """Every non-repair block once per driver or expansion; no repair
    block at all."""
    assert renders
    for cfunc, counts in renders:
        repair = jit._repair_blocks(cfunc)
        assert {b: counts[b] for b in range(len(cfunc.blocks))} == {
            b: int(b not in repair) for b in range(len(cfunc.blocks))
        }, cfunc.name


@pytest.mark.parametrize("technique", PAPER_TECHNIQUES,
                         ids=lambda t: t.value)
@pytest.mark.parametrize("bench", PAPER_BENCHMARKS)
def test_paper_cell_codegen_is_linear(bench, technique, render_counts):
    machine = prepare_machine(bench, technique)
    compiled = jit.compile_program(machine)
    _assert_rendered_once(render_counts)
    assert all(driver is not None
               for driver, _resumes in compiled.tables_by_name.values())
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
        jit.compile_program(Machine(binary))
    _assert_rendered_once(render_counts)


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
