"""Generated-code size of the block JIT (repro.sim.jit).

Chains fuse a block only into its unique predecessor, the dirty-local
writeback is one shared ``finally`` per function, and leaf inlining
stops at a per-function budget -- together these keep generated Python
linear in program size.  These tests hold that bound on every paper
cell and pin the budget's fallback: a leaf call past the budget is a
plain side exit, still bit-identical to the interpreter.
"""

import pytest

from repro.eval import prepare_machine
from repro.faults.injector import golden_run, run_with_fault
from repro.faults.model import sample_sites
from repro.sim import Machine
from repro.sim import jit
from repro.transform import PAPER_TECHNIQUES, Technique
from repro.workloads import PAPER_BENCHMARKS

# Generated source lines allowed per static instruction of a program.
# Every paper cell renders at most ~22 today: cold paths (access-run
# slow paths, load misses, bad stores, SWIFT-R/TRUMP repair blocks)
# bail to the interpreter instead of being compiled.
LINES_PER_INSTRUCTION = 32


@pytest.mark.parametrize("technique", PAPER_TECHNIQUES,
                         ids=lambda t: t.value)
@pytest.mark.parametrize("bench", PAPER_BENCHMARKS)
def test_paper_cell_codegen_is_linear(bench, technique):
    machine = prepare_machine(bench, technique)
    compiled = jit.compile_program(machine)
    assert all(driver is not None
               for driver, _resumes in compiled.tables_by_name.values())
    lines = sum(src.count("\n") for src in compiled.sources.values())
    assert lines <= LINES_PER_INSTRUCTION * machine.program.num_instructions()
    # Recoveries are counted, and memory traps raised, only by the
    # interpreter.
    assert not any("m.recoveries" in src or "m.memory.check" in src
                   for src in compiled.sources.values())


def test_inline_budget_falls_back_to_side_exit_call(monkeypatch):
    """crc32's ``main`` calls two leaves.  Within budget they expand in
    place; with a budget too small for either, each call side-exits
    to the dispatcher, and the program still matches the interpreter
    on the golden run and on every faulty run."""
    machine = prepare_machine("crc32", Technique.TRUMP)
    exit_call = "m.pending_callee = m.functions['nextrand']"
    inlined = jit.compile_program(machine).sources["main"]
    assert "_cb = 0" in inlined and exit_call not in inlined

    monkeypatch.setattr(jit, "_INLINE_BUDGET", 1)
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
