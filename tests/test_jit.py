"""Differential tests for the block-compiling JIT (repro.sim.jit).

The JIT's whole contract is *bit-identical outcomes*: a campaign with
``jit=True`` must produce exactly the RunResults, telemetry, and final
architectural states the interpreter produces, for golden runs and for
every injected trial -- including injections that pause execution in
the middle of a compiled block and snapshot/restore round trips that
re-enter one.  These tests fuzz that claim on random programs and pin
the specific side-exit mechanics with deterministic cases.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from irgen import random_program, repeat
from repro.eval import prepare_machine
from repro.faults import campaign as campaign_module
from repro.faults import parallel as parallel_module
from repro.faults import run_campaign
from repro.isa import Function, IRBuilder, Imm, Opcode, Program, Role
from repro.isa.program import HEAP_BASE, HEAP_BYTES
from repro.lang import compile_source
from repro.faults.injector import golden_run, run_with_fault
from repro.faults.model import FaultSite, sample_sites
from repro.obs.campaign_log import CampaignLog
from repro.obs.profile import SimProfiler
from repro.sim import Machine, jit
from repro.sim.jit import attach_jit, jit_program_for
from repro.transform import Technique, allocate_program, protect


def _machine_pair(program, max_instructions=2_000_000):
    """A (jit, interpreter) machine pair over the same program."""
    jit_machine = Machine(program, max_instructions=max_instructions)
    attach_jit(jit_machine)
    ref_machine = Machine(program, max_instructions=max_instructions)
    return jit_machine, ref_machine


def _final_state(machine):
    """Everything architectural a run leaves behind (positions and call
    frames hold per-machine compiled-function objects, so compare by
    name)."""
    position = machine._position
    if position is not None:
        position = (position[0].name, position[1], position[2])
    return (
        machine.icount,
        list(machine.regs),
        list(machine.fregs),
        dict(machine.memory.cells),
        list(machine.output),
        [(frame[0].name, *frame[1:]) for frame in machine.call_stack],
        list(machine.arg_stack),
        machine.recoveries,
        machine.first_recovery_icount,
        machine.exit_code,
        position,
    )


def _binaries(seed):
    """One random program as (virtual-register, SWIFT-R-protected,
    TRUMP-protected), the protected builds register-allocated."""
    program = random_program(seed, num_blocks=3, instrs_per_block=9)
    return [program] + [allocate_program(protect(program, technique))
                        for technique in (Technique.SWIFTR,
                                          Technique.TRUMP)]


def _assert_main_compiled(machine):
    """A random program's ``main`` is compiled but for its entry and
    exit blocks (outside its one-pass loop) and repair blocks."""
    assert jit_program_for(machine).tables("main")[0] is not None
    facts = jit._program_facts(machine)["main"]
    blocks = machine.functions["main"].blocks
    assert {blocks[b].name for b in facts.interpreted - facts.repair} \
        == {"entry", "exit"}


# --------------------------------------------------------------- fuzz
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_differential_fuzz_golden_and_faulty(seed):
    """Random programs + random fault plans: the JIT agrees with the
    interpreter on every RunResult field and every byte of final
    architectural state."""
    for binary in _binaries(seed):
        jit_machine, ref_machine = _machine_pair(binary)
        _assert_main_compiled(jit_machine)
        jit_golden = golden_run(jit_machine)
        ref_golden = golden_run(ref_machine)
        assert jit_golden == ref_golden, (seed, "golden")
        assert _final_state(jit_machine) == _final_state(ref_machine)

        sites = sample_sites(seed ^ 0xBEEF, ref_golden.instructions, 12)
        for site in sites:
            jit_faulty = run_with_fault(jit_machine, site)
            ref_faulty = run_with_fault(ref_machine, site)
            assert jit_faulty == ref_faulty, (seed, site)
            assert _final_state(jit_machine) == _final_state(ref_machine), (
                seed, site)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_differential_fuzz_campaign_telemetry(seed):
    """Whole campaigns agree trial for trial, including the telemetry
    records a CampaignLog captures (fault site, outcome, latency)."""
    binary = _binaries(seed)[1]
    _assert_main_compiled(Machine(binary))
    logs = {}
    results = {}
    for jit in (True, False):
        log = CampaignLog()
        results[jit] = run_campaign(binary, trials=25, seed=seed,
                                    log=log, jit=jit)
        logs[jit] = log
    assert results[True] == results[False]
    assert logs[True].to_dicts() == logs[False].to_dicts()


def _load_program(address, op):
    """main: print(load(address)) in a loop that runs twice -- one LOAD
    or FLOAD (printed through CVTFI), nothing else."""
    program = Program()
    fn = Function("main")
    program.add_function(fn)
    builder = IRBuilder(fn)
    builder.start_block("entry")
    program.assign_addresses()
    with repeat(builder, 2):
        base = builder.li(address)
        if op is Opcode.LOAD:
            builder.print_(builder.load(base))
        else:
            builder.print_(builder.cvtfi(builder.fload(base)))
    builder.ret()
    fn.renumber_pool()
    return program


def test_load_miss_paths_match_interpreter(monkeypatch):
    """Regression: the compiled LOAD's and FLOAD's fast path subscripts
    ``cells`` directly and only a miss checks the address.  Every miss
    flavour -- a mapped-but-never-written word (reads as zero,
    compiled), and an unmapped or misaligned address (bails; the
    interpreter segfaults) -- must behave identically to the
    interpreter.  (The miss handler once referenced a name absent from
    the generated code's emptied-builtins namespace, which no
    golden-path test could see.)"""
    bails = []
    real = jit._GLOBALS["_bail"]

    def recording(m, icount, func, block, index):
        bails.append(icount)
        return real(m, icount, func, block, index)

    monkeypatch.setitem(jit._GLOBALS, "_bail", recording)
    for op in (Opcode.LOAD, Opcode.FLOAD):
        for address, bail in ((HEAP_BASE, False),      # never stored: 0
                              (HEAP_BASE - 8, True),   # unmapped
                              (HEAP_BASE + 1, True)):  # misaligned
            where = (op.name, hex(address))
            program = _load_program(address, op)
            jit_machine, ref_machine = Machine(program), Machine(program)
            jit_machine.jit = jit.compile_program(jit_machine)
            assert jit_machine.jit.tables("main")[0] is not None
            bails.clear()
            jit_result = golden_run(jit_machine)
            assert jit_result == golden_run(ref_machine), where
            assert _final_state(jit_machine) == _final_state(ref_machine)
            assert jit_result.status.value == (
                "trapped" if bail else "exited"), where
            # A bad address bails at the load, after the loop's set-up
            # (li, jmp) and the address's li.
            assert bails == ([3] if bail else []), where


# --------------------------------------- mid-block injection side exits
def test_mid_block_injection_every_icount():
    """Pausing a compiled block at *every* dynamic instruction of a
    prefix -- most of them mid-block -- leaves state bit-identical to
    the interpreter, at the pause and at the end of the faulty run."""
    binary = _binaries(11)[1]
    jit_machine, ref_machine = _machine_pair(binary)
    _assert_main_compiled(jit_machine)
    golden = golden_run(ref_machine)
    assert golden_run(jit_machine) == golden
    span = min(golden.instructions, 240)
    for icount in range(span):
        site = FaultSite(dynamic_index=icount,
                         reg_index=5 + (icount % 3) * 4,
                         bit=(icount * 7) % 64)
        for machine in (jit_machine, ref_machine):
            machine.reset()
            paused = machine.run(site.dynamic_index)
            assert paused.status.value == "paused"
        # The pause boundary itself is exact: same registers, memory,
        # and resume position whichever engine ran the prefix.
        assert _final_state(jit_machine) == _final_state(ref_machine), icount
        completions = []
        for machine in (jit_machine, ref_machine):
            machine.flip_register_bit(site.reg_index, site.bit)
            completions.append(machine.run(None))
        assert completions[0] == completions[1], icount
        assert _final_state(jit_machine) == _final_state(ref_machine), icount


_LEAF_SOURCE = """
int data[6] = { 7, 1, 8, 2, 8, 1 };
int mix(int x) {
    int acc = x;
    for (int i = 0; i < 6; i++) { acc = acc * 3 + data[i]; }
    return acc & 65535;
}
int main() {
    int total = 0;
    for (int k = 0; k < 3; k++) { total += mix(total + k); }
    print(total);
    return 0;
}
"""


def test_inlined_leaf_pause_at_every_icount():
    """``mix`` is a leaf, so ``main``'s driver expands it in place.
    Pausing at every dynamic instruction puts fuel stops inside the
    inlined body (the ``-7 - block`` protocol: the callee's own driver
    resumes there), and a register flip at each pause drives SWIFT-R
    repairs whose blocks branch back to owned blocks, entered directly
    through dispatch.  Every pause and completion matches the
    interpreter."""
    binary = allocate_program(protect(compile_source(_LEAF_SOURCE),
                                      Technique.SWIFTR))
    jit_machine, ref_machine = _machine_pair(binary)
    assert "_cb = 0" in jit_program_for(jit_machine).sources["main"]
    golden = golden_run(ref_machine)
    assert golden_run(jit_machine) == golden
    repaired = 0
    for icount in range(golden.instructions):
        for machine in (jit_machine, ref_machine):
            machine.reset()
            assert machine.run(icount).status.value == "paused"
        assert _final_state(jit_machine) == _final_state(ref_machine), icount
        completions = []
        for machine in (jit_machine, ref_machine):
            machine.flip_register_bit(5 + (icount % 3) * 4, (icount * 7) % 64)
            completions.append(machine.run(None))
        assert completions[0] == completions[1], icount
        assert _final_state(jit_machine) == _final_state(ref_machine), icount
        repaired += jit_machine.recoveries > 0
    assert repaired


@pytest.mark.parametrize("technique", [Technique.NOFT, Technique.TRUMP],
                         ids=lambda t: t.value)
def test_pause_at_every_icount_in_interpreted_code_of_compiled_function(
        technique):
    """``main`` has a driver for its loop, but its code outside the loop
    runs once per run, so those blocks are interpreted: their dispatch
    entries are fuel stops.  Pausing at every icount inside them, with
    a register flip at each pause, matches the interpreter at the pause
    and at the end of the run."""
    binary = allocate_program(protect(compile_source(_LEAF_SOURCE),
                                      technique))
    jit_machine, ref_machine = _machine_pair(binary)
    compiled = jit_program_for(jit_machine)
    assert compiled.tables("main")[0] is not None
    ref_machine.reset()
    icounts = []
    icount = 0
    while True:
        func, block, _ = ref_machine._position
        if (func.name, func.blocks[block].name) in compiled.interpreted:
            assert compiled.tables(func.name)[0] is not None
            icounts.append(icount)
        if ref_machine.run(icount + 1).status.value != "paused":
            break
        icount += 1
    assert len(icounts) >= 10
    for icount in icounts:
        _flip_and_finish(jit_machine, ref_machine, icount)


# ------------------------------------------ entries into chain interiors
# A block reached only by its unique predecessor's fallthrough or JMP is
# rendered only inside that predecessor's chain, and its own dispatch
# entry is a fuel stop: a pause, restore or repair that hands such a
# block to dispatch has the interpreter run on to the next block with
# an entry.  Each case below compares the RunResult (recoveries and the
# first recovery's icount included) and the final state.
_CHAIN_TECHNIQUES = pytest.mark.parametrize(
    "technique", [Technique.SWIFTR, Technique.TRUMP], ids=lambda t: t.value)


def _chain_interior(machine):
    """``(function, block)`` of every compiled chain-interior block."""
    interior = set()
    for name, facts in jit._program_facts(machine).items():
        interior.update((name, b) for b, owner in enumerate(facts.owners)
                        if owner is not None and b not in facts.interpreted)
    return interior


def _first_arrivals(machine):
    """``(function, block) -> icount`` of the run's first arrival at
    each block's first instruction, single-stepping ``machine``."""
    machine.reset()
    func, block, _ = machine._position
    arrivals = {(func.name, block): 0}
    icount = 0
    while machine.run(icount + 1).status.value == "paused":
        icount += 1
        func, block, i = machine._position
        if i == 0:
            arrivals.setdefault((func.name, block), icount)
    return arrivals


def _flip_and_finish(jit_machine, ref_machine, icount, restore=False,
                     flip=None):
    """Pause both engines at ``icount``, flip a register bit (``flip``,
    a ``(register, bit)`` pair, or one chosen from ``icount``), run both
    to the end and compare.  With ``restore`` the JIT machine first runs
    on and is restored to a snapshot of the pause."""
    reg_index, bit = flip or (5 + (icount % 3) * 4, (icount * 7) % 64)
    for machine in (jit_machine, ref_machine):
        machine.reset()
        assert machine.run(icount).status.value == "paused"
    assert _final_state(jit_machine) == _final_state(ref_machine), icount
    if restore:
        snap = jit_machine.snapshot()
        jit_machine.run(icount + 40)
        jit_machine.restore(snap)
    results = []
    for machine in (jit_machine, ref_machine):
        machine.flip_register_bit(reg_index, bit)
        results.append(machine.run(None))
    assert results[0] == results[1], icount
    assert _final_state(jit_machine) == _final_state(ref_machine), icount
    return results[1]


def _crc32_pair(technique):
    cell = prepare_machine("crc32", technique)
    return _machine_pair(cell.program, cell.max_instructions)


@_CHAIN_TECHNIQUES
def test_pause_and_restore_at_every_chain_interior_block(technique):
    """crc32: pause at, and restore into, the first instruction of every
    chain-interior block the golden run reaches."""
    jit_machine, ref_machine = _crc32_pair(technique)
    arrivals = _first_arrivals(ref_machine)
    starts = sorted(arrivals[key] for key in _chain_interior(ref_machine)
                    if key in arrivals)
    assert len(starts) >= 10
    for icount in starts:
        _flip_and_finish(jit_machine, ref_machine, icount)
        _flip_and_finish(jit_machine, ref_machine, icount, restore=True)


def _longest_chain(machine):
    """``(instructions, function, blocks)`` of the longest chain."""
    best = (0, None, [])
    for name, facts in jit._program_facts(machine).items():
        cfunc = machine.functions[name]
        owners, interpreted = facts.owners, facts.interpreted
        interior = {owner: b for b, owner in enumerate(owners)
                    if owner is not None and b not in interpreted}
        for head, owner in enumerate(owners):
            if owner is not None or head in interpreted:
                continue
            chain = [head]
            while chain[-1] in interior:
                chain.append(interior[chain[-1]])
            size = sum(len(cfunc.blocks[b].instrs) for b in chain)
            best = max(best, (size, name, chain))
    return best


@_CHAIN_TECHNIQUES
def test_pause_at_every_icount_along_the_longest_chain(technique):
    """crc32: pause at every icount from the first arrival at the head
    of its longest chain to the chain's end."""
    jit_machine, ref_machine = _crc32_pair(technique)
    size, name, chain = _longest_chain(ref_machine)
    assert len(chain) >= 3
    start = _first_arrivals(ref_machine)[(name, chain[0])]
    for icount in range(start, start + size + 1):
        _flip_and_finish(jit_machine, ref_machine, icount)


def test_recovery_jump_lands_on_chain_interior_block():
    """crc32/TRUMP: for every AN check whose repair ends in a RECOVERY
    ``JMP`` to a chain-interior block (the check's own fallthrough),
    flip the codeword copy just before the check's first execution: the
    repair runs and dispatch lands on that block."""
    jit_machine, ref_machine = _crc32_pair(Technique.TRUMP)
    interior = _chain_interior(ref_machine)
    arrivals = _first_arrivals(ref_machine)
    checks = set()
    facts = jit._program_facts(ref_machine)
    for name, cfunc in ref_machine.functions.items():
        owners = facts[name].owners
        for blk in cfunc.blocks:
            for instr in blk.instrs:
                if instr.op is Opcode.JMP and instr.role is Role.RECOVERY:
                    landing = cfunc.block_index[instr.label]
                    if (name, landing) in interior:
                        checks.add((name, owners[landing]))
    reached = sorted(checks & arrivals.keys())
    assert len(reached) >= 3
    for name, b in reached:
        check = ref_machine.functions[name].blocks[b].instrs
        assert check[-1].op is Opcode.BNE
        icount = arrivals[(name, b)] + len(check) - 1
        result = _flip_and_finish(jit_machine, ref_machine, icount,
                                  flip=(check[-1].srcs[1].index, 2))
        # The check, then the repair's opening NOP.
        assert result.first_recovery_icount == icount + 2


# ------------------------------------------------- bails to the interpreter
# Each site below reaches one cold path the compiled code leaves to the
# interpreter ("bails"): the interpreter picks up at the exact
# instruction, with the exact icount, and raises any trap itself.  All
# but the valid first store and the load of a mapped word never stored
# bail.
def _wild_run(b):
    """A same-base access run off an unmapped base: SEGV at its first
    access."""
    base = b.li(0xDEAD_0000)
    value = b.li(5)
    b.store(base, value)
    b.store(base, value, 8)
    b.print_(b.load(base, 16))


def _straddling_run(b):
    """A same-base run over the heap's last two words and the word
    past its end: two stores land, the third traps."""
    base = b.li(HEAP_BASE + HEAP_BYTES - 16)
    value = b.li(3)
    b.store(base, value)
    b.store(base, value, 8)
    b.store(base, value, 16)


def _load_miss(b):
    """A single load of a mapped word never stored: reads zero (over a
    nonzero register, so a skipped load would show)."""
    dest = b.li(5)
    b.print_(b.load(b.li(HEAP_BASE + 64), dest=dest))


def _unmapped_load(b):
    """A single load of an unmapped word: SEGV."""
    b.print_(b.load(b.li(HEAP_BASE - 8)))


def _first_store(b):
    """A single store to a new, valid address, then a load of it."""
    base = b.li(HEAP_BASE + 128)
    b.store(base, b.li(9))
    b.print_(b.load(base))


def _bad_first_store(b):
    """A single store to a new, unmapped address: SEGV."""
    b.store(b.li(0xDEAD_0008), b.li(9))


def _div_by_zero(b):
    b.print_(b.div(b.li(7), b.li(0)))


def _rem_by_zero_constant(b):
    b.print_(b.rem(b.li(7), Imm(0)))


def _cvtfi_of_inf(b):
    b.print_(b.cvtfi(b.fli(float("inf"))))


def _param_out_of_range(b):
    b.print_(b.param(3))


def _bail_program(site, placement):
    """``site`` inside ``main``'s driver, inside the post-CALL resume
    segment of ``main``'s loop block (the call goes to a non-leaf, so
    it side-exits), or inside a leaf that ``main`` inlines there.  The
    loop runs twice: code that runs once per run is not compiled."""
    program = Program()
    functions = [Function("main")]
    b = IRBuilder(functions[0])
    b.start_block("entry")
    program.assign_addresses()
    with repeat(b, 2):
        b.print_(b.li(1))
        if placement == "driver":
            site(b)
        elif placement == "resume":
            b.call("outer", want_result=False)
            site(b)
            for name, callee in (("outer", "inner"), ("inner", None)):
                functions.append(Function(name))
                callee_b = IRBuilder(functions[-1])
                callee_b.start_block("entry")
                if callee:
                    callee_b.call(callee, want_result=False)
                callee_b.print_(callee_b.li(7))
                callee_b.ret()
        else:
            b.call("leaf", want_result=False)
            functions.append(Function("leaf"))
            leaf_b = IRBuilder(functions[-1])
            leaf_b.start_block("entry")
            site(leaf_b)
            leaf_b.ret()
    b.print_(b.li(2))
    b.ret()
    for fn in functions:
        fn.renumber_pool()
        program.add_function(fn)
    return program


@pytest.mark.parametrize("placement", ["driver", "resume", "leaf"])
@pytest.mark.parametrize("site", [_wild_run, _straddling_run, _load_miss,
                                  _unmapped_load, _first_store,
                                  _bad_first_store,
                                  _div_by_zero, _rem_by_zero_constant,
                                  _cvtfi_of_inf, _param_out_of_range],
                         ids=lambda f: f.__name__.strip("_"))
def test_bail_matches_interpreter_at_every_pause(site, placement,
                                                 monkeypatch):
    """Golden run and a pause at every icount up to the end: state at
    the pause and the completed run match the interpreter, and the
    golden run's compiled code bailed where the site is cold."""
    bails = []   # the function each bail left
    real = jit._GLOBALS["_bail"]

    def recording(m, icount, func, block, index):
        bails.append(func)
        return real(m, icount, func, block, index)

    monkeypatch.setitem(jit._GLOBALS, "_bail", recording)
    program = _bail_program(site, placement)
    jit_machine, ref_machine = Machine(program), Machine(program)
    # compile_program bypasses the per-program cache, so the counting
    # helpers stay local to this test.
    jit_machine.jit = jit.compile_program(jit_machine)
    main = jit_machine.jit.sources["main"]
    assert ("_cb = 0" in main) == (placement == "leaf")
    side_exit = "m.pending_callee = m.functions['outer']"
    assert (side_exit in main) == (placement == "resume")

    golden = golden_run(ref_machine)
    assert golden_run(jit_machine) == golden
    assert _final_state(jit_machine) == _final_state(ref_machine)
    # A valid first store and a load of a word never stored stay
    # compiled; every other site bails.
    expected = "leaf" if placement == "leaf" else "main"
    assert set(bails) == (set() if site in (_first_store, _load_miss)
                          else {expected})

    for icount in range(golden.instructions + 1):
        results = []
        for machine in (jit_machine, ref_machine):
            machine.reset()
            results.append(machine.run(icount))
        assert results[0] == results[1], icount
        assert _final_state(jit_machine) == _final_state(ref_machine), icount
        if results[0].status.value == "paused":
            assert jit_machine.run(None) == ref_machine.run(None), icount
            assert _final_state(jit_machine) == _final_state(ref_machine)


# Straight-line code over bounded loads, so TRUMP AN-codes its values
# (and emits repair blocks) as well as SWIFT-R.  ``main`` calls it from
# a loop, so it is compiled.
_REPAIR_SOURCE = """
int data[6] = { 7, 1, 8, 2, 8, 1 };
int out[6];
int work(int k) {
    int a = data[0] + data[1];
    int b = a + data[2] - data[3];
    out[0] = a;
    out[1] = b + data[4];
    if (b > 10) { print(b); }
    return a + b + data[5];
}
int main() {
    for (int k = 0; k < 2; k++) { print(work(k)); }
    return 0;
}
"""


@pytest.mark.parametrize("inline", [False, True], ids=["driver", "leaf"])
def test_falling_off_a_function_traps_like_the_interpreter(inline):
    """A function whose last block has no terminator bails at its end;
    the interpreter raises the wild-PC trap, in ``main`` (its last
    block is a loop) or in a leaf inlined in ``main``'s loop."""
    program = Program()
    names = ["main", "leaf"] if inline else ["main"]
    for name in names:
        fn = Function(name)
        b = IRBuilder(fn)
        b.start_block("entry")
        if name == "main":
            with repeat(b, 2, then="done" if inline else None):
                if inline:
                    b.call("leaf", want_result=False)
                else:
                    b.print_(b.li(3))
            if inline:
                b.ret()
        else:
            b.print_(b.li(3))
        fn.renumber_pool()
        program.add_function(fn)
    jit_machine, ref_machine = _machine_pair(program)
    assert ("_cb = 0" in jit_program_for(jit_machine).sources["main"]) \
        == inline
    golden = golden_run(ref_machine)
    assert golden.status.value == "trapped"
    assert golden_run(jit_machine) == golden
    assert _final_state(jit_machine) == _final_state(ref_machine)


@pytest.mark.parametrize("technique", [Technique.SWIFTR, Technique.TRUMP],
                         ids=lambda t: t.value)
def test_repairs_run_interpreted_and_count_the_same(technique):
    """Flips that trigger SWIFT-R/TRUMP repairs: the repair blocks run
    in the interpreter, which counts ``recoveries`` and the first
    recovery's icount exactly as a wholly interpreted run does."""
    binary = allocate_program(protect(compile_source(_REPAIR_SOURCE),
                                      technique))
    jit_machine, ref_machine = _machine_pair(binary)
    golden = golden_run(ref_machine)
    assert golden_run(jit_machine) == golden
    repaired = 0
    for site in sample_sites(17, golden.instructions, 150):
        jit_result = run_with_fault(jit_machine, site)
        ref_result = run_with_fault(ref_machine, site)
        assert jit_result == ref_result, site
        assert (jit_result.recoveries, jit_result.first_recovery_icount) == (
            ref_result.recoveries, ref_result.first_recovery_icount)
        assert _final_state(jit_machine) == _final_state(ref_machine), site
        repaired += ref_result.recoveries > 0
    assert repaired


@pytest.mark.parametrize("technique", [Technique.SWIFTR, Technique.TRUMP],
                         ids=lambda t: t.value)
def test_generated_code_leaves_cold_paths_out(technique, monkeypatch):
    """No repair block is rendered (each one's dispatch entry is a fuel
    stop, and it is listed as interpreted), nor is ``main``'s run-once
    code; no compiled code counts a recovery, and no compiled code
    checks a memory address."""
    rendered = []
    real = jit._Emitter.emit_body

    def recording(self, block, entry, instrs, nblocks):
        rendered.append((self.func_name, block))
        return real(self, block, entry, instrs, nblocks)

    monkeypatch.setattr(jit._Emitter, "emit_body", recording)
    binary = allocate_program(protect(compile_source(_REPAIR_SOURCE),
                                      technique))
    machine = Machine(binary)
    compiled = jit.compile_program(machine)
    facts = jit._program_facts(machine)
    assert facts["work"].repair
    # ``work`` runs in a loop, so only its repairs are left out.
    assert facts["work"].interpreted == facts["work"].repair
    interpreted = {(name, b) for name, f in facts.items()
                   for b in f.interpreted}
    assert ("work", 0) in set(rendered)
    assert not interpreted & set(rendered)
    assert compiled.interpreted == {
        (name, machine.functions[name].blocks[b].name)
        for name, b in interpreted}
    for source in compiled.sources.values():
        assert "m.recoveries" not in source
        assert "m.memory.check" not in source


# ------------------------------------------- snapshot/restore round trip
def test_snapshot_restore_round_trip_under_jit():
    """A snapshot taken mid-compiled-block replays identically."""
    binary = _binaries(23)[1]
    jit_machine, ref_machine = _machine_pair(binary)
    golden = golden_run(ref_machine)
    for pause_at in (17, 133, golden.instructions // 2):
        jit_machine.reset()
        assert jit_machine.run(pause_at).status.value == "paused"
        snap = jit_machine.snapshot()
        first = jit_machine.run(None)
        first_state = _final_state(jit_machine)
        jit_machine.restore(snap)
        assert jit_machine.state_matches(snap)
        second = jit_machine.run(None)
        assert first == second, pause_at
        assert first_state == _final_state(jit_machine), pause_at
        assert first.output == golden.output


def test_restore_clears_stale_jit_call_state():
    """Regression (snapshot/restore fix): pending call-transfer residue
    from an abandoned JIT run must not survive a restore.  Before the
    fix, a stale ``pending_callee`` could redirect the restored run's
    next call-shaped action into the wrong function."""
    binary = _binaries(31)[1]
    machine = Machine(binary, max_instructions=2_000_000)
    attach_jit(machine)
    machine.reset()
    assert machine.run(50).status.value == "paused"
    snap = machine.snapshot()
    reference = machine.run(None)
    # Abandon a run mid-flight, then poison the transient call-transfer
    # fields the way an interrupted dispatch iteration would leave them.
    machine.restore(snap)
    machine.pending_callee = next(iter(machine.functions.values()))
    machine.pending_dest = 3
    machine.pending_dest_float = True
    machine.restore(snap)
    assert machine.pending_callee is None
    assert machine.pending_dest == -1
    assert machine.pending_dest_float is False
    assert machine.run(None) == reference


# ------------------------------------------------------- campaign parity
def test_campaign_jobs_parity_with_jit():
    """jobs=2 with the JIT equals jobs=1 with the JIT equals the
    interpreter, record for record."""
    binary = _binaries(47)[1]
    outcomes = {}
    for label, kwargs in (
        ("jit-serial", dict(jobs=1, jit=True)),
        ("jit-jobs2", dict(jobs=2, jit=True)),
        ("interp", dict(jobs=1, jit=False)),
    ):
        log = CampaignLog()
        result = run_campaign(binary, trials=30, seed=47,
                              log=log, **kwargs)
        outcomes[label] = (result, log.to_dicts())
    assert outcomes["jit-serial"] == outcomes["jit-jobs2"]
    assert outcomes["jit-serial"] == outcomes["interp"]


def test_campaign_restores_machine_jit_attachment(monkeypatch):
    """Campaigns must leave a shared machine's ``jit`` and ``profile``
    attachments the way they found them (prepare_machine caches
    machines across calls): serial, sharded and profiled campaigns
    alike, also when the trial kernel raises."""
    binary = _binaries(5)[0]
    machine = Machine(binary, max_instructions=2_000_000)
    assert machine.jit is None
    run_campaign(binary, trials=5, seed=1, machine=machine, jit=True)
    assert machine.jit is None
    compiled = attach_jit(machine)
    run_campaign(binary, trials=5, seed=1, machine=machine, jit=False)
    assert machine.jit is compiled

    campaigns = {
        "jobs2": lambda jit: run_campaign(
            binary, trials=6, seed=1, machine=machine, jit=jit, jobs=2),
        "profiled": lambda jit: run_campaign(
            binary, trials=5, seed=1, machine=machine, jit=jit,
            profile=SimProfiler()),
    }
    found = SimProfiler()

    def check(raises):
        for before in (None, compiled):
            for name, campaign in campaigns.items():
                for jit in (True, False):
                    machine.jit, machine.profile = before, found
                    if raises:
                        with pytest.raises(RuntimeError, match="kernel"):
                            campaign(jit)
                    else:
                        campaign(jit)
                    assert machine.jit is before, (name, jit)
                    assert machine.profile is found, (name, jit)

    check(raises=False)

    def failing_kernel(*args, **kwargs):
        raise RuntimeError("kernel failed")

    # The shard workers fork from this process, so they fail too.
    monkeypatch.setattr(campaign_module, "run_trials", failing_kernel)
    monkeypatch.setattr(parallel_module, "run_trials", failing_kernel)
    check(raises=True)


def test_jit_program_cached_per_program_identity():
    """Two machines over one program share one compiled JitProgram."""
    binary = _binaries(3)[0]
    a = Machine(binary, max_instructions=2_000_000)
    b = Machine(binary, max_instructions=2_000_000)
    assert jit_program_for(a) is jit_program_for(b)


# ----------------------------------------------------- zero-cost-when-off
class _ProbeMachine(Machine):
    """Counts how often the run loop consults the ``jit`` gate."""

    @property
    def jit(self):
        self.jit_reads = getattr(self, "jit_reads", 0) + 1
        return self._jit_value

    @jit.setter
    def jit(self, value):
        self._jit_value = value


def test_jit_gate_is_one_read_per_run():
    """With the JIT off, the feature's entire cost is one attribute
    check per ``run()`` invocation -- the same contract as the taint
    and profile gates."""
    binary = _binaries(9)[0]
    trials = 20
    machine = _ProbeMachine(binary, max_instructions=2_000_000)
    machine.jit_reads = 0
    result = run_campaign(binary, trials=trials, seed=13,
                          machine=machine, jit=False)
    assert result.trials == trials
    # A few run() calls per trial (golden, injection pause, resume,
    # checkpoint builds), each reading the gate exactly once -- versus
    # the hundreds of thousands of instructions the campaign executes.
    assert 0 < machine.jit_reads <= 8 * trials + 8


def test_run_result_equality_is_field_complete():
    """The differential assertions above lean on RunResult ``==``;
    make sure it is a field-by-field dataclass comparison, so a new
    result field cannot silently escape the equivalence claims."""
    assert dataclasses.is_dataclass(golden_run(
        Machine(_binaries(2)[0], max_instructions=2_000_000)))
