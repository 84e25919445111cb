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

from hypothesis import given, settings, strategies as st

from irgen import random_program
from repro.faults import run_campaign
from repro.isa import Function, IRBuilder, Program
from repro.isa.program import HEAP_BASE
from repro.lang import compile_source
from repro.faults.injector import golden_run, run_with_fault
from repro.faults.model import FaultSite, sample_sites
from repro.faults.parallel import run_parallel_campaign
from repro.obs.campaign_log import CampaignLog
from repro.sim import Machine
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


# --------------------------------------------------------------- fuzz
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_differential_fuzz_golden_and_faulty(seed):
    """Random programs + random fault plans: the JIT agrees with the
    interpreter on every RunResult field and every byte of final
    architectural state."""
    for binary in _binaries(seed):
        jit_machine, ref_machine = _machine_pair(binary)
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
    logs = {}
    results = {}
    for jit in (True, False):
        log = CampaignLog()
        results[jit] = run_campaign(binary, trials=25, seed=seed,
                                    max_instructions=2_000_000,
                                    log=log, jit=jit)
        logs[jit] = log
    assert results[True] == results[False]
    assert logs[True].to_dicts() == logs[False].to_dicts()


def _load_program(address):
    """main: print(load(address)); ret -- one LOAD, nothing else."""
    program = Program()
    fn = Function("main")
    program.add_function(fn)
    builder = IRBuilder(fn)
    builder.start_block("entry")
    program.assign_addresses()
    base = builder.li(address)
    builder.print_(builder.load(base))
    builder.ret()
    fn.renumber_pool()
    return program


def test_load_miss_paths_match_interpreter():
    """Regression: the compiled LOAD's fast path subscripts ``cells``
    directly and only a miss runs the interpreter's full check.  Both
    miss flavours -- a mapped-but-never-written word (reads as zero)
    and an unmapped address (segfault) -- must behave identically to
    the interpreter.  (The miss handler once referenced a name absent
    from the generated code's emptied-builtins namespace, which no
    golden-path test could see.)"""
    for address in (HEAP_BASE,          # mapped, never stored: loads 0
                    HEAP_BASE - 8,      # unmapped: segfault trap
                    HEAP_BASE + 1):     # misaligned: segfault trap
        program = _load_program(address)
        jit_machine, ref_machine = _machine_pair(program)
        jit_result = golden_run(jit_machine)
        assert jit_result == golden_run(ref_machine), hex(address)
        assert _final_state(jit_machine) == _final_state(ref_machine)


# --------------------------------------- mid-block injection side exits
def test_mid_block_injection_every_icount():
    """Pausing a compiled block at *every* dynamic instruction of a
    prefix -- most of them mid-block -- leaves state bit-identical to
    the interpreter, at the pause and at the end of the faulty run."""
    binary = _binaries(11)[1]
    jit_machine, ref_machine = _machine_pair(binary)
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
        result = run_parallel_campaign(binary, trials=30, seed=47,
                                       max_instructions=2_000_000,
                                       log=log, **kwargs)
        outcomes[label] = (result, log.to_dicts())
    assert outcomes["jit-serial"] == outcomes["jit-jobs2"]
    assert outcomes["jit-serial"] == outcomes["interp"]


def test_campaign_restores_machine_jit_attachment():
    """Campaigns must leave a shared machine's ``jit`` attachment the
    way they found it (prepare_machine caches machines across calls)."""
    binary = _binaries(5)[0]
    machine = Machine(binary, max_instructions=2_000_000)
    assert machine.jit is None
    run_campaign(binary, trials=5, seed=1, machine=machine, jit=True)
    assert machine.jit is None
    compiled = attach_jit(machine)
    run_campaign(binary, trials=5, seed=1, machine=machine, jit=False)
    assert machine.jit is compiled


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
