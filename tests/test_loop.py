"""Every variant of the shared run loop (repro.sim.loop) against the
plain one.

The plain, taint, profiler, JIT, seek and timing loops are all
rendered from one template, so a hook must never change what executes.  The fuzz
below runs each variant on random programs through a random chain of
pauses, with a bit flip at the first pause, and checks the RunResult
and the final architectural state after every call -- including a
budget low enough to end in HANG and a taint step budget small enough
that tracing hands the run back to the plain loop midway.
"""

import random
import traceback

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.isa import Opcode
from repro.lang import compile_source
from repro.obs.profile import SimProfiler
from repro.sim import Machine, RunStatus, TimingConfig, TimingSimulator
from repro.sim.jit import attach_jit
from repro.sim.machine import _STEP_FACTORIES
from repro.sim.taint import TaintTracker
from repro.sim.timing import _run_timed, _Scoreboard
from repro.transform import Technique, allocate_program, protect
from test_jit import _binaries, _final_state

VARIANTS = ("plain", "jit", "taint", "taint-budget", "profile", "timing")

# Calls and returns: a leaf (the JIT inlines it), a recursive caller (a
# plain side exit), and return values written back into registers.
_CALLS_SOURCE = """
int data[6] = { 7, 1, 8, 2, 8, 1 };
int mix(int x) {
    int acc = x;
    for (int i = 0; i < 6; i++) { acc = acc * 3 + data[i]; }
    return acc & 65535;
}
int fold(int n) {
    if (n <= 0) { return 1; }
    return mix(n) + fold(n - 1);
}
int main() {
    int total = 0;
    for (int k = 0; k < 3; k++) { total += fold(k + 1); }
    print(total);
    return 0;
}
"""


def _call_binaries():
    program = compile_source(_CALLS_SOURCE)
    return [allocate_program(protect(program, technique))
            for technique in (Technique.NOFT, Technique.SWIFTR,
                              Technique.TRUMP)]


def _advance(name, machine, limit, board):
    """One ``run(limit)`` call on ``name``'s loop variant."""
    if name != "timing":
        return machine.run(limit)
    if machine._finished is not None:
        return machine._finished
    return _run_timed(machine, limit, board)


def _check_chain(binary, budget, length, rng):
    machines = {name: Machine(binary, max_instructions=budget)
                for name in VARIANTS}
    attach_jit(machines["jit"])
    profiler = machines["profile"].profile = SimProfiler()
    board = _Scoreboard(machines["timing"], TimingConfig())
    plain = machines["plain"]
    limits = sorted(rng.sample(range(min(budget, length) + 8), 8)) + [None]
    reg, bit = rng.randrange(len(plain.regs)), rng.randrange(64)
    step_budget = rng.randint(1, 40)
    flipped_at = None
    for limit in limits:
        results = {name: _advance(name, machine, limit, board)
                   for name, machine in machines.items()}
        for name, machine in machines.items():
            assert results[name] == results["plain"], (name, limit)
            assert _final_state(machine) == _final_state(plain), (name, limit)
        if results["plain"].status is not RunStatus.PAUSED:
            break
        if flipped_at is None:
            flipped_at = plain.icount
            machines["taint"].taint = TaintTracker()
            machines["taint-budget"].taint = TaintTracker(
                max_steps=step_budget)
            for machine in machines.values():
                machine.flip_register_bit(reg, bit)
    final = results["plain"]
    assert final.status is not RunStatus.PAUSED
    assert profiler.total_instructions == final.instructions
    if flipped_at is not None and final.instructions - flipped_at \
            > step_budget:
        assert machines["taint-budget"].taint.exhausted
    return final


def _check_timing(binary, budget, length, rng):
    """``TimingSimulator.run`` ends where the plain loop ends, and a
    timing run paused along a chain of limits counts the same cycles."""
    reference = Machine(binary, max_instructions=budget)
    expected = reference.run()
    machine = Machine(binary, max_instructions=budget)
    timed = TimingSimulator(machine).run()
    assert (timed.instructions, timed.status) == (expected.instructions,
                                                  expected.status)
    assert machine.output == reference.output
    assert _final_state(machine) == _final_state(reference)
    assert machine.run() == expected

    machine.reset()
    board = _Scoreboard(machine, TimingConfig())
    for limit in sorted(rng.sample(range(min(budget, length) + 8), 4)) \
            + [None]:
        if machine._finished is None:
            _run_timed(machine, limit, board)
    assert board.result(machine._finished) == timed


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_every_variant_matches_the_plain_loop(seed):
    rng = random.Random(seed)
    statuses = set()
    for binary in _binaries(seed) + _call_binaries():
        length = Machine(binary).run().instructions
        # A roomy budget (a flip may still loop until HANG), then one
        # that always ends in HANG.
        for budget in (3 * length + 50, max(length // 2, 1)):
            statuses.add(_check_chain(binary, budget, length, rng).status)
            _check_timing(binary, budget, length, rng)
    assert RunStatus.HANG in statuses


# ------------------------------------------------------ the position seek
def _stepped(binary):
    """Single-step a fresh run: the position (by function name) and
    call depth the run stands at after each instruction count."""
    machine = Machine(binary)
    positions, depths = [], []
    while machine._position is not None:
        func, block_idx, i = machine._position
        positions.append((func.name, block_idx, i))
        depths.append(len(machine.call_stack))
        machine.run(machine.icount + 1)
    return positions, depths


def _check_seek(binary, rng, crossings):
    """``Machine.seek`` from random starts, plain, with the JIT attached
    and profiled, against single-stepping: each pauses where the
    stepped run first stands at the target again, or at the limit."""
    positions, depths = _stepped(binary)
    length = len(positions)
    machines = [Machine(binary) for _ in range(4)]
    plain, jit, profiled, reference = machines
    attach_jit(jit)
    for _ in range(12):
        start = rng.randrange(length - 1)
        later = rng.randrange(start, length)
        # Some targets lie in another function: reached through a CALL
        # or a RET.
        other = [k for k in range(start + 1, length)
                 if positions[k][0] != positions[start][0]]
        if other and rng.random() < 0.5:
            later = other[0]
        target = positions[later]
        arrivals = [k for k in range(start + 1, length)
                    if positions[k] == target]
        arrival = arrivals[0] if arrivals else None
        if arrival is not None:
            crossings.add((depths[arrival] > depths[start])
                          - (depths[arrival] < depths[start]))
        # A roomy limit, or one at or before the arrival.
        limit = rng.choice([length - 1, rng.randrange(
            start + 1, length if arrival is None else arrival + 1)])
        stop = limit if arrival is None else min(arrival, limit)
        reference.reset()
        reference.run(stop)
        for machine in (plain, jit, profiled):
            machine.reset()
            machine.run(start)
            machine.profile = SimProfiler() if machine is profiled else None
            func = machine.functions[target[0]]
            result = machine.seek((func, *target[1:]), limit)
            assert result.status is RunStatus.PAUSED
            assert result.instructions == stop
            assert _final_state(machine) == _final_state(reference)
        assert profiled.profile.total_instructions == stop - start
        profiled.profile = None


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_seek_pauses_where_single_stepping_arrives(seed):
    rng = random.Random(seed)
    crossings = set()
    for binary in _binaries(seed) + _call_binaries():
        _check_seek(binary, rng, crossings)
    # Targets were reached across a CALL (+1) and a RET (-1).
    assert {1, -1} <= crossings


def test_seek_ends_with_the_run():
    """A seek whose target never comes returns the run's own result at
    termination (or the finished result, once finished)."""
    binary = _call_binaries()[1]
    expected = Machine(binary).run()
    machine = Machine(binary)
    machine.run(5)
    entry = (machine.entry, 0, 0)
    assert machine.seek(entry, expected.instructions + 10) == expected
    assert machine.seek(entry, expected.instructions + 10) == expected


# ------------------------------------------------ readable rendered code
def _run_variant(machine, variant):
    if variant == "timing":
        return TimingSimulator(machine).run()
    if variant == "taint":
        machine.taint = TaintTracker()
        machine.flip_register_bit(0, 0)
    elif variant == "profile":
        machine.profile = SimProfiler()
    return machine.run()


@pytest.mark.parametrize("variant, filename", [
    ("plain", "<sim.loop:plain>"), ("taint", "<sim.loop:taint>"),
    ("profile", "<sim.loop:profile>"), ("timing", "<sim.loop:timed>"),
])
def test_tracebacks_show_the_rendered_loop(simple_program, variant,
                                           filename):
    machine = Machine(simple_program)
    machine.entry.blocks[0].steps[0] = lambda m: -99   # no such action
    with pytest.raises(SimulationError, match="bad step action -99") as info:
        _run_variant(machine, variant)
    text = "".join(traceback.format_exception(info.type, info.value,
                                              info.tb))
    assert f'File "{filename}"' in text
    assert 'raise SimulationError(f"bad step action {act}")' in text


def test_tracebacks_show_the_rendered_steps():
    factories = _STEP_FACTORIES[Opcode.ADD][3]
    step = factories[(True, True)](0, 1, 2)

    class Broken:
        regs = None

    with pytest.raises(TypeError) as info:
        step(Broken())
    frame = traceback.extract_tb(info.tb)[-1]
    assert frame.filename == "<sim.steps>"
    assert frame.line.startswith("r[d] = ")
