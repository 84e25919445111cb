"""Equal instructions share one compiled step, and sharing is invisible.

A step is shared, across machines too, exactly when its factory is the
same and its bound values are equal and of the same type, floats by
bit pattern.  Equal timing rows, and equal blocks of them, are shared
by all machines until the last one holding them is collected.  Nothing
a machine does may reach another one through a shared step, and a
program runs the same, and times the same, whatever was built before.
"""

import gc
import json
import math
import os
import subprocess
import sys
import weakref

import repro
from irgen import random_program
from repro.isa import parse_program
from repro.isa.parser import parse_instruction
from repro.obs import spans
from repro.obs.sink import summarize_records
from repro.isa.opcodes import Opcode
from repro.sim import Machine, RunStatus, TimingSimulator
from repro.sim.machine import (
    _ROWS,
    _STEPS,
    _call_step,
    _fli_step,
    _li_step,
    _shared,
)
from repro.sim.memory import bits_to_float, float_to_bits

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))


def _machine(body: str) -> Machine:
    return Machine(parse_program("func main(0):\nentry:\n" + body))


def _steps(machine: Machine) -> list:
    return [step for cf in machine.functions.values()
            for blk in cf.blocks for step in blk.steps]


def _rows(machine: Machine) -> list:
    return [row for cf in machine.functions.values()
            for blk in cf.blocks for row in blk.meta]


def test_machines_share_a_step_exactly_when_the_key_matches():
    a = _machine("""
    li r5, 7
    add r6, r5, 3
    print r6
    ret
""")
    b = _machine("""
    mov r5, 7
    li r6, 7
    add r6, r5, 3
    add r6, r5, 4
    print r5
    ret
""")
    sa, sb = _steps(a), _steps(b)
    assert sb[0] is sa[0]          # mov of an immediate is li r5, 7
    assert sb[2] is sa[1]          # add r6, r5, 3
    assert sb[5] is sa[3]          # ret
    assert sb[1] not in sa         # another destination
    assert sb[3] not in sa         # another immediate
    assert sb[4] is not sa[2]      # another source slot
    assert a.run().output == [10] and b.run().output == [7]


def test_key_separates_types_and_float_bit_patterns():
    keep = [_shared(_li_step, 5, value) for value in (1, 1.0, True)]
    assert len({id(step) for step in keep}) == 3
    assert _shared(_li_step, 5, 1) is keep[0]
    zeros = [_shared(_fli_step, 1, 0.0), _shared(_fli_step, 1, -0.0)]
    assert zeros[0] is not zeros[1]
    nan = bits_to_float(0x7FF8000000000001)
    nans = [_shared(_fli_step, 1, nan), _shared(_fli_step, 1, float("nan"))]
    assert nans[0] is not nans[1]
    # One NaN payload is one key, although NaN != NaN.
    assert _shared(_fli_step, 1, bits_to_float(0x7FF8000000000001)) \
        is nans[0]
    # Values nested in a bound tuple (a CALL's arguments) follow the rule.
    calls = [_shared(_call_step, "f", ((False, zero),), -1, False)
             for zero in (0.0, -0.0)]
    assert calls[0] is not calls[1]


def test_float_and_int_immediates_stay_bit_distinct():
    plus = _machine("    fli f1, 0.0\n    fprint f1\n    ret\n")
    minus = _machine("    fli f1, -0.0\n    fprint f1\n    ret\n")
    assert _steps(plus)[0] is not _steps(minus)[0]
    (p,), (m,) = plus.run().output, minus.run().output
    assert float_to_bits(p) == 0 and float_to_bits(m) == 1 << 63
    assert math.copysign(1.0, m) == -1.0

    ints = _machine("    print 1\n    ret 1\n")
    floats = _machine("    fprint 1.0\n    ret 1.0\n")
    assert not set(map(id, _steps(ints))) & set(map(id, _steps(floats)))
    (i,), (f,) = ints.run().output, floats.run().output
    assert type(i) is int and type(f) is float
    assert type(ints.ret_value) is int and type(floats.ret_value) is float


def test_step_injected_leaves_a_sharing_machine_unchanged(simple_program):
    golden = Machine(simple_program).run()
    first, second = Machine(simple_program), Machine(simple_program)
    assert all(x is y for x, y in zip(_steps(first), _steps(second)))
    before = [list(blk.steps) for cf in second.functions.values()
              for blk in cf.blocks]
    first.run(5)
    first.step_injected(parse_instruction("li r5, 12345"))
    after = [list(blk.steps) for cf in second.functions.values()
             for blk in cf.blocks]
    assert all(x is y for old, new in zip(before, after)
               for x, y in zip(old, new))
    assert all(x is y for x, y in zip(_steps(first), _steps(second)))
    result = second.run()
    assert (result.status, result.output, result.instructions) == \
        (golden.status, golden.output, golden.instructions)


#: ``state(machine, result)``: a finished run's result and final
#: architectural state, and ``timed(machine)``: its timing run, as
#: JSON-ready values.
_STATE = """
from repro.sim import TimingSimulator
from repro.sim.memory import float_to_bits

def state(machine, result):
    return {
        "status": result.status.value, "exit": result.exit_code,
        "trap": result.trap_kind and result.trap_kind.value,
        "output": result.output, "instructions": result.instructions,
        "recoveries": result.recoveries,
        "regs": machine.regs, "fregs": [float_to_bits(x) for x in machine.fregs],
        "cells": sorted((a, float_to_bits(v) if type(v) is float else v)
                        for a, v in machine.memory.cells.items()),
    }

def timed(machine):
    result = TimingSimulator(machine).run()
    return {
        "cycles": result.cycles, "instructions": result.instructions,
        "loads": result.loads, "misses": result.load_misses,
        "roles": result.role_counts,
    }
"""
#: Prints the state and timing of ``random_program(argv[1], floats=True)``
#: run in a fresh process.
_RUN_STATE = _STATE + """
import json, sys
from irgen import random_program
from repro.sim import Machine

machine = Machine(random_program(int(sys.argv[1]), floats=True))
print(json.dumps([state(machine, machine.run()), timed(machine)]))
"""


def test_run_after_other_machines_matches_a_fresh_process():
    namespace: dict = {}
    exec(_STATE, namespace)
    kept = [Machine(random_program(seed, floats=True))
            for seed in range(1, 4)]
    freed = [Machine(random_program(seed, floats=True))
             for seed in range(4, 7)]
    for machine in kept + freed:
        assert machine.run().status is RunStatus.EXITED
        assert TimingSimulator(machine).run().status is RunStatus.EXITED
    table = len(_ROWS)
    del freed
    gc.collect()
    assert len(_ROWS) < table      # the freed machines' own rows went
    machine = Machine(random_program(7, floats=True))
    shared = {id(step) for other in kept for step in _steps(other)}
    assert any(id(step) in shared for step in _steps(machine))
    shared = {id(row) for other in kept for row in _rows(other)}
    assert any(id(row) in shared for row in _rows(machine))
    here = json.loads(json.dumps(
        [namespace["state"](machine, machine.run()),
         namespace["timed"](machine)]))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, TESTS)))
    fresh = subprocess.run([sys.executable, "-c", _RUN_STATE, "7"], env=env,
                           capture_output=True, text=True, check=True)
    assert here == json.loads(fresh.stdout)


def test_steps_die_with_their_last_machine():
    gc.collect()
    baseline = len(_STEPS)
    machine = _machine("    li r9, 987654321\n    ret\n")
    probe = weakref.ref(_steps(machine)[0])
    assert len(_STEPS) > baseline
    del machine
    gc.collect()
    assert probe() is None
    assert len(_STEPS) <= baseline


def test_compile_span_counts_distinct_steps():
    gc.collect()
    known = set(_ROWS)
    spans.collector().clear()
    spans.enable()
    try:
        # Two rows no other machine has: no other load has this offset.
        machine = _machine("    load r5, [r6 + 98760]\n"
                           "    load r5, [r6 + 98760]\n"
                           "    load r5, [r6 + 98768]\n    ret\n")
        collected = [s for s in spans.collector().drain()
                     if s.name == "sim.compile"]
    finally:
        spans.disable()
    new_rows = len(set(_rows(machine)) - known)
    assert new_rows >= 2
    assert [(s.attrs["instructions"], s.attrs["distinct_steps"],
             s.attrs["new_rows"]) for s in collected] == [(4, 3, new_rows)]
    summary = summarize_records([s.to_dict() for s in collected])
    assert "Compiled code" in summary and "new timing rows" in summary
    assert summary.splitlines()[-1].split() == \
        ["1", "4", "3", "0.750", str(new_rows)]


def test_machines_share_timing_rows_until_the_last_one_goes():
    gc.collect()
    before = len(_ROWS)
    body = "    load r23, [r24 + 98776]\n    ret\n"
    first, twin = _machine(body), _machine(body)
    second = _machine("    li r5, 1\n    load r23, [r24 + 98776]\n"
                      "    print r23\n    ret\n")
    row = _rows(first)[0]
    assert _rows(second)[1] is row and _rows(twin)[0] is row
    assert (twin.functions["main"].blocks[0].meta
            is first.functions["main"].blocks[0].meta)
    assert row[2] == 24 and row[5] == 98776       # base slot a, offset
    assert len(_ROWS) > before
    del first
    gc.collect()
    assert row in _ROWS
    del second
    gc.collect()
    assert row in _ROWS            # the twin's block still holds it
    del twin
    gc.collect()
    assert len(_ROWS) == before and row not in _ROWS


def test_memory_rows_read_their_base_register_slot():
    memory_ops = (Opcode.LOAD, Opcode.FLOAD, Opcode.STORE, Opcode.FSTORE)
    checked = set()
    for seed in range(1, 9):
        machine = Machine(random_program(seed, floats=True))
        for cf in machine.functions.values():
            machine._current_function = cf.name
            for blk in cf.blocks:
                assert len(blk.meta) == len(blk.instrs)
                for instr, row in zip(blk.instrs, blk.meta):
                    if instr.op not in memory_ops:
                        assert row[5] is None
                        continue
                    base, offset = instr.srcs[:2]
                    assert row[2] == machine.slot_of(base)
                    assert row[5] == offset.signed
                    checked.add((instr.op, row[2] >= 32, offset.signed != 0))
    # Virtual base registers, every memory opcode, nonzero offsets.
    assert {(op, True) for op in memory_ops} <= {c[:2] for c in checked}
    assert any(c[2] for c in checked)


def test_compiled_blocks_read_the_ir_instruction_lists():
    program = random_program(3, floats=True)
    machine = Machine(program)
    for fn in program:
        compiled = machine.functions[fn.name].blocks
        assert len(compiled) == len(fn.blocks)
        for blk, cblk in zip(fn.blocks, compiled):
            assert cblk.instrs is blk.instructions
