"""The in-order superscalar timing model."""

from types import SimpleNamespace

import pytest

from irgen import random_program
from repro.isa import (
    Function,
    IRBuilder,
    Opcode,
    Program,
    Register,
    parse_program,
)
from repro.isa.operands import MASK64
from repro.lang import compile_source
from repro.sim import (
    Machine,
    RunStatus,
    TimingConfig,
    TimingSimulator,
    measure_cycles,
)
from repro.sim.loop import hooks, render
from repro.transform import Technique, allocate_program, protect
from test_loop import _call_binaries


def chain_program(dependent: bool, length: int = 60) -> Program:
    """Either one long dependence chain or many independent adds."""
    program = Program()
    fn = Function("main")
    program.add_function(fn)
    b = IRBuilder(fn)
    b.start_block("entry")
    if dependent:
        acc = b.li(0)
        for _ in range(length):
            acc = b.add(acc, 1, dest=acc)
        b.print_(acc)
    else:
        regs = [b.add(b.li(i), 1) for i in range(length // 2)]
        b.print_(regs[-1])
    b.ret()
    return program


def test_width_limits_independent_work():
    wide = measure_cycles(chain_program(dependent=False),
                          TimingConfig(width=4))
    narrow = measure_cycles(chain_program(dependent=False),
                            TimingConfig(width=1))
    # The li/add pairs are pairwise dependent, so width 4 sustains about
    # two instructions per cycle while width 1 issues exactly one.
    assert narrow.cycles >= wide.cycles * 1.8


def test_dependent_chain_defeats_width():
    wide = measure_cycles(chain_program(dependent=True),
                          TimingConfig(width=4))
    narrow = measure_cycles(chain_program(dependent=True),
                            TimingConfig(width=1))
    # A serial chain issues one per cycle regardless of width.
    assert wide.cycles >= 0.8 * narrow.cycles


def test_ipc_reported():
    result = measure_cycles(chain_program(dependent=False))
    assert result.ipc > 1.0
    result2 = measure_cycles(chain_program(dependent=True))
    assert result2.ipc <= result.ipc


def cache_program(stride_words: int, accesses: int = 128) -> Program:
    program = Program()
    program.add_global("arr", 2048)
    fn = Function("main")
    program.add_function(fn)
    b = IRBuilder(fn)
    b.start_block("entry")
    program.assign_addresses()
    base = b.li(program.address_of("arr"))
    i = b.li(0)
    total = b.li(0)
    b.jmp("loop")
    b.start_block("loop")
    offset = b.shl(i, 3)
    addr = b.add(base, offset)
    v = b.load(addr)
    b.add(total, v, dest=total)
    b.add(i, stride_words, dest=i)
    b.blt(i, stride_words * accesses, "loop")
    b.start_block("done")
    b.print_(total)
    b.ret()
    return program


def test_cache_hits_vs_misses():
    # Stride 1 word: 8 accesses per 64B line -> few misses.
    sequential = measure_cycles(cache_program(stride_words=1))
    # Stride 8 words = one line per access -> every access misses.
    strided = measure_cycles(cache_program(stride_words=8))
    assert sequential.loads == strided.loads
    assert strided.load_misses > sequential.load_misses * 4
    assert strided.cycles > sequential.cycles


def test_miss_penalty_configurable():
    cheap = measure_cycles(cache_program(8), TimingConfig(miss_penalty=2))
    dear = measure_cycles(cache_program(8), TimingConfig(miss_penalty=60))
    assert dear.cycles > cheap.cycles


def test_role_counts_accumulate(simple_program):
    from repro.transform import Technique, allocate_program, protect

    binary = allocate_program(protect(simple_program, Technique.SWIFTR))
    result = TimingSimulator(Machine(binary)).run()
    assert result.status is RunStatus.EXITED
    assert result.role_counts.get("orig", 0) > 0
    assert result.role_counts.get("dup", 0) > 0
    assert result.role_counts.get("dup2", 0) > 0
    assert result.role_counts.get("vote", 0) > 0
    assert sum(result.role_counts.values()) == result.instructions


def test_timing_matches_functional_execution(simple_program,
                                             simple_golden):
    machine = Machine(simple_program)
    result = TimingSimulator(machine).run()
    assert result.instructions == simple_golden.instructions
    assert machine.output == simple_golden.output


def test_taken_branch_penalty():
    loopy = cache_program(stride_words=1, accesses=64)
    cheap = measure_cycles(loopy, TimingConfig(taken_branch_penalty=0))
    dear = measure_cycles(loopy, TimingConfig(taken_branch_penalty=6))
    assert dear.cycles > cheap.cycles + 5 * 60


def test_timing_run_leaves_the_machine_finished(simple_program,
                                                simple_golden):
    """A timing run ends in the state ``Machine.run`` leaves: a later
    ``run()`` returns the same result instead of executing again."""
    machine = Machine(simple_program)
    timed = TimingSimulator(machine).run()
    assert machine.current_location() is None
    again = machine.run()
    assert again == simple_golden
    assert again.instructions == timed.instructions
    assert machine.output == simple_golden.output


# Recorded before the timing model moved onto the shared run loop:
# (cycles, instructions, loads, load_misses, status, role_counts).
_TIMING_PINS = {
    "crc32/noft": (38585, 44639, 4017, 1, "EXITED",
                   {"frame": 4434, "orig": 40205}),
    "crc32/mask": (39643, 52167, 4017, 1, "EXITED",
                   {"frame": 4434, "orig": 40205, "mask": 7528}),
    "crc32/trump": (46603, 59483, 4827, 1, "EXITED",
                    {"frame": 6054, "orig": 40205, "dup": 405,
                     "check": 9615, "copy": 3204}),
    "crc32/trump+mask": (46603, 59483, 4827, 1, "EXITED",
                         {"frame": 6054, "orig": 40205, "dup": 405,
                          "check": 9615, "copy": 3204}),
    "crc32/trump+swiftr": (60879, 134228, 12860, 1, "EXITED",
                           {"frame": 10906, "orig": 40205, "dup": 21615,
                            "spill": 7617, "dup2": 19610, "vote": 14246,
                            "check": 12021, "copy": 6404,
                            "convert": 1604}),
    "crc32/swiftr": (57676, 135835, 13663, 1, "EXITED",
                     {"frame": 11708, "orig": 40205, "dup": 21615,
                      "dup2": 21615, "spill": 12028, "vote": 22260,
                      "copy": 6404}),
    "adpcmdec/noft": (39567, 42787, 4025, 8, "EXITED",
                      {"frame": 2414, "orig": 40373}),
    "adpcmdec/mask": (40595, 47156, 4025, 8, "EXITED",
                      {"frame": 2414, "orig": 40373, "mask": 4369}),
    "adpcmdec/trump": (48703, 59537, 4558, 8, "EXITED",
                       {"frame": 3480, "orig": 40373, "dup": 1296,
                        "check": 8484, "copy": 5904}),
    "adpcmdec/trump+mask": (48703, 60565, 4558, 8, "EXITED",
                            {"frame": 3480, "orig": 40373, "dup": 1296,
                             "check": 8484, "copy": 5904, "mask": 1028}),
    "adpcmdec/trump+swiftr": (96913, 187984, 37408, 8, "EXITED",
                              {"frame": 5596, "orig": 40373, "dup": 24898,
                               "spill": 53760, "dup2": 23357, "check": 9252,
                               "copy": 6928, "vote": 22284,
                               "convert": 1536}),
    "adpcmdec/swiftr": (93334, 187746, 38181, 8, "EXITED",
                        {"frame": 6112, "orig": 40373, "dup": 24898,
                         "spill": 56085, "dup2": 24898, "vote": 28452,
                         "copy": 6928}),
    # equake, recorded before the scoreboard moved to flat lists, is the
    # float pin: 70-80 static instructions per cell touch a float slot.
    "equake/noft": (104233, 75278, 15836, 2, "EXITED",
                    {"frame": 17254, "orig": 58024}),
    "equake/mask": (107326, 92240, 15836, 2, "EXITED",
                    {"frame": 17254, "orig": 58024, "mask": 16962}),
    "equake/trump": (133778, 128832, 19149, 2, "EXITED",
                     {"frame": 23228, "orig": 58024, "dup": 4768,
                      "spill": 396, "check": 31380, "copy": 11036}),
    "equake/trump+mask": (133778, 128897, 19149, 2, "EXITED",
                          {"frame": 23228, "orig": 58024, "dup": 4768,
                           "spill": 396, "check": 31380, "copy": 11036,
                           "mask": 65}),
    "equake/trump+swiftr": (166725, 244096, 52117, 2, "EXITED",
                            {"frame": 35602, "orig": 58024, "spill": 33822,
                             "dup": 25266, "dup2": 19494, "check": 34452,
                             "copy": 15260, "vote": 20126,
                             "convert": 2050}),
    "equake/swiftr": (154651, 249220, 60786, 2, "EXITED",
                      {"frame": 37650, "orig": 58024, "spill": 44660,
                       "dup": 25266, "dup2": 25266, "vote": 43094,
                       "copy": 15260}),
}


def test_timing_model_is_pinned():
    """Exact Figure-9 numbers on three workloads x every paper technique:
    any change to the cycle model, or to which instructions it sees,
    moves at least one of them."""
    from repro.eval.pipeline import prepare_machine
    from repro.transform import PAPER_TECHNIQUES

    measured = {}
    for bench in ("crc32", "adpcmdec", "equake"):
        for technique in PAPER_TECHNIQUES:
            r = TimingSimulator(prepare_machine(bench, technique)).run()
            measured[f"{bench}/{technique.value}"] = (
                r.cycles, r.instructions, r.loads, r.load_misses,
                r.status.name, r.role_counts)
    assert measured == _TIMING_PINS


def test_function_attribution_is_pinned():
    from repro.eval.pipeline import prepare_machine
    from repro.transform import Technique

    machine = prepare_machine("crc32", Technique.SWIFTR)
    plain = TimingSimulator(machine).run()
    profiled = TimingSimulator(machine).run(profile=True)
    assert profiled.cycles == plain.cycles == 57676
    assert profiled.function_cycles == {
        "main": 20059, "build_table": 19988, "nextrand": 17629}
    assert profiled.function_instructions == {
        "main": 48152, "build_table": 60483, "nextrand": 27200}
    assert plain.function_cycles == plain.function_instructions == {}


@pytest.mark.parametrize("field, value", [
    ("line_bytes", 48), ("line_bytes", 0), ("width", 0), ("cache_sets", 0),
    ("load_hit_latency", -1), ("miss_penalty", -1),
    ("taken_branch_penalty", -1), ("call_penalty", -1),
])
def test_config_rejects_what_it_cannot_model(field, value):
    with pytest.raises(ValueError, match=field):
        TimingConfig(**{field: value})


# ------------------------------------------------ reference scoreboard
# The cycle model written plainly: dict-keyed ready times and cache
# tags, every source register of an instruction in one list, each
# register keyed by its file and slot, and cycles attributed to
# functions.  It runs on the shared loop (tested against the plain loop
# in test_loop.py) and reads the instructions, not CompiledBlock.meta.
_run_reference = render("reference", "tm", hooks(
    setup="cycle = used = 0",
    enter_block="rows = tm.rows[func.name, block_idx]",
    before_step="""
        is_load, out, srcs, latency, mem, role = rows[i]
        earliest = max([cycle] + [tm.ready.get(key, 0) for key in srcs])
        if earliest > cycle:
            cycle, used = earliest, 0
        elif used >= tm.config.width:
            cycle, used = cycle + 1, 0
        used += 1
        tm.roles[role] = tm.roles.get(role, 0) + 1
        tm.functions[func.name] = (tm.functions.get(func.name, 0)
                                   + cycle - tm.last)
        tm.last = cycle
        if mem is not None:
            address = (self.regs[mem[0]] + mem[1]) & MASK64
            line = address // tm.config.line_bytes
            if is_load:
                tm.loads += 1
                if tm.tags.get(line % tm.config.cache_sets) == line:
                    latency = tm.config.load_hit_latency
                else:
                    latency = tm.config.miss_penalty
                    tm.misses += 1
            tm.tags[line % tm.config.cache_sets] = line
        if out is not None:
            tm.ready[out] = cycle + latency
    """,
    on_branch="cycle, used = cycle + tm.config.taken_branch_penalty, 0",
    on_call="cycle, used = cycle + tm.config.call_penalty, 0",
    after_ret="""
        if dest >= 0:
            tm.ready[dest_float, dest] = cycle + 1
        cycle, used = cycle + tm.config.call_penalty, 0
    """,
    on_leave="tm.cycle = cycle",
), {"MASK64": MASK64})


def _reference_row(machine, instr):
    def key(reg):
        return reg.is_float, machine.slot_of(reg)

    mem = None
    if instr.op.info.touches_memory:
        mem = (machine.slot_of(instr.srcs[0]), instr.srcs[1].signed)
    return (instr.op in (Opcode.LOAD, Opcode.FLOAD),
            None if instr.dest is None else key(instr.dest),
            [key(src) for src in instr.srcs if isinstance(src, Register)],
            instr.op.info.latency, mem, instr.role.value)


def _reference_timing(binary, config):
    """(cycles, instructions, loads, misses, status, role counts,
    function cycles) of one fault-free run of ``binary``."""
    machine = Machine(binary)
    rows = {}
    for cf in machine.functions.values():
        machine._current_function = cf.name
        for index, block in enumerate(cf.blocks):
            rows[cf.name, index] = [_reference_row(machine, instr)
                                    for instr in block.instrs]
    tm = SimpleNamespace(config=config, rows=rows, ready={}, tags={},
                         roles={}, functions={}, last=0, loads=0,
                         misses=0, cycle=0)
    run = _run_reference(machine, None, tm)
    return (max(tm.cycle, 1), run.instructions, tm.loads, tm.misses,
            run.status, tm.roles, tm.functions)


def _timing(binary, config):
    """``_reference_timing``'s tuple from ``TimingSimulator``, checking
    that attribution leaves the other counts alone."""
    plain = TimingSimulator(Machine(binary), config).run()
    r = TimingSimulator(Machine(binary), config).run(profile=True)
    assert (plain.cycles, plain.loads, plain.load_misses,
            plain.role_counts) == (r.cycles, r.loads, r.load_misses,
                                   r.role_counts)
    return (r.cycles, r.instructions, r.loads, r.load_misses, r.status,
            r.role_counts, r.function_cycles)


# A CALL is the one instruction that reads more than two registers.  The
# second call's destination is also its last argument, and both calls
# wait on a divide.
_WIDE_CALLS = """
func mix(4):
entry:
    param v0, 0
    param v1, 1
    param v2, 2
    param v3, 3
    mul v4, v1, v2
    add v5, v0, v4
    sub v6, v5, v3
    ret v6

func main(0):
entry:
    li v0, 10
    li v1, 4
    li v2, 7
    div v3, v0, v1
    call v4, mix(v0, v1, v2, v3)
    div v3, v4, v1
    call v3, mix(v0, v1, v2, v3)
    print v3
    ret
"""

# Physical registers: the callee reads the call's destination before
# writing it, so that register's ready time at the call matters.
_CALLEE_READS_DEST = """
func peek(3):
entry:
    add r9, r5, 1
    param r10, 2
    add r3, r9, r10
    ret r3

func main(0):
entry:
    li r6, 10
    li r7, 4
    div r8, r6, r7
    call r5, peek(r6, r7, r8)
    print r5
    ret
"""

_FLOAT_SOURCE = """
float w[6];
float dot(float s) {
    float acc = 0.0;
    for (int i = 0; i < 6; i++) { acc = acc + w[i] * s; }
    return acc;
}
int main() {
    for (int i = 0; i < 6; i++) { w[i] = (float)(i * 3 - 7) / 4.0; }
    float total = 1.0;
    for (int k = 0; k < 4; k++) { total = total / 8.0 + dot(total); }
    print((int)(total * 1000.0));
    return 0;
}
"""


def wide_program(int_slots: int) -> Program:
    """More virtual integer slots than ``int_slots``, a chain of float
    divides, then a read of every integer register: a float slot that
    aliased an integer one would stall the reads."""
    program = Program()
    fn = Function("main")
    program.add_function(fn)
    b = IRBuilder(fn)
    b.start_block("entry")
    regs = []
    for _ in range(int_slots // 3 + 1):
        x, y = b.new_reg(), b.new_reg()
        regs += [x, y, b.add(x, y)]
    f = b.fli(2.0)
    for _ in range(64):
        f = b.fdiv(f, f)
    sink = b.new_reg()
    for k in range(0, len(regs) - 1, 2):
        b.add(regs[k], regs[k + 1], dest=sink)
    b.fprint(f)
    b.ret()
    return program


_CONFIGS = (
    TimingConfig(),
    TimingConfig(width=1, load_hit_latency=3),
    TimingConfig(cache_sets=500, line_bytes=32, miss_penalty=7,
                 taken_branch_penalty=3, call_penalty=0),
)


def _binaries():
    wide_calls = parse_program(_WIDE_CALLS)
    yield wide_calls
    yield allocate_program(wide_calls)
    yield parse_program(_CALLEE_READS_DEST)
    float_program = compile_source(_FLOAT_SOURCE)
    yield float_program
    yield protect(float_program, Technique.SWIFTR)
    yield allocate_program(protect(float_program, Technique.TRUMP))
    yield from _call_binaries()
    for seed in range(4):
        program = random_program(seed, num_blocks=3, instrs_per_block=9)
        yield program
        yield protect(program, Technique.SWIFTR)
        yield allocate_program(protect(program, Technique.TRUMP))


@pytest.mark.parametrize("config", _CONFIGS)
def test_scoreboard_matches_the_reference(config):
    """Physical- and virtual-register programs, with calls, floats and
    loads, time the same under the reference model."""
    for binary in _binaries():
        assert _timing(binary, config) == _reference_timing(binary, config)


def test_float_slots_sit_above_every_integer_slot():
    """The ready table grows with the program: 70,000 virtual integer
    slots outnumber a fixed float base of 1 << 16."""
    binary = wide_program(70_000)
    assert Machine(binary).float_slot_base > 70_000
    config = TimingConfig()
    assert _timing(binary, config) == _reference_timing(binary, config)
