"""The in-order superscalar timing model."""

import pytest

from repro.isa import Function, IRBuilder, Program
from repro.sim import (
    Machine,
    RunStatus,
    TimingConfig,
    TimingSimulator,
    measure_cycles,
)


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
}


def test_timing_model_is_pinned():
    """Exact Figure-9 numbers on two workloads x every paper technique:
    any change to the cycle model, or to which instructions it sees,
    moves at least one of them."""
    from repro.eval.pipeline import prepare_machine
    from repro.transform import PAPER_TECHNIQUES

    measured = {}
    for bench in ("crc32", "adpcmdec"):
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
