"""Convergence splicing never changes a trial's result.

A trial that splices the golden suffix must return exactly the
:class:`RunResult` it would have reached by running to the end.  The
differential test below holds that for every trial of small programs
under every paper technique, on both engines, with the campaign's next
site passed as ``run_trials`` passes it.  The targeted tests pin the
two frame rules of :func:`repro.analysis.frames.check_frames`: a
callee-saved register passes through a call, stack cells below SP are
dead, and a program that breaks the discipline keeps the exact
comparison.
"""

import random

import pytest

from irgen import random_program
from test_analysis_liveness import callee_save_asm
from repro.analysis.frames import check_frames
from repro.faults import FaultSite, build_checkpoints, run_with_fault
from repro.faults.injector import CheckpointStore
from repro.faults.model import INJECTABLE_GPRS
from repro.isa import parse_program
from repro.isa.program import STACK_TOP
from repro.lang import compile_source
from repro.sim import Machine
from repro.sim.jit import attach_jit
from repro.sim.taint import TaintTracker
from repro.transform import allocate_program, protect
from repro.transform.protect import PAPER_TECHNIQUES

#: The CI smoke program.
SMOKE_SOURCE = r"""
int data[8] = { 3, 1, 4, 1, 5, 9, 2, 6 };
int main() {
    int total = 0;
    for (int i = 0; i < 8; i++) { total += data[i] * (i + 1); }
    print(total);
    return 0;
}
"""

#: Calls in a loop: callee-saved registers pass through ``scale`` and
#: ``fold``, and each call's popped frame is reused by the next one.
CALLS_SOURCE = r"""
int data[6] = { 5, 3, 8, 1, 9, 2 };
int scale(int x, int k) { return x * k + 1; }
int fold(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) { acc = acc + scale(data[i], i + 2); }
    return acc;
}
int main() {
    int total = 0;
    for (int r = 0; r < 3; r++) { total = total + fold(6 - r); }
    print(total);
    return 0;
}
"""

PROGRAMS = {
    "smoke": lambda: compile_source(SMOKE_SOURCE),
    "calls": lambda: compile_source(CALLS_SOURCE),
    "irgen3": lambda: random_program(3, num_blocks=3, instrs_per_block=9),
    "irgen11": lambda: random_program(11, num_blocks=3,
                                      instrs_per_block=9),
}

#: Trials per cell, spread evenly over the golden run.
SITES = 48


def _sites(length, seed):
    rng = random.Random(seed)
    return sorted((FaultSite(dynamic_index=k * length // SITES
                             + rng.randrange(max(length // SITES, 1)),
                             reg_index=rng.choice(INJECTABLE_GPRS),
                             bit=rng.randrange(64))
                   for k in range(SITES)),
                  key=lambda site: site.dynamic_index)


def _store(program, jit, fast_forward):
    machine = Machine(program)
    if jit:
        attach_jit(machine)
    store = CheckpointStore(machine, interval=16, fast_forward=fast_forward)
    store.build()
    return store


@pytest.mark.parametrize("technique", PAPER_TECHNIQUES,
                         ids=lambda t: t.value)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_fast_forward_equals_full_run(name, technique):
    """Every trial's result is the same with and without splicing, on
    both engines, with the next site passed."""
    program = allocate_program(protect(PROGRAMS[name](), technique))
    assert check_frames(program).ok
    for jit in (False, True):
        spliced = _store(program, jit, fast_forward=True)
        full = _store(program, jit, fast_forward=False)
        sites = _sites(spliced.golden.instructions, f"{name}/{technique}")
        for site, upcoming in zip(sites, [*sites[1:], None]):
            assert (spliced.run_with_fault(site, upcoming=upcoming)
                    == full.run_with_fault(site, upcoming=upcoming)), site
        assert spliced.fast_forwards > 0
        assert full.fast_forwards == 0


def test_callee_saved_flip_splices_at_its_site():
    """A flip into r27 at the call passes through ``save`` (saved,
    overwritten, restored) into a caller that never reads it: the trial
    splices at its own site."""
    program = parse_program(callee_save_asm())
    site = FaultSite(dynamic_index=3, reg_index=27, bit=4)
    store = build_checkpoints(Machine(program), interval=4)
    result = store.run_with_fault(site)
    assert store.fast_forwards == 1
    assert store.machine.icount == site.dynamic_index
    assert result == run_with_fault(Machine(program), site)
    assert result.output == store.golden.output


#: ``leaf`` spills r5 and fills r6 from the same slot, then drops r6;
#: ``main`` calls it once and then loops, reading neither register.
DEAD_SLOT_ASM = """
func leaf(0):
entry:
    sub r1, r1, 8    ; role=frame
    li r5, 7
    store [r1 + 0], r5    ; role=spill
    load r6, [r1 + 0]    ; role=spill
    li r29, 0
    add r1, r1, 8    ; role=frame
    ret r29

func main(0):
entry:
    call r20, leaf()
    li r21, 0
loop:
    add r21, r21, 1
    blt r21, 40, loop
done:
    print r21
    ret
"""


@pytest.mark.parametrize("old,new", [
    ("    li r29, 0\n", "    mov r29, r1\n"),                # copies SP
    ("    load r6, [r1 + 0]", "    load r6, [r1 + 8]"),          # above frame
    ("    add r1, r1, 8    ; role=frame\n", ""),                # SP not raised
    ("    li r29, 0\n", "    add r1, r1, 8\n    li r29, 0\n"),  # raised early
], ids=["sp-copied", "above-frame", "sp-not-raised", "sp-raised-early"])
def test_frame_check_rejects_broken_discipline(old, new):
    assert check_frames(parse_program(DEAD_SLOT_ASM)).ok
    assert old in DEAD_SLOT_ASM
    assert not check_frames(parse_program(DEAD_SLOT_ASM.replace(old, new,
                                                               1))).ok


def test_dead_frame_cell_is_ignored():
    """Inside ``leaf`` its slot is live; once ``leaf`` has returned the
    slot lies below SP and a difference there is dead.  A taint-traced
    compare stays exact, and a live global cell still counts."""
    program = parse_program(DEAD_SLOT_ASM)
    assert check_frames(program).ok
    slot = STACK_TOP - 8
    machine = Machine(program)
    machine.run(4)                       # inside leaf, at its fill
    snap = machine.snapshot()
    machine.memory.cells[slot] = 99
    assert not machine.state_matches(snap)
    machine.restore(snap)
    machine.run(12)                      # back in main's loop
    snap = machine.snapshot()
    machine.memory.cells[slot] = 99
    assert machine.state_matches(snap)
    machine.taint = TaintTracker()
    assert not machine.state_matches(snap)
    machine.taint = None
    machine.memory.cells[machine.memory.global_lo] = 1
    assert not machine.state_matches(snap)


def test_dead_frame_cell_run_splices():
    """A flip into r5 at ``leaf``'s spill is live until the slot is
    popped; from then on only that dead cell differs, so the trial
    splices at the next checkpoint instead of running out."""
    program = parse_program(DEAD_SLOT_ASM)
    site = FaultSite(dynamic_index=3, reg_index=5, bit=2)
    store = build_checkpoints(Machine(program), interval=16)
    result = store.run_with_fault(site)
    assert store.fast_forwards == 1
    assert store.machine.icount == 16
    assert result == run_with_fault(Machine(program), site)
    traced = build_checkpoints(Machine(program), interval=16)
    assert traced.run_with_fault(site, taint=TaintTracker()) == result
    assert traced.fast_forwards == 0


#: ``leaf`` fills its slot on every path but stores it only when its
#: argument is nonzero, so the second call reads the first call's
#: popped frame: that cell is not dead.
UNWRITTEN_SLOT_ASM = """
func leaf(1):
entry:
    sub r1, r1, 8    ; role=frame
    param r5, 0
    beq r5, 0, fill
spill:
    store [r1 + 0], r5    ; role=spill
fill:
    load r6, [r1 + 0]    ; role=spill
    mov r29, r6
    add r1, r1, 8    ; role=frame
    ret r29

func main(0):
entry:
    li r20, 5
    call r21, leaf(r20)
    li r22, 0
loop:
    add r22, r22, 1
    blt r22, 20, loop
tail:
    li r20, 0
    call r21, leaf(r20)
    print r21
    ret
"""


def test_unwritten_slot_fails_the_frame_check():
    """The fill can read a slot no store of its activation wrote, so
    the program fails the check and a difference below SP is compared:
    the flipped spill reaches the second call's output, and the trial
    equals full replay."""
    program = parse_program(UNWRITTEN_SLOT_ASM)
    frames = check_frames(program)
    assert not frames.ok and not frames.saves
    site = FaultSite(dynamic_index=5, reg_index=5, bit=1)
    for jit in (False, True):
        machine = Machine(program)
        if jit:
            attach_jit(machine)
        store = build_checkpoints(machine, interval=8)
        result = store.run_with_fault(site)
        assert result == run_with_fault(Machine(program), site)
        assert result.output != store.golden.output
        assert store.fast_forwards == 0
