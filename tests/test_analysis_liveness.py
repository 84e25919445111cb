"""Liveness analysis and def-use information."""

from repro.analysis import DefUse, DependenceWebs, Liveness
from repro.isa import Function, IRBuilder


def test_straight_line_liveness():
    fn = Function("f")
    b = IRBuilder(fn)
    b.start_block("entry")
    x = b.li(1)
    y = b.li(2)
    z = b.add(x, y)
    b.print_(z)
    b.ret()
    live = Liveness(fn)
    assert live.live_in["entry"] == frozenset()
    assert live.live_out["entry"] == frozenset()
    per_instr = live.per_instruction_live_out(fn.entry)
    # After the add, only z matters.
    assert per_instr[2] == frozenset({z})
    # After li x, x is live (y not yet defined).
    assert x in per_instr[0]


def test_loop_carried_liveness():
    fn = Function("f")
    b = IRBuilder(fn)
    b.start_block("entry")
    i = b.li(0)
    total = b.li(0)
    b.jmp("loop")
    b.start_block("loop")
    b.add(total, i, dest=total)
    b.add(i, 1, dest=i)
    b.blt(i, 10, "loop")
    b.start_block("exit")
    b.print_(total)
    b.ret()
    live = Liveness(fn)
    assert i in live.live_in["loop"]
    assert total in live.live_in["loop"]
    assert total in live.live_out["loop"]
    assert total in live.live_in["exit"]
    assert i not in live.live_in["exit"]


def test_live_through_block():
    fn = Function("f")
    b = IRBuilder(fn)
    b.start_block("entry")
    keep = b.li(42)
    tmp = b.li(1)
    b.jmp("mid")
    b.start_block("mid")
    t2 = b.add(tmp, 1)
    b.print_(t2)
    b.jmp("end")
    b.start_block("end")
    b.print_(keep)
    b.ret()
    live = Liveness(fn)
    assert keep in live.live_through_block(fn.block("mid"))
    assert tmp not in live.live_through_block(fn.block("end"))


def test_defuse_collects_sites():
    fn = Function("f")
    b = IRBuilder(fn)
    b.start_block("entry")
    x = b.li(1)
    y = b.add(x, x)
    b.add(y, 1, dest=y)
    b.print_(y)
    b.ret()
    du = DefUse.of(fn)
    assert len(du.defs_of(x)) == 1
    assert len(du.defs_of(y)) == 2
    assert len(du.uses_of(x)) == 2  # one instruction, two operand slots
    assert len(set(du.uses_of(x))) == 1
    assert len(du.uses_of(y)) == 2
    assert x in du.registers() and y in du.registers()


def test_dependence_webs():
    fn = Function("f")
    b = IRBuilder(fn)
    b.start_block("entry")
    a = b.li(1)
    bb = b.add(a, 1)
    c = b.li(5)       # independent chain
    d = b.mul(c, 3)
    b.print_(bb)
    b.print_(d)
    b.ret()
    webs = DependenceWebs(fn)
    assert webs.same_web(a, bb)
    assert webs.same_web(c, d)
    assert not webs.same_web(a, d)
    groups = webs.webs()
    assert any({a, bb} <= g for g in groups)


#: ``save`` spills r27 in its prologue and restores it before its
#: return, although ``main`` never reads r27 again; ``main`` reads the
#: call's dest r26 right after the call, and r25, which ``save`` never
#: touches, after that.  ``{body}`` and ``{restore}`` let the variants
#: below read r27 early or drop the restore.
CALLEE_SAVE_TEMPLATE = """
func save(0):
entry:
    sub r1, r1, 8    ; role=frame
    store [r1 + 0], r27    ; role=frame
{body}
    li r27, 5
    add r29, r27, 2
{restore}
    add r1, r1, 8    ; role=frame
    ret r29

func main(0):
entry:
    li r27, 9
    li r25, 6
    li r26, 4
    call r26, save()
    print r26
    print r25
    ret
"""

RESTORE = "    load r27, [r1 + 0]    ; role=frame"


def callee_save_asm(body="", restore=RESTORE):
    return CALLEE_SAVE_TEMPLATE.format(body=body, restore=restore)


def _main_masks(asm):
    from repro.analysis.liveness import live_in_masks
    from repro.isa import parse_program

    ints, _floats = live_in_masks(parse_program(asm))["main"][0]
    return ints


CALL = 3    # the call's index in main


def test_call_reads_callee_saved_register():
    """``save`` saves r27 in its prologue and restores it from the same
    slot before its only return, so the save is not a read: r27 passes
    through the call, and main never reads it again."""
    ints = _main_masks(callee_save_asm())
    assert not ints[CALL] >> 27 & 1
    assert not ints[CALL] >> 26 & 1     # the call overwrites r26
    assert ints[CALL] >> 25 & 1         # main prints r25 after the call
    assert ints[CALL + 1] >> 26 & 1     # print reads the call's result
    assert not ints[CALL + 1] >> 27 & 1


def test_callee_read_keeps_saved_register_live():
    """A callee that reads r27 before it overwrites it reads the
    caller's value, save or no save."""
    ints = _main_masks(callee_save_asm(body="    add r28, r27, 1"))
    assert ints[CALL] >> 27 & 1


def test_unrestored_frame_store_is_a_read():
    """A ``role=frame`` store that no epilogue restores is an ordinary
    store of r27, which makes r27 live before the call."""
    ints = _main_masks(callee_save_asm(restore=""))
    assert ints[CALL] >> 27 & 1


def test_paused_state_liveness_follows_call_frames():
    """At the call, a flipped r27 passes through ``save``; inside the
    callee, before its spill, neither r27 nor the frame's dest r26
    matters (the return overwrites r26 first), but the caller's r25
    does.  Without the restore the spill is a read, and r27 matters at
    the call."""
    from repro.isa import parse_program
    from repro.sim import Machine

    machine = Machine(parse_program(callee_save_asm()))
    machine.run(CALL)                    # paused at the call
    snap = machine.snapshot()
    machine.flip_register_bit(27, 0)
    assert machine.state_matches(snap)
    machine.restore(snap)
    machine.run(5)                       # inside save, before its spill
    snap = machine.snapshot()
    for reg, dead in ((26, True), (27, True), (25, False)):
        machine.restore(snap)
        machine.flip_register_bit(reg, 3)
        assert machine.state_matches(snap) is dead, reg
    machine = Machine(parse_program(callee_save_asm(restore="")))
    machine.run(CALL)
    snap = machine.snapshot()
    machine.flip_register_bit(27, 0)
    assert not machine.state_matches(snap)
