"""Functional simulator semantics: opcode by opcode, plus control flow,
pause/resume, traps, and fault flipping."""

import math

import pytest

from repro.isa import (
    FImm,
    Function,
    IRBuilder,
    Imm,
    MASK64,
    Program,
    parse_program,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import to_signed
from repro.isa.program import HEAP_BASE
from repro.sim import Machine, RunStatus, TrapKind, run_program
from repro.sim.jit import attach_jit


def run_main(body_builder):
    """Build main with the given builder callback and run it."""
    program = Program()
    fn = Function("main")
    program.add_function(fn)
    b = IRBuilder(fn)
    b.start_block("entry")
    body_builder(b, program)
    return run_program(program)


INT_MIN = -(1 << 63)


@pytest.mark.parametrize("op,a,b,expected", [
    ("add", 2, 3, 5),
    ("add", (1 << 63) - 1, 1, INT_MIN),        # signed overflow wraps
    ("sub", 2, 3, -1),
    ("mul", -4, 5, -20),
    ("mul", 1 << 62, 4, 0),                    # wraps mod 2**64
    ("div", 7, 2, 3),
    ("div", -7, 2, -3),                        # C-style truncation
    ("div", 7, -2, -3),
    ("div", -7, -2, 3),
    ("rem", 7, 3, 1),
    ("rem", -7, 3, -1),                        # sign follows dividend
    ("rem", 7, -3, 1),
    ("and", 0b1100, 0b1010, 0b1000),
    ("or", 0b1100, 0b1010, 0b1110),
    ("xor", 0b1100, 0b1010, 0b0110),
    ("shl", 1, 63, INT_MIN),
    ("shl", 1, 64, 1),                         # amounts taken mod 64
    ("shr", -1, 60, 15),                       # logical: zero fill
    ("sra", -16, 2, -4),                       # arithmetic: sign fill
    ("sra", 16, 2, 4),
    ("cmpeq", 3, 3, 1),
    ("cmpne", 3, 3, 0),
    ("cmplt", -1, 0, 1),                       # signed compare
    ("cmplt", 1, 0, 0),
    ("cmple", 3, 3, 1),
    ("cmpgt", 0, -5, 1),
    ("cmpge", -5, -5, 1),
    ("cmpltu", -1, 0, 0),                      # unsigned: -1 is huge
    ("cmpgeu", -1, 0, 1),
])
def test_binary_semantics(op, a, b, expected):
    method = {"and": "and_", "or": "or_"}.get(op, op)

    def body(builder, program):
        x = builder.li(a)
        y = builder.li(b)
        builder.print_(getattr(builder, method)(x, y))
        builder.ret()

    result = run_main(body)
    assert result.output == [expected]


def test_neg_and_not():
    def body(b, p):
        x = b.li(5)
        b.print_(b.neg(x))
        b.print_(b.not_(x))
        b.ret()

    assert run_main(body).output == [-5, ~5]


def test_div_by_zero_traps():
    def body(b, p):
        x = b.li(1)
        z = b.li(0)
        b.print_(b.div(x, z))
        b.ret()

    result = run_main(body)
    assert result.status is RunStatus.TRAPPED
    assert result.trap_kind is TrapKind.DIV_BY_ZERO


def test_rem_by_zero_traps():
    def body(b, p):
        x = b.li(1)
        z = b.li(0)
        b.print_(b.rem(x, z))
        b.ret()

    assert run_main(body).trap_kind is TrapKind.DIV_BY_ZERO


def test_float_ops_and_conversions():
    def body(b, p):
        x = b.fli(1.5)
        y = b.fli(2.0)
        b.fprint(b.fadd(x, y))
        b.fprint(b.fsub(x, y))
        b.fprint(b.fmul(x, y))
        b.fprint(b.fdiv(x, y))
        i = b.li(-3)
        f = b.cvtif(i)
        b.fprint(f)
        b.print_(b.cvtfi(b.fli(7.9)))     # truncates toward zero
        b.print_(b.fcmplt(x, y))
        b.print_(b.fcmpeq(x, x))
        b.ret()

    result = run_main(body)
    assert result.output == [3.5, -0.5, 3.0, 0.75, -3.0, 7, 1, 1]


def test_float_div_by_zero_is_ieee():
    def body(b, p):
        x = b.fli(1.0)
        z = b.fli(0.0)
        b.fprint(b.fdiv(x, z))
        b.fprint(b.fdiv(b.fneg(x), z))
        b.ret()

    out = run_main(body).output
    assert out[0] == float("inf")
    assert out[1] == float("-inf")


def test_cvtfi_of_inf_traps():
    def body(b, p):
        x = b.fli(1.0)
        z = b.fli(0.0)
        b.print_(b.cvtfi(b.fdiv(x, z)))
        b.ret()

    assert run_main(body).trap_kind is TrapKind.BAD_CONVERT


def test_exit_code():
    def body(b, p):
        b.exit_(3)

    result = run_main(body)
    assert result.status is RunStatus.EXITED
    assert result.exit_code == 3


def test_detect_terminates_with_detected():
    program = parse_program("""
func main(0):
entry:
    detect
""")
    assert run_program(program).status is RunStatus.DETECTED


def test_segfault_on_wild_load():
    def body(b, p):
        addr = b.li(0xDEAD0000)
        b.print_(b.load(addr))
        b.ret()

    result = run_main(body)
    assert result.status is RunStatus.TRAPPED
    assert result.trap_kind is TrapKind.SEGFAULT


def test_hang_detection():
    program = parse_program("""
func main(0):
entry:
    jmp entry
""")
    result = run_program(program, max_instructions=1000)
    assert result.status is RunStatus.HANG
    assert result.instructions == 1000


def test_pause_resume_exactness(simple_program, simple_golden):
    machine = Machine(simple_program)
    machine.reset()
    first = machine.run(10)
    assert first.status is RunStatus.PAUSED
    assert machine.icount == 10
    second = machine.run(25)
    assert machine.icount == 25
    final = machine.run(None)
    assert final.status is RunStatus.EXITED
    assert final.output == simple_golden.output
    assert final.instructions == simple_golden.instructions


def test_pause_at_every_boundary_gives_same_result(simple_program,
                                                   simple_golden):
    total = simple_golden.instructions
    machine = Machine(simple_program)
    for split in (1, total // 3, total - 1):
        machine.reset()
        machine.run(split)
        final = machine.run(None)
        assert final.output == simple_golden.output


def test_snapshot_restore_roundtrip(simple_program, simple_golden):
    machine = Machine(simple_program)
    machine.reset()
    machine.run(12)
    snap = machine.snapshot()
    first = machine.run(None)
    assert first.output == simple_golden.output
    machine.restore(snap)
    assert machine.icount == 12
    second = machine.run(None)
    assert second.output == first.output
    assert second.instructions == first.instructions
    assert second.status is first.status


def test_restore_undoes_corruption(simple_program, simple_golden):
    machine = Machine(simple_program)
    machine.reset()
    machine.run(10)
    snap = machine.snapshot()
    # Wreck the paused state, then restore: the snapshot must win.
    machine.flip_register_bit(5, 40)
    machine.memory.cells.clear()
    machine.output.append(999)
    machine.restore(snap)
    final = machine.run(None)
    assert final.output == simple_golden.output
    assert final.instructions == simple_golden.instructions


def test_snapshot_of_finished_run_rejected(simple_program):
    from repro.errors import SimulationError

    machine = Machine(simple_program)
    machine.run(None)
    with pytest.raises(SimulationError):
        machine.snapshot()


def test_state_matches_detects_divergence(simple_program):
    machine = Machine(simple_program)
    machine.reset()
    machine.run(10)
    snap = machine.snapshot()
    assert machine.state_matches(snap)
    machine.flip_register_bit(6, 3)
    assert not machine.state_matches(snap)
    machine.flip_register_bit(6, 3)
    assert machine.state_matches(snap)
    machine.memory.cells[machine.memory.global_lo] = 0xBAD
    assert not machine.state_matches(snap)


def test_flip_register_bit():
    program = parse_program("""
func main(0):
entry:
    li r5, 0
    print r5
    ret
""")
    machine = Machine(program)
    machine.reset()
    machine.run(1)                 # after li
    machine.flip_register_bit(5, 7)
    result = machine.run(None)
    assert result.output == [128]


def test_reset_restores_memory_and_registers(simple_program):
    machine = Machine(simple_program)
    first = machine.run(None)
    machine.reset()
    second = machine.run(None)
    assert first.output == second.output
    assert first.instructions == second.instructions


def test_call_and_param_passing():
    program = parse_program("""
func addmul(3):
entry:
    param v0, 0
    param v1, 1
    param v2, 2
    mul v3, v1, v2
    add v4, v0, v3
    ret v4

func main(0):
entry:
    li v0, 10
    li v1, 4
    li v2, 5
    call v3, addmul(v0, v1, v2)
    print v3
    ret
""")
    assert run_program(program).output == [30]


def test_void_call_and_immediate_args():
    program = parse_program("""
func emit(1):
entry:
    param v0, 0
    print v0
    ret

func main(0):
entry:
    call emit(42)
    ret
""")
    assert run_program(program).output == [42]


def test_main_return_ends_program(simple_program):
    result = run_program(simple_program)
    assert result.status is RunStatus.EXITED
    assert result.exit_code == 0


# ------------------------------------- opcode semantics, both engines
# The interpreter and the JIT render their opcodes from one template
# table (repro.sim.semantics), so differential tests between them
# cannot catch a wrong template.  These check every templated opcode
# against meanings written out here, on signed Python ints, independent
# of the templates.

INT_MAX = (1 << 63) - 1
EDGES = (0, 1, -1, INT_MIN, INT_MAX)
SHIFT_COUNTS = (0, 63, 64, -1)


def _wrap(value):
    """``value`` mod 2**64, in the signed view PRINT reports."""
    return to_signed(value)


def _trunc_div(a, b):
    quotient = a // b
    if quotient < 0 and quotient * b != a:
        quotient += 1                   # C rounds toward zero, not down
    return quotient


def _ieee_div(a, b):
    if b:
        return a / b
    return math.copysign(math.inf, a) if a else math.nan  # b is +0.0


#: Opcode -> meaning on signed operands.  Shift counts use their low
#: six bits (the ISA's rule); SHR and the unsigned compares view their
#: operands as unsigned.
REFERENCE = {
    Opcode.ADD: lambda a, b: _wrap(a + b),
    Opcode.SUB: lambda a, b: _wrap(a - b),
    Opcode.MUL: lambda a, b: _wrap(a * b),
    Opcode.DIV: lambda a, b: _wrap(_trunc_div(a, b)),
    Opcode.REM: lambda a, b: _wrap(a - b * _trunc_div(a, b)),
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: _wrap(a << b % 64),
    Opcode.SHR: lambda a, b: _wrap(a % 2 ** 64 >> b % 64),
    Opcode.SRA: lambda a, b: a >> b % 64,
    Opcode.CMPEQ: lambda a, b: int(a == b),
    Opcode.CMPNE: lambda a, b: int(a != b),
    Opcode.CMPLT: lambda a, b: int(a < b),
    Opcode.CMPLE: lambda a, b: int(a <= b),
    Opcode.CMPGT: lambda a, b: int(a > b),
    Opcode.CMPGE: lambda a, b: int(a >= b),
    Opcode.CMPLTU: lambda a, b: int(a % 2 ** 64 < b % 2 ** 64),
    Opcode.CMPGEU: lambda a, b: int(a % 2 ** 64 >= b % 2 ** 64),
    Opcode.NEG: lambda a: _wrap(-a),
    Opcode.NOT: lambda a: ~a,
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: a < b,
    Opcode.BGE: lambda a, b: a >= b,
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: lambda a, b: _ieee_div(a, b),
    Opcode.FNEG: lambda a: -a,
    Opcode.FCMPEQ: lambda a, b: int(a == b),
    Opcode.FCMPLT: lambda a, b: int(a < b),
    Opcode.FCMPLE: lambda a, b: int(a <= b),
}

_SHIFTS = (Opcode.SHL, Opcode.SHR, Opcode.SRA)
_BRANCHES = (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE)
_FLOAT_BINOPS = (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV)
_FLOAT_COMPARES = (Opcode.FCMPEQ, Opcode.FCMPLT, Opcode.FCMPLE)
FLOATS = (0.0, 1.5, -2.0, math.inf)


@pytest.mark.parametrize("op,a,b,expected", [
    (Opcode.SHL, 1, 63, INT_MIN),
    (Opcode.SHL, 1, 64, 1),
    (Opcode.SHL, 1, -1, INT_MIN),
    (Opcode.SHR, -1, 0, -1),
    (Opcode.SHR, -1, 63, 1),
    (Opcode.SHR, INT_MIN, -1, 1),
    (Opcode.SRA, INT_MIN, 63, -1),
    (Opcode.SRA, INT_MIN, 64, INT_MIN),
    (Opcode.SRA, INT_MAX, -1, 0),
    (Opcode.ADD, INT_MAX, 1, INT_MIN),
    (Opcode.SUB, INT_MIN, 1, INT_MAX),
    (Opcode.MUL, INT_MIN, -1, INT_MIN),
    (Opcode.DIV, INT_MIN, -1, INT_MIN),
    (Opcode.DIV, -7, 2, -3),
    (Opcode.REM, -7, 2, -1),
    (Opcode.REM, INT_MIN, -1, 0),
    (Opcode.NOT, INT_MIN, None, INT_MAX),
    (Opcode.NEG, INT_MIN, None, INT_MIN),
    (Opcode.CMPLT, INT_MIN, INT_MAX, 1),
    (Opcode.CMPLTU, INT_MIN, INT_MAX, 0),
    (Opcode.CMPGEU, -1, INT_MAX, 1),
    (Opcode.BLT, -1, 0, True),
    (Opcode.BGE, INT_MIN, INT_MAX, False),
    (Opcode.BGE, INT_MAX, INT_MIN, True),
])
def test_reference_semantics_edges(op, a, b, expected):
    """Pin the reference table on the edges it is used for."""
    args = (a,) if b is None else (a, b)
    assert REFERENCE[op](*args) == expected


def test_reference_covers_every_templated_opcode():
    from repro.sim.machine import _STEP_FACTORIES

    assert set(REFERENCE) == set(_STEP_FACTORIES)


def _int_cases(op):
    counts = SHIFT_COUNTS if op in _SHIFTS else EDGES
    return [(a, b) for a in EDGES for b in counts
            if not (op in (Opcode.DIV, Opcode.REM) and b == 0)]


def _semantics_program():
    """Every templated opcode in every operand shape it has, each
    result printed; returns the program and the expected output."""
    program = Program()
    fn = Function("main")
    program.add_function(fn)
    b = IRBuilder(fn)
    b.start_block("entry")
    x, y, r = b.new_reg(), b.new_reg(), b.new_reg()
    fx, fy, fr = b.new_freg(), b.new_freg(), b.new_freg()
    expected = []

    def operands(a, bv, shape, fl=False):
        load = b.fli if fl else b.li
        left = load(a, dest=fx if fl else x) if shape[0] == "r" else a
        right = load(bv, dest=fy if fl else y) if shape[1] == "r" else bv
        return left, right

    for op in REFERENCE:
        if op in (*_BRANCHES, Opcode.NEG, Opcode.NOT, Opcode.FNEG):
            continue
        fl = op in _FLOAT_BINOPS or op in _FLOAT_COMPARES
        cases = ([(a, c) for a in FLOATS for c in FLOATS] if fl
                 else _int_cases(op))
        shapes = ("rr",) if op in _FLOAT_COMPARES else ("rr", "ri", "ir")
        for shape in shapes:
            for a, c in cases:
                left, right = operands(a, c, shape, fl)
                if op in _FLOAT_BINOPS:
                    b._binop(op, left, right, fr, is_float=True)
                    b.fprint(fr)
                else:
                    b._binop(op, left, right, r)
                    b.print_(r)
                expected.append(REFERENCE[op](a, c))
    for op in (Opcode.NEG, Opcode.NOT):
        for a in EDGES:
            b.emit(Instruction(op, dest=r, srcs=(b.li(a, dest=x),)))
            b.print_(r)
            b.emit(Instruction(op, dest=r, srcs=(Imm(a),)))
            b.print_(r)
            expected += [REFERENCE[op](a)] * 2
    for a in FLOATS:
        b.fneg(b.fli(a, dest=fx), dest=fr)
        b.fprint(fr)
        expected.append(-a)
    for k, (op, shape, a, c) in enumerate(
            (op, shape, a, c) for op in _BRANCHES
            for shape in ("rr", "ri", "ir")
            for a in EDGES for c in EDGES):
        left, right = operands(a, c, shape)
        b.li(0, dest=r)
        b.emit(Instruction(op, srcs=(b._operand(left), b._operand(right)),
                           label=f"taken{k}"))
        b.start_block(f"fall{k}")
        b.jmp(f"join{k}")
        b.start_block(f"taken{k}")
        b.li(1, dest=r)
        b.start_block(f"join{k}")
        b.print_(r)
        expected.append(int(REFERENCE[op](a, c)))
    b.ret()
    return program, expected


def _same(got, want):
    return got == want or (got != got and want != want)


@pytest.mark.parametrize("jit", [False, True], ids=["interp", "jit"])
def test_templated_opcodes_match_reference(jit):
    program, expected = _semantics_program()
    machine = Machine(program)
    if jit:
        driver, _resumes = attach_jit(machine).tables("main")
        assert driver is not None
    result = machine.run()
    assert result.status is RunStatus.EXITED
    assert len(result.output) == len(expected)
    wrong = [(k, got, want) for k, (got, want)
             in enumerate(zip(result.output, expected))
             if not _same(got, want)]
    assert not wrong


def _memory_program(body):
    program = Program()
    fn = Function("main")
    program.add_function(fn)
    b = IRBuilder(fn)
    b.start_block("entry")
    body(b)
    b.ret()
    return program


def _store_int(b, base):
    b.store(base, b.li(7))


def _store_imm(b, base):
    b.emit(Instruction(Opcode.STORE, srcs=(base, Imm(0), Imm(7))))


def _store_float(b, base):
    b.fstore(base, b.fli(1.5))


def _store_float_imm(b, base):
    b.emit(Instruction(Opcode.FSTORE, srcs=(base, Imm(0), FImm(1.5))))


@pytest.mark.parametrize("jit", [False, True], ids=["interp", "jit"])
@pytest.mark.parametrize("addr", [0xDEAD0000, HEAP_BASE + 4],
                         ids=["unmapped", "misaligned"])
@pytest.mark.parametrize("store", [_store_int, _store_imm, _store_float,
                                   _store_float_imm],
                         ids=["int", "imm", "float", "float-imm"])
def test_bad_store_traps_before_writing(jit, addr, store):
    def body(b):
        store(b, b.li(addr))
        b.print_(b.li(1))

    program = _memory_program(body)
    instrs = program.functions["main"].blocks[0].instructions
    stored_at = next(k for k, instr in enumerate(instrs)
                     if instr.op in (Opcode.STORE, Opcode.FSTORE))
    machine = Machine(program)
    if jit:
        attach_jit(machine)
    result = machine.run()
    assert result.status is RunStatus.TRAPPED
    assert result.trap_kind is TrapKind.SEGFAULT
    assert result.instructions == stored_at + 1
    assert addr not in machine.memory.cells
    assert result.output == []


@pytest.mark.parametrize("jit", [False, True], ids=["interp", "jit"])
def test_load_miss_on_valid_address_reads_zero(jit):
    def body(b):
        base = b.li(HEAP_BASE + 64)
        b.print_(b.load(base))
        b.fprint(b.fload(base, 8))
        b.store(base, b.li(5), 16)
        b.print_(b.load(base, 16))

    machine = Machine(_memory_program(body))
    if jit:
        attach_jit(machine)
    result = machine.run()
    assert result.status is RunStatus.EXITED
    assert result.output == [0, 0.0, 5]
