"""Mini-C semantics, validated by executing generated code."""

import pytest

from repro.analysis import CFG
from repro.errors import SemanticError
from repro.isa import Opcode, verify_program
from repro.lang import compile_source
from repro.sim import run_program
from repro.transform import allocate_program


def run_c(source, **kwargs):
    program = compile_source(source)
    verify_program(program)
    # Register-allocate so recursion is legal too.
    return run_program(allocate_program(program), **kwargs)


def outputs(source):
    result = run_c(source)
    assert result.status.value == "exited", (result.status,
                                             result.trap_detail)
    return result.output


def test_arithmetic_and_precedence():
    assert outputs("""
int main() {
    print(2 + 3 * 4);
    print((2 + 3) * 4);
    print(10 / 3);
    print(-10 / 3);
    print(10 % 3);
    print(-10 % 3);
    print(1 << 10);
    print(-16 >> 2);
    return 0;
}
""") == [14, 20, 3, -3, 1, -1, 1024, -4]


def test_logical_short_circuit_effects():
    # The right operand of && / || must not evaluate when short-circuited.
    assert outputs("""
int hits = 0;
int bump() { hits = hits + 1; return 1; }
int main() {
    int a = 0 && bump();
    print(hits);
    int b = 1 || bump();
    print(hits);
    int c = 1 && bump();
    print(hits);
    print(a); print(b); print(c);
    return 0;
}
""") == [0, 0, 1, 0, 1, 1]


def test_comparisons_and_unary():
    assert outputs("""
int main() {
    print(3 < 4); print(4 <= 4); print(5 > 6); print(6 >= 7);
    print(1 == 1); print(1 != 1);
    print(!0); print(!7);
    print(~0);
    print(-(-5));
    return 0;
}
""") == [1, 1, 0, 0, 1, 0, 1, 0, -1, 5]


def test_globals_arrays_pointers():
    assert outputs("""
int table[4] = { 10, 20, 30, 40 };
int scalar = 5;
int main() {
    int *p = table;
    print(p[2]);
    print(*p);
    p = p + 3;
    print(*p);
    print(p - table);
    scalar = scalar + table[1];
    print(scalar);
    int *q = &table[1];
    *q = 99;
    print(table[1]);
    return 0;
}
""") == [30, 10, 40, 3, 25, 99]


def test_local_static_arrays():
    assert outputs("""
int fill() {
    int buf[4];
    for (int i = 0; i < 4; i++) { buf[i] = i * i; }
    return buf[3];
}
int main() { print(fill()); return 0; }
""") == [9]


def test_floats_and_casts():
    assert outputs("""
float half(float x) { return x / 2.0; }
int main() {
    float f = 7.0;
    print(half(f));
    print((int)(f * 1.5));
    print((float)3 + 0.5);
    float g = 2.5;
    print(g < f);
    print(g == 2.5);
    print(g != 2.5);
    return 0;
}
""") == [3.5, 10, 3.5, 1, 1, 0]


def test_increment_decrement():
    assert outputs("""
int main() {
    int i = 5;
    print(i++);
    print(i);
    print(++i);
    print(i--);
    print(--i);
    int a[2]; a[0] = 1; a[1] = 2;
    int *p = a;
    p++;
    print(*p);
    return 0;
}
""") == [5, 6, 7, 7, 5, 2]


def test_ternary_and_nested_control():
    assert outputs("""
int classify(int x) {
    return x < 0 ? -1 : x == 0 ? 0 : 1;
}
int main() {
    print(classify(-5));
    print(classify(0));
    print(classify(9));
    int total = 0;
    for (int i = 0; i < 10; i++) {
        if (i % 2 == 0) continue;
        if (i == 9) break;
        total += i;
    }
    print(total);
    return 0;
}
""") == [-1, 0, 1, 16]


def test_recursion_post_register_allocation():
    assert outputs("""
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
int ack(int m, int n) {
    if (m == 0) { return n + 1; }
    if (n == 0) { return ack(m - 1, 1); }
    return ack(m - 1, ack(m, n - 1));
}
int main() {
    print(fib(15));
    print(ack(2, 3));
    return 0;
}
""") == [610, 9]


def test_alloc_builtin():
    assert outputs("""
int main() {
    long *a = alloc(3);
    long *b = alloc(2);
    a[0] = 7; a[2] = 9;
    b[0] = 100;
    print((int)(a[0] + a[2]));
    print((int)b[0]);
    print(b - a);       // bump allocation is contiguous
    return 0;
}
""") == [16, 100, 3]


def test_lsr_builtin():
    assert outputs("""
int main() {
    long x = -1;
    print((int)(lsr(x, 60)));
    return 0;
}
""") == [15]


def test_exit_builtin():
    result = run_c("int main() { print(1); exit(3); print(2); return 0; }")
    assert result.exit_code == 3
    assert result.output == [1]


def test_do_while_executes_at_least_once():
    assert outputs("""
int main() {
    int n = 10;
    do { print(n); n++; } while (n < 10);
    return 0;
}
""") == [10]


def test_long_keeps_full_width():
    assert outputs("""
int main() {
    long big = 4611686018427387904;   // 2^62
    big = big + big;                  // wraps to -2^63
    print(big < 0);
    return 0;
}
""") == [1]


def test_value_bits_annotations_attached():
    program = compile_source("""
int data[4];
int narrow(int x) { return x; }
int main() {
    int v = data[0];
    int w = narrow(v);
    print(w);
    return 0;
}
""")
    main = program.function("main")
    loads = [i for i in main.instructions() if i.op is Opcode.LOAD]
    assert loads and all(i.value_bits == 32 for i in loads)
    calls = [i for i in main.instructions() if i.op is Opcode.CALL]
    assert calls and calls[0].value_bits == 32
    params = [i for i in program.function("narrow").instructions()
              if i.op is Opcode.PARAM]
    assert params[0].value_bits == 32


def test_semantic_errors():
    cases = {
        "int main() { return x; }": "undefined",
        "int main() { int x; int x; return 0; }": "redefinition",
        "int main() { break; }": "break outside",
        "int main() { continue; }": "continue outside",
        "int f() { return 1; } int main() { return f(1); }": "expects 0",
        "int main() { float f = 1.0; int x = f; return 0; }": "cast",
        "int t[2]; int main() { t = 0; return 0; }": "assign",
        "void main() { return 1; }": "void",
        "int main() { int x = 1; int *p = &x; return 0; }": "address",
        "int main() { return g(); }": "undefined function",
    }
    for source, match in cases.items():
        with pytest.raises(SemanticError, match=match):
            compile_source(source)


def test_missing_main():
    with pytest.raises(SemanticError, match="main"):
        compile_source("int helper() { return 0; }")


def test_fused_branch_shapes():
    """Comparisons in conditions fuse into compare-and-branch."""
    program = compile_source("""
int main() {
    int a = 1;
    int b = 2;
    if (a < b) { print(1); }
    if (a >= b) { print(2); }
    if (a == b) { print(3); }
    if (a > b) { print(4); }
    return 0;
}
""")
    ops = [i.op for i in program.function("main").instructions()]
    assert Opcode.BGE in ops and Opcode.BLT in ops and Opcode.BNE in ops
    # No materialised compare results for fused conditions.
    assert Opcode.CMPLT not in ops



def test_if_branch_that_returns_opens_no_block():
    """A branch that returns or breaks jumps nowhere after it, so every
    block is reachable and each function still computes its result."""
    source = """
int sign(int x) {
    if (x < 0) { return -1; } else { if (x == 0) { return 0; } }
    return 1;
}
int pick(int x) {
    if (x > 5) { x = x - 5; } else { return x * 2; }
    return x;
}
int main() {
    int n = 0;
    while (1) { if (n == 3) { break; } n = n + 1; }
    print(sign(-4) + sign(0) * 10 + sign(9) * 100);
    print(pick(8) + pick(2) * 10 + n * 100);
    return 0;
}
"""
    program = compile_source(source)
    for fn in program:
        reachable = CFG(fn).reachable()
        assert [b.name for b in fn.blocks if b.name not in reachable] \
            == [], fn.name
    assert outputs(source) == [99, 343]

def test_global_float_arrays():
    assert outputs("""
float w[3] = { 0.5, 1.5, 2.5 };
int main() {
    float total = 0.0;
    for (int i = 0; i < 3; i++) { total = total + w[i]; }
    print(total);
    return 0;
}
""") == [4.5]
