"""Random (but always well-defined) IR program generation for tests.

The generator produces programs that are *semantically safe by
construction* -- no division by zero, no invalid memory accesses, no
unbounded loops -- so that any behavioural difference between two
builds of the same program (pre/post register allocation, pre/post
scheduling, protected/unprotected) is a genuine transformation bug.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

from repro.isa import Function, IRBuilder, Imm, Program


@contextmanager
def repeat(builder: IRBuilder, passes: int, label: str = "loop",
           then: str | None = "after"):
    """Build the code of the ``with`` body as a counted loop that runs
    ``passes`` times, then open block ``then`` (none if ``None``).

    The block JIT compiles only code that can run more than once per
    program run -- loop blocks and functions called from one -- so a
    test that means to run compiled code builds it in here; one pass
    keeps a straight-line body's output unchanged.
    """
    count = builder.li(passes)
    builder.jmp(label)
    builder.start_block(label)
    yield
    builder.sub(count, 1, dest=count)
    builder.bne(count, 0, label)
    if then is not None:
        builder.start_block(then)


def random_program(seed: int, num_blocks: int = 4,
                   instrs_per_block: int = 12,
                   floats: bool = False) -> Program:
    """A random structured program printing a final checksum.

    The CFG is a chain of blocks, each optionally guarded by a bounded
    loop; the instruction mix covers arithmetic, logical, shift,
    compare, memory, and move operations over a scratch global array.
    All of it runs in a loop that makes one pass, so the block JIT
    compiles every block but the entry and exit blocks.  ``floats``
    also moves scratch words through float registers (FLOAD/FSTORE,
    at nonzero offsets too); a seed without it builds what it always
    has.
    """
    rng = random.Random(seed)
    program = Program()
    program.add_global("scratch", 32, [rng.randrange(1000) for _ in range(32)])
    fn = Function("main")
    program.add_function(fn)
    builder = IRBuilder(fn)
    builder.start_block("entry")
    program.assign_addresses()
    with repeat(builder, 1, label="once", then="exit"):
        _random_body(rng, program, builder, num_blocks, instrs_per_block,
                     floats)
    builder.ret()
    fn.renumber_pool()
    return program


def _random_body(rng, program, builder, num_blocks, instrs_per_block,
                 floats):
    base = builder.li(program.address_of("scratch"))

    # A pool of live registers to draw operands from.
    live = [builder.li(rng.randrange(-100, 100)) for _ in range(6)]

    def operand():
        if rng.random() < 0.25:
            return Imm(rng.randrange(-64, 64))
        return rng.choice(live)

    def add_result(reg) -> None:
        live.append(reg)
        if len(live) > 10:
            live.pop(0)

    for block_index in range(num_blocks):
        loop = rng.random() < 0.5
        if loop:
            counter = builder.li(0)
            loop_label = f"loop{block_index}"
            builder.jmp(loop_label)
            builder.start_block(loop_label)
        for _ in range(instrs_per_block):
            choice = rng.random()
            if choice < 0.35:
                op = rng.choice(
                    [builder.add, builder.sub, builder.mul]
                )
                add_result(op(rng.choice(live), operand()))
            elif choice < 0.55:
                op = rng.choice(
                    [builder.and_, builder.or_, builder.xor]
                )
                add_result(op(rng.choice(live), operand()))
            elif choice < 0.65:
                op = rng.choice([builder.shl, builder.shr, builder.sra])
                add_result(op(rng.choice(live), Imm(rng.randrange(0, 8))))
            elif choice < 0.75:
                op = rng.choice(
                    [builder.cmpeq, builder.cmplt, builder.cmpge]
                )
                add_result(op(rng.choice(live), operand()))
            elif choice < 0.85:
                # Safe load: index within the scratch array.
                index = builder.and_(rng.choice(live), 31)
                offset = builder.shl(index, 3)
                address = builder.add(base, offset)
                add_result(builder.load(address))
                if floats and rng.random() < 0.5:
                    builder.fstore(base, builder.fload(address),
                                   8 * rng.randrange(32))
            elif choice < 0.95:
                index = builder.and_(rng.choice(live), 31)
                offset = builder.shl(index, 3)
                address = builder.add(base, offset)
                builder.store(address, rng.choice(live))
                if floats and rng.random() < 0.5:
                    builder.fstore(address,
                                   builder.fli(rng.choice((0.5, -2.25))))
            else:
                # Safe signed division by a non-zero constant.
                add_result(builder.div(rng.choice(live),
                                       Imm(rng.choice([1, 2, 3, 5, 7]))))
        if loop:
            builder.add(counter, 1, dest=counter)
            builder.blt(counter, rng.randrange(2, 5), loop_label)
            builder.start_block(f"after{block_index}")
        else:
            next_label = f"blk{block_index}"
            builder.jmp(next_label)
            builder.start_block(next_label)
    # Fold every live register into one checksum and print it.
    checksum = builder.li(0)
    for reg in live:
        folded = builder.xor(checksum, reg)
        checksum = builder.add(folded, Imm(1), dest=checksum)
    builder.print_(checksum)
    # Also print a digest of the scratch array so stores matter.
    total = builder.li(0)
    index = builder.li(0)
    builder.jmp("digest")
    builder.start_block("digest")
    offset = builder.shl(index, 3)
    address = builder.add(base, offset)
    value = builder.load(address)
    mixed = builder.xor(total, value)
    builder.add(mixed, Imm(0), dest=total)
    builder.add(index, 1, dest=index)
    builder.blt(index, 32, "digest")
    builder.start_block("done")
    builder.print_(total)
