"""Change-driven fixed points against round-robin references.

``ValueBounds`` and ``KnownBits`` skip an evaluation whose inputs have
not changed since that item's last evaluation.  The references below
re-evaluate every register (every block) in every round, in the same
order and under the same caps.  The two must agree exactly -- bounds,
pins, block entry states and destination masks -- on every function
the paper builds analyse, and on synthetic functions that run into the
80-round and 100-iteration caps, where the result depends on the round
in which iteration stops.
"""

import pytest

from repro.analysis import KnownBits, ValueBounds
from repro.analysis.knownbits import ALL_ZERO, NOTHING, State, transfer
from repro.analysis.valuerange import UNBOUNDED
from repro.isa import Function, IRBuilder, Imm, Instruction, Opcode, vreg
from repro.transform.base import transform_program
from repro.transform.mask import mask_function
from repro.transform.trump import compute_an_candidates
from repro.workloads import build
from repro.workloads.suite import PAPER_BENCHMARKS


class ReferenceValueBounds(ValueBounds):
    """Every non-pinned register re-evaluated in every round."""

    def _fixed_point(self) -> None:
        self.bits = dict(self._pinned)
        for _ in range(80):
            changed = False
            for reg, defs in self._defs.items():
                if reg in self._pinned:
                    continue
                new_bits = max(self._transfer(d) for d in defs)
                if new_bits != self.bits.get(reg, 0):
                    self.bits[reg] = new_bits
                    changed = True
            if not changed:
                return
        for reg in self._defs:
            if reg not in self._pinned:
                self.bits[reg] = UNBOUNDED


def _apply(block, state: State) -> State:
    state = dict(state)
    for instr in block.instructions:
        kz = transfer(instr, state)
        if instr.dest is not None and instr.dest.is_int:
            state[instr.dest] = kz if kz is not None else NOTHING
    return state


class ReferenceKnownBits(KnownBits):
    """Every reachable block re-evaluated in every round, then one final
    pass over the converged entry states for the destination masks."""

    def _compute(self) -> None:
        rpo = self.cfg.reverse_postorder()
        self.block_in = {blk.name: {} for blk in self.function.blocks}
        block_out: dict[str, State] = {}
        pending = {blk.name for blk in rpo}
        iterations = 0
        while pending and iterations < 100:
            iterations += 1
            changed = set()
            for blk in rpo:
                preds = [p for p in self.cfg.predecessors[blk.name]
                         if p in block_out]
                if blk.name == self.function.entry.name or not preds:
                    in_state: State = {}
                else:
                    in_state = dict(block_out[preds[0]])
                    for pred in preds[1:]:
                        in_state = self._join(in_state, block_out[pred])
                out_state = _apply(blk, in_state)
                if block_out.get(blk.name) != out_state:
                    block_out[blk.name] = out_state
                    changed.add(blk.name)
                self.block_in[blk.name] = in_state
            pending = changed
        for blk in rpo:
            state = dict(self.block_in[blk.name])
            for instr in blk.instructions:
                kz = transfer(instr, state)
                if instr.dest is not None and instr.dest.is_int:
                    state[instr.dest] = self.dest_kz[instr] = (
                        kz if kz is not None else NOTHING)


def _assert_same_bounds(fn: Function) -> ValueBounds:
    fast, ref = ValueBounds(fn), ReferenceValueBounds(fn)
    assert list(fast.bits.items()) == list(ref.bits.items()), fn.name
    assert fast._pinned == ref._pinned, fn.name
    return fast


def _assert_same_knownbits(fn: Function) -> KnownBits:
    fast, ref = KnownBits(fn), ReferenceKnownBits(fn)
    assert fast.block_in == ref.block_in, fn.name
    assert list(fast.dest_kz.items()) == list(ref.dest_kz.items()), fn.name
    return fast


def _trump_mask_masked(program):
    """The functions TRUMP sees inside the TRUMP/MASK hybrid: MASK has
    already run on every register TRUMP cannot cover."""

    def masked(fn, prog):
        candidates = compute_an_candidates(fn)
        return mask_function(fn, prog, skip=lambda reg: reg in candidates)

    return transform_program(program, masked)


@pytest.mark.parametrize("workload", PAPER_BENCHMARKS)
def test_fixed_points_match_round_robin_on_paper_workloads(workload):
    program = build(workload)
    for fn in list(program) + list(_trump_mask_masked(program)):
        _assert_same_bounds(fn)
        _assert_same_knownbits(fn)


def _reversed_mov_chain(length: int):
    """``v0 = li 5`` placed after ``v<i> = mov v<i-1>`` for i = length..1.

    Definition order runs against the data flow, so one more link
    settles per round: the chain converges in ``length + 2`` rounds.
    """
    fn = Function("chain")
    blk = fn.add_block("entry")
    for i in range(length, 0, -1):
        blk.append(Instruction(Opcode.MOV, dest=vreg(i), srcs=(vreg(i - 1),)))
    blk.append(Instruction(Opcode.LI, dest=vreg(0), srcs=(Imm(5),)))
    blk.append(Instruction(Opcode.PRINT, srcs=(vreg(length),)))
    blk.append(Instruction(Opcode.RET))
    return fn


@pytest.mark.parametrize("length,last_bits", [(78, 3), (79, UNBOUNDED)])
def test_value_bounds_round_cap_widening(length, last_bits):
    # 78 links converge in round 80; 79 links still change in round 80,
    # so the cap widens every register, the settled ones included.
    vb = _assert_same_bounds(_reversed_mov_chain(length))
    assert vb.magnitude_bits(vreg(length)) == last_bits
    assert vb.magnitude_bits(vreg(0)) == last_bits


def _oscillating_loop(extra_blocks: int = 0):
    """A loop whose known-zero state never settles.

    ``t = z * 3; z = t >> 63``: with ``z`` known zero, MUL reports
    nothing known (its transfer is not monotone), so ``z`` becomes
    "0 or 1"; then ``t <= 3``, so ``z`` is known zero again.  The state
    alternates every round until the 100-iteration cap stops it.
    ``extra_blocks`` empty blocks on the back edge lengthen the chain
    without changing the period.
    """
    fn = Function("osc")
    b = IRBuilder(fn)
    b.start_block("entry")
    z = b.li(0)
    b.jmp("loop")
    b.start_block("loop")
    t = b.mul(z, 3)
    b.shr(t, 63, dest=z)
    b.blt(z, 10, "latch0" if extra_blocks else "loop")
    b.start_block("exit")
    b.print_(z)
    b.ret()
    for i in range(extra_blocks):
        b.start_block(f"latch{i}")
        b.jmp(f"latch{i + 1}" if i + 1 < extra_blocks else "loop")
    return fn, z


@pytest.mark.parametrize("extra_blocks", [0, 1, 2])
def test_known_bits_iteration_cap(extra_blocks):
    fn, z = _oscillating_loop(extra_blocks)
    kb = _assert_same_knownbits(fn)
    # Still oscillating when the cap stops it.  After an even number of
    # rounds the loop is entered with z "0 or 1", so t <= 3 and z is
    # known zero on the way out; the other phase would give t nothing.
    mul, shr = [i for i in fn.instructions() if i.dest is not None][1:3]
    assert kb.known_zero_at_entry("loop", z) == ALL_ZERO & ~1
    assert kb.dest_kz[mul] == ALL_ZERO & ~3
    assert kb.dest_kz[shr] == ALL_ZERO
