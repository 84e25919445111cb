"""Analysis facts shared across techniques, and one strict verify.

TRUMP's value bounds and MASK's loop invariants read only the source
function, so they are computed once per function object and reused by
every technique built from it.  They must equal a fresh analysis, must
not change any binary, must not outlive their function, and a one-cell
build must run exactly the analyses it always did.
"""

import gc
import weakref

import pytest

from repro.analysis import CFG, KnownBits, Liveness, ValueBounds, find_loops
from repro.errors import VerificationError
from repro.eval.pipeline import build_binary
from repro.isa import Imm, Instruction, Opcode, print_program, vreg
from repro.transform import Technique, allocate_program, protect
from repro.transform import mask, regalloc, trump
from repro.transform.base import clone_function
from repro.transform.engine import ProtectionConfig
from repro.transform.mask import loop_invariants
from repro.transform.trump import compute_an_candidates, value_bounds
from repro.workloads import build
from repro.workloads.suite import PAPER_BENCHMARKS, get_workload


def _fresh_loop_invariants(fn):
    cfg = CFG(fn)
    knownbits, liveness = KnownBits(fn, cfg), Liveness(fn, cfg)
    facts = {}
    for loop in find_loops(fn, cfg):
        live = sorted(liveness.live_in[loop.header],
                      key=lambda r: (r.cls, r.index))
        facts.setdefault(loop.header, tuple(
            (reg, knownbits.known_zero_at_entry(loop.header, reg))
            for reg in live if reg.is_virtual and reg.is_int))
    return facts


@pytest.mark.parametrize("workload", PAPER_BENCHMARKS)
def test_shared_facts_equal_fresh_analyses(workload):
    for fn in build(workload):
        fresh = clone_function(fn)
        assert value_bounds(fn) == ValueBounds(fresh).bits, fn.name
        assert loop_invariants(fn) == _fresh_loop_invariants(fresh), fn.name
        for an_power in (2, 3):
            config = ProtectionConfig(an_power=an_power)
            for hybrid in (False, True):
                assert (compute_an_candidates(fn, config, hybrid)
                        == compute_an_candidates(clone_function(fn), config,
                                                 hybrid)), (fn.name, hybrid)


@pytest.mark.parametrize("workload", ["adpcmdec", "mcf", "equake"])
def test_build_order_does_not_change_binaries(workload):
    source = get_workload(workload)
    orders = ((Technique.MASK, Technique.TRUMP_MASK, Technique.TRUMP),
              (Technique.TRUMP, Technique.TRUMP_MASK, Technique.MASK))
    printed = []
    for order in orders:
        program = source.compile()
        printed.append({tech: print_program(build_binary(program, tech))
                        for tech in order})
    assert printed[0] == printed[1]


def test_facts_die_with_their_function():
    caches = (trump._VALUE_BOUNDS, mask._LOOP_INVARIANTS)
    gc.collect()
    before = [len(cache) for cache in caches]
    fn = clone_function(build("adpcmdec").function("main"))
    compute_an_candidates(fn)
    loop_invariants(fn)
    assert all(fn in cache for cache in caches)
    gone = weakref.ref(fn)
    del fn
    gc.collect()
    assert gone() is None
    assert [len(cache) for cache in caches] == before


def test_transient_functions_keep_no_facts():
    program = get_workload("adpcmdec").compile()
    gc.collect()
    before = len(trump._VALUE_BOUNDS)
    protect(program, Technique.TRUMP_MASK)
    gc.collect()
    # The masked intermediate TRUMP saw is gone, facts and all; only the
    # source functions keep theirs.
    assert len(trump._VALUE_BOUNDS) == before + len(program.functions)


def _count_analyses(monkeypatch) -> dict[str, int]:
    counts = {"ValueBounds": 0, "KnownBits": 0}
    for cls in (ValueBounds, KnownBits):
        def counted(obj, *args, _init=cls.__init__, _name=cls.__name__,
                    **kwargs):
            counts[_name] += 1
            _init(obj, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


@pytest.mark.parametrize("technique, first, again", [
    (Technique.MASK, (0, 1), (0, 0)),
    (Technique.TRUMP, (1, 0), (0, 0)),
    # TRUMP/MASK's masked intermediate is new in every build.
    (Technique.TRUMP_MASK, (2, 1), (1, 0)),
    (Technique.TRUMP_SWIFTR, (1, 0), (0, 0)),
])
def test_one_cell_build_analyses_each_function_as_before(
        monkeypatch, technique, first, again):
    program = get_workload("adpcmdec").compile()
    n = len(program.functions)
    counts = _count_analyses(monkeypatch)
    for bounds, knownbits in (first, again):
        counts.update(ValueBounds=0, KnownBits=0)
        build_binary(program, technique)
        assert counts == {"ValueBounds": bounds * n,
                          "KnownBits": knownbits * n}


def test_allocate_program_rejects_a_virtual_register(monkeypatch,
                                                     simple_program):
    allocate = regalloc.allocate_function

    def leaky(fn, prog=None):
        out = allocate(fn, prog)
        out.entry.instructions.insert(
            0, Instruction(Opcode.LI, dest=vreg(0), srcs=(Imm(1),)))
        return out

    monkeypatch.setattr(regalloc, "allocate_function", leaky)
    with pytest.raises(VerificationError):
        allocate_program(simple_program)
