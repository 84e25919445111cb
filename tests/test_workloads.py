"""The benchmark suite: compilation, determinism, and characteristics."""

import pytest

from repro.analysis import CFG
from repro.isa import Opcode, OpKind, verify_program
from repro.sim import RunStatus, run_program
from repro.transform import allocate_program
from repro.workloads import (
    MICRO_BENCHMARKS,
    PAPER_BENCHMARKS,
    WORKLOADS,
    build,
    get_workload,
)

#: Golden outputs, pinned: any change to workloads or compiler that
#: alters program behaviour must be deliberate and update these.
GOLDEN_OUTPUTS = {
    "adpcmdec": [752865, 127],
    "adpcmenc": [77045],
    "mpeg2dec": [1022835],
    "mpeg2enc": [624293],
    "equake": [646451],
    "mcf": [4, 299852, 12816],
    "parser": [25, 40979, 15],
    "vortex": [118, 18, 166, 241006],
    "twolf": [5128, 4513, 19, 4513],
    "art": [36, 802190],
    "crc32": [1016090, 3470],
    "bitcount": [1546],
    "matmul": [151365, -9231],
    "sort": [919957, 163, 9927],
    "dijkstra": [40, 1026289, 82],
    "fft": [970880, 94864],
}


def test_registry_contents():
    from repro.workloads import EXTRA_BENCHMARKS

    assert set(PAPER_BENCHMARKS) <= set(WORKLOADS)
    assert set(MICRO_BENCHMARKS) <= set(WORKLOADS)
    assert set(EXTRA_BENCHMARKS) <= set(WORKLOADS)
    assert len(PAPER_BENCHMARKS) == 10
    assert not set(PAPER_BENCHMARKS) & set(MICRO_BENCHMARKS)
    assert not set(EXTRA_BENCHMARKS) & set(PAPER_BENCHMARKS)


def test_unknown_workload():
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError, match="unknown"):
        get_workload("nonesuch")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_builds_and_verifies(name):
    """Every block of the compiled source is reached by some flow
    edge: codegen opens no block that nothing jumps or falls into."""
    program = build(name)
    verify_program(program)
    assert program.entry == "main"
    for fn in program:
        reachable = CFG(fn).reachable()
        assert [b.name for b in fn.blocks if b.name not in reachable] \
            == [], fn.name


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_workload_golden_output(name):
    result = run_program(allocate_program(build(name)))
    assert result.status is RunStatus.EXITED
    assert result.exit_code == 0
    assert result.output == GOLDEN_OUTPUTS[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_size_budget(name):
    """Workloads stay campaign-sized: big enough to be interesting,
    small enough that 250-trial campaigns finish."""
    result = run_program(allocate_program(build(name)))
    assert 5_000 < result.instructions < 200_000


def test_metadata_present():
    for workload in WORKLOADS.values():
        assert workload.paper_analogue
        assert workload.description


def _mix(name):
    """Dynamic opcode-kind mix of a workload (NOFT)."""
    from repro.sim import Machine, TimingSimulator

    program = allocate_program(build(name))
    machine = Machine(program)
    counts: dict[OpKind, int] = {}
    # Static mix over the hot functions is a cheap, adequate proxy.
    for fn in program:
        for instr in fn.instructions():
            counts[instr.op.kind] = counts.get(instr.op.kind, 0) + 1
    total = sum(counts.values())
    return {kind: c / total for kind, c in counts.items()}


def test_parser_is_logical_heavy_and_matmul_arith_heavy():
    parser_mix = _mix("parser")
    matmul_mix = _mix("matmul")
    logical_parser = parser_mix.get(OpKind.LOGICAL, 0) \
        + parser_mix.get(OpKind.SHIFT, 0)
    logical_matmul = matmul_mix.get(OpKind.LOGICAL, 0) \
        + matmul_mix.get(OpKind.SHIFT, 0)
    assert logical_parser > logical_matmul


def test_art_is_fp_dominated():
    art_mix = _mix("art")
    fp = art_mix.get(OpKind.FP, 0) + art_mix.get(OpKind.FMEM, 0)
    assert fp > 0.15
    for other in ("mcf", "parser", "vortex"):
        other_mix = _mix(other)
        assert fp > other_mix.get(OpKind.FP, 0) + other_mix.get(OpKind.FMEM, 0)


def test_trump_coverage_tracks_benchmark_character():
    """TRUMP covers far more of mpeg2enc (constant-multiply DCT chains)
    than of crc32 (purely logical chains) -- the mechanism behind the
    paper's equake/mpeg2enc-vs-parser contrast (Section 7.1)."""
    from repro.transform import coverage_report

    def coverage(name):
        program = build(name)
        covered = 0
        total = 0
        for fn in program:
            report = coverage_report(fn)
            covered += report["an_definitions"]
            total += report["definitions"]
        return covered / total

    assert coverage("mpeg2enc") > coverage("crc32") + 0.3
