"""Simulator profiler: determinism, shard parity, zero-cost-off gating."""

import pytest

from repro.faults import run_campaign
from repro.obs.campaign_log import CampaignLog
from repro.obs.profile import SimProfiler, render_hotspots
from repro.sim import Machine
from repro.sim.jit import jit_program_for
from repro.transform import Technique, allocate_program, protect


def _snapshot(profiler):
    """The deterministic portion of a profiler's state (wall excluded)."""
    return (
        dict(profiler.index_counts),
        dict(profiler.block_ops),
        dict(profiler.exits),
        dict(profiler.recoveries),
        profiler.opcode_counts(),
        profiler.taint_trials,
    )


def test_profiled_campaign_matches_unprofiled(simple_program):
    baseline = run_campaign(simple_program, trials=24, seed=13)
    profiler = SimProfiler()
    profiled = run_campaign(simple_program, trials=24, seed=13,
                            profile=profiler)
    assert profiled == baseline
    assert profiler.total_instructions > 0


def test_same_seed_same_counts(simple_program):
    profilers = []
    for _ in range(2):
        profiler = SimProfiler()
        run_campaign(simple_program, trials=24, seed=13, profile=profiler)
        profilers.append(profiler)
    assert _snapshot(profilers[0]) == _snapshot(profilers[1])


def test_jobs2_merge_matches_serial_profile(simple_program):
    serial = SimProfiler()
    run_campaign(simple_program, trials=24, seed=13, jobs=1,
                 profile=serial)
    sharded = SimProfiler()
    run_campaign(simple_program, trials=24, seed=13, jobs=2,
                 profile=sharded)
    assert _snapshot(serial) == _snapshot(sharded)


def test_merge_is_associative(simple_program):
    parts = []
    for seed in (1, 2, 3):
        profiler = SimProfiler()
        run_campaign(simple_program, trials=8, seed=seed, profile=profiler)
        parts.append(profiler)
    left = SimProfiler()
    left.merge_from(parts[0])
    left.merge_from(parts[1])
    left.merge_from(parts[2])
    right = SimProfiler()
    tail = SimProfiler()
    tail.merge_from(parts[1])
    tail.merge_from(parts[2])
    right.merge_from(parts[0])
    right.merge_from(tail)
    assert _snapshot(left)[:5] == _snapshot(right)[:5]


def test_opcode_shares_sum_to_one(simple_program):
    profiler = SimProfiler()
    run_campaign(simple_program, trials=12, seed=7, profile=profiler)
    records = profiler.to_records()
    op_shares = [r["share"] for r in records
                 if r["kind"] == "opcode_profile"]
    assert op_shares
    assert sum(op_shares) == pytest.approx(1.0, abs=1e-6)
    block_shares = [r["share"] for r in records
                    if r["kind"] == "block_profile"]
    assert sum(block_shares) == pytest.approx(1.0, abs=1e-6)


def test_block_ops_parallel_to_counts(simple_program):
    profiler = SimProfiler()
    run_campaign(simple_program, trials=12, seed=7, profile=profiler)
    assert profiler.index_counts
    for key, counts in profiler.index_counts.items():
        ops = profiler.block_ops[key]
        assert len(ops) == len(counts)
        assert all(count >= 0 for count in counts)


def test_to_records_context_and_render(simple_program):
    profiler = SimProfiler()
    run_campaign(simple_program, trials=12, seed=7, profile=profiler)
    records = profiler.to_records(context={"benchmark": "simple"})
    assert all(r["benchmark"] == "simple" for r in records)
    report = render_hotspots(records, top=3)
    assert "JIT candidates" in report
    assert "shares sum to 1.0" in report
    assert render_hotspots([], top=3) == "(no profile records)"


def test_jit_annotation_is_per_block(simple_program):
    """With ``jit=True`` the profile marks each block by whether the
    JIT runs it compiled: SWIFT-R's repair blocks (where recoveries are
    counted) are interpreted although their function compiles, and
    coverage counts only compiled blocks."""
    binary = allocate_program(protect(simple_program, Technique.SWIFTR))
    profiler = SimProfiler()
    run_campaign(binary, trials=60, seed=3, profile=profiler, jit=True)
    records = profiler.to_records()
    blocks = [r for r in records if r["kind"] == "block_profile"]
    interpreted = jit_program_for(Machine(binary)).interpreted
    for record in blocks:
        key = (record["function"], record["block"])
        assert record["jit"] is (key not in interpreted), key
    assert any(r["recoveries"] and not r["jit"] for r in blocks)
    compiled = sum(r["instructions"] for r in blocks if r["jit"])
    assert records[0]["jit_instructions"] == compiled
    assert compiled < records[0]["total_instructions"]


def test_taint_trials_recorded(simple_program):
    profiler = SimProfiler()
    log = CampaignLog()
    run_campaign(simple_program, trials=10, seed=3, log=log, taint=True,
                 profile=profiler)
    assert profiler.taint_trials == 10


class _ProbeMachine(Machine):
    """Counts how often the run loop consults the ``profile`` gate."""

    @property
    def profile(self):
        self.profile_reads = getattr(self, "profile_reads", 0) + 1
        return self._profile_value

    @profile.setter
    def profile(self, value):
        self._profile_value = value


def test_profiler_off_is_one_check_per_run(simple_program):
    # The zero-cost-when-off contract: with no profiler attached, the
    # hot path consults ``machine.profile`` once per run() call -- not
    # once per instruction or per block.
    trials = 20
    machine = _ProbeMachine(simple_program, max_instructions=100_000)
    machine.profile_reads = 0
    result = run_campaign(simple_program, trials=trials, seed=13,
                          machine=machine)
    assert result.trials == trials
    # run() is invoked a handful of times per trial (golden run,
    # injection, resume); each invocation reads the gate exactly once.
    assert 0 < machine.profile_reads <= 8 * trials + 8
    # The same campaign executes orders of magnitude more instructions
    # than that: the gate is per-run, not per-instruction.
    reference = SimProfiler()
    run_campaign(simple_program, trials=trials, seed=13,
                 profile=reference)
    assert machine.profile_reads < reference.total_instructions / 10
