"""SEU model, injection, classification, campaigns, statistics."""

import random

import pytest

from repro.faults import (
    CampaignResult,
    FaultSite,
    INJECTABLE_GPRS,
    Outcome,
    Proportion,
    classify,
    geometric_mean,
    golden_run,
    run_campaign,
    run_sites,
    run_with_fault,
    sample_fault_site,
    sample_sites,
)
from repro.obs.campaign_log import CampaignLog
from repro.sim import Machine, RunResult, RunStatus, TrapKind
from repro.transform import Technique, allocate_program, protect


# ------------------------------------------------------------------- model
def test_stack_pointer_excluded():
    assert 1 not in INJECTABLE_GPRS
    assert len(INJECTABLE_GPRS) == 31
    with pytest.raises(ValueError):
        FaultSite(dynamic_index=0, reg_index=1, bit=0)


def test_site_validation():
    with pytest.raises(ValueError):
        FaultSite(dynamic_index=0, reg_index=2, bit=64)
    with pytest.raises(ValueError):
        FaultSite(dynamic_index=-1, reg_index=2, bit=0)


def test_sampling_uniform_bounds():
    rng = random.Random(7)
    for _ in range(500):
        site = sample_fault_site(rng, 1000)
        assert 0 <= site.dynamic_index < 1000
        assert site.reg_index in INJECTABLE_GPRS
        assert 0 <= site.bit < 64


def test_sampling_deterministic():
    assert sample_sites(42, 500, 20) == sample_sites(42, 500, 20)
    assert sample_sites(42, 500, 20) != sample_sites(43, 500, 20)


def test_sampling_requires_positive_length():
    with pytest.raises(ValueError):
        sample_fault_site(random.Random(0), 0)


# ---------------------------------------------------------------- classify
def _result(status, output=(), exit_code=0):
    return RunResult(status, exit_code=exit_code, output=list(output))


GOLDEN = _result(RunStatus.EXITED, [1, 2, 3])


def test_classify_unace():
    assert classify(GOLDEN, _result(RunStatus.EXITED, [1, 2, 3])) \
        is Outcome.UNACE


def test_classify_sdc_wrong_output():
    assert classify(GOLDEN, _result(RunStatus.EXITED, [1, 2, 4])) \
        is Outcome.SDC


def test_classify_sdc_wrong_exit_code():
    faulty = _result(RunStatus.EXITED, [1, 2, 3], exit_code=9)
    assert classify(GOLDEN, faulty) is Outcome.SDC


def test_classify_segv():
    faulty = RunResult(RunStatus.TRAPPED, trap_kind=TrapKind.SEGFAULT)
    assert classify(GOLDEN, faulty) is Outcome.SEGV


def test_classify_detected_and_hang():
    assert classify(GOLDEN, _result(RunStatus.DETECTED)) is Outcome.DETECTED
    assert classify(GOLDEN, _result(RunStatus.HANG)) is Outcome.HANG


def test_failure_flags():
    assert Outcome.SDC.is_failure and Outcome.SEGV.is_failure
    assert Outcome.HANG.is_failure
    assert not Outcome.UNACE.is_failure
    assert not Outcome.DETECTED.is_failure


# ---------------------------------------------------------------- injector
def test_injection_is_exact(simple_program):
    machine = Machine(simple_program)
    golden = golden_run(machine)
    # A fault injected past the end of execution never lands.
    site = FaultSite(dynamic_index=golden.instructions + 100,
                     reg_index=5, bit=3)
    result = run_with_fault(machine, site)
    assert result.output == golden.output


def test_injection_flips_exactly_one_bit(simple_program):
    machine = Machine(simple_program)
    golden_run(machine)
    machine.reset()
    machine.run(5)
    before = list(machine.regs[:32])
    machine.flip_register_bit(7, 22)
    after = list(machine.regs[:32])
    diffs = [(i, b ^ a) for i, (b, a) in enumerate(zip(before, after))
             if b != a]
    assert diffs == [(7, 1 << 22)]


# ---------------------------------------------------------------- campaign
def test_campaign_deterministic(simple_program):
    first = run_campaign(simple_program, trials=60, seed=11)
    second = run_campaign(simple_program, trials=60, seed=11)
    assert first.counts == second.counts
    assert first.trials == 60
    assert sum(first.counts.values()) == 60


def test_campaign_seed_changes_results(simple_program):
    # Different seeds explore different sites (counts usually differ;
    # at minimum the campaigns must be independent objects).
    a = run_campaign(simple_program, trials=80, seed=1)
    b = run_campaign(simple_program, trials=80, seed=2)
    assert a.trials == b.trials == 80


def test_campaign_percentages_sum(simple_program):
    campaign = run_campaign(simple_program, trials=50, seed=3)
    total = (campaign.unace_percent + campaign.sdc_percent
             + campaign.segv_percent + campaign.detected_percent)
    assert total == pytest.approx(100.0)


def test_campaign_merge(simple_program):
    a = run_campaign(simple_program, trials=30, seed=1)
    b = run_campaign(simple_program, trials=30, seed=2)
    merged = a.merged(b)
    assert merged.trials == 60
    for outcome in Outcome:
        assert merged.count(outcome) == a.count(outcome) + b.count(outcome)


def test_run_campaign_sites_bit_identical(simple_program):
    """Explicit site lists reproduce seeded sampling exactly."""
    binary = allocate_program(protect(simple_program, Technique.SWIFTR))
    log_seeded, log_sites = CampaignLog(), CampaignLog()
    seeded = run_campaign(binary, trials=40, seed=9, log=log_seeded)
    sites = sample_sites(9, seeded.golden_instructions, 40)
    explicit = run_campaign(binary, sites=sites, log=log_sites)
    assert explicit.counts == seeded.counts
    assert explicit.recoveries == seeded.recoveries
    assert explicit.never_landed == seeded.never_landed
    assert [r.to_dict() for r in log_sites.records] == \
        [r.to_dict() for r in log_seeded.records]


def test_run_sites_explicit(simple_program):
    sites = sample_sites(5, 40, 10)
    outcomes = run_sites(simple_program, sites)
    assert len(outcomes) == 10
    assert all(isinstance(o, Outcome) for o in outcomes)


def test_run_sites_reuses_machine(simple_program):
    sites = sample_sites(5, 40, 10)
    machine = Machine(simple_program)
    outcomes = run_sites(simple_program, sites, machine=machine)
    assert outcomes == run_sites(simple_program, sites)


def test_run_sites_rejects_failing_golden_run():
    from repro.errors import SimulationError
    from repro.isa import Function, IRBuilder, Program

    program = Program()
    fn = Function("main")
    program.add_function(fn)
    b = IRBuilder(fn)
    b.start_block("entry")
    addr = b.li(12345)              # unmapped address: golden run traps
    b.load(addr)
    b.ret()
    sites = sample_sites(5, 40, 3)
    with pytest.raises(SimulationError):
        run_sites(program, sites)


# ------------------------------------------------------------------- stats
def test_proportion_basicss():
    p = Proportion(25, 100)
    assert p.value == 0.25
    assert p.percent == 25.0
    low, high = p.wilson_interval()
    assert 0.15 < low < 0.25 < high < 0.40


def test_proportion_edge_cases():
    assert Proportion(0, 0).value == 0.0
    low, high = Proportion(0, 0).wilson_interval()
    assert (low, high) == (0.0, 1.0)
    low, high = Proportion(10, 10).wilson_interval()
    assert high == 1.0 and low > 0.6


def test_geometric_mean():
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    assert geometric_mean([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])
