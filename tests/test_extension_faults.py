"""Extension fault models: opcode-bit faults and wild jumps, plus the
control-flow checking pass that addresses the latter."""

import pytest

from repro.faults import (
    OpcodeFaultSite,
    Outcome,
    WildJumpSite,
    golden_run,
    run_campaign,
    run_opcode_campaign,
    run_wild_jump_campaign,
    run_with_fault,
    sample_opcode_sites,
    sample_wild_jump_sites,
)
from repro.isa import Opcode, Role, verify_program
from repro.obs import CampaignLog
from repro.sim import Machine, RunStatus, run_program
from repro.transform import (
    Technique,
    allocate_program,
    apply_cfc,
    count_cfc_checks,
    protect,
)
from repro.workloads import build


@pytest.fixture(scope="module")
def sort_noft():
    return allocate_program(build("sort"))


@pytest.fixture(scope="module")
def sort_golden(sort_noft):
    return run_program(sort_noft)


# ------------------------------------------------------------ opcode faults
def test_opcode_site_validation():
    with pytest.raises(ValueError):
        OpcodeFaultSite(dynamic_index=0, bit=64)
    with pytest.raises(ValueError):
        OpcodeFaultSite(dynamic_index=-1, bit=0)


def test_opcode_fault_reserved_bit_is_silent(sort_noft, sort_golden):
    """Bit 63 is a reserved encoding bit: flipping it changes nothing."""
    result = run_with_fault(Machine(sort_noft),
                            OpcodeFaultSite(dynamic_index=50, bit=63))
    assert result.status is RunStatus.EXITED
    assert result.output == sort_golden.output


def test_opcode_fault_campaign_runs(sort_noft):
    campaign = run_opcode_campaign(sort_noft, trials=80, seed=3)
    assert campaign.trials == 80
    total = (campaign.unace_percent + campaign.sdc_percent
             + campaign.segv_percent + campaign.detected_percent)
    assert total == pytest.approx(100.0)


def test_opcode_faults_defeat_register_protection():
    """The paper's class-3 vulnerability: SWIFT-R's near-perfect
    register-fault protection degrades markedly under opcode faults."""
    from repro.faults import run_campaign

    binary = allocate_program(protect(build("sort"), Technique.SWIFTR))
    machine = Machine(binary)
    register_faults = run_campaign(binary, trials=150, seed=9,
                                   machine=machine)
    opcode_faults = run_opcode_campaign(binary, trials=150, seed=9,
                                        machine=machine)
    assert register_faults.unace_percent > 95.0
    assert opcode_faults.unace_percent < register_faults.unace_percent - 5.0


def test_opcode_fault_determinism(sort_noft):
    a = run_opcode_campaign(sort_noft, trials=60, seed=4)
    b = run_opcode_campaign(sort_noft, trials=60, seed=4)
    assert a.counts == b.counts


# ------------------------------------------------- pins through the kernel
#: Outcome counts on sort/NOFT (golden 34,290 instructions), recorded
#: with the standalone full-replay loops these models had before they
#: became site samplers over the trial kernel.
_PINS = [
    (sample_opcode_sites, 3, 80, {"SDC": 1, "SEGV": 30, "unACE": 49}),
    (sample_opcode_sites, 4, 60, {"SDC": 3, "SEGV": 17, "unACE": 40}),
    (sample_wild_jump_sites, 2, 60, {"SDC": 21, "SEGV": 14, "unACE": 25}),
]


def _counts(result):
    return {outcome.value: n for outcome, n in result.counts.items()}


@pytest.mark.parametrize("sampler, seed, trials, expected", _PINS)
def test_extension_models_pinned(sort_noft, sampler, seed, trials,
                                 expected):
    runner = {sample_opcode_sites: run_opcode_campaign,
              sample_wild_jump_sites: run_wild_jump_campaign}[sampler]
    campaign = runner(sort_noft, trials=trials, seed=seed)
    assert _counts(campaign) == expected
    assert campaign.golden_instructions == 34_290
    assert campaign.never_landed == 0 and campaign.recoveries == 0
    sites = sampler(seed, campaign.golden_instructions, trials)
    machine = Machine(sort_noft)
    for jit in (True, False):
        for jobs in (1, 2):
            result = run_campaign(sort_noft, sites=sites, machine=machine,
                                  jit=jit, jobs=jobs)
            assert result == campaign, (jit, jobs)
    assert machine.jit is None


def test_decode_trap_lands(sort_noft):
    """An opcode flip that traps at decode retires nothing after the
    pause, yet it landed; sites at or past the golden length did not."""
    machine = Machine(sort_noft)
    length = golden_run(machine).instructions
    decode_trap = OpcodeFaultSite(dynamic_index=10_446, bit=5)
    trapped = run_with_fault(machine, decode_trap)
    assert trapped.trap_kind.value == "illegal_instruction"
    assert trapped.instructions == decode_trap.dynamic_index
    sites = [decode_trap, OpcodeFaultSite(dynamic_index=length, bit=5),
             OpcodeFaultSite(dynamic_index=length + 7, bit=5)]
    for checkpoint_interval in (None, 0):
        log = CampaignLog()
        result = run_campaign(sort_noft, sites=sites, machine=machine,
                              log=log,
                              checkpoint_interval=checkpoint_interval)
        assert result.never_landed == 2
        assert result.counts == {Outcome.SEGV: 1, Outcome.UNACE: 2}
        assert [r.fault_landed for r in log.records] == [True, False, False]


# --------------------------------------------------------------- wild jumps
def test_wild_jump_changes_control_flow(sort_noft, sort_golden):
    machine = Machine(sort_noft)
    outcomes = set()
    for seed in range(20):
        site = WildJumpSite(dynamic_index=200 + seed * 37,
                            target_seed=seed)
        result = run_with_fault(machine, site)
        outcomes.add(result.status)
    assert outcomes  # at least ran; typically a mix of exits and traps


def test_wild_jump_campaign_deterministic(sort_noft):
    a = run_wild_jump_campaign(sort_noft, trials=60, seed=2)
    b = run_wild_jump_campaign(sort_noft, trials=60, seed=2)
    assert a.counts == b.counts


# ---------------------------------------------------------------------- CFC
def test_cfc_preserves_semantics(sort_noft, sort_golden):
    hardened = allocate_program(apply_cfc(build("sort")))
    verify_program(hardened, require_physical=True)
    result = run_program(hardened)
    assert result.output == sort_golden.output


def test_cfc_on_all_workload_shapes():
    for name in ("crc32", "matmul", "adpcmdec"):
        program = build(name)
        golden = run_program(allocate_program(program))
        hardened = allocate_program(apply_cfc(program))
        assert run_program(hardened).output == golden.output, name


def test_cfc_inserts_checks():
    hardened = apply_cfc(build("sort"))
    assert count_cfc_checks(hardened) > 5
    # Every function got a detect block.
    for fn in hardened:
        assert any(i.op is Opcode.DETECT for i in fn.instructions())


def test_cfc_detects_wild_jumps():
    program = build("sort")
    plain = allocate_program(program)
    checked = allocate_program(apply_cfc(program))
    plain_campaign = run_wild_jump_campaign(plain, trials=150, seed=9)
    cfc_campaign = run_wild_jump_campaign(checked, trials=150, seed=9)
    assert _counts(plain_campaign) == {"SDC": 50, "SEGV": 22, "unACE": 78}
    assert _counts(cfc_campaign) == {"DUE": 75, "SDC": 26, "SEGV": 10,
                                     "unACE": 39}
    assert plain_campaign.detected_percent == 0.0
    assert cfc_campaign.detected_percent > 25.0
    # Detection converts silent corruption into DUEs.
    assert cfc_campaign.sdc_percent < plain_campaign.sdc_percent


def test_cfc_composes_with_swiftr():
    program = build("crc32")
    golden = run_program(allocate_program(program))
    stacked = allocate_program(apply_cfc(protect(program,
                                                 Technique.SWIFTR)))
    verify_program(stacked, require_physical=True)
    assert run_program(stacked).output == golden.output


def test_cfc_signatures_distinct():
    from repro.transform.controlflow import block_signature

    signatures = {block_signature("f", i) for i in range(200)}
    assert len(signatures) == 200
    assert all(s != 0 for s in signatures)
