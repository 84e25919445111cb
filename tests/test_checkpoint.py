"""Checkpointed campaign execution: snapshot fidelity, convergence
fast-forward correctness, and never-landed accounting."""

import pytest

from repro.errors import SimulationError
from repro.faults import (
    CampaignResult,
    FaultSite,
    Outcome,
    build_checkpoints,
    classify,
    fault_landed,
    golden_run,
    run_campaign,
    run_with_fault,
    sample_sites,
)
from repro.lang import compile_source
from repro.obs.campaign_log import CampaignLog
from repro.sim import Machine, RunStatus
from repro.sim.jit import attach_jit
from repro.transform import Technique, allocate_program, protect
from repro.transform.protect import PAPER_TECHNIQUES

#: A float-register and memory-mutation workload: FP accumulation in
#: registers plus an in-place integer array reversal, SWIFT-R
#: protected so recovery blocks exercise the counters too.
FLOAT_MEM_SOURCE = r"""
int data[16];
float scale = 1.5;

int main() {
    float acc = 0.25;
    for (int i = 0; i < 16; i++) { data[i] = i * 7 + 3; }
    for (int pass = 0; pass < 6; pass++) {
        for (int i = 0; i < 8; i++) {
            int tmp = data[i];
            data[i] = data[15 - i];
            data[15 - i] = tmp;
        }
        acc = acc * scale + (float)data[pass];
        print(acc);
    }
    int total = 0;
    for (int i = 0; i < 16; i++) { total += data[i]; }
    print(total);
    return 0;
}
"""


def _protected(source: str, technique=Technique.SWIFTR):
    return allocate_program(protect(compile_source(source), technique))


def _results_identical(a, b):
    assert a.status is b.status
    assert a.output == b.output
    assert a.instructions == b.instructions
    assert a.exit_code == b.exit_code
    assert a.recoveries == b.recoveries
    assert a.first_recovery_icount == b.first_recovery_icount


# -------------------------------------------------------------- fidelity
def _assert_checkpoint_fidelity(program, interval):
    machine = Machine(program)
    uninterrupted = golden_run(machine)
    assert uninterrupted.status is RunStatus.EXITED
    store = build_checkpoints(machine, interval=interval)
    _results_identical(store.golden, uninterrupted)
    assert len(store.snapshots) >= 2
    for snap in store.snapshots:
        machine.restore(snap)
        resumed = machine.run(None)
        _results_identical(resumed, uninterrupted)


def test_checkpoint_fidelity_protected_workload():
    from repro.workloads import build

    program = allocate_program(protect(build("crc32"), Technique.SWIFTR))
    _assert_checkpoint_fidelity(program, interval=8192)


def test_checkpoint_fidelity_float_and_memory():
    _assert_checkpoint_fidelity(_protected(FLOAT_MEM_SOURCE), interval=64)


def test_auto_interval_caps_checkpoint_count():
    from repro.faults.injector import MAX_CHECKPOINTS

    machine = Machine(_protected(FLOAT_MEM_SOURCE))
    store = build_checkpoints(machine)          # auto interval
    assert len(store.snapshots) <= MAX_CHECKPOINTS + 1
    for i, snap in enumerate(store.snapshots):
        assert snap.icount == i * store.interval


# ------------------------------------------- checkpointed == full replay
def _stratified_sites(golden_instructions, trials, seed):
    """One site per equal slice of the golden run, so every phase of
    the program (and both convergence kinds) gets faults."""
    import random

    from repro.faults.model import INJECTABLE_GPRS

    rng = random.Random(seed)
    sites = []
    for k in range(trials):
        low = k * golden_instructions // trials
        high = max((k + 1) * golden_instructions // trials, low + 1)
        sites.append(FaultSite(dynamic_index=rng.randrange(low, high),
                               reg_index=rng.choice(INJECTABLE_GPRS),
                               bit=rng.randrange(64)))
    return sites


def _recording_splices(store):
    """Wrap ``store._splice_golden`` to log each splice's kind:
    ``"shifted"`` (delta > 0), ``"dead"`` (registers differ from the
    checkpoint on dead slots only) or ``"exact"``."""
    kinds = []
    splice = store._splice_golden

    def recording(snap, delta):
        spliced = splice(snap, delta)
        if spliced is not None:
            machine = store.machine
            if delta:
                kinds.append("shifted")
            elif (machine.regs != snap.regs
                    or machine.fregs != snap.fregs):
                kinds.append("dead")
            else:
                kinds.append("exact")
        return spliced
    store._splice_golden = recording
    return kinds


#: Every paper technique on crc32, plus TRUMP and SWIFT-R on a
#: memory-bound and an FP workload: (workload, technique, trials).
#: ``None`` is the float/memory micro-program above, at a 128-instruction
#: checkpoint interval instead of the auto-tuned one.
_REPLAY_CELLS = [
    (None, Technique.NOFT, 80),
    (None, Technique.SWIFTR, 80),
    *[("crc32", technique, 40) for technique in PAPER_TECHNIQUES],
    ("mcf", Technique.TRUMP, 40),
    ("equake", Technique.SWIFTR, 40),
]


def _cell_id(cell):
    workload, technique, _ = cell
    return str(technique) if workload is None \
        else f"{workload}-{technique.value}"


@pytest.mark.parametrize("cell", _REPLAY_CELLS, ids=_cell_id)
def test_checkpointed_trials_match_full_replay(cell):
    """Checkpointed trials, on both engines, equal full replay-from-zero
    on every result field, and each convergence rule actually splices:
    dead-register matches everywhere, shifted ones wherever repair code
    runs (TRUMP and SWIFT-R)."""
    workload, technique, trials = cell
    if workload is None:
        program = _protected(FLOAT_MEM_SOURCE, technique)
        interval = 128
    else:
        from repro.workloads import build

        program = allocate_program(protect(build(workload), technique))
        interval = None
    reference = Machine(program)
    attach_jit(reference)
    golden = golden_run(reference)
    if workload is None:
        sites = sample_sites(3, golden.instructions, trials)
    else:
        sites = _stratified_sites(golden.instructions, trials, seed=13)
    full = [run_with_fault(reference, site) for site in sites]
    for jit in (False, True):
        machine = Machine(program)
        if jit:
            attach_jit(machine)
        store = build_checkpoints(machine, interval=interval)
        kinds = _recording_splices(store)
        for site, expected in zip(sites, full):
            _results_identical(store.run_with_fault(site), expected)
        assert "dead" in kinds
        if technique not in (Technique.NOFT, Technique.MASK):
            assert "shifted" in kinds       # repair code delays rejoining


def test_shifted_splice_refuses_past_max_instructions():
    """A repaired run that trails the golden run by more than the
    instruction budget's margin hangs; the shifted splice must not
    turn it into a clean exit."""
    from repro.workloads import build

    program = allocate_program(protect(build("crc32"), Technique.SWIFTR))
    roomy = Machine(program)
    golden = golden_run(roomy)
    store = build_checkpoints(roomy)
    kinds = _recording_splices(store)
    margin = 2
    for site in _stratified_sites(golden.instructions, 40, seed=13):
        before = len(kinds)
        result = store.run_with_fault(site)
        if kinds[before:] == ["shifted"] \
                and result.instructions > golden.instructions + margin:
            break
    else:
        pytest.fail("no shifted splice longer than the margin")
    tight = Machine(program,
                    max_instructions=golden.instructions + margin)
    checkpointed = build_checkpoints(tight).run_with_fault(site)
    assert checkpointed.status is RunStatus.HANG
    _results_identical(checkpointed, run_with_fault(tight, site))


def test_checkpointed_campaign_matches_serial(simple_program):
    log_serial, log_ckpt = CampaignLog(), CampaignLog()
    serial = run_campaign(simple_program, trials=60, seed=11,
                          log=log_serial, checkpoint_interval=0)
    ckpt = run_campaign(simple_program, trials=60, seed=11,
                        log=log_ckpt, checkpoint_interval=16)
    assert serial == ckpt
    assert log_serial.records == log_ckpt.records


def test_fast_forward_engages_on_protected_code():
    program = _protected(FLOAT_MEM_SOURCE)
    machine = Machine(program)
    golden = golden_run(machine)
    store = build_checkpoints(machine, interval=128)
    for site in sample_sites(1, golden.instructions, 60):
        store.run_with_fault(site)
    # SWIFT-R repairs most register flips, re-converging the faulty
    # state with the golden run; the splice shortcut must be live.
    assert store.fast_forwards > 0


# ----------------------------------------------------- never-landed audit
def test_never_landed_site_returns_clean_run(simple_program):
    machine = Machine(simple_program)
    golden = golden_run(machine)
    store = build_checkpoints(machine, interval=16)
    site = FaultSite(dynamic_index=golden.instructions + 50,
                     reg_index=5, bit=3)
    result = store.run_with_fault(site)
    _results_identical(result, golden)
    assert not fault_landed(site, result)
    landed_site = FaultSite(dynamic_index=2, reg_index=5, bit=3)
    assert fault_landed(landed_site, store.run_with_fault(landed_site))


def test_never_landed_is_counted(simple_program):
    machine = Machine(simple_program)
    golden = golden_run(machine)
    site = FaultSite(dynamic_index=golden.instructions + 9,
                     reg_index=7, bit=1)
    faulty = run_with_fault(machine, site)

    result = CampaignResult()
    result.record(Outcome.UNACE, recovered=False,
                  landed=fault_landed(site, faulty))
    assert result.never_landed == 1

    log = CampaignLog()
    log.record_trial(0, site, classify(golden, faulty), faulty)
    assert log.records[0].fault_landed is False
    assert log.records[0].to_dict()["fault_landed"] is False


def test_never_landed_merges():
    a = CampaignResult(trials=2, never_landed=1, golden_instructions=10)
    b = CampaignResult(trials=3, never_landed=2, golden_instructions=10)
    assert a.merged(b).never_landed == 3


def test_campaign_counts_all_faults_landed(simple_program):
    # Sites sampled against the golden run always land.
    result = run_campaign(simple_program, trials=50, seed=4)
    assert result.never_landed == 0
