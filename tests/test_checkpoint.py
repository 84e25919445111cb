"""Checkpointed campaign execution: snapshot fidelity, convergence
fast-forward correctness, and never-landed accounting."""

import random

import pytest

from repro.errors import SimulationError
from repro.faults import (
    CampaignResult,
    CheckpointStore,
    FaultSite,
    Outcome,
    build_checkpoints,
    fault_landed,
    golden_run,
    run_campaign,
    run_trials,
    run_with_fault,
    sample_opcode_sites,
    sample_sites,
    sample_wild_jump_sites,
)
from repro.lang import compile_source
from repro.obs.campaign_log import CampaignLog
from repro.sim import Machine, RunResult, RunStatus
from repro.sim.jit import attach_jit
from repro.sim.taint import TaintTracker
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


@pytest.fixture(scope="module", params=_REPLAY_CELLS, ids=_cell_id)
def replay_cell(request):
    """``(technique, program, interval, sites, full)`` for one
    ``_REPLAY_CELLS`` cell, shared by the tests that take it (pytest
    runs them cell by cell): ``full(site)`` is the site's result under
    full replay from instruction 0, computed once."""
    workload, technique, trials = request.param
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
    # The extension fault models inject through the same store.
    sites += [*sample_opcode_sites(17, golden.instructions, trials // 8),
              *sample_wild_jump_sites(17, golden.instructions, trials // 8)]
    results = {}

    def full(site):
        if site not in results:
            results[site] = run_with_fault(reference, site)
        return results[site]
    return technique, program, interval, sites, full


def test_checkpointed_trials_match_full_replay(replay_cell):
    """Checkpointed trials, on both engines, equal full replay-from-zero
    on every result field -- register, opcode and wild-jump sites
    alike -- and each convergence rule actually splices:
    dead-register matches everywhere, shifted ones wherever repair code
    runs (TRUMP and SWIFT-R)."""
    technique, program, interval, sites, full = replay_cell
    for jit in (False, True):
        machine = Machine(program)
        if jit:
            attach_jit(machine)
        store = build_checkpoints(machine, interval=interval)
        kinds = _recording_splices(store)
        for site in sites:
            _results_identical(store.run_with_fault(site), full(site))
        assert "dead" in kinds
        if technique not in (Technique.NOFT, Technique.MASK):
            assert "shifted" in kinds       # repair code delays rejoining


def test_cursor_orders_match_full_replay(replay_cell):
    """Replaying from the previous trial's site (the golden cursor)
    changes no result: the cell's sites shuffled, reversed and repeated,
    plus one at icount 0 and one on a checkpoint boundary, equal full
    replay on every field on both engines, and a site past the golden
    end still returns the clean golden run."""
    _technique, program, interval, sites, full = replay_cell
    shuffled = list(sites)
    random.Random(29).shuffle(shuffled)
    repeated = [site for site in sites[::4] for _ in range(2)]
    for jit in (False, True):
        machine = Machine(program)
        if jit:
            attach_jit(machine)
        store = build_checkpoints(machine, interval=interval)
        boundary = store.snapshots[len(store.snapshots) // 2].icount
        edges = [FaultSite(0, sites[0].reg_index, sites[0].bit),
                 FaultSite(boundary, sites[1].reg_index, sites[1].bit)]
        restored = []

        def recording_restore(snap, restore=machine.restore):
            restored.append(snap)
            restore(snap)
        machine.restore = recording_restore
        for site in [*shuffled, *reversed(sites), *repeated, *edges,
                     *sites]:
            assert store.run_with_fault(site) == full(site), site
        # Some trials started from the cursor, not a checkpoint.
        assert any(all(snap is not s for s in store.snapshots)
                   for snap in restored)
        assert store.cursor is not None
        past = FaultSite(store.golden.instructions + 5, 5, 3)
        assert store.run_with_fault(past) == store.golden


def _told(sites):
    """``sites`` ascending, each paired with the next one's site (the
    ``upcoming`` that :func:`run_trials` passes), the last with None."""
    ordered = sorted(sites, key=lambda site: site.dynamic_index)
    return list(zip(ordered, [*ordered[1:], None]))


def test_next_site_points_match_full_replay(replay_cell):
    """Trials told the campaign's next site, as ``run_trials`` runs
    them, equal full replay on every field on both engines and splice
    exactly the trials that per-site trials splice; more of them start
    from the golden state at their own site, replaying nothing."""
    _technique, program, interval, sites, full = replay_cell
    for jit in (False, True):
        fast_forwards, replayed_nothing = [], []
        for told in (False, True):
            machine = Machine(program)
            if jit:
                attach_jit(machine)
            store = build_checkpoints(machine, interval=interval)
            starts = []

            def recording_restore(snap, restore=machine.restore):
                starts.append(snap.icount)
                restore(snap)
            machine.restore = recording_restore
            at_site = 0
            for site, upcoming in _told(sites):
                del starts[:]
                result = store.run_with_fault(
                    site, upcoming=upcoming if told else None)
                assert result == full(site), site
                at_site += starts[0] == site.dynamic_index
            fast_forwards.append(store.fast_forwards)
            replayed_nothing.append(at_site)
        assert fast_forwards[0] == fast_forwards[1]
        assert replayed_nothing[0] < replayed_nothing[1]


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


#: A counted loop whose bound is read once into a register: flipping the
#: bound's bit 17 lengthens the run about 130-fold, and its bit 62 makes
#: the loop practically endless.
BOUNDED_LOOP_SOURCE = r"""
int data[64];
int n = 1000;

int main() {
    int limit = n;
    int total = 0;
    for (int i = 0; i < limit; i++) { total += data[i & 63] + i; }
    print(total);
    return 0;
}
"""


@pytest.fixture(scope="module")
def bound_flips():
    """The loop program, its golden run, and two flips of the loop
    bound at one site: one that lengthens the run past ``HANG_FLOOR``,
    and one that never lets it end."""
    from repro.faults.injector import HANG_FLOOR
    from repro.faults.model import INJECTABLE_GPRS

    program = _protected(BOUNDED_LOOP_SOURCE, Technique.NOFT)
    machine = Machine(program)
    store = build_checkpoints(machine)
    middle = store.golden.instructions // 2
    for reg in INJECTABLE_GPRS:
        site = FaultSite(dynamic_index=middle, reg_index=reg, bit=17)
        if store.run_with_fault(site).instructions > HANG_FLOOR:
            return (program, store.golden, site,
                    FaultSite(dynamic_index=middle, reg_index=reg, bit=62))
    pytest.fail("no register holds the loop bound")


@pytest.mark.parametrize("jit", [False, True], ids=["interp", "jit"])
@pytest.mark.parametrize("interval", [None, 0],
                         ids=["checkpointed", "full-replay"])
def test_hang_budget_scales_with_the_golden_run(bound_flips, jit,
                                                interval):
    """A faulty run ends Hang at exactly ``HANG_FACTOR`` times its golden
    run; one that ends sooner runs out, even past ``HANG_FLOOR``."""
    from repro.faults.injector import HANG_FACTOR, HANG_FLOOR
    from repro.sim.machine import MAX_INSTRUCTIONS

    program, golden, long_site, endless_site = bound_flips
    budget = HANG_FACTOR * golden.instructions
    assert HANG_FLOOR < budget < MAX_INSTRUCTIONS   # the factor governs
    log = CampaignLog()
    result = run_campaign(program, sites=[long_site, endless_site],
                          log=log, checkpoint_interval=interval, jit=jit)
    long, endless = log.records
    assert (long.outcome, long.status) == ("SDC", "exited")
    assert HANG_FLOOR < long.instructions < budget
    assert (endless.outcome, endless.status) == ("Hang", "hang")
    assert endless.instructions == budget
    assert result.config["hang_factor"] == HANG_FACTOR
    assert result.config["hang_floor"] == HANG_FLOOR


def test_hang_floor_covers_short_golden_runs(simple_program):
    from repro.faults.injector import HANG_FACTOR, HANG_FLOOR

    store = build_checkpoints(Machine(simple_program))
    assert HANG_FACTOR * store.golden.instructions < HANG_FLOOR
    assert store.budget == HANG_FLOOR


def test_campaigns_leave_the_machine_cap_alone():
    """``prepare_machine`` machines are shared: no campaign, serial or
    sharded, may leave its trial budget behind on one."""
    from repro.eval.pipeline import MAX_INSTRUCTIONS, prepare_machine
    from repro.faults.injector import hang_budget

    machine = prepare_machine("crc32", Technique.NOFT)
    store = build_checkpoints(machine)
    assert store.budget == hang_budget(machine, store.golden) \
        < MAX_INSTRUCTIONS
    for jobs in (1, 2):
        run_campaign(machine.program, trials=8, seed=3, machine=machine,
                     jobs=jobs)
        assert machine.max_instructions == MAX_INSTRUCTIONS


def _flip_site(store, icounts, dead=True):
    """The first fault site at one of ``icounts`` whose flip leaves a
    state that matches the golden one at the same icount (``dead``), or
    that the state compare sees (not ``dead``)."""
    from repro.faults.model import INJECTABLE_GPRS

    machine = store.machine
    for icount in icounts:
        machine.restore(store.snapshots[min(icount // store.interval,
                                            len(store.snapshots) - 1)])
        machine.run(icount)
        paused = machine.snapshot()
        for reg in INJECTABLE_GPRS:
            machine.restore(paused)
            machine.flip_register_bit(reg, 9)
            if machine.state_matches(paused) is dead:
                return FaultSite(icount, reg, 9)
    pytest.fail(f"no {'dead' if dead else 'live'} register at {icounts}")


def test_dead_register_flip_splices_at_the_site():
    """The site is a convergence point: a flip into a register dead
    there splices before any faulty instruction runs.  Under taint the
    compare is exact, so the same trial runs out (no checkpoint follows
    it) without reporting convergence; a store built without
    fast-forward never splices.  All three equal full replay."""
    program = _protected(FLOAT_MEM_SOURCE)
    machine = Machine(program)
    store = build_checkpoints(machine, interval=128)
    site = _flip_site(store, range(store.snapshots[-1].icount + 1,
                                   store.golden.instructions))
    expected = run_with_fault(Machine(program), site)

    assert store.run_with_fault(site) == expected
    assert machine.icount == site.dynamic_index
    assert store.fast_forwards == 1

    tracker = TaintTracker()
    assert store.run_with_fault(site, taint=tracker) == expected
    assert machine.icount == expected.instructions
    assert tracker.converged_at is None
    assert store.fast_forwards == 1

    plain = CheckpointStore(Machine(program), interval=128,
                            fast_forward=False)
    golden = plain.build()
    for other in [site, *sample_sites(1, golden.instructions, 30)]:
        assert plain.run_with_fault(other) == run_with_fault(
            Machine(program), other)
    assert plain.fast_forwards == 0


def test_checkpointed_campaign_matches_serial(simple_program):
    log_serial, log_ckpt = CampaignLog(), CampaignLog()
    serial = run_campaign(simple_program, trials=60, seed=11,
                          log=log_serial, checkpoint_interval=0)
    ckpt = run_campaign(simple_program, trials=60, seed=11,
                        log=log_ckpt, checkpoint_interval=16)
    assert serial == ckpt
    assert log_serial.records == log_ckpt.records
    assert serial.fast_forwards == 0


def test_campaign_runs_sites_in_ascending_order(simple_program,
                                               monkeypatch):
    """A seeded campaign draws sites in random order but runs them
    ascending, so trials restore from the cursor, while its counts and
    trial records stay in trial order and equal full replay's."""
    calls, restored = [], []
    run, restore = CheckpointStore.run_with_fault, Machine.restore

    def recording_run(store, site, taint=None, upcoming=None):
        calls.append(site.dynamic_index)
        return run(store, site, taint, upcoming)

    def recording_restore(machine, snap):
        restored.append(snap)
        restore(machine, snap)
    monkeypatch.setattr(CheckpointStore, "run_with_fault", recording_run)
    monkeypatch.setattr(Machine, "restore", recording_restore)
    log = CampaignLog()
    result = run_campaign(simple_program, trials=60, seed=11, log=log,
                          checkpoint_interval=16)
    assert calls == sorted(calls) != [r.dynamic_index for r in log.records]
    assert [r.trial for r in log.records] == list(range(60))
    assert sum(snap.icount % 16 != 0 for snap in restored) > 30

    reference = CampaignLog()
    assert result == run_campaign(simple_program, trials=60, seed=11,
                                  log=reference, checkpoint_interval=0)
    assert log.records == reference.records


def test_run_campaign_trial_clock(simple_program):
    """``monitor`` is a two-method trial clock: ``begin`` once, then one
    ``trial_done`` per trial (one after the merge when sharded), and it
    never changes the result.  Any other attribute read would raise."""

    class Clock:
        def __init__(self):
            self.calls = []

        def begin(self, total):
            self.calls.append(("begin", total))

        def trial_done(self, done):
            self.calls.append(("trial_done", done))

    golden = golden_run(Machine(simple_program)).instructions
    sites = sample_sites(5, golden, 12)
    plain = run_campaign(simple_program, sites=sites).summary_dict()
    serial, sharded = Clock(), Clock()
    assert run_campaign(simple_program, sites=sites,
                        monitor=serial).summary_dict() == plain
    assert serial.calls == [("begin", 12)] + [
        ("trial_done", n) for n in range(1, 13)]
    assert run_campaign(simple_program, sites=sites, jobs=2,
                        monitor=sharded).summary_dict() == plain
    assert sharded.calls == [("begin", 12), ("trial_done", 12)]


def test_run_trials_ticks_and_returns_in_trial_order():
    """The kernel runs sites in ascending order, ticking as it goes,
    then classifies, records and logs them in trial order."""
    sites = [FaultSite(i, 3, 1) for i in (40, 7, 40, 0, 12)]
    ran, trackers, ticks = [], [], []

    class Store:
        golden = RunResult(RunStatus.EXITED, output=[0], instructions=50)
        machine = Machine(compile_source("int main() { return 0; }"))
        fast_forwards = 0
        landed = True

        def run_with_fault(self, site, taint=None, upcoming=None):
            ran.append(site.dynamic_index)
            trackers.append(taint)
            # Odd sites print a wrong value: an SDC.
            return RunResult(RunStatus.EXITED,
                             output=[site.dynamic_index % 2],
                             instructions=50 + site.dynamic_index)

    result, log = CampaignResult(), CampaignLog()
    outcomes = run_trials(Store(), sites, result, log, first_trial=10,
                          taint=True, tick=ticks.append)
    assert ran == [0, 7, 12, 40, 40]
    assert ticks == [1, 2, 3, 4, 5]
    assert all(isinstance(t, TaintTracker) for t in trackers)
    assert len(set(map(id, trackers))) == len(sites)
    assert outcomes == [Outcome.UNACE, Outcome.SDC, Outcome.UNACE,
                        Outcome.UNACE, Outcome.UNACE]
    assert result.counts == {Outcome.UNACE: 4, Outcome.SDC: 1}
    assert [r.trial for r in log.records] == [10, 11, 12, 13, 14]
    assert [r.instructions for r in log.records] == [90, 57, 90, 50, 62]
    assert [r["trial"] for r in log.taint_records
            if r["kind"] == "taint_summary"] == [10, 11, 12, 13, 14]


def test_fast_forward_engages_on_protected_code():
    program = _protected(FLOAT_MEM_SOURCE)
    machine = Machine(program)
    golden = golden_run(machine)
    store = build_checkpoints(machine, interval=128)
    sites = sample_sites(1, golden.instructions, 60)
    for site in sites:
        store.run_with_fault(site)
    # SWIFT-R repairs most register flips, re-converging the faulty
    # state with the golden run; the splice shortcut must be live.
    assert store.fast_forwards > 0
    # Campaigns report the same count, sharded or not.
    for jobs in (1, 2):
        result = run_campaign(program, sites=sites, jobs=jobs,
                              checkpoint_interval=128)
        assert result.fast_forwards == store.fast_forwards


def test_repaired_trial_retries_at_every_boundary():
    """A repaired run that has not lined up with the golden run by the
    first boundary after its repair still splices at a later one: every
    boundary where its recovery count differs from the golden count
    gets a shifted attempt, not just the first after each change."""
    late = 0
    for technique in (Technique.SWIFTR, Technique.TRUMP):
        program = _protected(FLOAT_MEM_SOURCE, technique)
        machine = Machine(program)
        store = build_checkpoints(machine, interval=128)
        converge, attempts = store._converge, []

        def recording(snap, window, converge=converge, machine=machine):
            recoveries = machine.recoveries
            spliced = converge(snap, window)
            if window:
                attempts.append((recoveries, spliced is not None))
            return spliced
        store._converge = recording
        reference = Machine(program)
        for site in sample_sites(1, store.golden.instructions, 300):
            del attempts[:]
            assert store.run_with_fault(site) == run_with_fault(reference,
                                                                site)
            if (len(attempts) >= 2 and attempts[-1][1]
                    and attempts[-2][0] == attempts[-1][0]):
                late += 1
    assert late >= 2


def test_next_site_point_splices_within_its_clamped_window():
    """The next site's golden state is a convergence point between two
    checkpoints, and trials splice there.  Its shifted window ends at
    the next checkpoint, and it is only tested with the run standing
    exactly at it: afterwards the run stands at or before that
    checkpoint, as on the per-site path."""
    program = _protected(FLOAT_MEM_SOURCE)
    machine = Machine(program)
    store = build_checkpoints(machine, interval=128)
    converge, points, current = store._converge, [], []

    def recording(snap, window):
        spliced = converge(snap, window)
        if snap.icount != current[0] and snap.icount % 128:
            points.append((snap.icount, window, spliced is not None))
            assert machine.icount <= (snap.icount // 128 + 1) * 128
        return spliced
    store._converge = recording
    reference = Machine(program)
    for site, upcoming in _told(sample_sites(1, store.golden.instructions,
                                             60)):
        current[:] = [site.dynamic_index]
        checked = len(points)
        assert store.run_with_fault(site, upcoming=upcoming) \
            == run_with_fault(reference, site)
        for icount, window, _ in points[checked:]:
            assert icount == upcoming.dynamic_index
            assert window <= (icount // 128 + 1) * 128 - icount
    assert any(spliced for _, _, spliced in points)
    assert any(window for _, window, _ in points)


def test_next_site_point_rules():
    """A trial that does not converge at its site makes the next site's
    golden state the cursor -- except when no checkpoint follows the
    next site, for a taint-traced trial, and while a profiler is
    attached.  There the trial runs as if not told: the cursor stays
    at its own site, and its taint stream and profile are unchanged."""
    from repro.obs.profile import SimProfiler

    program = _protected(FLOAT_MEM_SOURCE)
    machine = Machine(program)
    store = build_checkpoints(machine, interval=128)
    last = store.snapshots[-1].icount
    site = _flip_site(store, [last - 300], dead=False)
    upcoming = FaultSite(last - 200, 5, 3)
    store.run_with_fault(site, upcoming=upcoming)
    assert store.cursor.icount == upcoming.dynamic_index

    tail = _flip_site(store, [last + 5], dead=False)
    store.run_with_fault(tail, upcoming=FaultSite(last + 20, 5, 3))
    assert store.cursor.icount == tail.dynamic_index

    streams, profiles = [], []
    for told in (None, upcoming):
        tracker = TaintTracker()
        store.run_with_fault(site, taint=tracker, upcoming=told)
        assert store.cursor.icount == site.dynamic_index
        streams.append(tracker.export(0))
        machine.profile = SimProfiler()
        store.run_with_fault(site, upcoming=told)
        assert store.cursor.icount == site.dynamic_index
        profiles.append(machine.profile.index_counts)
        machine.profile = None
    assert streams[0] == streams[1]
    assert profiles[0] == profiles[1]


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
    assert not fault_landed(site, run_with_fault(machine, site))

    log = CampaignLog()
    result = run_campaign(simple_program, sites=[site], machine=machine,
                          log=log)
    assert result.never_landed == 1
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
