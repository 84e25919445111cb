"""The trial kernel: one loop runs, classifies, records and logs trials.

Every campaign runs its trials through :func:`run_trials`: the
register-SEU campaigns of :func:`~repro.faults.campaign.run_campaign`
(serial, and in each worker shard of :mod:`repro.faults.parallel`) and
the opcode and wild-jump models, which are only site samplers over it.  A
fault model is its site type: anything with a ``dynamic_index`` and an
``inject(machine)`` method runs here.  :func:`engine` is the one place
a campaign attaches the JIT and the profiler to a machine.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..sim.jit import attach_jit
from ..sim.taint import TaintTracker
from .outcomes import Outcome, classify


@contextmanager
def engine(machine, jit: bool, profile=None):
    """Attach (``jit=True``) or detach the block JIT and attach
    ``profile`` for the block; restore both on exit, also on error.

    Machines outlive campaigns (``prepare_machine`` caches them), so a
    campaign must leave them as it found them.  A profiled run executes
    the counting interpreter loop even with the JIT attached; the
    profile is annotated with the blocks the JIT would run compiled, so
    ``obs hotspots`` can report JIT coverage.
    """
    saved = machine.jit, machine.profile
    if jit:
        attach_jit(machine)
    else:
        machine.jit = None
    machine.profile = profile
    try:
        if profile is not None and jit:
            profile.annotate_jit(machine)
        yield machine
    finally:
        machine.jit, machine.profile = saved


def run_trials(store, sites: list, result, log=None, *,
               first_trial: int = 0, taint: bool = False,
               tick=None) -> list[Outcome]:
    """Run one trial per site on a built ``store`` and record them.

    ``store`` is a :class:`~repro.faults.injector.CheckpointStore` or
    :class:`~repro.faults.injector.FullReplay`.  Trials execute in
    ascending order of injection point, each told the next one's site
    (``upcoming``), so a checkpoint store replays only the gap since
    the previous trial's site, and can test convergence at the next
    one's; ``tick(n)`` is called after the ``n``-th trial to finish.
    A trial's result does not depend on which trials ran before it, so
    each is then classified against the golden run and recorded into
    ``result`` (a :class:`~repro.faults.campaign.CampaignResult`) in
    the order of ``sites``.  With a ``log`` each is also logged as trial
    ``first_trial + i``; ``taint=True`` traces each trial with a fresh
    :class:`~repro.sim.taint.TaintTracker` and logs its stream.  Whether
    a fault landed is the store's word for it: the run reached the
    injection point.  Returns the outcomes in trial order.
    """
    run, golden = store.run_with_fault, store.golden
    fast_forwards = store.fast_forwards
    runs: list = [None] * len(sites)
    order = sorted(range(len(sites)), key=lambda i: sites[i].dynamic_index)
    for done, i in enumerate(order, 1):
        tracker = TaintTracker() if taint else None
        upcoming = sites[order[done]] if done < len(order) else None
        runs[i] = (run(sites[i], taint=tracker, upcoming=upcoming),
                   store.landed, tracker)
        if tick is not None:
            tick(done)
    result.fast_forwards += store.fast_forwards - fast_forwards
    profile = store.machine.profile
    if taint and profile is not None:
        # Traced instructions execute in the taint loop, invisible to
        # the profiler; record how many trials that affected.
        profile.taint_trials += len(sites)
    record = result.record
    outcomes = []
    for offset, (site, (faulty, landed, tracker)) in enumerate(
            zip(sites, runs)):
        outcome = classify(golden, faulty)
        record(outcome, faulty.recoveries > 0, landed)
        outcomes.append(outcome)
        if log is not None:
            trial = first_trial + offset
            log.record_trial(trial, site, outcome, faulty, landed)
            if tracker is not None:
                log.record_taint(trial, tracker)
    return outcomes
