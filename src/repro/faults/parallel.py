"""Process-parallel fault-injection campaigns (``jobs > 1``).

Campaign-scale injection studies only reach statistical significance
with thousands of trials, and trials are embarrassingly parallel: each
one is a deterministic function of (binary, fault site).  The sharded
runner here exploits that while keeping the campaign *bit-identical*
to the serial path, trial for trial:

* the caller builds the golden run (and its checkpoints) once and
  samples **all** fault sites up front -- exactly the sites the serial
  path runs -- so parallelism never perturbs the fault distribution;
* the site list is split into contiguous shards, one forked worker
  process per shard.  Each worker inherits the parent's built store
  (machine, JIT attachment, checkpoints) and runs its shard through
  the trial kernel :func:`~repro.faults.trials.run_trials`, numbering
  its trials from the shard's global first index and stamping each
  site's stratum, so its records need no renumbering;
* each worker sends back its
  :class:`~repro.faults.campaign.CampaignResult`, outcomes, trial
  records, taint streams and shard profile over a pipe; the parent
  merges them in shard (= trial) order, so counts, logs and profiles
  equal the serial campaign's;
* a worker that dies without reporting (killed, out of memory) raises
  :class:`~repro.errors.ShardLostError` naming its shard, instead of
  leaving the campaign waiting forever.  Nothing is retried.

``tests/test_parallel.py`` asserts that ``jobs=N`` matches ``jobs=1``.
Sharding needs ``fork`` (POSIX): workers inherit the store rather than
rebuilding it.
"""

from __future__ import annotations

import multiprocessing
import os

from ..errors import ShardLostError
from ..obs import spans
from ..obs.campaign_log import CampaignLog
from .campaign import CampaignResult
from .outcomes import Outcome
from .trials import run_trials


def default_jobs() -> int:
    """Worker count when the caller asks for ``--jobs 0`` (= all cores)."""
    return max(os.cpu_count() or 1, 1)


def _partition(sites: list, shards: int) -> list[tuple[int, list]]:
    """Split into ``shards`` contiguous (first_trial, sites) chunks."""
    base, extra = divmod(len(sites), shards)
    chunks = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        if hi > lo:
            chunks.append((lo, sites[lo:hi]))
        lo = hi
    return chunks


def _run_shard(store, shard: int, first_trial: int, sites: list,
               strata: list | None, logged: bool, taint: bool) -> tuple:
    """Run one contiguous shard of trials in a forked worker.

    Returns ``(result, outcomes, records, taint_records, profile)``.
    A profiled campaign's shard counts into a fresh profiler: the
    parent's profile already holds the golden run, so merged shard
    profiles equal the serial campaign's.
    """
    machine = store.machine
    if machine.profile is not None:
        from ..obs.profile import SimProfiler

        # This process owns its copy of the machine; nothing to restore.
        machine.profile = SimProfiler()
    result = CampaignResult(golden_instructions=store.golden.instructions)
    log = CampaignLog() if logged else None
    outcomes = run_trials(store, sites, result, log,
                          first_trial=first_trial, strata=strata,
                          taint=taint)
    if log is None:
        return result, outcomes, [], [], machine.profile
    return (result, outcomes, log.records, log.taint_records,
            machine.profile)


def _shard_worker(conn, *args) -> None:
    """Worker entry point: send ``(error, payload)`` to the parent."""
    # A telemetry-on parent's span collector is never drained here.
    spans.disable()
    try:
        conn.send((None, _run_shard(*args)))
    except Exception as exc:  # re-raised in the parent
        conn.send((exc, None))
    finally:
        conn.close()


def run_shards(store, sites: list, result: CampaignResult,
               log: CampaignLog | None = None, *, jobs: int,
               first_trial: int = 0, strata: list | None = None,
               taint: bool = False
               ) -> tuple[CampaignResult, list[Outcome]]:
    """Run ``sites`` on a built ``store`` sharded over ``jobs`` workers.

    The sharded half of :func:`~repro.faults.campaign.run_batch`, with
    its signature and return value.  A ``profile`` attached to the
    store's machine receives every shard's counts.
    """
    profile = store.machine.profile
    context = multiprocessing.get_context("fork")
    workers = []
    outcomes: list[Outcome] = []
    try:
        for shard, (lo, chunk) in enumerate(
                _partition(sites, min(jobs, len(sites)))):
            receiver, sender = context.Pipe(duplex=False)
            worker = context.Process(
                target=_shard_worker, daemon=True,
                args=(sender, store, shard, first_trial + lo, chunk,
                      None if strata is None
                      else strata[lo:lo + len(chunk)],
                      log is not None, taint))
            worker.start()
            sender.close()
            workers.append((worker, receiver))
        for shard, (worker, receiver) in enumerate(workers):
            try:
                error, payload = receiver.recv()
            except EOFError:
                worker.join()
                raise ShardLostError(
                    f"campaign shard {shard} of {len(workers)} lost: its "
                    f"worker process died (exit code {worker.exitcode}) "
                    "before reporting its trials") from None
            if error is not None:
                raise error
            shard_result, shard_outcomes, records, taint_records, \
                shard_profile = payload
            result = result.merged(shard_result)
            outcomes.extend(shard_outcomes)
            if log is not None:
                log.records.extend(records)
                log.taint_records.extend(taint_records)
            if shard_profile is not None:
                profile.merge_from(shard_profile)
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, receiver in workers:
            receiver.close()
            worker.join()
    return result, outcomes
