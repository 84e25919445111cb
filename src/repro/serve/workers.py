"""The worker fleet: one forked process per running job.

A job gets its own ``multiprocessing`` process (not a pool task) so
cancellation can ``terminate()`` exactly one campaign without touching
its neighbours, and so a job is free to shard *internally* with
``spec.jobs > 1`` -- the processes here are non-daemonic, which lets
:func:`~repro.faults.campaign.run_campaign` fork its own shard
workers inside a job.

A worker communicates only through the filesystem: heartbeat records
appended through :class:`~repro.obs.monitor.CampaignMonitor` (the same
stream ``obs top`` follows) for progress, and one atomically-renamed
JSON result file for the verdict.  The server polls both; no pipes or
queues survive a server crash, but these files do.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass

from .spec import CampaignSpec, prepare_spec, run_spec, store_spec_run


def _context():
    """Fork keeps the warm compile caches; fall back where absent."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def execute_spec_job(spec_dict: dict, runs_dir: str,
                     heartbeat_path: str, result_path: str,
                     tag: str = "") -> dict:
    """Run one spec end to end and write the result file.

    Top-level (picklable) so it is the worker-process entry point, and
    callable inline for tests.  Never raises: every failure becomes an
    ``ok=False`` result payload.  The finished campaign is always
    stored back into the ledger, which is how the service's cache
    grows -- a re-submission of this spec is then answered without a
    single trial.
    """
    from ..obs.campaign_log import CampaignLog
    from ..obs.monitor import CampaignMonitor
    from ..obs.registry import RunRegistry

    payload: dict
    try:
        spec = CampaignSpec.from_dict(spec_dict)
        program, machine = prepare_spec(spec)
        log = CampaignLog(context=spec.log_context())
        monitor = (CampaignMonitor(heartbeat_path=heartbeat_path)
                   if heartbeat_path else None)
        run = run_spec(spec, program, machine=machine, log=log,
                       monitor=monitor)
        if monitor is not None:
            monitor.finish()
        stored = store_spec_run(RunRegistry(runs_dir), spec, run,
                                program, log, tag=tag)
        payload = {
            "ok": True,
            "run": stored.run_id,
            "created": stored.created,
            "summary": run.result.summary_dict(),
        }
    except BaseException as exc:  # the verdict must always land
        payload = {"ok": False,
                   "error": f"{type(exc).__name__}: {exc}"}
    tmp = f"{result_path}.tmp-{os.getpid()}"
    with open(tmp, "w") as out:
        json.dump(payload, out, sort_keys=True)
        out.write("\n")
    os.replace(tmp, result_path)
    return payload


@dataclass
class _Worker:
    job_id: str
    process: multiprocessing.process.BaseProcess
    result_path: str
    heartbeat_path: str


class WorkerPool:
    """Spawn, poll, and terminate per-job worker processes."""

    def __init__(self, state_dir: str, runs_dir: str,
                 limit: int = 2) -> None:
        self.state_dir = state_dir
        self.runs_dir = runs_dir
        self.limit = max(int(limit), 0)
        self.jobs_dir = os.path.join(state_dir, "jobs")
        self._workers: dict[str, _Worker] = {}
        self._ctx = _context()

    # -------------------------------------------------------------- paths
    def heartbeat_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.heartbeat.jsonl")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.result.json")

    # ------------------------------------------------------------ control
    def active(self) -> int:
        return len(self._workers)

    def has_capacity(self) -> bool:
        return self.limit > 0 and len(self._workers) < self.limit

    def spawn(self, job) -> None:
        """Fork one worker for a job (caller checked capacity)."""
        os.makedirs(self.jobs_dir, exist_ok=True)
        result_path = self.result_path(job.id)
        heartbeat_path = self.heartbeat_path(job.id)
        for stale in (result_path, heartbeat_path):
            if os.path.exists(stale):
                os.remove(stale)
        process = self._ctx.Process(
            target=execute_spec_job,
            args=(job.spec.to_dict(), self.runs_dir, heartbeat_path,
                  result_path, job.tag),
            name=f"repro-serve-{job.id}",
        )
        process.start()
        self._workers[job.id] = _Worker(job_id=job.id, process=process,
                                        result_path=result_path,
                                        heartbeat_path=heartbeat_path)

    def terminate(self, job_id: str) -> bool:
        """Kill one running job's worker (cancellation)."""
        worker = self._workers.pop(job_id, None)
        if worker is None:
            return False
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5)
        if worker.process.is_alive():  # pragma: no cover - stuck child
            worker.process.kill()
            worker.process.join(timeout=5)
        return True

    def reap(self) -> list[tuple[str, dict | None]]:
        """Collect finished workers: ``(job_id, result payload)``.

        ``None`` payload means the worker died without writing its
        verdict (killed, OOM) -- the server records that as a failure.
        """
        finished = []
        for job_id in [j for j, w in self._workers.items()
                       if not w.process.is_alive()]:
            worker = self._workers.pop(job_id)
            worker.process.join()
            payload = None
            try:
                with open(worker.result_path) as handle:
                    loaded = json.load(handle)
                if isinstance(loaded, dict):
                    payload = loaded
            except (OSError, ValueError):
                payload = None
            finished.append((job_id, payload))
        return finished

    def shutdown(self) -> None:
        """Terminate every still-running worker (server stop)."""
        for job_id in list(self._workers):
            self.terminate(job_id)
