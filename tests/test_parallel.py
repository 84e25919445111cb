"""Process-parallel campaigns: sharding, determinism, telemetry order."""

from repro.faults import run_campaign
from repro.faults.parallel import _partition, default_jobs
from repro.faults.model import sample_sites
from repro.obs.campaign_log import CampaignLog


def test_partition_contiguous_and_complete():
    sites = sample_sites(0, 100, 10)
    chunks = _partition(sites, 3)
    assert [lo for lo, _ in chunks] == [0, 4, 7]
    rejoined = [site for _, shard in chunks for site in shard]
    assert rejoined == sites
    # More shards than sites: empty shards are dropped.
    assert len(_partition(sites[:2], 5)) == 2


def test_jobs2_matches_jobs1(simple_program):
    log1, log2 = CampaignLog(), CampaignLog()
    serial = run_campaign(simple_program, trials=24, seed=13,
                          jobs=1, log=log1)
    parallel = run_campaign(simple_program, trials=24, seed=13,
                            jobs=2, log=log2)
    assert serial == parallel
    assert log1.records == log2.records
    assert [r.trial for r in log2.records] == list(range(24))


def test_parallel_matches_plain_run_campaign(simple_program):
    # The sharded runner must agree with run_campaign itself, not just
    # with its own jobs=1 mode.
    baseline = run_campaign(simple_program, trials=24, seed=13)
    parallel = run_campaign(simple_program, trials=24, seed=13, jobs=3)
    assert baseline == parallel


def test_parallel_without_log_skips_telemetry(simple_program):
    result = run_campaign(simple_program, trials=10, seed=5, jobs=2)
    assert result.trials == 10
    assert sum(result.counts.values()) == 10


def test_jobs_zero_uses_all_cores(simple_program):
    assert default_jobs() >= 1
    result = run_campaign(simple_program, trials=8, seed=1, jobs=0)
    assert result.trials == 8


def test_parallel_log_context_preserved(simple_program):
    log = CampaignLog(context={"benchmark": "simple", "technique": "noft"})
    run_campaign(simple_program, trials=6, seed=2, jobs=2, log=log)
    exported = log.to_dicts()
    assert len(exported) == 6
    assert all(r["benchmark"] == "simple" for r in exported)
    assert all("fault_landed" in r for r in exported)


#: Run in a subprocess: shard 1's worker SIGKILLs itself, and the CLI
#: campaign must end with one error line and exit status 3.
_KILLED_SHARD = """
import os, signal, sys
from repro.faults import parallel

run_shard = parallel._run_shard


def dying(store, shard, *args):
    if shard == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_shard(store, shard, *args)


parallel._run_shard = dying
from repro.__main__ import main
sys.exit(main(["campaign", sys.argv[1], "-t", "swiftr", "--trials", "40",
               "--jobs", "2"]))
"""


def test_killed_shard_worker_fails_the_campaign(tmp_path):
    import os
    import subprocess
    import sys

    import repro

    source = tmp_path / "smoke.c"
    source.write_text("int main() { int t = 0; for (int i = 0; i < 9; "
                      "i++) { t += i * i; } print(t); return 0; }\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(repro.__file__)))
    proc = subprocess.run([sys.executable, "-c", _KILLED_SHARD, str(source)],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("repro: error: campaign shard 1 of 2 lost")
