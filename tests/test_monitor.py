"""Campaign monitoring: heartbeats, aggregation, obs top rendering."""

import io
import json

from repro.faults import run_campaign
from repro.obs.monitor import (
    CampaignMonitor,
    HeartbeatWriter,
    aggregate_shards,
    follow_path,
    read_heartbeats,
    render_top,
)
from repro.stats import AdaptiveConfig, run_adaptive_campaign


def test_heartbeat_roundtrip(tmp_path):
    path = str(tmp_path / "hb.jsonl")
    writer = HeartbeatWriter(path, role="shard", shard=3, total=40,
                             every=16)
    for done in range(1, 41):
        writer.tick(done)
    records = read_heartbeats(path)
    # First, every 16th after it, and the final one.
    assert [r["completed"] for r in records] == [1, 17, 33, 40]
    assert all(r["kind"] == "heartbeat" for r in records)
    assert all(r["role"] == "shard" for r in records)
    assert all(r["shard"] == 3 for r in records)
    assert records[-1]["total"] == 40
    assert "trials_per_sec" in records[-1]


def test_heartbeat_gzip_append_members(tmp_path):
    # Each append is its own gzip member; the reader sees one stream.
    path = str(tmp_path / "hb.jsonl.gz")
    writer = HeartbeatWriter(path, every=1)
    writer.emit(1)
    writer.emit(2)
    records = read_heartbeats(path)
    assert [r["completed"] for r in records] == [1, 2]


def test_read_heartbeats_tolerates_partial_line(tmp_path):
    path = tmp_path / "hb.jsonl"
    good = json.dumps({"kind": "heartbeat", "completed": 5})
    path.write_text(good + "\n" + '{"kind": "heartb')
    records = read_heartbeats(str(path))
    assert len(records) == 1
    assert records[0]["completed"] == 5
    assert read_heartbeats(str(tmp_path / "missing.jsonl")) == []


def test_aggregate_shards_and_stragglers():
    records = [
        {"kind": "heartbeat", "role": "shard", "shard": 0,
         "completed": 20, "total": 20, "trials_per_sec": 10.0},
        {"kind": "heartbeat", "role": "shard", "shard": 1,
         "completed": 18, "total": 20, "trials_per_sec": 9.0},
        {"kind": "heartbeat", "role": "shard", "shard": 2,
         "completed": 2, "total": 20, "trials_per_sec": 1.0},
    ]
    summary = aggregate_shards(records)
    assert summary["shards"] == 3
    assert summary["done_shards"] == 1
    assert summary["completed"] == 40
    assert summary["total"] == 60
    assert summary["stragglers"] == [2]
    # Later heartbeats supersede earlier ones for the same shard.
    records.append({"kind": "heartbeat", "role": "shard", "shard": 2,
                    "completed": 19, "total": 20, "trials_per_sec": 8.0})
    assert aggregate_shards(records)["stragglers"] == []


def test_stale_shards_flagged_dead():
    now = 1_000_000.0
    records = [
        {"kind": "heartbeat", "role": "shard", "shard": 0,
         "completed": 30, "total": 60, "trials_per_sec": 10.0,
         "ts": now - 5},
        {"kind": "heartbeat", "role": "shard", "shard": 1,
         "completed": 28, "total": 60, "trials_per_sec": 9.0,
         "ts": now - 300},
        {"kind": "heartbeat", "role": "shard", "shard": 2,
         "completed": 60, "total": 60, "trials_per_sec": 12.0,
         "ts": now - 300},
    ]
    summary = aggregate_shards(records, stale_after=60, now=now)
    # Shard 1 went silent mid-run; shard 2's last beat is naturally its
    # final one (finished shards are exempt).
    assert summary["stale"] == [1]
    assert summary["done_shards"] == 1
    # A dead worker's frozen rate no longer inflates the aggregate.
    assert summary["trials_per_sec"] == 22.0
    # Stale members are not additionally flagged as stragglers.
    assert 1 not in summary["stragglers"]
    report = render_top(records, stale_after=60, now=now)
    assert "1 member(s) DEAD: no beat in 60s" in report
    assert "DEAD" in report
    # Without the threshold nobody is stale.
    fresh = aggregate_shards(records, stale_after=None, now=now)
    assert fresh["stale"] == []
    assert "DEAD" not in render_top(records, now=now)


def test_stale_campaign_heartbeat_flagged_dead():
    now = 1_000_000.0
    records = [{"kind": "heartbeat", "role": "campaign", "completed": 40,
                "total": 60, "trials_per_sec": 8.0, "ts": now - 120}]
    report = render_top(records, stale_after=60, now=now)
    assert "(DEAD: no beat in 60s)" in report
    # A finished campaign is never dead, however old its last beat.
    records[0]["final"] = True
    assert "DEAD" not in render_top(records, stale_after=60, now=now)


def test_render_top_sections():
    records = [
        {"kind": "heartbeat", "role": "campaign", "completed": 60,
         "total": 60, "trials_per_sec": 12.5, "final": True},
        {"kind": "heartbeat", "role": "shard", "shard": 0,
         "completed": 30, "total": 30, "trials_per_sec": 6.0},
        {"kind": "heartbeat", "role": "adaptive", "batch": 0,
         "completed": 96, "total": 4000, "estimate": 0.99,
         "half_width": 0.02, "target": 0.06, "met": True},
        {"kind": "trial", "outcome": "unACE"},
        {"kind": "trial", "outcome": "SDC"},
    ]
    report = render_top(records)
    assert "campaign: 60/60 trials" in report
    assert "(finished)" in report
    assert "Shards: 1/1 done" in report
    assert "Adaptive convergence" in report
    assert "trial records so far: 2" in report
    assert render_top([]) == "(no heartbeat or trial records yet)"


def test_campaign_monitor_writes_and_renders(tmp_path):
    path = str(tmp_path / "hb.jsonl")
    stream = io.StringIO()
    monitor = CampaignMonitor(heartbeat_path=path, every=4,
                              progress=True, stream=stream)
    monitor.begin(total=12)
    for done in range(1, 13):
        monitor.trial_done(done)
    monitor.finish()
    records = read_heartbeats(path)
    assert records[-1]["final"] is True
    assert records[-1]["completed"] == 12
    text = stream.getvalue()
    assert "trials 12/12" in text
    assert text.endswith("\n")


def test_parallel_campaign_emits_shard_heartbeats(simple_program,
                                                 tmp_path):
    path = str(tmp_path / "hb.jsonl")
    monitor = CampaignMonitor(heartbeat_path=path, every=4)
    result = run_campaign(simple_program, trials=24, seed=13,
                          jobs=2, monitor=monitor)
    monitor.finish()
    assert result.trials == 24
    assert result.elapsed_seconds > 0
    assert result.trials_per_sec > 0
    records = read_heartbeats(path)
    roles = {r["role"] for r in records}
    assert "shard" in roles and "campaign" in roles
    shards = {r["shard"] for r in records if r["role"] == "shard"}
    assert shards == {0, 1}
    # Monitoring never perturbs results.
    bare = run_campaign(simple_program, trials=24, seed=13, jobs=2)
    assert result == bare


def test_adaptive_monitor_trajectory(simple_program, tmp_path):
    path = str(tmp_path / "hb.jsonl")
    monitor = CampaignMonitor(heartbeat_path=path, every=1)
    config = AdaptiveConfig(ci_width=0.08, max_trials=400)
    result = run_adaptive_campaign(simple_program, config=config, seed=5,
                                   monitor=monitor)
    records = [r for r in read_heartbeats(path) if r["role"] == "adaptive"]
    assert len(records) == len(result.batches)
    assert [r["batch"] for r in records] == list(range(len(records)))
    assert records[-1]["met"] == result.target_met
    assert result.result.elapsed_seconds > 0


def test_follow_path_once(tmp_path, capsys):
    path = str(tmp_path / "hb.jsonl")
    HeartbeatWriter(path, every=1).emit(3, 10)
    assert follow_path(path, interval=0.01, iterations=1) == 0
    out = capsys.readouterr().out
    assert "obs top @" in out
    assert follow_path(str(tmp_path / "nope.jsonl"), interval=0.01,
                       iterations=1) == 0
