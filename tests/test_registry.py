"""The campaign ledger: content-addressed run registry, diff, history."""

import gzip
import json
import os

import pytest

from repro.faults import run_campaign
from repro.obs import (
    CampaignLog,
    JsonlSink,
    RegistryError,
    RunRegistry,
    TelemetryError,
    load_telemetry,
    store_campaign,
    store_timing,
)
from repro.obs.registry import (
    build_manifest,
    canonical_json,
    diff_tables,
    history_tables,
    manifest_run_id,
    program_sha256,
    runs_tables,
)
from repro.obs.emit import emit_tables
from repro.transform import Technique, allocate_program, protect
from repro.__main__ import main as cli_main


@pytest.fixture
def swift_binary(simple_program):
    return allocate_program(protect(simple_program, Technique.SWIFT))


@pytest.fixture
def swiftr_binary(simple_program):
    return allocate_program(protect(simple_program, Technique.SWIFTR))


def _campaign_run(binary, trials=60, seed=5, jobs=1, technique="swiftr"):
    log = CampaignLog(context={"technique": technique, "seed": seed})
    if jobs == 1:
        result = run_campaign(binary, trials=trials, seed=seed, log=log)
    else:
        result = run_campaign(binary, trials=trials, seed=seed,
                              jobs=jobs, log=log)
    return result, log


def _store(registry, binary, technique="swiftr", seed=5, trials=60,
           jobs=1, tag=""):
    result, log = _campaign_run(binary, trials=trials, seed=seed,
                                jobs=jobs, technique=technique)
    return store_campaign(registry, workload={"source": "simple.c"},
                          technique=technique, seed=seed, result=result,
                          log=log, program=binary, tag=tag)


# ------------------------------------------------------------- run identity
def test_run_id_is_canonical_hash_of_manifest():
    manifest = {"b": 2, "a": {"y": 1, "x": [3, 1]}}
    shuffled = {"a": {"x": [3, 1], "y": 1}, "b": 2}
    assert manifest_run_id(manifest) == manifest_run_id(shuffled)
    assert len(manifest_run_id(manifest)) == 16
    # Canonical JSON has no whitespace and sorted keys.
    assert canonical_json(manifest) == '{"a":{"x":[3,1],"y":1},"b":2}'


def test_manifest_carries_identity_axes(swift_binary):
    manifest = build_manifest(
        workload={"source": "x.c"}, technique="swift",
        config={"seed": 1, "trials": 10},
        code_sha256=program_sha256(swift_binary),
        results={"trials": 10, "outcomes": {"unACE": 10}})
    assert manifest["kind"] == "run_manifest"
    assert manifest["technique"] == "swift"
    assert manifest["environment"]["version"]
    # The code hash tracks the printed binary, so protection changes it.
    assert program_sha256(swift_binary) != "0" * 64


# --------------------------------------------------------- store and resolve
def test_store_resolve_and_cache_hit(tmp_path, swiftr_binary):
    registry = RunRegistry(str(tmp_path / "runs"))
    stored = _store(registry, swiftr_binary, tag="base")
    assert stored.created
    assert os.path.isfile(os.path.join(stored.path, "manifest.json"))
    assert os.path.isfile(os.path.join(stored.path, "trials.jsonl.gz"))

    # Same campaign again: content-addressed cache hit, new tag sticks.
    again = _store(registry, swiftr_binary, tag="rerun")
    assert not again.created
    assert again.run_id == stored.run_id
    entry = registry.entries()[0]
    assert entry["tags"] == ["base", "rerun"]

    assert registry.resolve("base") == stored.run_id
    assert registry.resolve(stored.run_id[:6]) == stored.run_id
    with pytest.raises(RegistryError):
        registry.resolve("no-such-run")


def test_resolve_rejects_ambiguous_prefix(tmp_path, swift_binary,
                                          swiftr_binary):
    registry = RunRegistry(str(tmp_path / "runs"))
    a = _store(registry, swift_binary, technique="swift")
    b = _store(registry, swiftr_binary, technique="swiftr")
    common = os.path.commonprefix([a.run_id, b.run_id])
    with pytest.raises(RegistryError):
        registry.resolve(common)


def test_gc_keeps_tagged_runs_and_reaps_staging(tmp_path, swift_binary,
                                                swiftr_binary):
    registry = RunRegistry(str(tmp_path / "runs"))
    kept = _store(registry, swift_binary, technique="swift", tag="keep")
    doomed = _store(registry, swiftr_binary, technique="swiftr")
    litter = tmp_path / "runs" / ".staging-999-123"
    litter.mkdir()
    removed = registry.gc()
    assert doomed.run_id in removed
    assert not os.path.isdir(doomed.path)
    assert os.path.isdir(kept.path)
    assert not litter.exists()
    assert [e["run"] for e in registry.entries()] == [kept.run_id]


# ------------------------------------------------------------ jobs invariance
def test_manifest_and_artifacts_identical_across_jobs(tmp_path,
                                                      swiftr_binary):
    """The acceptance bar: --jobs must not leak into the ledger."""
    reg1 = RunRegistry(str(tmp_path / "serial"))
    reg4 = RunRegistry(str(tmp_path / "sharded"))
    one = _store(reg1, swiftr_binary, jobs=1)
    four = _store(reg4, swiftr_binary, jobs=4)
    assert one.run_id == four.run_id
    with open(os.path.join(one.path, "manifest.json"), "rb") as f_a, \
            open(os.path.join(four.path, "manifest.json"), "rb") as f_b:
        assert f_a.read() == f_b.read()
    for name, entry in one.manifest["artifacts"].items():
        other = four.manifest["artifacts"][name]
        assert entry["sha256"] == other["sha256"], name
        # And the files on disk really are byte-identical (gzip included).
        path_a = os.path.join(one.path, entry["file"])
        path_b = os.path.join(four.path, other["file"])
        with open(path_a, "rb") as f_a, open(path_b, "rb") as f_b:
            assert f_a.read() == f_b.read(), name


def test_timing_manifest_ignores_wall_clock(tmp_path, swift_binary):
    registry = RunRegistry(str(tmp_path / "runs"))
    record = {"kind": "timing", "benchmark": "b", "technique": "swift",
              "cycles": 1234, "instructions": 1000, "ipc": 0.81,
              "loads": 10, "load_misses": 1, "elapsed": 0.5}
    slow = dict(record, elapsed=99.9)
    first = store_timing(registry, workload={"benchmark": "b"},
                         technique="swift", program=swift_binary,
                         record=record)
    second = store_timing(registry, workload={"benchmark": "b"},
                          technique="swift", program=swift_binary,
                          record=slow)
    assert first.created and not second.created
    assert first.run_id == second.run_id


# ----------------------------------------------------------------- diffing
def test_self_diff_reports_nothing(tmp_path, swiftr_binary):
    registry = RunRegistry(str(tmp_path / "runs"))
    stored = _store(registry, swiftr_binary, tag="base")
    tables = diff_tables(registry, "base", stored.run_id[:8])
    text = emit_tables(tables, "text")
    assert "identical identity axes" in text
    assert "verdict: no significant outcome deltas; no atlas drift" \
        in text


def test_technique_diff_finds_deltas_and_drift(tmp_path, swift_binary,
                                               swiftr_binary):
    registry = RunRegistry(str(tmp_path / "runs"))
    _store(registry, swift_binary, technique="swift", tag="a")
    _store(registry, swiftr_binary, technique="swiftr", tag="b")
    tables = diff_tables(registry, "a", "b")
    text = emit_tables(tables, "text")
    assert "varied axis: technique" in text
    assert "two-proportion score test" in text
    # SWIFT detects (DUE), SWIFT-R repairs: the drift table must anchor
    # at least one changed site to a real instruction.
    drift = next(t for t in tables if t.title.startswith("Atlas drift"))
    assert drift.rows, "expected at least one atlas drift site"
    assert "->" in drift.rows[0][2]


def test_diff_refuses_multi_axis_unless_forced(tmp_path, swift_binary,
                                               swiftr_binary):
    registry = RunRegistry(str(tmp_path / "runs"))
    _store(registry, swift_binary, technique="swift", seed=1, tag="a")
    _store(registry, swiftr_binary, technique="swiftr", seed=2, tag="b")
    with pytest.raises(RegistryError, match="more than one axis"):
        diff_tables(registry, "a", "b")
    tables = diff_tables(registry, "a", "b", force=True)
    assert any("technique" in note for t in tables
               for note in t.notes)


# ----------------------------------------------------------------- history
def test_history_tracks_metric_and_flags_regressions(tmp_path,
                                                     swift_binary,
                                                     swiftr_binary):
    registry = RunRegistry(str(tmp_path / "runs"))
    _store(registry, swiftr_binary, technique="swiftr")
    _store(registry, swift_binary, technique="swift")
    tables = history_tables(registry, metric="unace")
    assert len(tables) == 1
    assert len(tables[0].rows) == 2
    assert "higher is better" in tables[0].title
    # Filtering by technique narrows the trajectory.
    only = history_tables(registry, metric="unace", technique="swift")
    assert len(only[0].rows) == 1
    with pytest.raises(RegistryError, match="unknown history metric"):
        history_tables(registry, metric="bogus")


def test_runs_tables_filter_and_flag_missing(tmp_path, swift_binary):
    registry = RunRegistry(str(tmp_path / "runs"))
    stored = _store(registry, swift_binary, technique="swift",
                    tag="only")
    tables = runs_tables(registry, tag="only")
    assert tables and tables[0].rows[0][0] == stored.run_id[:12]
    assert runs_tables(registry, tag="absent") == []
    # A run whose directory vanished is listed but flagged.
    import shutil
    shutil.rmtree(stored.path)
    tables = runs_tables(registry)
    assert tables[0].rows[0][-1] == "MISSING"


# ----------------------------------------------- satellite: atomic JsonlSink
def test_atomic_sink_renames_only_on_close(tmp_path):
    path = str(tmp_path / "out.jsonl")
    sink = JsonlSink(path, atomic=True)
    sink.open()
    sink.write({"a": 1})
    assert not os.path.exists(path)          # still staged
    sink.close()
    assert os.path.exists(path)
    assert not [n for n in os.listdir(tmp_path) if ".tmp." in n]
    assert load_telemetry(path) == [{"a": 1}]


def test_atomic_sink_aborts_on_exception(tmp_path):
    path = str(tmp_path / "out.jsonl")
    with pytest.raises(RuntimeError):
        with JsonlSink(path, atomic=True) as sink:
            sink.write({"a": 1})
            raise RuntimeError("campaign died")
    # The target is never published; the flushed temp file survives
    # for post-mortems (registry staging dirs reap it wholesale).
    assert not os.path.exists(path)
    temp = [n for n in os.listdir(tmp_path) if ".tmp." in n]
    assert len(temp) == 1
    with open(tmp_path / temp[0]) as handle:
        assert json.loads(handle.read()) == {"a": 1}


def test_atomic_gzip_sink_is_deterministic(tmp_path):
    paths = []
    for name in ("a.jsonl.gz", "b.jsonl.gz"):
        path = str(tmp_path / name)
        with JsonlSink(path, atomic=True) as sink:
            sink.write_many([{"i": i} for i in range(50)])
        paths.append(path)
    with open(paths[0], "rb") as f_a, open(paths[1], "rb") as f_b:
        assert f_a.read() == f_b.read()      # no mtime, no filename


# ------------------------------------------- satellite: hardened telemetry IO
def test_load_telemetry_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(TelemetryError, match="no telemetry records"):
        load_telemetry(str(path))


def test_load_telemetry_names_the_corrupt_line(tmp_path):
    path = tmp_path / "cut.jsonl"
    path.write_text('{"kind": "trial"}\n{"kind": "tri')
    with pytest.raises(TelemetryError, match=r"cut\.jsonl:2"):
        load_telemetry(str(path))


def test_load_telemetry_rejects_truncated_gzip(tmp_path):
    path = tmp_path / "cut.jsonl.gz"
    blob = gzip.compress(b'{"kind": "trial"}\n' * 20)
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TelemetryError):
        load_telemetry(str(path))


def test_load_telemetry_missing_file(tmp_path):
    with pytest.raises(TelemetryError, match="cannot read"):
        load_telemetry(str(tmp_path / "nope.jsonl"))


# ----------------------------------------------------------------- CLI paths
def _write_demo(tmp_path):
    source = tmp_path / "demo.c"
    source.write_text(
        "int main() { int t = 0; "
        "for (int i = 0; i < 9; i++) { t += i * i; } print(t); "
        "return 0; }"
    )
    return str(source)


def test_cli_store_runs_diff_history(tmp_path, capsys):
    source = _write_demo(tmp_path)
    runs = str(tmp_path / "runs")
    base = ["--trials", "40", "--seed", "3", "--runs-dir", runs]
    assert cli_main(["campaign", source, "-t", "swift", "--store",
                     "--tag", "a", *base]) == 0
    assert cli_main(["campaign", source, "-t", "swiftr", "--store",
                     "--tag", "b", *base]) == 0
    out = capsys.readouterr().out
    assert "ledger    : stored run" in out

    assert cli_main(["obs", "runs", "--runs-dir", runs]) == 0
    listing = capsys.readouterr().out
    assert "2 run(s)" in listing and "swiftr" in listing

    assert cli_main(["obs", "diff", "a", "b", "--runs-dir", runs]) == 0
    diff = capsys.readouterr().out
    assert "varied axis: technique" in diff
    assert "p" in diff and "Atlas drift" in diff

    assert cli_main(["obs", "diff", "a", "a", "--runs-dir", runs]) == 0
    self_diff = capsys.readouterr().out
    assert "no significant outcome deltas; no atlas drift" in self_diff

    assert cli_main(["obs", "history", "--runs-dir", runs]) == 0
    history = capsys.readouterr().out
    assert "History: unace%" in history

    # JSON mode emits one parseable document per surface.
    assert cli_main(["obs", "runs", "--runs-dir", runs,
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "runs" and doc["tables"]


def test_cli_diff_bad_ref_exits_2(tmp_path, capsys):
    runs = str(tmp_path / "runs")
    assert cli_main(["obs", "diff", "x", "y", "--runs-dir", runs]) == 2
    assert "no stored run matches" in capsys.readouterr().err


def test_cli_summarize_empty_file_exits_1(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert cli_main(["obs", "summarize", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_forensics_json_format(tmp_path, capsys):
    source = _write_demo(tmp_path)
    path = str(tmp_path / "t.jsonl")
    assert cli_main(["campaign", source, "-t", "swiftr", "--trials",
                     "30", "--taint", "--telemetry", path]) == 0
    capsys.readouterr()
    assert cli_main(["obs", "forensics", path,
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "forensics"
    assert any("trials" in t["title"] for t in doc["tables"])


def test_cli_top_once_json_format(tmp_path, capsys):
    source = _write_demo(tmp_path)
    beat = str(tmp_path / "beat.jsonl")
    assert cli_main(["campaign", source, "-t", "swiftr", "--trials",
                     "30", "--heartbeat", beat]) == 0
    capsys.readouterr()
    assert cli_main(["obs", "top", beat, "--once",
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "top" and doc["tables"]


# ------------------------------------------------------------ staging litter
def test_obs_runs_lists_staging_litter(tmp_path, swiftr_binary, capsys):
    """A crashed store leaves a .staging-* dir; ``obs runs`` must list
    it under a STAGING flag instead of erroring, and --gc reclaims it
    while keeping the tagged run."""
    runs = str(tmp_path / "runs")
    registry = RunRegistry(runs)
    stored = _store(registry, swiftr_binary, tag="keep")
    litter = tmp_path / "runs" / ".staging-4242-1700000000000000"
    litter.mkdir()
    (litter / "trials.jsonl.gz").write_bytes(b"\x1f\x8b\x08partial")
    assert registry.staging_dirs() == [litter.name]

    assert cli_main(["obs", "runs", "--runs-dir", runs]) == 0
    out = capsys.readouterr().out
    assert "STAGING" in out and litter.name in out
    assert "--gc" in out                       # reclaim hint
    assert stored.run_id[:12] in out           # real runs still listed

    assert cli_main(["obs", "runs", "--runs-dir", runs, "--gc"]) == 0
    out = capsys.readouterr().out
    assert not litter.exists()
    assert "STAGING" not in out
    assert stored.run_id[:12] in out           # tagged run survives gc


def test_obs_runs_staging_only_ledger(tmp_path, capsys):
    """Litter with no stored runs at all still renders (exit 0)."""
    runs = str(tmp_path / "runs")
    litter = tmp_path / "runs" / ".staging-7-7"
    litter.mkdir(parents=True)
    assert cli_main(["obs", "runs", "--runs-dir", runs]) == 0
    out = capsys.readouterr().out
    assert "STAGING" in out and "0 run(s)" in out
