"""The telemetry layer: spans, metrics, campaign logs, sinks, CLI."""

import json
import re

import pytest

from repro.eval.pipeline import build_binary

from repro.faults import FaultSite, run_campaign, run_with_fault
from repro.faults.campaign import CampaignResult
from repro.faults.outcomes import Outcome
from repro.obs import (
    CampaignLog,
    JsonlSink,
    detection_latency,
    read_jsonl,
    summarize_path,
    summarize_records,
    write_bench,
)
from repro.obs import metrics, spans
from repro.lang import compile_source
from repro.sim import Machine, RunStatus
from repro.sim.jit import compile_program
from repro.transform import Technique, allocate_program, protect
from repro.__main__ import main as cli_main


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Telemetry state is process-global; isolate every test."""
    spans.disable()
    spans.collector().clear()
    metrics.registry().reset()
    yield
    spans.disable()
    spans.collector().clear()
    metrics.registry().reset()


@pytest.fixture
def swiftr_binary(simple_program):
    return allocate_program(protect(simple_program, Technique.SWIFTR))


@pytest.fixture
def swift_binary(simple_program):
    return allocate_program(protect(simple_program, Technique.SWIFT))


# ------------------------------------------------------------------- metrics
def test_counter_and_gauge():
    registry = metrics.MetricsRegistry()
    counter = registry.counter("c")
    counter.inc()
    counter.inc(4)
    assert registry.counter("c").value == 5          # idempotent constructor
    gauge = registry.gauge("g")
    gauge.set(2.5)
    assert registry.gauge("g").value == 2.5


def test_histogram_buckets():
    histogram = metrics.Histogram("h", buckets=(1, 10, 100))
    for value in (0, 1, 5, 50, 5000):
        histogram.observe(value)
    # <=1: {0, 1}, <=10: {5}, <=100: {50}, overflow: {5000}
    assert histogram.counts == [2, 1, 1, 1]
    assert histogram.count == 5
    assert histogram.mean == pytest.approx(5056 / 5)
    with pytest.raises(ValueError):
        metrics.Histogram("bad", buckets=(10, 1))


def test_histogram_boundary_values_land_in_their_bucket():
    histogram = metrics.Histogram("h", buckets=(1, 10, 100))
    for edge in (1, 10, 100):            # "<= bucket" is inclusive
        histogram.observe(edge)
    assert histogram.counts == [1, 1, 1, 0]
    histogram.observe(101)               # first value past the top edge
    assert histogram.counts == [1, 1, 1, 1]


def test_histogram_above_top_bucket_overflows():
    histogram = metrics.Histogram("h", buckets=(1, 2))
    histogram.observe(10 ** 9)
    assert histogram.counts == [0, 0, 1]
    assert histogram.count == 1
    assert histogram.mean == 10 ** 9


def test_empty_histogram_summarizes_cleanly():
    histogram = metrics.Histogram("h", buckets=(1, 2))
    assert histogram.count == 0
    assert histogram.mean == 0.0
    record = histogram.to_dict()
    assert record["counts"] == [0, 0, 0]
    # An exported empty histogram renders without dividing by zero.
    summary = summarize_records([record])
    assert "metric" in summary


def test_registry_snapshot_and_reset():
    registry = metrics.MetricsRegistry()
    registry.counter("a").inc()
    registry.gauge("b").set(1.0)
    registry.histogram("c", buckets=(1, 2)).observe(1)
    snapshot = registry.snapshot()
    assert [record["type"] for record in snapshot] == \
        ["counter", "gauge", "histogram"]
    assert all(record["kind"] == "metric" for record in snapshot)
    registry.reset()
    assert registry.snapshot() == []


# --------------------------------------------------------------------- spans
def test_span_collection_gated_on_enable():
    with spans.span("off"):
        pass
    assert spans.collector().snapshot() == []
    spans.enable()
    with spans.span("on", tag="x") as sp:
        pass
    assert sp.elapsed >= 0.0
    collected = spans.collector().drain()
    assert [s.name for s in collected] == ["on"]
    assert collected[0].to_dict()["tag"] == "x"
    assert spans.collector().snapshot() == []


def test_span_nesting_records_parent():
    spans.enable()
    with spans.span("outer"):
        with spans.span("inner"):
            pass
    inner, outer = spans.collector().drain()
    assert (inner.name, inner.parent) == ("inner", "outer")
    assert outer.parent is None
    assert "parent" not in outer.to_dict()


def test_pipeline_emits_spans(simple_program):
    spans.enable()
    build_binary(simple_program, Technique.SWIFTR)
    collected = spans.collector().drain()
    names = {s.name for s in collected}
    assert {"protect", "regalloc", "verify"} <= names
    # Every build layer shows up in ``obs summarize``: each pass's output
    # is verified inside ``protect`` and ``regalloc``, and the binary is
    # verified once, strictly, inside ``regalloc``.
    verifies = [s for s in collected if s.name == "verify"]
    assert {s.parent for s in verifies} == {"protect", "regalloc"}
    assert all(s.attrs["functions"] == len(simple_program.functions)
               for s in verifies)
    summary = summarize_records([s.to_dict() for s in collected])
    assert re.search(r"^\s*verify\s+\d+", summary, re.M)


# ------------------------------------------------- campaign log + latencies
def test_campaign_log_matches_result(swiftr_binary):
    log = CampaignLog(context={"technique": "swiftr"})
    result = run_campaign(swiftr_binary, trials=80, seed=3, log=log)
    assert len(log) == 80
    assert log.outcome_counts() == \
        {o.value: n for o, n in result.counts.items()}
    records = log.to_dicts()
    assert all(r["kind"] == "trial" and r["technique"] == "swiftr"
               for r in records)
    recovered = [r for r in records if r["recovered"]]
    assert len(recovered) == result.recoveries
    # Every recovered run has a measured detection latency...
    assert all(r["detection_latency"] is not None for r in recovered)
    # ...and non-recovered, non-detected runs have none.
    silent = [r for r in records
              if not r["recovered"] and r["status"] != "detected"]
    assert all(r["detection_latency"] is None for r in silent)


def test_detection_latency_from_swift_checks(swift_binary):
    log = CampaignLog()
    result = run_campaign(swift_binary, trials=80, seed=3, log=log)
    detected = [r for r in log.to_dicts() if r["outcome"] == "DUE"]
    assert len(detected) == result.count(Outcome.DETECTED)
    assert detected, "SWIFT should detect some faults at 80 trials"
    for record in detected:
        assert record["status"] == "detected"
        assert record["detection_latency"] == \
            record["instructions"] - record["dynamic_index"]


def test_first_recovery_icount_is_exact(swiftr_binary):
    """Replaying a logged fault site reproduces its latency."""
    log = CampaignLog()
    run_campaign(swiftr_binary, trials=80, seed=3, log=log)
    recovered = [r for r in log.records if r.recovered]
    assert recovered
    machine = Machine(swiftr_binary)
    for record in recovered[:5]:
        site = FaultSite(dynamic_index=record.dynamic_index,
                         reg_index=record.reg_index, bit=record.bit)
        faulty = run_with_fault(machine, site)
        assert faulty.first_recovery_icount is not None
        assert faulty.first_recovery_icount > site.dynamic_index
        assert detection_latency(site, faulty) == record.detection_latency


def test_campaign_metrics_recorded(swiftr_binary):
    spans.enable()
    result = run_campaign(swiftr_binary, trials=40, seed=1,
                          log=CampaignLog())
    registry = metrics.registry()
    assert registry.counter("campaign.trials").value == 40
    assert registry.counter("campaign.recovered_runs").value == \
        result.recoveries
    assert registry.counter("campaign.fast_forwards").value == \
        result.fast_forwards > 0
    histogram = registry.histogram("campaign.detection_latency")
    assert histogram.count >= result.recoveries


# ------------------------------------------------------------ merged shards
def test_merged_shards_combine():
    a = CampaignResult(golden_instructions=100)
    b = CampaignResult(golden_instructions=100)
    a.record(Outcome.UNACE, recovered=True)
    b.record(Outcome.SDC, recovered=False)
    merged = a.merged(b)
    assert merged.trials == 2
    assert merged.recoveries == 1
    assert merged.golden_instructions == 100
    assert merged.count(Outcome.UNACE) == 1
    assert merged.count(Outcome.SDC) == 1


def test_merged_rejects_different_binaries():
    a = CampaignResult(golden_instructions=100)
    b = CampaignResult(golden_instructions=200)
    with pytest.raises(ValueError, match="different binaries"):
        a.merged(b)
    # A shard with no golden fingerprint adopts the other's.
    c = CampaignResult(golden_instructions=0)
    assert a.merged(c).golden_instructions == 100


# ------------------------------------------------------------------- sinks
def test_jsonl_round_trip(tmp_path, swiftr_binary):
    path = str(tmp_path / "t.jsonl")
    log = CampaignLog(context={"benchmark": "simple"})
    run_campaign(swiftr_binary, trials=30, seed=0, log=log)
    with JsonlSink(path) as sink:
        sink.write_many(log.to_dicts())
    records = read_jsonl(path)
    assert len(records) == 30
    assert records == log.to_dicts()


def test_jsonl_gzip_round_trip(tmp_path):
    path = str(tmp_path / "t.jsonl.gz")
    records = [{"kind": "trial", "trial": i} for i in range(500)]
    with JsonlSink(path) as sink:
        sink.write_many(records)
    assert sink.written == 500
    # The file really is gzip, and reads back transparently.
    with open(path, "rb") as handle:
        assert handle.read(2) == b"\x1f\x8b"
    assert read_jsonl(path) == records


def test_sink_flushes_on_exception(tmp_path):
    path = str(tmp_path / "t.jsonl")
    with pytest.raises(RuntimeError, match="mid-campaign"):
        with JsonlSink(path) as sink:
            sink.write({"kind": "trial", "trial": 0})
            sink.write({"kind": "trial", "trial": 1})
            raise RuntimeError("mid-campaign crash")
    # Both buffered records survived the unwind.
    assert [r["trial"] for r in read_jsonl(path)] == [0, 1]


def test_sink_buffers_until_threshold(tmp_path):
    import os

    path = str(tmp_path / "t.jsonl")
    sink = JsonlSink(path, buffer_size=10)
    for i in range(9):
        sink.write({"trial": i})
    assert not os.path.exists(path)       # nothing flushed yet
    sink.write({"trial": 9})              # tenth record crosses the line
    assert len(read_jsonl(path)) == 10
    sink.write({"trial": 10})
    sink.close()
    assert len(read_jsonl(path)) == 11


def test_write_bench_roundtrip(tmp_path):
    from repro.obs.sink import BENCH_SCHEMA_VERSION, environment_fingerprint

    path = str(tmp_path / "bench.jsonl")
    records = [{"kind": "fig9_cell", "benchmark": "crc32", "cycles": 7}]
    write_bench(path, "fig9_performance", records, seed=2006, trials=60)
    meta, *body = read_jsonl(path)
    assert meta["kind"] == "bench_meta"
    assert meta["schema_version"] == BENCH_SCHEMA_VERSION
    assert meta["bench"] == "fig9_performance"
    assert meta["seed"] == 2006
    assert meta["trials"] == 60
    assert set(meta["environment"]) == set(environment_fingerprint())
    assert body == records


def test_summarize_matches_campaign(tmp_path, swiftr_binary):
    path = str(tmp_path / "t.jsonl")
    log = CampaignLog()
    result = run_campaign(swiftr_binary, trials=60, seed=0, log=log)
    with JsonlSink(path) as sink:
        sink.write_many(log.to_dicts())
    summary = summarize_path(path)
    assert f"Campaign outcomes ({result.trials} trials" in summary
    assert f"recovery fired in {result.recoveries}" in summary
    for outcome, count in result.counts.items():
        assert outcome.value in summary
    if log.latencies():
        assert "Detection latency" in summary


def test_summarize_mixed_kinds():
    records = [
        {"kind": "trial", "benchmark": "a", "technique": "swiftr",
         "outcome": "unACE", "recovered": False, "detection_latency": None},
        {"kind": "trial", "benchmark": "b", "technique": "noft",
         "outcome": "SDC", "recovered": False, "detection_latency": None},
        {"kind": "span", "name": "protect", "duration": 0.25},
        {"kind": "timing", "benchmark": "a", "technique": "noft",
         "cycles": 10, "instructions": 20, "ipc": 2.0},
        {"kind": "metric", "type": "counter", "name": "x", "value": 1},
    ]
    summary = summarize_records(records)
    assert "Per-cell breakdown" in summary       # two distinct cells
    assert "Timing cells" in summary
    assert "Spans" in summary
    assert "Other records" in summary            # unknown kinds survive
    assert "metric" in summary
    assert summarize_records([]) == "(no telemetry records)"


def test_summarize_unknown_kinds_show_count_and_keys():
    records = [
        {"kind": "mystery", "alpha": 1, "beta": 2},
        {"kind": "mystery", "alpha": 3, "gamma": 4},
        {"kind": "metric", "type": "counter", "name": "x", "value": 1},
    ]
    summary = summarize_records(records)
    assert "Other records" in summary
    assert "sample keys" in summary
    mystery_row = next(line for line in summary.splitlines()
                       if line.startswith("mystery"))
    assert "2" in mystery_row
    # Union of keys across samples, minus the discriminator.
    for key in ("alpha", "beta", "gamma"):
        assert key in mystery_row
    metric_row = next(line for line in summary.splitlines()
                      if line.startswith("metric"))
    assert "name" in metric_row and "value" in metric_row


# --------------------------------------------------------------- harnesses
def test_evaluate_reliability_telemetry(tmp_path):
    from repro.eval import evaluate_reliability

    path = str(tmp_path / "fig8.jsonl")
    sink = JsonlSink(path)
    results = evaluate_reliability(
        benchmarks=["crc32"], trials=20, seed=1,
        techniques=[Technique.NOFT, Technique.SWIFTR], telemetry=sink)
    sink.close()
    records = read_jsonl(path)
    assert len(records) == 40
    swiftr = [r for r in records if r["technique"] == "swiftr"]
    assert len(swiftr) == 20
    assert all(r["benchmark"] == "crc32" for r in records)
    cell = results.cell("crc32", Technique.SWIFTR)
    recovered = sum(1 for r in swiftr if r["recovered"])
    assert recovered == cell.recoveries


def test_evaluate_performance_telemetry(tmp_path):
    from repro.eval import evaluate_performance

    path = str(tmp_path / "fig9.jsonl")
    sink = JsonlSink(path)
    results = evaluate_performance(
        benchmarks=["crc32"],
        techniques=[Technique.NOFT, Technique.SWIFTR], telemetry=sink)
    sink.close()
    records = read_jsonl(path)
    assert [r["kind"] for r in records] == ["timing", "timing"]
    by_tech = {r["technique"]: r for r in records}
    assert by_tech["noft"]["cycles"] == \
        results.cycles("crc32", Technique.NOFT)
    assert by_tech["swiftr"]["cycles"] > by_tech["noft"]["cycles"]


# --------------------------------------------------------------------- CLI
def test_cli_campaign_telemetry_and_summarize(tmp_path, capsys):
    source = tmp_path / "demo.c"
    source.write_text(
        "int main() { int t = 0; "
        "for (int i = 0; i < 9; i++) { t += i * i; } print(t); return 0; }"
    )
    path = str(tmp_path / "t.jsonl")
    assert cli_main(["campaign", str(source), "-t", "swiftr",
                     "--trials", "40", "--telemetry", path]) == 0
    out = capsys.readouterr()
    assert "unACE" in out.out
    assert path in out.err
    records = read_jsonl(path)
    trials = [r for r in records if r["kind"] == "trial"]
    assert len(trials) == 40
    kinds = {r["kind"] for r in records}
    assert "span" in kinds and "metric" in kinds
    # Each line is valid standalone JSON with a null-able latency field.
    with open(path) as handle:
        first = json.loads(handle.readline())
    assert "detection_latency" in first

    assert cli_main(["obs", "summarize", path]) == 0
    summary = capsys.readouterr().out
    assert "Campaign outcomes (40 trials" in summary
    assert "Spans" in summary


def test_cli_jit_campaign_spans_codegen_and_checkpoints(tmp_path, capsys):
    """A JIT campaign compiles once, under one ``jit.codegen`` span that
    carries the generated line count, and builds its checkpoints under
    ``faults.checkpoints``; ``obs summarize`` lists both."""
    text = ("int main() { int t = 0; "
            "for (int i = 0; i < 9; i++) { t += i * i; } print(t); "
            "return 0; }")
    source = tmp_path / "demo.c"
    source.write_text(text)
    path = str(tmp_path / "t.jsonl")
    assert cli_main(["campaign", str(source), "-t", "swiftr",
                     "--trials", "20", "--telemetry", path]) == 0
    capsys.readouterr()
    records = read_jsonl(path)
    codegen = [r for r in records
               if r["kind"] == "span" and r["name"] == "jit.codegen"]
    assert len(codegen) == 1
    binary = allocate_program(protect(compile_source(text),
                                      Technique.SWIFTR))
    sources = compile_program(Machine(binary)).sources
    assert codegen[0]["source_lines"] == sum(
        src.count("\n") for src in sources.values())
    assert codegen[0]["functions"] == len(sources)
    assert any(r["kind"] == "span" and r["name"] == "faults.checkpoints"
               for r in records)

    assert cli_main(["obs", "summarize", path]) == 0
    summary = capsys.readouterr().out
    assert re.search(r"^\s*jit\.codegen\s+1\s", summary, re.M)
    assert re.search(r"^\s*faults\.checkpoints\s+1\s", summary, re.M)


def test_cli_gzip_telemetry_round_trip(tmp_path, capsys):
    """Every obs subcommand accepts .jsonl.gz transparently."""
    source = tmp_path / "demo.c"
    source.write_text(
        "int main() { int t = 1; "
        "for (int i = 1; i < 8; i++) { t = t * i + 1; } print(t); "
        "return 0; }"
    )
    path = str(tmp_path / "t.jsonl.gz")
    assert cli_main(["campaign", str(source), "-t", "swiftr",
                     "--trials", "30", "--taint",
                     "--telemetry", path]) == 0
    capsys.readouterr()
    # Really gzip on disk, and the reader sees the same records.
    with open(path, "rb") as handle:
        assert handle.read(2) == b"\x1f\x8b"
    records = read_jsonl(path)
    assert sum(1 for r in records if r["kind"] == "trial") == 30

    assert cli_main(["obs", "summarize", path]) == 0
    summary = capsys.readouterr().out
    assert "Campaign outcomes (30 trials" in summary

    assert cli_main(["obs", "forensics", path]) == 0
    assert "mechanism" in capsys.readouterr().out

    trace_out = str(tmp_path / "t.trace.json")
    assert cli_main(["obs", "export-trace", path, "-o", trace_out]) == 0
    with open(trace_out) as handle:
        assert json.load(handle)["traceEvents"]


def test_cli_adaptive_campaign_telemetry(tmp_path, capsys):
    source = tmp_path / "demo.c"
    source.write_text(
        "int main() { int t = 0; "
        "for (int i = 0; i < 9; i++) { t += i * i; } print(t); "
        "return 0; }"
    )
    path = str(tmp_path / "t.jsonl")
    assert cli_main(["campaign", str(source), "-t", "swiftr",
                     "--adaptive", "--ci-width", "8",
                     "--telemetry", path]) == 0
    out = capsys.readouterr().out
    assert "estimate" in out and "half-width" in out
    records = read_jsonl(path)
    batches = [r for r in records if r["kind"] == "adaptive_batch"]
    assert batches
    assert batches[-1]["met"] is True
    trials = [r for r in records if r["kind"] == "trial"]
    assert len(trials) == batches[-1]["total_trials"]

    assert cli_main(["obs", "summarize", path]) == 0
    summary = capsys.readouterr().out
    assert "Adaptive batches" in summary


def test_cli_fig9_telemetry(tmp_path, capsys):
    path = str(tmp_path / "fig9.jsonl")
    assert cli_main(["fig9", "--benchmarks", "crc32",
                     "--telemetry", path]) == 0
    assert "Figure 9" in capsys.readouterr().out
    kinds = {r["kind"] for r in read_jsonl(path)}
    assert "timing" in kinds and "span" in kinds


# --------------------------------------------------- machine public surface
def test_machine_current_location_and_read_dest(simple_program):
    machine = Machine(simple_program)
    machine.reset()
    result = machine.run(3)
    assert result.status is RunStatus.PAUSED
    function, block, index = machine.current_location()
    assert function == "main"
    assert block == "entry"
    assert index == 3
    instr = machine.next_instruction()
    machine.run(4)
    value = machine.read_dest(instr, function)
    if instr.dest is not None:
        assert value is not None
    # Finished machines have no location.
    machine.run(None)
    assert machine.current_location() is None


def test_read_dest_signed_view(simple_program):
    machine = Machine(simple_program)
    machine.reset()
    machine.run(1)
    instr = machine.next_instruction()
    machine.run(2)
    if instr.dest is not None and not instr.dest.is_float:
        machine._current_function = "main"
        slot = machine.slot_of(instr.dest)
        machine.regs[slot] = (1 << 64) - 1       # two's-complement -1
        assert machine.read_dest(instr, "main") == -1
