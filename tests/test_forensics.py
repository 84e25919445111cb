"""Escape forensics and Chrome trace export."""

import json

import pytest

from repro.faults import run_campaign
from repro.lang import compile_source
from repro.obs import (
    CampaignLog,
    JsonlSink,
    MECHANISMS,
    analyze_log,
    analyze_records,
    chrome_trace,
    classify_trial,
    export_trace_path,
    forensics_path,
    load_telemetry,
    render_report,
)
from repro.obs import spans
from repro.transform import Technique, allocate_program, protect
from repro.__main__ import main as cli_main

#: A second workload (beyond the conftest IR program): array init plus
#: a reduction, so faults can escape through stores and output alike.
SECOND_WORKLOAD = """
int main() {
  int data[8];
  int total = 0;
  for (int i = 0; i < 8; i++) { data[i] = i * 3 + 1; }
  for (int i = 0; i < 8; i++) { total += data[i]; }
  print(total);
  return 0;
}
"""


@pytest.fixture(autouse=True)
def clean_obs_state():
    spans.disable()
    spans.collector().clear()
    yield
    spans.disable()
    spans.collector().clear()


def _trial(outcome, landed=True, trial=0):
    return {"kind": "trial", "trial": trial, "outcome": outcome,
            "fault_landed": landed}


def _summary(counts=None, **firsts):
    record = {"kind": "taint_summary", "counts": counts or {},
              "first_escape": None, "first_control": None,
              "first_wild": None, "first_repair": None}
    record.update(firsts)
    return record


# --------------------------------------------------------- classification
def test_classify_structural_cases():
    assert classify_trial(_trial("unACE", landed=False),
                          None)["mechanism"] == "never-landed"
    assert classify_trial(_trial("SDC"), None)["mechanism"] == "no-taint-data"
    assert classify_trial(_trial("DUE"),
                          _summary())["mechanism"] == "detected-by-check"


def test_classify_sdc_picks_earliest_event():
    stored = {"event": "stored", "icount": 50, "instr": "store"}
    branched = {"event": "branched", "icount": 20, "instr": "blt"}
    out = classify_trial(_trial("SDC"),
                         _summary(first_escape=stored,
                                  first_control=branched))
    assert out["mechanism"] == "control-divergence"   # 20 < 50
    assert out["event"] is branched
    out = classify_trial(_trial("SDC"), _summary(first_escape=stored))
    assert out["mechanism"] == "escaped-via-store"
    printed = {"event": "escaped-to-output", "icount": 9, "instr": "print"}
    out = classify_trial(_trial("SDC"), _summary(first_escape=printed))
    assert out["mechanism"] == "escaped-via-output"
    assert classify_trial(_trial("SDC"),
                          _summary())["mechanism"] == "unattributed"


def test_classify_segv_and_hang():
    wild = {"event": "wild-address", "icount": 5}
    assert classify_trial(_trial("SEGV"), _summary(first_wild=wild)
                          )["mechanism"] == "wild-address-trap"
    branched = {"event": "branched", "icount": 3}
    assert classify_trial(_trial("SEGV"), _summary(first_control=branched)
                          )["mechanism"] == "control-divergence"
    assert classify_trial(_trial("SEGV"),
                          _summary())["mechanism"] == "trapped"
    assert classify_trial(_trial("Hang"), _summary(first_control=branched)
                          )["mechanism"] == "control-divergence"
    assert classify_trial(_trial("Hang"), _summary())["mechanism"] == "hung"


def test_classify_unace_mechanisms():
    vote = {"event": "voted-out", "icount": 8}
    assert classify_trial(_trial("unACE"), _summary(first_repair=vote)
                          )["mechanism"] == "repaired-by-vote"
    repair = {"event": "repaired", "icount": 8}
    assert classify_trial(_trial("unACE"), _summary(first_repair=repair)
                          )["mechanism"] == "detected-by-ancheck"
    assert classify_trial(_trial("unACE"), _summary({"masked": 2})
                          )["mechanism"] == "squashed-by-mask"
    assert classify_trial(_trial("unACE"), _summary({"overwritten": 1})
                          )["mechanism"] == "dead-value-overwritten"
    assert classify_trial(_trial("unACE"), _summary({"created": 1})
                          )["mechanism"] == "dead-value-unread"
    assert classify_trial(_trial("unACE"), _summary({"propagated": 3})
                          )["mechanism"] == "benign-residual-taint"


# ----------------------------------------------------- campaign attribution
@pytest.mark.parametrize("technique", [Technique.SWIFTR, Technique.TRUMP])
def test_full_attribution_two_workloads(simple_program, technique):
    """Every landed trial gets a mechanism; every SDC names its escape
    instruction -- on both workloads, for both recovery techniques."""
    second = compile_source(SECOND_WORKLOAD)
    for name, program in (("simple", simple_program),
                          ("reduce", second)):
        binary = allocate_program(protect(program, technique))
        log = CampaignLog(context={"benchmark": name,
                                   "technique": technique.value})
        run_campaign(binary, trials=80, seed=2006, log=log, taint=True)
        report = analyze_log(log)
        attributions = report.attributions
        assert len(attributions) == 80
        for attribution in attributions:
            assert attribution["mechanism"] in MECHANISMS
            if attribution["mechanism"] != "never-landed":
                assert attribution["mechanism"] not in (
                    "unattributed", "no-taint-data"), attribution
            if attribution["outcome"] == "SDC":
                assert attribution["event"] is not None, attribution
                assert attribution["event"].get("instr"), attribution


def test_recovery_techniques_show_their_mechanism(simple_program):
    second = compile_source(SECOND_WORKLOAD)
    swiftr = allocate_program(protect(second, Technique.SWIFTR))
    log = CampaignLog(context={"technique": "swiftr"})
    run_campaign(swiftr, trials=120, seed=0, log=log, taint=True)
    counts = analyze_log(log).mechanism_counts()
    assert counts.get("repaired-by-vote", 0) >= 1
    trump = allocate_program(protect(simple_program, Technique.TRUMP))
    log = CampaignLog(context={"technique": "trump"})
    run_campaign(trump, trials=120, seed=7, log=log, taint=True)
    counts = analyze_log(log).mechanism_counts()
    assert counts.get("detected-by-ancheck", 0) >= 1


def test_groups_keep_cells_apart(simple_program):
    second = compile_source(SECOND_WORKLOAD)
    records = []
    for name, program in (("a", simple_program), ("b", second)):
        binary = allocate_program(protect(program, Technique.SWIFTR))
        log = CampaignLog(context={"benchmark": name,
                                   "technique": "swiftr"})
        run_campaign(binary, trials=30, seed=1, log=log, taint=True)
        records += log.to_dicts() + log.taint_dicts()
    report = analyze_records(records)
    assert sorted(report.groups) == ["a/swiftr", "b/swiftr"]
    assert all(len(members) == 30 for members in report.groups.values())
    rendered = render_report(report)
    assert "a/swiftr: 30 trials" in rendered
    assert "b/swiftr: 30 trials" in rendered


def test_render_report_names_escapes(simple_program):
    second = compile_source(SECOND_WORKLOAD)
    binary = allocate_program(second)       # unprotected: failures exist
    log = CampaignLog(context={"technique": "noft"})
    run_campaign(binary, trials=120, seed=4, log=log, taint=True)
    report = analyze_log(log)
    assert report.escapes(), "NOFT at 120 trials should fail sometimes"
    rendered = render_report(report)
    assert "failure forensics" in rendered
    assert "mechanism" in rendered
    assert render_report(analyze_records([])) == "(no trial records)"


# ------------------------------------------------- extension fault models
def test_extension_sites_share_trial_schema(simple_program):
    """Wild-jump and opcode sites have no register/bit coordinates;
    record_trial normalizes them to -1 so one schema covers all."""
    from repro.faults.controlflow_faults import WildJumpSite
    from repro.faults.injector import (fault_landed, golden_run,
                                       run_with_fault)
    from repro.faults.opcode_faults import OpcodeFaultSite
    from repro.faults.outcomes import classify
    from repro.sim import Machine

    binary = allocate_program(simple_program)
    machine = Machine(binary)
    golden = golden_run(machine)

    log = CampaignLog(context={"technique": "noft"})
    wild_site = WildJumpSite(dynamic_index=5, target_seed=99)
    opcode_site = OpcodeFaultSite(dynamic_index=7, bit=3)
    # A site past the end of the golden run never lands.
    late_site = WildJumpSite(dynamic_index=golden.instructions + 10,
                             target_seed=0)
    for trial, site in enumerate((wild_site, opcode_site, late_site)):
        faulty = run_with_fault(machine, site)
        log.record_trial(trial, site, classify(golden, faulty), faulty,
                         fault_landed(site, faulty))

    records = log.to_dicts()
    wild, opcode, late = records
    assert wild["reg_index"] == -1 and wild["bit"] == -1
    assert opcode["reg_index"] == -1 and opcode["bit"] == 3
    assert wild["fault_landed"] and opcode["fault_landed"]
    assert not late["fault_landed"]

    # Forensics classifies the extension kinds with the same taxonomy:
    # structural mechanisms without taint data, never-landed past-end.
    report = analyze_records(records)
    attributions = report.attributions
    assert len(attributions) == 3
    assert all(a["mechanism"] in MECHANISMS for a in attributions)
    by_trial = {a["trial"]: a for a in attributions}
    assert by_trial[2]["mechanism"] == "never-landed"
    for trial in (0, 1):
        assert by_trial[trial]["mechanism"] in (
            "no-taint-data",            # landed, failed or silent
            "detected-by-check",        # DUE needs no taint events
            "never-landed",
        ) or by_trial[trial]["outcome"] == "unACE"


def test_extension_campaigns_full_attribution(simple_program):
    """Whole extension campaigns re-logged trial by trial classify
    cleanly: every record gets a mechanism, DUEs are attributed even
    without taint, and outcome counts match the campaign's own."""
    from repro.faults.controlflow_faults import WildJumpSite
    from repro.faults.injector import (fault_landed, golden_run,
                                       run_with_fault)
    from repro.faults.outcomes import classify
    from repro.sim import Machine

    import random

    binary = allocate_program(protect(simple_program, Technique.SWIFTR))
    machine = Machine(binary)
    golden = golden_run(machine)
    log = CampaignLog(context={"technique": "swiftr",
                               "benchmark": "wild-jump"})
    rng = random.Random(17)
    outcomes = {}
    for trial in range(40):
        site = WildJumpSite(dynamic_index=rng.randrange(golden.instructions),
                            target_seed=rng.getrandbits(32))
        faulty = run_with_fault(machine, site)
        outcome = classify(golden, faulty)
        outcomes[outcome.value] = outcomes.get(outcome.value, 0) + 1
        log.record_trial(trial, site, outcome, faulty,
                         fault_landed(site, faulty))

    report = analyze_records(log.to_dicts())
    assert list(report.groups) == ["wild-jump/swiftr"]
    counted = {}
    for attribution in report.attributions:
        assert attribution["mechanism"] in MECHANISMS
        counted[attribution["outcome"]] = \
            counted.get(attribution["outcome"], 0) + 1
        if attribution["outcome"] == "DUE":
            assert attribution["mechanism"] == "detected-by-check"
    assert counted == outcomes
    assert "mechanism" in render_report(report)


# ------------------------------------------------------------ trace export
def _taint_records(simple_program):
    binary = allocate_program(protect(simple_program, Technique.SWIFTR))
    log = CampaignLog(context={"technique": "swiftr"})
    spans.enable()
    with spans.span("campaign.test"):
        run_campaign(binary, trials=30, seed=2, log=log, taint=True)
    span_dicts = [s.to_dict() for s in spans.collector().drain()]
    return log.to_dicts() + log.taint_dicts() + span_dicts


def test_chrome_trace_is_structurally_valid(simple_program):
    records = _taint_records(simple_program)
    trace = chrome_trace(records)
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    events = trace["traceEvents"]
    assert isinstance(events, list) and events
    phases = {"X": 0, "i": 0, "M": 0}
    for event in events:
        assert event["ph"] in phases
        phases[event["ph"]] += 1
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert isinstance(event["ts"], (int, float))
        assert "name" in event
        if event["ph"] == "X":
            assert event["dur"] >= 0
        if event["ph"] == "i":
            assert event["s"] == "t"
        assert json.loads(json.dumps(event)) == event
    assert phases["M"] == 2              # both process rows are named
    assert phases["X"] >= 30             # one duration event per trial
    assert phases["i"] >= 1              # taint instants present


def test_export_trace_path_round_trips(tmp_path, simple_program):
    records = _taint_records(simple_program)
    src = str(tmp_path / "t.jsonl")
    with JsonlSink(src) as sink:
        sink.write_many(records)
    out = str(tmp_path / "t.trace.json")
    count = export_trace_path(src, out)
    with open(out) as handle:
        doc = json.load(handle)
    assert len(doc["traceEvents"]) == count
    names = {e["name"] for e in doc["traceEvents"]}
    assert "campaign.test" in names      # wall-clock span made it over


# -------------------------------------------------------------------- CLI
def test_cli_forensics_and_export_trace(tmp_path, capsys):
    source = tmp_path / "demo.c"
    source.write_text(SECOND_WORKLOAD)
    path = str(tmp_path / "t.jsonl")
    assert cli_main(["campaign", str(source), "-t", "swiftr",
                     "--trials", "60", "--taint",
                     "--telemetry", path]) == 0
    out = capsys.readouterr().out
    assert "mechanism" in out            # forensics printed inline
    records = load_telemetry(path)
    kinds = {r["kind"] for r in records}
    assert "taint" in kinds and "taint_summary" in kinds

    assert cli_main(["obs", "forensics", path]) == 0
    rendered = capsys.readouterr().out
    assert "trials" in rendered and "mechanism" in rendered

    trace_out = str(tmp_path / "t.trace.json")
    assert cli_main(["obs", "export-trace", path, "-o", trace_out]) == 0
    with open(trace_out) as handle:
        doc = json.load(handle)
    assert doc["traceEvents"]


def test_cli_taint_without_telemetry(tmp_path, capsys):
    source = tmp_path / "demo.c"
    source.write_text(SECOND_WORKLOAD)
    assert cli_main(["campaign", str(source), "-t", "trump",
                     "--trials", "40", "--taint"]) == 0
    out = capsys.readouterr().out
    assert "mechanism" in out
