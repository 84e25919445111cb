"""Program-anchored reliability atlas: anchoring, weighting, merging."""

import json

import pytest

from repro.faults import run_campaign
from repro.obs import CampaignLog
from repro.obs.atlas import (
    ATLAS_SCHEMA_VERSION,
    Atlas,
    AtlasAccumulator,
    NEVER_LANDED_LOC,
    UNMAPPED_LOC,
    atlas_from_records,
    collect_site_locations,
)
from repro.sim import Machine
from repro.transform import Technique, allocate_program, protect

TRIALS = 40
SEED = 11


@pytest.fixture
def binary(simple_program):
    return allocate_program(protect(simple_program, Technique.SWIFTR))


def _build_atlas(binary, trials=TRIALS, seed=SEED, taint=False):
    acc = AtlasAccumulator()
    log = CampaignLog()
    result = run_campaign(binary, trials=trials, seed=seed, log=log,
                          taint=taint, atlas=acc)
    return acc, log, result


def test_counts_match_campaign_result(binary):
    acc, log, result = _build_atlas(binary)
    assert acc.trials == result.trials == TRIALS
    assert acc.never_landed == result.never_landed
    assert acc.golden_instructions == result.golden_instructions
    # Every trial lands in exactly one (loc, stratum, outcome) cell.
    total = sum(n for strata in acc.counts.values()
                for outcomes in strata.values()
                for n in outcomes.values())
    assert total == TRIALS
    atlas = Atlas.from_accumulator(acc)
    folded = {}
    for row in atlas.site_rows():
        for outcome, n in row["counts"].items():
            folded[outcome] = folded.get(outcome, 0) + n
    assert folded == {o.value: n for o, n in result.counts.items()}


def test_anchored_locations_match_program(binary):
    acc, log, _ = _build_atlas(binary)
    # Location strings name real (function, block, index) coordinates.
    functions = {fn.name: fn for fn in binary}
    for loc in acc.counts:
        if loc.startswith("("):
            continue
        head, _, index = loc.rpartition("/")
        func, _, block = head.rpartition("/")
        fn = functions[func]
        blk = next(b for b in fn.blocks if b.name == block)
        assert 0 <= int(index) < len(blk.instructions)


def test_collect_site_locations_past_end(binary):
    machine = Machine(binary)
    machine.run()
    golden = machine.icount
    locations = collect_site_locations(
        machine, [0, golden - 1, golden, golden + 100])
    assert 0 in locations
    assert golden - 1 in locations
    assert golden not in locations      # at-end: nothing executes there
    assert golden + 100 not in locations


def test_jobs_invariant_bit_identical(binary):
    serial = AtlasAccumulator()
    run_campaign(binary, trials=TRIALS, seed=SEED, jobs=1,
                 taint=True, atlas=serial)
    sharded = AtlasAccumulator()
    run_campaign(binary, trials=TRIALS, seed=SEED, jobs=2,
                 taint=True, atlas=sharded)
    a = Atlas.from_accumulator(serial, context={"technique": "swiftr"})
    b = Atlas.from_accumulator(sharded, context={"technique": "swiftr"})
    assert a.to_json() == b.to_json()


def test_merge_refuses_different_binaries():
    a, b = AtlasAccumulator(), AtlasAccumulator()
    a.golden_instructions = 100
    b.golden_instructions = 200
    with pytest.raises(ValueError, match="different binaries"):
        a.merge_from(b)


def test_roundtrip_and_schema_version(binary):
    acc, _, _ = _build_atlas(binary, taint=True)
    atlas = Atlas.from_accumulator(acc, context={"seed": SEED})
    text = atlas.to_json()
    again = Atlas.from_json(text)
    assert again.to_json() == text
    assert again.top_escapes() == atlas.top_escapes()
    # The escapes feed carries its own versioned envelope.
    feed = json.loads(atlas.escapes_json(5))
    assert feed["kind"] == "atlas_escapes"
    assert feed["schema_version"] == ATLAS_SCHEMA_VERSION
    assert feed["trials"] == acc.trials
    # Version discipline: any other version (or kind) is refused.
    payload = json.loads(text)
    payload["schema_version"] = ATLAS_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema version"):
        Atlas(payload)
    with pytest.raises(ValueError, match="not an atlas"):
        Atlas({"kind": "bench_meta"})


def test_escapes_agree_with_forensics(simple_program):
    from repro.obs import analyze_log

    # Unprotected: faults actually leak, so escape routes exist.
    unprotected = allocate_program(
        protect(simple_program, Technique.NOFT))
    acc, log, _ = _build_atlas(unprotected, trials=120, taint=True)
    atlas = Atlas.from_accumulator(acc)
    report = analyze_log(log)
    expected = set()
    for attribution in report.attributions:
        event = attribution.get("event")
        if attribution["outcome"] in ("SDC", "SEGV", "Hang") and event:
            expected.add((attribution["mechanism"], event.get("loc"),
                          event.get("instr")))
    edges = {(e["mechanism"], e["to"], e["instr"])
             for e in atlas.payload["edges"]}
    # Every decisive escape forensics names shows up as an atlas edge,
    # verbatim (same mechanism, location, instruction) -- and nothing
    # else does.
    assert expected
    assert expected == edges
    # The ranked feed's routes are drawn from those same edges.
    routes = {(route["mechanism"], route["to"], route["instr"])
              for entry in atlas.top_escapes(1000)
              for route in entry["routes"]}
    assert routes
    assert routes <= edges


def test_stratified_weighting_synthetic():
    locations = {5: ("f/entry/0", "mov r1, r2"),
                 9: ("f/entry/1", "add r3, r1, 1")}
    trials = []
    # Stratum "a": 2 trials at loc 5, one SDC.  Stratum "b": 2 trials
    # at loc 9, both unACE.
    for i, (idx, stratum, outcome) in enumerate([
            (5, "a", "SDC"), (5, "a", "unACE"),
            (9, "b", "unACE"), (9, "b", "unACE")]):
        trials.append({"kind": "trial", "trial": i, "dynamic_index": idx,
                       "outcome": outcome, "fault_landed": True,
                       "stratum": stratum})
    acc = AtlasAccumulator()
    acc.add_records(trials, [], locations)
    atlas = Atlas.from_accumulator(acc, weights={"a": 0.25, "b": 0.75})
    rows = {row["loc"]: row for row in atlas.site_rows()}
    # W_a * c/n = 0.25 * 1/2 for each outcome at loc 5.
    assert rows["f/entry/0"]["weighted"]["SDC"] == pytest.approx(0.125)
    assert rows["f/entry/0"]["weighted"]["unACE"] == pytest.approx(0.125)
    assert rows["f/entry/1"]["weighted"]["unACE"] == pytest.approx(0.75)
    assert rows["f/entry/0"]["failure_share"] == pytest.approx(0.125)
    # Self-weighting (no weights) reduces to sampled shares: 1/N each.
    unweighted = Atlas.from_accumulator(acc)
    rows = {row["loc"]: row for row in unweighted.site_rows()}
    assert rows["f/entry/0"]["weighted"]["SDC"] == pytest.approx(0.25)


def test_pseudo_location_buckets():
    acc = AtlasAccumulator()
    trials = [
        {"kind": "trial", "trial": 0, "dynamic_index": 999,
         "outcome": "unACE", "fault_landed": False},
        {"kind": "trial", "trial": 1, "dynamic_index": 123,
         "outcome": "unACE", "fault_landed": True},
    ]
    acc.add_records(trials, [], {})
    assert acc.never_landed == 1
    assert set(acc.counts) == {NEVER_LANDED_LOC, UNMAPPED_LOC}
    atlas = Atlas.from_accumulator(acc)
    # Pseudo-locations never rank as escapes and sort after real locs.
    assert atlas.top_escapes() == []
    text = atlas.render()
    assert NEVER_LANDED_LOC in text
    assert UNMAPPED_LOC in text


def test_render_with_and_without_program(binary):
    acc, _, _ = _build_atlas(binary)
    atlas = Atlas.from_accumulator(acc)
    flat = atlas.render()
    assert "Reliability map:" in flat
    annotated = atlas.render(program=binary)
    assert "per-instruction outcomes" in annotated
    # The heatmap replaces the flat site table.
    assert "Reliability map:" not in annotated
    assert "trials anchored to" in annotated


def test_atlas_from_records_roundtrips_export(binary):
    log = CampaignLog(context={"technique": "swiftr", "seed": SEED})
    acc = AtlasAccumulator()
    run_campaign(binary, trials=TRIALS, seed=SEED, log=log, taint=True,
                 atlas=acc)
    direct = Atlas.from_accumulator(acc, context={"via": "inline"})
    records = log.to_dicts() + log.taint_dicts()
    rebuilt = atlas_from_records(records, Machine(binary),
                                 context={"via": "inline"})
    assert rebuilt.to_json() == direct.to_json()
