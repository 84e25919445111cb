"""Campaign specs: validation, the shared run path, and the ledger
probe that lets ``campaign --store`` answer a repeat without running
a trial."""

import pytest

from repro.eval.spec import (
    CampaignSpec,
    SpecError,
    find_cached,
    run_spec,
    store_spec_run,
)
from repro.lang import compile_source
from repro.obs import CampaignLog
from repro.obs.registry import RunRegistry
from repro.transform import Technique, allocate_program, protect
from repro.__main__ import main as cli_main

TINY_SOURCE = """\
int main() {
  int a = 3;
  int b = 4;
  print(a * b + 30);
  return 0;
}
"""


@pytest.fixture
def tiny_c(tmp_path):
    path = tmp_path / "tiny.c"
    path.write_text(TINY_SOURCE)
    return str(path)


@pytest.fixture
def tiny_binary():
    return allocate_program(protect(compile_source(TINY_SOURCE),
                                    Technique.SWIFTR))


def _spec(source, **overrides):
    base = dict(source=source, technique="swiftr", seed=7, trials=20)
    base.update(overrides)
    return CampaignSpec(**base)


# ------------------------------------------------------------------ specs
def test_spec_requires_exactly_one_program_axis():
    with pytest.raises(SpecError):
        CampaignSpec(technique="swiftr")          # no program at all
    with pytest.raises(SpecError):
        CampaignSpec(workload="crc32", source="x.c")


def test_spec_validates_fields(tiny_c):
    with pytest.raises(SpecError):
        CampaignSpec(technique="nope", workload="crc32")
    with pytest.raises(SpecError):
        CampaignSpec(workload="not-a-workload")
    with pytest.raises(SpecError):
        _spec(tiny_c, seed=True)                  # bools are not seeds
    with pytest.raises(SpecError):
        _spec(tiny_c, trials=0)
    with pytest.raises(SpecError):
        _spec(tiny_c, adaptive=True, metric="nope")
    with pytest.raises(SpecError):
        _spec(tiny_c, adaptive=True, ci_width=1.5)
    with pytest.raises(SpecError):
        _spec(tiny_c, jobs=-1)


def test_workload_dict_matches_direct_cli_conventions(tiny_c):
    assert CampaignSpec(workload="crc32").workload_dict() == {
        "benchmark": "crc32"}
    assert CampaignSpec(source=tiny_c).workload_dict() == {
        "source": tiny_c}


# --------------------------------------------------------------- run_spec
def test_run_spec_matches_direct_campaign(tiny_c, tiny_binary):
    from repro.faults import CampaignResult, run_campaign

    spec = _spec(tiny_c)
    via_spec = run_spec(spec, tiny_binary).result
    direct = run_campaign(tiny_binary, trials=spec.trials, seed=spec.seed)
    assert via_spec.summary_dict() == direct.summary_dict()
    assert via_spec.config == direct.config
    # A stored summary rebuilds the same outcome counts.
    assert CampaignResult.from_summary(direct.summary_dict()) == direct


def test_run_spec_adaptive_rejects_incompatible_hooks(tiny_c, tiny_binary):
    spec = _spec(tiny_c, adaptive=True, max_trials=50)
    with pytest.raises(SpecError):
        run_spec(spec, tiny_binary, taint=True)
    with pytest.raises(SpecError):
        run_spec(spec, tiny_binary, profile=object())


# ------------------------------------------------------------ cache probe
def _store(registry, spec, program):
    log = CampaignLog(context=dict(spec.workload_dict(),
                                   technique=spec.technique,
                                   seed=spec.seed))
    run = run_spec(spec, program, log=log)
    return store_spec_run(registry, spec, run, program)


def test_find_cached_round_trip(tmp_path, tiny_c, tiny_binary):
    registry = RunRegistry(str(tmp_path / "runs"))
    spec = _spec(tiny_c)
    assert find_cached(registry, spec, tiny_binary) is None
    stored = _store(registry, spec, tiny_binary)
    assert stored.created
    assert find_cached(registry, spec, tiny_binary) == stored.run_id
    # Sharding never enters a manifest: a --jobs repeat still hits.
    assert find_cached(registry, _spec(tiny_c, jobs=2),
                       tiny_binary) == stored.run_id
    # A different seed (or budget) is a different campaign: no hit.
    assert find_cached(registry, _spec(tiny_c, seed=8),
                       tiny_binary) is None
    assert find_cached(registry, _spec(tiny_c, trials=21),
                       tiny_binary) is None


def test_find_cached_adaptive_round_trip(tmp_path, tiny_c, tiny_binary):
    registry = RunRegistry(str(tmp_path / "runs"))
    spec = _spec(tiny_c, adaptive=True, max_trials=60)
    stored = _store(registry, spec, tiny_binary)
    assert find_cached(registry, spec, tiny_binary) == stored.run_id
    assert find_cached(registry, _spec(tiny_c, adaptive=True,
                                       max_trials=61),
                       tiny_binary) is None


# ------------------------------------------------- campaign --store repeats
def _run_ids(output: str) -> list[str]:
    return [line.split(" run ")[1].split()[0]
            for line in output.splitlines()
            if line.startswith("ledger    :")]


def _forbid_trials(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cache hit must not run trials")

    monkeypatch.setattr("repro.faults.run_campaign", refuse)
    monkeypatch.setattr("repro.stats.run_adaptive_campaign", refuse)


@pytest.mark.parametrize("budget", [
    ["--trials", "30"],
    ["--adaptive", "--ci-width", "6", "--max-trials", "200"],
], ids=["fixed", "adaptive"])
def test_cli_repeat_store_is_answered_from_ledger(tmp_path, tiny_c, capsys,
                                                  monkeypatch, budget):
    argv = ["campaign", tiny_c, "-t", "swiftr", "--store",
            "--runs-dir", str(tmp_path / "runs"), *budget]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert "ledger    : stored run" in first

    _forbid_trials(monkeypatch)
    assert cli_main(argv) == 0
    again = capsys.readouterr().out
    assert "ledger    : cache hit run" in again
    assert _run_ids(again) == _run_ids(first)
    # The stored outcome percentages are reported as the run printed them.
    outcomes = [line for line in first.splitlines()
                if line.split(":")[0].strip() in ("unACE", "SEGV", "SDC",
                                                  "detected", "repairs")]
    assert outcomes and all(line in again.splitlines()
                            for line in outcomes)


def test_cli_jobs_repeat_is_a_hit(tmp_path, tiny_c, capsys, monkeypatch):
    argv = ["campaign", tiny_c, "-t", "swiftr", "--trials", "30",
            "--store", "--runs-dir", str(tmp_path / "runs")]
    assert cli_main([*argv, "--jobs", "1"]) == 0
    first = capsys.readouterr().out
    _forbid_trials(monkeypatch)
    assert cli_main([*argv, "--jobs", "2"]) == 0
    again = capsys.readouterr().out
    assert "cache hit" in again
    assert _run_ids(again) == _run_ids(first)


def test_cli_tag_on_a_hit_is_recorded(tmp_path, tiny_c, capsys):
    runs = str(tmp_path / "runs")
    argv = ["campaign", tiny_c, "-t", "swiftr", "--trials", "30",
            "--store", "--runs-dir", runs]
    assert cli_main(argv) == 0
    assert cli_main([*argv, "--tag", "again"]) == 0
    assert "cache hit" in capsys.readouterr().out
    assert cli_main(["obs", "runs", "--runs-dir", runs]) == 0
    listing = capsys.readouterr().out
    assert "1 run(s)" in listing and "again" in listing
    registry = RunRegistry(runs)
    assert registry.resolve("again") == registry.entries()[0]["run"]


def test_cli_telemetry_repeat_still_runs(tmp_path, tiny_c, capsys):
    runs = str(tmp_path / "runs")
    argv = ["campaign", tiny_c, "-t", "swiftr", "--trials", "30",
            "--store", "--runs-dir", runs]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    telemetry = tmp_path / "t.jsonl"
    assert cli_main([*argv, "--telemetry", str(telemetry)]) == 0
    again = capsys.readouterr().out
    assert "elapsed   :" in again              # the trials ran
    assert telemetry.stat().st_size > 0
    # Storing the identical run lands on the same content address.
    assert _run_ids(again) == _run_ids(first)
    assert "ledger    : cache hit run" in again
