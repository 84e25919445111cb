"""Developer tooling: tracer, profiler, CLI."""

import os
import subprocess
import sys

import pytest

import repro
from repro.eval.profile import (
    overhead_by_function,
    profile_workload,
    render_profile,
)
from repro.sim import Machine, RunStatus
from repro.sim.trace import format_trace, trace_execution
from repro.transform import Technique, allocate_program
from repro.workloads import build
from repro.__main__ import main as cli_main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


# ------------------------------------------------------------------- tracer
def test_trace_records_execution(simple_program, simple_golden):
    machine = Machine(simple_program)
    entries, result = trace_execution(machine, limit=10_000)
    assert result.output == simple_golden.output
    assert len(entries) == simple_golden.instructions
    assert entries[0].index == 0
    assert entries[0].function == "main"
    # Destination values are recorded.
    li_entries = [e for e in entries if e.text.startswith("li ")]
    assert li_entries and all(e.value is not None for e in li_entries)


def test_trace_limit_and_start(simple_program, simple_golden):
    machine = Machine(simple_program)
    entries, result = trace_execution(machine, limit=5, start=3)
    assert len(entries) == 5
    assert entries[0].index == 3
    # The run still completes after the trace window.
    assert result.output == simple_golden.output


def test_trace_formatting(simple_program):
    machine = Machine(simple_program)
    entries, _ = trace_execution(machine, limit=3)
    text = format_trace(entries)
    assert "main" in text and "<-" in text


def test_trace_workload_entry_fields():
    machine = Machine(allocate_program(build("crc32")))
    entries, result = trace_execution(machine, limit=200)
    assert len(entries) == 200
    assert [e.index for e in entries] == list(range(200))
    assert all(e.function and e.block and e.text for e in entries)
    # The trace window crosses a call boundary in crc32's setup.
    assert {e.function for e in entries} >= {"main", "build_table"}
    assert result.status is RunStatus.EXITED


def test_trace_protected_binary(simple_program, simple_golden):
    """Tracing uses only the machine's public surface, so it works on
    hardened binaries whose blocks include recovery entries."""
    from repro.transform import protect

    hardened = allocate_program(protect(simple_program, Technique.SWIFTR))
    machine = Machine(hardened)
    entries, result = trace_execution(machine, limit=100_000)
    assert result.output == simple_golden.output
    assert len(entries) == result.instructions
    assert len(entries) > simple_golden.instructions   # redundancy costs


# ----------------------------------------------------------------- profiler
def test_profile_attributes_cycles():
    profiles, result = profile_workload("vortex", Technique.NOFT)
    assert profiles
    total_share = sum(p.cycle_share for p in profiles)
    assert total_share == pytest.approx(1.0)
    attributed = sum(p.cycles for p in profiles)
    assert attributed == pytest.approx(result.cycles, rel=0.05)
    names = {p.name for p in profiles}
    assert "main" in names and "obj_lookup" in names


def test_profile_render():
    profiles, _ = profile_workload("crc32", Technique.NOFT)
    text = render_profile("crc32", Technique.NOFT, profiles)
    assert "crc32" in text and "cycles%" in text


def test_overhead_by_function():
    overheads = overhead_by_function("crc32", Technique.SWIFTR)
    assert overheads
    assert all(value > 0.8 for value in overheads.values())
    # The logical-heavy CRC loop in main pays for triplication.
    assert overheads["main"] > 1.1


def test_profile_hot_functions_pay_for_protection():
    """NOFT vs SWIFT-R: every hot function carries redundancy cost."""
    base, _ = profile_workload("matmul", Technique.NOFT)
    overheads = overhead_by_function("matmul", Technique.SWIFTR)
    hot = [p.name for p in base if p.cycle_share > 0.10]
    assert hot
    for name in hot:
        assert overheads[name] > 1.0


# ---------------------------------------------------------------------- CLI
def test_cli_run_and_campaign(tmp_path, capsys):
    source = tmp_path / "demo.c"
    source.write_text(
        "int main() { int t = 0; "
        "for (int i = 0; i < 6; i++) { t += i; } print(t); return 0; }"
    )
    assert cli_main(["run", str(source)]) == 0
    assert capsys.readouterr().out.strip() == "15"

    assert cli_main(["campaign", str(source), "-t", "swiftr",
                     "--trials", "30"]) == 0
    out = capsys.readouterr().out
    assert "unACE" in out and "SWIFT-R" in out


def test_cli_asm(tmp_path, capsys):
    source = tmp_path / "demo.c"
    source.write_text("int main() { print(7); return 0; }")
    assert cli_main(["asm", str(source), "-t", "swift"]) == 0
    out = capsys.readouterr().out
    assert "func main" in out
    assert "detect" in out    # SWIFT's faultDet block


def test_cli_workloads(capsys):
    assert cli_main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "adpcmdec" in out and "mcf" in out


def test_cli_profile(capsys):
    assert cli_main(["profile", "crc32"]) == 0
    out = capsys.readouterr().out
    assert "profile: crc32" in out


def test_cli_fig9_subset(capsys):
    assert cli_main(["fig9", "--benchmarks", "crc32"]) == 0
    assert "Figure 9" in capsys.readouterr().out


@pytest.mark.parametrize("command,argv", [
    ("fig8", ["--benchmarks", "crc32", "--trials", "12", "--seed", "7"]),
    ("fig9", ["--benchmarks", "crc32"]),
])
def test_cli_figures_match_their_harness_entry_points(capsys, command,
                                                      argv):
    """The documented ``python -m repro figN`` prints exactly what the
    in-process CLI prints, and no warning (the harness modules have no
    ``__main__`` block that ``runpy`` could run twice)."""
    assert cli_main([command, *argv]) == 0
    in_process = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "repro", command, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == in_process
    assert "RuntimeWarning" not in proc.stderr


def test_cli_rejects_unknown_technique(tmp_path, capsys):
    source = tmp_path / "demo.c"
    source.write_text("int main() { return 0; }")
    with pytest.raises(SystemExit):
        cli_main(["run", str(source), "-t", "banana"])


def test_cli_run_propagates_exit_code(tmp_path):
    source = tmp_path / "demo.c"
    source.write_text("int main() { exit(4); return 0; }")
    assert cli_main(["run", str(source)]) == 4


def _one_line_error(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("repro: error: ")
    return lines[0]


@pytest.mark.parametrize("command", ["run", "asm", "campaign"])
def test_cli_missing_input_is_one_line_error(tmp_path, capsys, command):
    missing = tmp_path / "missing.c"
    assert cli_main([command, str(missing)]) == 2
    assert _one_line_error(capsys) == \
        f"repro: error: {missing}: No such file or directory"
    # A directory is an unreadable input too.
    assert cli_main([command, str(tmp_path)]) == 2
    assert str(tmp_path) in _one_line_error(capsys)


@pytest.mark.parametrize("text,detail", [
    ("int main( {", "line 1:11: expected a type"),        # ParseError
    ("int main() { return x; }", "line 1: undefined name 'x'"),  # Semantic
])
def test_cli_bad_source_is_one_line_error(tmp_path, capsys, text, detail):
    source = tmp_path / "bad.c"
    source.write_text(text)
    for command in ("run", "campaign"):
        assert cli_main([command, str(source)]) == 2
        assert _one_line_error(capsys).startswith(
            f"repro: error: {source}: {detail}")


@pytest.mark.parametrize("knobs,detail", [
    (["--adaptive", "--ci-width", "150"], "ci_width out of (0, 1): 1.5"),
    (["--trials", "0"], "trials must be a positive integer, got 0"),
    (["--adaptive", "--taint"],
     "taint tracing is not supported with adaptive campaigns"),
    (["--adaptive", "--profile", "unwritten.jsonl"],
     "profiling is not supported with adaptive campaigns (batch sizes "
     "depend on observed variance)"),
])
def test_cli_bad_campaign_knob_is_one_line_error(tmp_path, capsys, knobs,
                                                 detail):
    source = _smoke(tmp_path)
    assert cli_main(["campaign", str(source), *knobs]) == 2
    assert _one_line_error(capsys) == \
        f"repro: error: invalid campaign: {detail}"


@pytest.mark.parametrize("argv,detail", [
    (["obs", "diff", "nope", "nope"], "no stored run matches 'nope'"),
    (["obs", "history", "bogus"], "unknown history metric 'bogus'"),
])
def test_cli_bad_ledger_query_is_one_line_error(tmp_path, capsys, argv,
                                                detail):
    assert cli_main([*argv, "--runs-dir", str(tmp_path)]) == 2
    assert _one_line_error(capsys).startswith(f"repro: error: {detail}")


@pytest.mark.parametrize("argv", [
    ["fig8", "--benchmarks", "crc32,nosuch", "--trials", "2"],
    ["fig9", "--benchmarks", "nosuch"],
])
def test_cli_unknown_benchmark_is_one_line_error(capsys, argv):
    # The names are checked before the first cell runs: no progress
    # line for crc32 reaches stderr.
    assert cli_main(argv) == 2
    assert _one_line_error(capsys).startswith(
        "repro: error: unknown workload 'nosuch' (known: adpcmdec, ")


@pytest.mark.parametrize("command", ["summarize", "forensics",
                                     "export-trace", "hotspots",
                                     "convergence", "atlas"])
def test_cli_bad_telemetry_is_one_line_error(tmp_path, capsys, command):
    cut = tmp_path / "cut.jsonl"
    cut.write_text('{"kind":"span","name":"campaign"}\n{"kind":"tri')
    assert cli_main(["obs", command, str(cut)]) == 2
    assert _one_line_error(capsys) == (
        f"repro: error: {cut}:2: truncated or corrupt JSONL record "
        "(campaign killed mid-write?)")
    missing = tmp_path / "missing.jsonl"
    assert cli_main(["obs", command, str(missing)]) == 2
    assert str(missing) in _one_line_error(capsys)


def test_cli_codegen_error_is_one_line_error(tmp_path, capsys, monkeypatch):
    from repro import __main__ as cli
    from repro.errors import CodegenError

    def fail(source):
        raise CodegenError("unhandled statement")

    monkeypatch.setattr(cli, "compile_source", fail)
    source = _smoke(tmp_path)
    assert cli_main(["asm", str(source)]) == 2
    assert _one_line_error(capsys) == \
        f"repro: error: {source}: unhandled statement"


# ------------------------------------------------- atlas / convergence CLI
SMOKE_SOURCE = (
    "int data[8] = { 3, 1, 4, 1, 5, 9, 2, 6 };\n"
    "int main() { int t = 0; "
    "for (int i = 0; i < 8; i++) { t += data[i] * (i + 1); } "
    "print(t); return 0; }"
)


def _smoke(tmp_path):
    source = tmp_path / "demo.c"
    source.write_text(SMOKE_SOURCE)
    return source


def test_cli_campaign_atlas_artifact_and_rerender(tmp_path, capsys):
    import json

    source = _smoke(tmp_path)
    atlas_path = tmp_path / "atlas.json"
    assert cli_main(["campaign", str(source), "-t", "swiftr",
                     "--trials", "40", "--taint",
                     "--atlas", str(atlas_path)]) == 0
    out = capsys.readouterr().out
    assert "trials anchored to" in out
    doc = json.loads(atlas_path.read_text())
    assert doc["kind"] == "atlas"
    assert doc["trials"] == 40
    assert doc["context"]["source"] == str(source)
    # Re-render the saved artifact: the heatmap is rebuilt by
    # recompiling the source recorded in the context.
    assert cli_main(["obs", "atlas", str(atlas_path)]) == 0
    rendered = capsys.readouterr().out
    assert "per-instruction outcomes" in rendered


def test_cli_obs_atlas_from_telemetry(tmp_path, capsys):
    import json

    source = _smoke(tmp_path)
    telemetry = tmp_path / "t.jsonl"
    assert cli_main(["campaign", str(source), "-t", "swiftr",
                     "--trials", "40", "--taint",
                     "--telemetry", str(telemetry)]) == 0
    capsys.readouterr()
    out_path = tmp_path / "atlas.json"
    escapes = tmp_path / "escapes.json"
    assert cli_main(["obs", "atlas", str(telemetry),
                     "-o", str(out_path),
                     "--escapes", str(escapes)]) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "atlas" and doc["trials"] == 40
    feed = json.loads(escapes.read_text())
    assert feed["kind"] == "atlas_escapes"
    assert feed["schema_version"] == doc["schema_version"]


def test_cli_obs_atlas_one_shot_json(tmp_path, capsys):
    import json

    atlas_path = tmp_path / "atlas.json"
    assert cli_main(["campaign", "crc32", "--trials", "20", "--taint",
                     "--atlas", str(atlas_path)]) == 0
    capsys.readouterr()
    assert cli_main(["obs", "atlas", str(atlas_path),
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "atlas"
    assert doc["sites"]
    assert doc["context"]["benchmark"] == "crc32"


def test_cli_obs_convergence_path_and_json(tmp_path, capsys):
    import json

    source = _smoke(tmp_path)
    telemetry = tmp_path / "adaptive.jsonl"
    assert cli_main(["campaign", str(source), "-t", "swiftr",
                     "--adaptive", "--ci-width", "6",
                     "--telemetry", str(telemetry)]) == 0
    capsys.readouterr()
    assert cli_main(["obs", "convergence", str(telemetry)]) == 0
    out = capsys.readouterr().out
    assert "Stratum coverage" in out
    assert "CI half-width timeline" in out
    assert cli_main(["obs", "convergence", str(telemetry),
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "convergence" and doc["tables"]


def test_cli_obs_summarize_and_hotspots_json(tmp_path, capsys):
    import json

    source = _smoke(tmp_path)
    telemetry = tmp_path / "t.jsonl"
    assert cli_main(["campaign", str(source), "-t", "swiftr",
                     "--trials", "30",
                     "--telemetry", str(telemetry)]) == 0
    capsys.readouterr()
    assert cli_main(["obs", "summarize", str(telemetry),
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "telemetry_summary"
    assert any("Campaign outcomes" in t["title"] for t in doc["tables"])
    profile = tmp_path / "p.jsonl"
    assert cli_main(["campaign", "crc32", "-t", "swiftr", "--trials", "10",
                     "--profile", str(profile)]) == 0
    capsys.readouterr()
    assert cli_main(["obs", "hotspots", str(profile),
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "hotspots" and doc["tables"]


@pytest.mark.parametrize("command", ["hotspots", "atlas", "convergence"])
def test_cli_obs_readers_run_no_campaign(capsys, command):
    """``obs`` only reads: a suite workload is campaigned with
    ``campaign NAME``, not through an ``obs`` flag."""
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["obs", command, "--workload", "crc32"])
    assert exit_info.value.code == 2
    assert "--workload" in capsys.readouterr().err


def test_cli_obs_atlas_needs_records_that_name_a_program(tmp_path, capsys):
    telemetry = tmp_path / "t.jsonl"
    telemetry.write_text('{"kind":"trial","trial":0,"outcome":"unace"}\n')
    assert cli_main(["obs", "atlas", str(telemetry)]) == 2
    assert _one_line_error(capsys) == (
        "repro: error: records name no benchmark or source file and "
        "technique to anchor the atlas")


def test_cli_run_and_asm_take_a_suite_workload(capsys):
    from repro.eval.pipeline import prepare
    from repro.sim import run_program

    expected = run_program(prepare("crc32", Technique.NOFT)).output
    assert cli_main(["run", "crc32"]) == 0
    assert capsys.readouterr().out.split() == [str(v) for v in expected]
    assert cli_main(["asm", "crc32", "-t", "swiftr"]) == 0
    assert "func build_table" in capsys.readouterr().out


def test_cli_campaign_workload_hits_a_fig8_cell(tmp_path, capsys,
                                                monkeypatch):
    """``campaign NAME`` and a ``fig8 --store`` cell share one ledger
    identity, so the campaign is answered without running a trial."""
    import repro.faults as faults

    runs = ["--runs-dir", str(tmp_path), "--seed", "5", "--trials", "8"]
    assert cli_main(["fig8", "--benchmarks", "crc32", "--store",
                     *runs]) == 0
    capsys.readouterr()

    def no_trials(*args, **kwargs):
        raise AssertionError("a cached campaign ran trials")

    monkeypatch.setattr(faults, "run_campaign", no_trials)
    assert cli_main(["campaign", "crc32", "-t", "trump", "--store",
                     *runs]) == 0
    out = capsys.readouterr().out
    assert "ledger    : cache hit run " in out
    assert "elapsed" not in out


def test_cli_campaign_zero_elapsed_reports_rate_na(tmp_path, capsys,
                                                   monkeypatch):
    import repro.faults as faults

    source = _smoke(tmp_path)
    real = faults.run_campaign

    def zero_clock(*args, **kwargs):
        result = real(*args, **kwargs)
        result.elapsed_seconds = 0.0
        return result

    monkeypatch.setattr(faults, "run_campaign", zero_clock)
    assert cli_main(["campaign", str(source), "-t", "swiftr",
                     "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "rate n/a" in out
    assert "trials/s" not in out


def test_trials_per_sec_guarded_against_zero_elapsed():
    from repro.faults.campaign import CampaignResult

    result = CampaignResult(trials=10)
    assert result.elapsed_seconds == 0.0
    assert result.trials_per_sec == 0.0
    result.elapsed_seconds = 2.0
    assert result.trials_per_sec == 5.0
