"""Checks on the benchmark itself: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import child  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_declared_metrics_are_the_emitted_ones():
    spec = declared()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.fullmatch(name), name


def test_runner_prints_every_declared_metric():
    cells = [("crc32", "noft")]
    for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        result, record = run.measure("campaign-jit", 7, 0.3, trace,
                                     cells=cells)
        assert result["correct"], record
        assert set(result["metrics"]) == set(units)
        assert all(result["metrics"][name]["unit"] == unit
                   for name, unit in units.items())


def test_traced_trial_loop_matches_run_campaign():
    from repro.faults.campaign import run_campaign

    cell = ("crc32", "swiftr")
    machine = child.prepared([cell])[cell]
    sites = child.stratified_sites(11, "crc32/swiftr",
                                   child.golden(machine).instructions, 60)
    expected = run_campaign(machine.program, sites=sites, machine=machine,
                            jit=False)
    traced = child.traced_campaign(child.Tracer(child.HostClock()), machine,
                                   60, 11, "crc32/swiftr")
    assert traced.summary_dict() == expected.summary_dict()


def test_failed_cell_is_counted_and_metrics_still_print():
    cells = [("crc32", "noft"), ("no-such-workload", "noft")]
    result, _record = run.measure("campaign-jit", 7, 0.3, False,
                                  cells=cells)
    assert not result["correct"]
    # Every child sets up every cell, so each fails the broken one.
    assert result["failed"] == run.CHILDREN * child.JIT_TRIALS
    assert result["attempted"] > result["failed"]
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_host_clock_scales_each_gap_by_the_loop_times_around_it():
    clock = child.HostClock()
    reference = child.REFERENCE_LOOP_S
    clock.times = [0.0, 1.0, 2.0, 3.0, 4.0]
    clock.loops = [2 * reference] * 4 + [100 * reference]
    clock.spent = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25]
    # Two CPU seconds, two samples of 0.05 s inside, at half speed: the
    # one slow sample is outvoted by its neighbours.
    assert clock.seconds(0.5, 2.5) == pytest.approx(0.95)
    # After the last sample only it and the one before count.
    assert clock.seconds(4.05, 4.56) == pytest.approx(0.51 / 51)


def test_children_split_the_cells_between_them():
    units = {cell: None for cell in child.JIT_CELLS}
    shares = [child.my_cells({"key": 7, "part": part, "parts": 3}, units)
              for part in range(3)]
    assert sorted(cell for share in shares for cell in share) \
        == sorted(units)
    assert all(len(share) == 2 for share in shares)


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "fig9-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
