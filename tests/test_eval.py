"""Evaluation harnesses and report rendering."""

import pytest

from repro.eval import (
    evaluate_performance,
    evaluate_reliability,
    render_figure8,
    render_figure9,
)
from repro.eval.report import (
    average,
    geomean,
    reduction_percent,
    render_stacked_bar,
    render_table,
)
from repro.transform import Technique

FAST = ["crc32", "matmul"]
TECHS = [Technique.NOFT, Technique.TRUMP, Technique.SWIFTR]


def test_render_table_alignment():
    table = render_table(["name", "value"],
                         [["a", "1.00"], ["longer", "2.50"]],
                         title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert lines[2].startswith("---")
    assert len(lines) == 5


def test_stacked_bar_width():
    bar = render_stacked_bar(50.0, 25.0, 25.0, width=20)
    assert len(bar) == 20
    assert bar.count("#") == 10


def test_aggregates():
    assert average([1.0, 3.0]) == 2.0
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert reduction_percent(10.0, 1.0) == pytest.approx(90.0)
    assert reduction_percent(0.0, 5.0) == 0.0


def test_reliability_harness_small():
    results = evaluate_reliability(benchmarks=FAST, techniques=TECHS,
                                   trials=40, seed=1)
    for bench in FAST:
        for tech in TECHS:
            cell = results.cell(bench, tech)
            assert cell.trials == 40
    assert results.mean_unace(Technique.SWIFTR) > \
        results.mean_unace(Technique.NOFT)
    assert 0 <= results.failure_reduction(Technique.SWIFTR) <= 100
    rendered = render_figure8(results)
    assert "unACE" in rendered and "Average" in rendered
    assert "SWIFT-R" in rendered


def test_performance_harness_small():
    results = evaluate_performance(benchmarks=FAST, techniques=TECHS)
    for bench in FAST:
        assert results.normalized(bench, Technique.NOFT) == 1.0
        assert results.normalized(bench, Technique.SWIFTR) > 1.0
    geo = results.geomean_normalized(Technique.SWIFTR)
    assert 1.0 < geo < 4.0
    rendered = render_figure9(results)
    assert "GeoMean" in rendered
    assert "Paper geomeans" in rendered


def test_cli_entry_points_run(capsys):
    from repro.__main__ import main as cli_main

    assert cli_main(["fig9", "--benchmarks", "crc32"]) == 0
    assert "Figure 9" in capsys.readouterr().out
    assert cli_main(["fig8", "--benchmarks", "crc32", "--trials", "20"]) == 0
    assert "Figure 8" in capsys.readouterr().out
