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


#: ``render_figure8(confidence=0.95)`` of crc32 and bitcount under
#: NOFT and SWIFT-R, 20 trials per cell at seed 2006, with trailing
#: blanks stripped (``render_table`` pads the last column).  Per-cell
#: Wilson/Jeffreys intervals, the Average row's stratified interval and
#: every claim verdict -- confirmed, inconclusive and REFUTED -- show.
FIGURE8_CI_SMALL = """\
Figure 8 -- unACE %
benchmark  NOFT                   SWIFT-R
---------  ---------------------  ---------------------
crc32       90.00 [69.90, 97.21]  100.00 [88.34,100.00]
bitcount    95.00 [76.39, 99.11]  100.00 [88.34,100.00]
Average     92.50 [80.19, 97.41]  100.00 [93.95,100.00]

Figure 8 -- SEGV %
benchmark  NOFT                   SWIFT-R
---------  ---------------------  ---------------------
crc32        5.00 [ 0.89, 23.61]    0.00 [ 0.00, 11.66]
bitcount     0.00 [ 0.00, 11.66]    0.00 [ 0.00, 11.66]
Average      2.50 [ 0.45, 12.78]    0.00 [ 0.00,  6.05]

Figure 8 -- SDC % (Hang included)
benchmark  NOFT                   SWIFT-R
---------  ---------------------  ---------------------
crc32        5.00 [ 0.89, 23.61]    0.00 [ 0.00, 11.66]
bitcount     5.00 [ 0.89, 23.61]    0.00 [ 0.00, 11.66]
Average      5.00 [ 1.38, 16.50]    0.00 [ 0.00,  6.05]

Headline scalars (paper Sections 1/7/9):
  SWIFT-R        mean unACE 100.00%  SDC+SEGV reduction vs NOFT 100.00%

Significance-tested claims
claim                                          estimate                                                  p      verdict
---------------------------------------------  --------------------------------------------------------  -----  ------------
SWIFT-R reduces SDC+SEGV vs NOFT               -100.0% rel (+7.50 pts [-2.86, +17.15], z=1.77, p=0.077)  0.077  inconclusive
NOFT faults are mostly unACE                   92.50% [80.14, 97.42]                                     -      confirmed
NOFT failures skew to SEGV over SDC            -2.50 pts [-12.49, +7.73], z=-0.59, p=0.56                0.56   REFUTED
SWIFT-R failure rate < 10% in every benchmark  max upper bound 11.66%                                    -      REFUTED
"""


def test_render_figure8_ci_small_grid():
    results = evaluate_reliability(
        benchmarks=["crc32", "bitcount"],
        techniques=[Technique.NOFT, Technique.SWIFTR], trials=20,
        seed=2006)
    rendered = render_figure8(results, confidence=0.95)
    assert [line.rstrip() for line in rendered.splitlines()] == \
        FIGURE8_CI_SMALL.splitlines()


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
