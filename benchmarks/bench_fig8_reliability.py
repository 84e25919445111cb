"""Figure 8: reliability under SEU injection (paper Section 7.1).

Regenerates the per-benchmark unACE/SEGV/SDC percentages for NOFT,
MASK, TRUMP, TRUMP/MASK, TRUMP/SWIFT-R, and SWIFT-R over the ten
paper-analogue benchmarks, prints the same stacked data the paper's
figure shows, and asserts the paper's qualitative findings.

Run:  pytest benchmarks/bench_fig8_reliability.py --benchmark-only -s
"""

from conftest import TRIALS

from repro.obs import write_bench
from repro.eval import evaluate_reliability, render_figure8
from repro.transform import Technique
from repro.workloads import PAPER_BENCHMARKS


def _export(results, path="BENCH_fig8.json"):
    """Machine-readable trajectory record, one JSONL line per cell."""
    records = []
    for bench in results.benchmarks:
        for tech in results.techniques:
            cell = results.cell(bench, tech)
            records.append({
                "kind": "fig8_cell", "benchmark": bench,
                "technique": tech.value, "trials": cell.trials,
                "unace_percent": round(cell.unace_percent, 4),
                "segv_percent": round(cell.segv_percent, 4),
                "sdc_percent": round(cell.sdc_percent, 4),
                "detected_percent": round(cell.detected_percent, 4),
                "recoveries": cell.recoveries,
            })
    records.append({
        "kind": "fig8_summary", "trials": results.trials,
        "seed": results.seed,
        "mean_unace": {t.value: round(results.mean_unace(t), 4)
                       for t in results.techniques},
        "failure_reduction": {
            t.value: round(results.failure_reduction(t), 4)
            for t in results.techniques if t is not Technique.NOFT
        },
    })
    write_bench(path, "fig8_reliability", records, seed=results.seed,
                trials=results.trials)


def test_figure8(benchmark):
    results = benchmark.pedantic(
        lambda: evaluate_reliability(trials=TRIALS, seed=2006),
        rounds=1, iterations=1,
    )
    print()
    print(render_figure8(results))
    _export(results)

    unace = {t: results.mean_unace(t) for t in results.techniques}
    # Paper shape: the recovery ladder (Figure 8's left-to-right climb).
    assert unace[Technique.NOFT] < unace[Technique.TRUMP]
    assert unace[Technique.TRUMP] < unace[Technique.TRUMP_SWIFTR] + 1.0
    assert unace[Technique.SWIFTR] >= unace[Technique.TRUMP] + 2.0
    assert unace[Technique.MASK] >= unace[Technique.NOFT] - 1.0
    # NOFT: most faults are already unACE (paper: 74.18%).
    assert 60.0 <= unace[Technique.NOFT] <= 92.0
    # SWIFT-R approaches total protection (paper: 97.27%).
    assert unace[Technique.SWIFTR] > 95.0
    # The headline reductions (paper: 89.39% SWIFT-R, 52.48% TRUMP).
    assert results.failure_reduction(Technique.SWIFTR) > 75.0
    assert results.failure_reduction(Technique.TRUMP) > 25.0
    # SEGV dominates SDC for unprotected code (paper: 18.0% vs 7.8%).
    assert results.mean_segv(Technique.NOFT) > 0.5 * \
        results.mean_sdc(Technique.NOFT)
    # TRUMP's SEGV improvement outpaces its SDC improvement (pointer
    # chains are TRUMP's sweet spot; paper Section 7.1).
    noft_segv = results.mean_segv(Technique.NOFT)
    trump_segv = results.mean_segv(Technique.TRUMP)
    assert trump_segv < noft_segv
    # MASK never hurts on average (the paper notes individual
    # benchmarks can come out slightly worse through schedule noise,
    # so the per-benchmark comparison gets a sampling-noise margin).
    assert results.mean_sdc(Technique.MASK) <= \
        results.mean_sdc(Technique.NOFT) + 1.0
    # adpcmdec: MASK visibly reduces SDC (paper: 17.30% -> 12.87%).
    margin = 100.0 * 2.0 / (TRIALS ** 0.5)   # ~2 binomial std errors
    adpcm_noft = results.cell("adpcmdec", Technique.NOFT).sdc_percent
    adpcm_mask = results.cell("adpcmdec", Technique.MASK).sdc_percent
    assert adpcm_mask <= adpcm_noft + margin
