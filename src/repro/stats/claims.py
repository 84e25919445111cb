"""The EXPERIMENTS.md headline scalars as significance-tested claims.

Each headline number ("SWIFT-R reduces SDC+SEGV by 97.7%", "NOFT
faults are mostly unACE", ...) becomes a :class:`Claim`: an observed
effect, the statistical test backing it, and a verdict.  A claim
**holds** when the point estimates go the right way; it is
**significant** when the test rejects the null at the configured
confidence -- the distinction EXPERIMENTS.md previously could not
make.

Technique-vs-NOFT comparisons pool outcome counts across benchmarks
(both campaigns draw from the same per-benchmark site distributions, so
pooled counts compare like with like) and use the two-proportion score
test.  The SEGV-vs-SDC comparison inside NOFT treats the two rates as
independent binomials, a standard approximation for multinomial
category contrasts -- conservative here because the categories compete
for the same trials.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..faults.outcomes import Outcome
from ..faults.stats import Proportion
from ..transform.protect import Technique
from .estimators import DifferenceTest, two_proportion_diff

#: Outcomes counted as a failure for the reduction claims (the paper's
#: SDC + SEGV metric; hangs fold into SDC as everywhere else).
FAILURE_OUTCOMES = (Outcome.SDC, Outcome.HANG, Outcome.SEGV)


@dataclass(frozen=True)
class Claim:
    """One significance-tested assertion about campaign results."""

    name: str
    detail: str
    estimate: str
    holds: bool
    significant: bool
    test: DifferenceTest | None = None

    @property
    def verdict(self) -> str:
        if not self.holds:
            return "REFUTED"
        return "confirmed" if self.significant else "inconclusive"


def _pooled(results, technique: Technique,
            outcomes: tuple[Outcome, ...]) -> tuple[int, int]:
    """(successes, trials) for a technique, pooled across benchmarks."""
    successes = trials = 0
    for (_, tech), cell in results.cells.items():
        if tech is technique:
            successes += sum(cell.count(o) for o in outcomes)
            trials += cell.trials
    return successes, trials


def evaluate_claims(results, confidence: float = 0.95) -> list[Claim]:
    """Test the headline claims against a reliability grid.

    ``results`` is a :class:`~repro.eval.reliability.ReliabilityResults`
    (duck-typed to avoid an import cycle: anything with ``.cells`` and
    ``.techniques`` works).
    """
    claims: list[Claim] = []
    techniques = list(results.techniques)
    if Technique.NOFT not in techniques:
        return claims
    noft_fail, noft_trials = _pooled(results, Technique.NOFT,
                                     FAILURE_OUTCOMES)
    if noft_trials == 0:
        return claims

    # 1. Each protection technique reduces SDC+SEGV vs NOFT.
    for technique in techniques:
        if technique is Technique.NOFT:
            continue
        fail, trials = _pooled(results, technique, FAILURE_OUTCOMES)
        if trials == 0:
            continue
        test = two_proportion_diff(noft_fail, noft_trials, fail, trials,
                                   confidence)
        p0, p1 = noft_fail / noft_trials, fail / trials
        reduction = (100.0 * (p0 - p1) / p0) if p0 > 0 else 0.0
        claims.append(Claim(
            name=f"{technique.label} reduces SDC+SEGV vs NOFT",
            detail=(f"pooled failures {fail}/{trials} vs NOFT "
                    f"{noft_fail}/{noft_trials}"),
            estimate=f"-{reduction:.1f}% rel ({test})",
            holds=test.diff > 0,
            significant=test.significant and test.diff > 0,
            test=test,
        ))

    # 2. Unprotected faults are mostly benign (NOFT unACE > 50%).
    unace, _ = _pooled(results, Technique.NOFT, (Outcome.UNACE,))
    unace_prop = Proportion(unace, noft_trials, confidence)
    low, _high = unace_prop.interval()
    claims.append(Claim(
        name="NOFT faults are mostly unACE",
        detail=f"unACE {unace}/{noft_trials}, CI lower bound vs 50%",
        estimate=str(unace_prop),
        holds=unace_prop.value > 0.5,
        significant=low > 0.5,
    ))

    # 3. Unprotected failures skew to SEGV over SDC (paper Section 7.2).
    segv, _ = _pooled(results, Technique.NOFT, (Outcome.SEGV,))
    sdc, _ = _pooled(results, Technique.NOFT, (Outcome.SDC, Outcome.HANG))
    segv_test = two_proportion_diff(segv, noft_trials, sdc, noft_trials,
                                    confidence)
    claims.append(Claim(
        name="NOFT failures skew to SEGV over SDC",
        detail=f"SEGV {segv} vs SDC {sdc} of {noft_trials}",
        estimate=str(segv_test),
        holds=segv_test.diff > 0,
        significant=segv_test.significant and segv_test.diff > 0,
        test=segv_test,
    ))

    # 4. SWIFT-R failures stay rare in *every* benchmark, not just on
    # average: the per-cell interval upper bound stays under 10%.
    swiftr_cells = [(bench, cell) for (bench, tech), cell
                    in results.cells.items()
                    if tech is Technique.SWIFTR and cell.trials > 0]
    if swiftr_cells:
        threshold = 0.10
        worst_bench, worst_high = "", 0.0
        for bench, cell in swiftr_cells:
            fail = sum(cell.count(o) for o in FAILURE_OUTCOMES)
            _, high = Proportion(fail, cell.trials, confidence).interval()
            if high >= worst_high:
                worst_bench, worst_high = bench, high
        claims.append(Claim(
            name="SWIFT-R failure rate < 10% in every benchmark",
            detail=(f"worst CI upper bound {100*worst_high:.2f}% "
                    f"({worst_bench})"),
            estimate=f"max upper bound {100*worst_high:.2f}%",
            holds=worst_high < threshold,
            significant=worst_high < threshold,
        ))
    return claims


def render_claims(claims: list[Claim],
                  title: str = "Significance-tested claims") -> str:
    """ASCII table of claim verdicts."""
    from ..eval.report import render_table

    rows = []
    for claim in claims:
        p_text = "-"
        if claim.test is not None:
            p_text = (f"{claim.test.p_value:.2g}"
                      if claim.test.p_value >= 1e-12 else "<1e-12")
        rows.append([claim.name, claim.estimate, p_text, claim.verdict])
    return render_table(["claim", "estimate", "p", "verdict"], rows,
                        title=title)
