"""Post-stratified rate estimators and two-proportion difference tests.

The post-stratified estimator reweights each stratum's observed rate
by its population share, so strata sampled with different trial counts
still combine into an unbiased rate.  Figure 8's "Average" row uses it
with the benchmarks as equal-weight strata (the row is a plain mean of
per-benchmark percentages):

    p_hat = sum_h w_h * p_h          (w_h renormalized over observed strata)
    var   = sum_h w_h^2 * s_h / n_h  (s_h = Jeffreys-smoothed p_h (1 - p_h))

The interval is a Wilson score interval evaluated at the *effective*
sample size ``n_eff = p~ (1 - p~) / var`` -- for a single stratum this
reduces exactly to the plain Wilson interval on the raw counts.  When
every observed stratum is degenerate at the same value (the all-unACE
SWIFT-R case) the variance estimate is meaningless, so the estimator
falls back to a Jeffreys interval on the pooled counts -- again
matching what :class:`repro.faults.stats.Proportion` reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..faults.stats import (
    Proportion,
    _z_value,
    normal_quantile,
    wilson_bounds,
)


@dataclass(frozen=True)
class StratumCell:
    """Observed trials for one stratum: population weight + counts."""

    key: str
    weight: float
    trials: int
    successes: int

    @property
    def rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    @property
    def smoothed(self) -> float:
        """Jeffreys-smoothed rate ``(x + 1/2) / (n + 1)``: keeps the
        variance of degenerate (0-of-n, n-of-n) cells nonzero."""
        return (self.successes + 0.5) / (self.trials + 1.0)


@dataclass(frozen=True)
class StratifiedEstimate:
    """A population-weighted rate with its confidence interval."""

    value: float
    low: float
    high: float
    confidence: float
    trials: int
    successes: int
    n_effective: float
    method: str  # "wilson" | "jeffreys" | "empty"


def stratified_estimate(cells: list[StratumCell],
                        confidence: float = 0.95) -> StratifiedEstimate:
    """Post-stratified rate estimate over observed strata.

    Strata with zero trials are dropped and the remaining population
    weights renormalized (post-stratification collapse): the estimate
    then covers the sub-population actually observed.
    """
    observed = [c for c in cells if c.trials > 0]
    trials = sum(c.trials for c in observed)
    successes = sum(c.successes for c in observed)
    if not observed:
        return StratifiedEstimate(0.0, 0.0, 1.0, confidence, 0, 0, 0.0,
                                  "empty")
    weight_sum = sum(c.weight for c in observed)
    if weight_sum <= 0:
        raise ValueError("observed strata have no population weight")
    value = sum((c.weight / weight_sum) * c.rate for c in observed)
    if successes in (0, trials):
        # Every observed stratum is pinned at the same value; the
        # within-stratum variance estimate is vacuous.  Report Jeffreys
        # on the pooled counts, as the unstratified path would.
        low, high = Proportion(successes, trials, confidence
                               ).jeffreys_interval()
        return StratifiedEstimate(value, low, high, confidence, trials,
                                  successes, float(trials), "jeffreys")
    smoothed = sum((c.weight / weight_sum) * c.smoothed for c in observed)
    variance = sum(
        (c.weight / weight_sum) ** 2 * c.smoothed * (1 - c.smoothed)
        / c.trials
        for c in observed
    )
    n_effective = smoothed * (1 - smoothed) / variance
    z = _z_value(confidence)
    low, high = wilson_bounds(value, n_effective, z)
    return StratifiedEstimate(value, low, high, confidence, trials,
                              successes, n_effective, "wilson")


@dataclass(frozen=True)
class DifferenceTest:
    """Two-proportion comparison: p1 - p2 with test and interval.

    The z statistic and p-value use the standard pooled-variance score
    test; the interval is Agresti-Caffo (add one success and one
    failure to each arm), which stays sane for the degenerate zero-SDC
    cells campaigns routinely produce.
    """

    diff: float
    low: float
    high: float
    z: float
    p_value: float
    confidence: float

    @property
    def significant(self) -> bool:
        return self.p_value < 1.0 - self.confidence

    def __str__(self) -> str:
        return (f"{100*self.diff:+.2f} pts "
                f"[{100*self.low:+.2f}, {100*self.high:+.2f}], "
                f"z={self.z:.2f}, p={self.p_value:.2g}")


def two_proportion_diff(successes1: int, trials1: int,
                        successes2: int, trials2: int,
                        confidence: float = 0.95) -> DifferenceTest:
    """Test H0: p1 == p2 from two independent binomial samples."""
    if trials1 <= 0 or trials2 <= 0:
        raise ValueError("difference test requires trials in both arms")
    p1 = successes1 / trials1
    p2 = successes2 / trials2
    pooled = (successes1 + successes2) / (trials1 + trials2)
    se = math.sqrt(pooled * (1 - pooled) * (1 / trials1 + 1 / trials2))
    z = (p1 - p2) / se if se > 0 else 0.0
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    # Agresti-Caffo adjusted interval.
    a1 = (successes1 + 1) / (trials1 + 2)
    a2 = (successes2 + 1) / (trials2 + 2)
    se_adj = math.sqrt(a1 * (1 - a1) / (trials1 + 2)
                       + a2 * (1 - a2) / (trials2 + 2))
    zq = normal_quantile(0.5 * (1.0 + confidence))
    low = max(-1.0, (a1 - a2) - zq * se_adj)
    high = min(1.0, (a1 - a2) + zq * se_adj)
    return DifferenceTest(p1 - p2, low, high, z, p_value, confidence)


def outcome_rate_tests(counts_a: dict, trials_a: int,
                       counts_b: dict, trials_b: int,
                       confidence: float = 0.95,
                       outcomes: tuple[str, ...] | None = None,
                       ) -> dict[str, "DifferenceTest"]:
    """Per-outcome score tests between two *unpaired* stored campaigns.

    Takes the outcome tallies exactly as run-registry manifests record
    them (``{"unACE": n, "SDC": m, ...}``) and runs
    :func:`two_proportion_diff` on every outcome either run observed
    (or the explicit ``outcomes`` tuple).  Returns an outcome ->
    :class:`DifferenceTest` mapping in a deterministic order: the
    canonical outcome order first, then anything unexpected sorted.
    """
    if outcomes is None:
        canonical = ("unACE", "DUE", "SDC", "SEGV", "Hang")
        seen = set(counts_a) | set(counts_b)
        outcomes = tuple([o for o in canonical if o in seen]
                         + sorted(seen - set(canonical)))
    return {
        outcome: two_proportion_diff(
            counts_a.get(outcome, 0), trials_a,
            counts_b.get(outcome, 0), trials_b, confidence)
        for outcome in outcomes
    }
