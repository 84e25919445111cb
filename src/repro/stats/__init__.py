"""Adaptive statistical campaign engine.

Turns fixed-count fault-injection campaigns into confidence-driven
ones:

- :mod:`repro.stats.space` — enumerate and stratify the dynamic
  (instruction, register, bit) fault-site population from a golden-run
  profile.
- :mod:`repro.stats.estimators` — post-stratified, population-weighted
  rate estimates with Wilson/Jeffreys intervals and two-proportion
  difference tests.
- :mod:`repro.stats.allocation` — Neyman-style batch allocation to the
  highest-variance strata.
- :mod:`repro.stats.sequential` — the sequential runner: batches until
  a target CI half-width or a trial cap.
- :mod:`repro.stats.claims` — the EXPERIMENTS.md headline scalars as
  significance-tested assertions.
"""

from .._lazy import lazy_exports

#: Each public name and the submodule that defines it, loaded on the
#: name's first use.
_EXPORTS = {
    "AdaptiveConfig": "sequential",
    "AdaptiveResult": "sequential",
    "BatchRecord": "sequential",
    "Claim": "claims",
    "DifferenceTest": "estimators",
    "FaultSpace": "space",
    "Stratum": "space",
    "StratifiedEstimate": "estimators",
    "StratumCell": "estimators",
    "StratumOutcomes": "sequential",
    "estimate_difference": "estimators",
    "evaluate_claims": "claims",
    "neyman_allocation": "allocation",
    "outcome_rate_tests": "estimators",
    "profile_fault_space": "space",
    "render_claims": "claims",
    "run_adaptive_campaign": "sequential",
    "run_adaptive_suite": "sequential",
    "stratified_estimate": "estimators",
    "two_proportion_diff": "estimators",
}

__all__ = lazy_exports(__name__, _EXPORTS)
