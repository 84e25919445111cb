"""Campaign statistics beyond a single proportion's interval:

- :mod:`repro.stats.estimators` — post-stratified rate estimates
  (the Figure-8 "Average" row's interval, benchmarks as equal-weight
  strata) and two-proportion difference tests (``obs diff``).
- :mod:`repro.stats.claims` — the EXPERIMENTS.md headline scalars as
  significance-tested assertions (``fig8 --ci``).
"""

from .._lazy import lazy_exports

#: Each public name and the submodule that defines it, loaded on the
#: name's first use.
_EXPORTS = {
    "Claim": "claims",
    "DifferenceTest": "estimators",
    "StratifiedEstimate": "estimators",
    "StratumCell": "estimators",
    "evaluate_claims": "claims",
    "outcome_rate_tests": "estimators",
    "render_claims": "claims",
    "stratified_estimate": "estimators",
    "two_proportion_diff": "estimators",
}

__all__ = lazy_exports(__name__, _EXPORTS)
