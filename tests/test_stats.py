"""repro.stats: estimators, difference tests, claims."""

import pytest

from repro.faults.outcomes import Outcome
from repro.faults.stats import (
    Proportion,
    _z_value,
    beta_cdf,
    normal_cdf,
    normal_quantile,
    wilson_bounds,
)
from repro.stats import (
    StratumCell,
    stratified_estimate,
    two_proportion_diff,
)


# ----------------------------------------------------------------- probit
# References: scipy.stats.norm.ppf at the two-sided tail points.
_Z_REFERENCES = {
    0.80: 1.2815515655446004,
    0.975: 2.241402727604947,
    0.999: 3.2905267314919255,
}


@pytest.mark.parametrize("confidence,reference",
                         sorted(_Z_REFERENCES.items()))
def test_z_value_matches_scipy(confidence, reference):
    assert _z_value(confidence) == pytest.approx(reference, abs=1e-10)


def test_normal_quantile_round_trips_through_cdf():
    for p in (0.001, 0.02425, 0.3, 0.5, 0.7, 0.97575, 0.999):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p,
                                                               abs=1e-12)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    # Symmetry of the two tails.
    assert normal_quantile(0.01) == pytest.approx(-normal_quantile(0.99),
                                                  abs=1e-12)


def test_z_value_rejects_degenerate_confidence():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            _z_value(bad)


# --------------------------------------------------------------- jeffreys
def test_jeffreys_degenerate_zero_of_n():
    # scipy.stats.beta.ppf(0.975, 0.5, 10.5) for the upper bound.
    low, high = Proportion(0, 10).jeffreys_interval()
    assert low == 0.0
    assert high == pytest.approx(0.21719626750921053, abs=1e-8)


def test_jeffreys_degenerate_n_of_n():
    # Mirror image: scipy.stats.beta.ppf(0.025, 10.5, 0.5).
    low, high = Proportion(10, 10).jeffreys_interval()
    assert high == 1.0
    assert low == pytest.approx(0.7828037324907894, abs=1e-8)


def test_jeffreys_interior_matches_scipy():
    low, high = Proportion(3, 50).jeffreys_interval()
    assert low == pytest.approx(0.017186649071151135, abs=1e-8)
    assert high == pytest.approx(0.15153256302766024, abs=1e-8)


def test_jeffreys_shrinks_with_more_trials():
    _, h10 = Proportion(0, 10).jeffreys_interval()
    _, h250 = Proportion(0, 250).jeffreys_interval()
    assert h250 < h10
    assert h250 == pytest.approx(0.00998751145709396, abs=1e-8)


def test_beta_cdf_quantile_consistency():
    # The quantile really inverts the CDF.
    for q, a, b in ((0.975, 0.5, 10.5), (0.025, 3.5, 47.5),
                    (0.5, 2.0, 2.0)):
        from repro.faults.stats import beta_quantile
        x = beta_quantile(q, a, b)
        assert beta_cdf(x, a, b) == pytest.approx(q, abs=1e-9)


def test_interval_selects_jeffreys_only_when_degenerate():
    degenerate = Proportion(0, 20)
    assert degenerate.interval() == degenerate.jeffreys_interval()
    full = Proportion(20, 20)
    assert full.interval() == full.jeffreys_interval()
    interior = Proportion(7, 20)
    assert interior.interval() == interior.wilson_interval()
    assert interior.interval() != interior.jeffreys_interval()


def test_proportion_str_uses_selected_interval():
    text = str(Proportion(0, 20))
    low, high = Proportion(0, 20).interval()
    assert f"[{100*low:.2f}, {100*high:.2f}]" in text
    assert text.startswith("0.00%")


# ------------------------------------------------------------- stratified
def test_stratified_empty_input():
    estimate = stratified_estimate([])
    assert estimate.method == "empty"
    assert (estimate.low, estimate.high) == (0.0, 1.0)
    assert estimate.trials == 0


def test_stratified_drops_empty_stratum():
    cells = [
        StratumCell("a", 0.5, 40, 10),
        StratumCell("b", 0.5, 0, 0),  # unobserved: dropped, renormalized
    ]
    estimate = stratified_estimate(cells)
    only_a = stratified_estimate([StratumCell("a", 1.0, 40, 10)])
    assert estimate.value == pytest.approx(only_a.value)
    assert estimate.low == pytest.approx(only_a.low)
    assert estimate.high == pytest.approx(only_a.high)


def test_stratified_single_stratum_reduces_to_wilson():
    p = Proportion(13, 60)
    estimate = stratified_estimate([StratumCell("all", 1.0, 60, 13)])
    wlow, whigh = p.wilson_interval()
    assert estimate.method == "wilson"
    assert estimate.value == pytest.approx(13 / 60, abs=1e-12)
    assert estimate.low == pytest.approx(wlow, abs=1e-12)
    assert estimate.high == pytest.approx(whigh, abs=1e-12)
    assert estimate.n_effective == pytest.approx(60, rel=1e-6)


def test_stratified_single_trial_stratum():
    cells = [StratumCell("a", 0.9, 50, 25), StratumCell("b", 0.1, 1, 1)]
    estimate = stratified_estimate(cells)
    assert estimate.value == pytest.approx(0.9 * 0.5 + 0.1 * 1.0)
    assert 0.0 < estimate.low < estimate.value < estimate.high < 1.0


def test_stratified_all_degenerate_falls_back_to_jeffreys():
    cells = [StratumCell("a", 0.5, 30, 0), StratumCell("b", 0.5, 20, 0)]
    estimate = stratified_estimate(cells)
    jlow, jhigh = Proportion(0, 50).jeffreys_interval()
    assert estimate.method == "jeffreys"
    assert estimate.value == 0.0
    assert (estimate.low, estimate.high) == (jlow, jhigh)


def test_stratified_rejects_weightless_strata():
    with pytest.raises(ValueError):
        stratified_estimate([StratumCell("a", 0.0, 10, 5)])


def test_wilson_bounds_accepts_fractional_n():
    # Effective sample sizes are rarely integers.
    low, high = wilson_bounds(0.3, 47.3, 1.96)
    assert 0.0 < low < 0.3 < high < 1.0


# ------------------------------------------------------------ difference
def test_two_proportion_diff_sign_and_significance():
    test = two_proportion_diff(90, 100, 10, 100)
    assert test.diff == pytest.approx(0.8)
    assert test.significant and test.p_value < 1e-12
    flipped = two_proportion_diff(10, 100, 90, 100)
    assert flipped.diff == pytest.approx(-0.8)
    assert flipped.z == pytest.approx(-test.z)


def test_two_proportion_diff_null_case():
    test = two_proportion_diff(20, 100, 20, 100)
    assert test.diff == 0.0
    assert test.p_value == pytest.approx(1.0)
    assert not test.significant
    assert test.low < 0.0 < test.high


def test_two_proportion_diff_requires_trials():
    with pytest.raises(ValueError):
        two_proportion_diff(1, 0, 1, 10)


# ----------------------------------------------------------------- claims
def test_evaluate_claims_needs_noft():
    from repro.stats.claims import evaluate_claims

    class Grid:
        techniques = []
        cells = {}

    assert evaluate_claims(Grid()) == []


def test_outcome_sets_cover_failure_metric():
    from repro.stats.claims import FAILURE_OUTCOMES

    assert Outcome.SDC in FAILURE_OUTCOMES
    assert Outcome.SEGV in FAILURE_OUTCOMES
    assert Outcome.HANG in FAILURE_OUTCOMES
    assert Outcome.UNACE not in FAILURE_OUTCOMES
