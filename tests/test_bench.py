"""The direction-aware regression rule that ``obs history`` applies
between consecutive stored runs."""

from repro.obs.registry import is_regression


def test_tolerance_bounds():
    # Higher is better: a 40% drop passes a 50% tolerance, fails 30%.
    assert not is_regression(100.0, 60.0, "higher", 0.5)
    assert is_regression(100.0, 60.0, "higher", 0.3)
    # Exactly at the bound is not a regression, either direction.
    assert not is_regression(100.0, 80.0, "higher", 0.2)
    assert not is_regression(100.0, 120.0, "lower", 0.2)


def test_compare_no_regression_when_equal():
    for direction in ("higher", "lower"):
        assert not is_regression(100.0, 100.0, direction, 0.0)
        assert not is_regression(0.0, 0.0, direction, 0.0)


def test_compare_lower_is_better_direction():
    # An overhead growing past the bound regresses; shrinking never does.
    assert is_regression(1.5, 4.0, "lower", 0.5)
    assert is_regression(100.0, 121.0, "lower", 0.2)
    assert not is_regression(1.5, 1.0, "lower", 0.5)
    assert not is_regression(100.0, 1.0, "lower", 0.0)
    # The same growth is an improvement for a higher-is-better metric.
    assert not is_regression(1.5, 4.0, "higher", 0.5)
