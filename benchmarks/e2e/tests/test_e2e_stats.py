"""Order statistics, snapshot deltas and the regression rule."""

import statistics

import pytest

from stats import (
    counter_delta,
    histogram_delta_quantile,
    median,
    percentile,
    quartiles,
    spread,
    summarize,
    verdict,
)


def test_median_and_quartiles_on_known_arrays():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert quartiles(values) == statistics.quantiles(values, n=4) == [2.75, 5.5, 8.25]
    assert quartiles([5.0]) == [5.0, 5.0, 5.0]


def test_spread_is_quartile_distance_over_median():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert spread([7.0]) == 0.0
    assert spread([2.0, 2.0, 2.0]) == 0.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([9, 1, 5], 0.5) == 5
    assert percentile([4], 0.99) == 4
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_summarize_keeps_the_values():
    summary = summarize([10.0, 12.0, 11.0])
    assert summary["values"] == [10.0, 12.0, 11.0]
    assert summary["median"] == 11.0
    assert summary["q1"] <= summary["median"] <= summary["q3"]


def test_counter_delta_sums_a_family():
    before = {"counters": {"sent.A": 5, "sent.B": 1, "sent_bytes.A": 100, "sent": 2}}
    after = {"counters": {"sent.A": 9, "sent.B": 1, "sent.C": 3, "sent_bytes.A": 180, "sent": 2}}
    assert counter_delta(before, after, "sent") == 4 + 0 + 3
    assert counter_delta(before, after, "sent_bytes") == 80
    assert counter_delta({}, after, "sent.C") == 3
    assert counter_delta(before, after, "missing") == 0


def test_histogram_delta_quantile_interpolates_in_the_bucket():
    bounds = [1.0, 2.0, 4.0]
    before = {"histograms": {"h": {"bounds": bounds, "counts": [10, 0, 0, 0], "max": 1.0}}}
    after = {"histograms": {"h": {"bounds": bounds, "counts": [10, 4, 4, 2], "max": 9.0}}}
    # The window gained 4 in (1,2], 4 in (2,4], 2 overflow.
    assert histogram_delta_quantile(before, after, "h", 0.2) == pytest.approx(1.5)
    assert histogram_delta_quantile(before, after, "h", 0.5) == pytest.approx(2.5)
    assert histogram_delta_quantile(before, after, "h", 0.99) == 9.0
    assert histogram_delta_quantile(before, before, "h", 0.5) is None
    assert histogram_delta_quantile(before, after, "absent", 0.5) is None
    assert histogram_delta_quantile({}, after, "h", 0.5) is not None


def _summary(mid, spread_):
    return {"median": mid, "spread": spread_}


def test_verdict_ok_regressed_unresolved():
    assert verdict(_summary(100, 0.01), _summary(105, 0.01), "lower", 0.10)["status"] == "ok"
    assert verdict(_summary(100, 0.01), _summary(112, 0.01), "lower", 0.10)["status"] == "regressed"
    assert verdict(_summary(100, 0.01), _summary(88, 0.01), "lower", 0.10)["status"] == "ok"
    assert verdict(_summary(100, 0.01), _summary(88, 0.01), "higher", 0.10)["status"] == "regressed"
    assert verdict(_summary(100, 0.01), _summary(120, 0.01), "higher", 0.10)["status"] == "ok"
    # A spread wider than the bound cannot resolve a change of that size.
    assert verdict(_summary(100, 0.15), _summary(130, 0.01), "lower", 0.10)["status"] == "unresolved"
    outcome = verdict(_summary(200.0, 0.0), _summary(210.0, 0.0), "lower", 0.10)
    assert outcome["relative"] == pytest.approx(0.05)
    assert outcome["base"] == 200.0 and outcome["change"] == 210.0 and outcome["bound"] == 0.10
