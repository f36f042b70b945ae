"""Merge logic: exact mean/CI values for known per-run counters."""

import math

import pytest

from repro.analysis import CellAggregate, aggregate_cells, mean_ci

#: Two-sided 95% Student-t critical values (df -> t), the textbook table.
T95 = {1: 12.7062047362, 2: 4.3026527300, 3: 3.1824463053,
       4: 2.7764451052, 9: 2.2621571628}


def test_mean_ci_exact_three_samples():
    mean, half = mean_ci([1.0, 2.0, 3.0])
    assert mean == 2.0
    # s = 1, n = 3 -> half = t(0.975, 2) / sqrt(3)
    assert half == pytest.approx(T95[2] / math.sqrt(3), rel=1e-9)


def test_mean_ci_exact_known_counters():
    # Delivery counts from 5 replicates of one cell.
    values = [18, 20, 19, 17, 21]
    mean, half = mean_ci(values)
    assert mean == 19.0
    s = math.sqrt(sum((v - 19.0) ** 2 for v in values) / 4)
    assert half == pytest.approx(T95[4] * s / math.sqrt(5), rel=1e-9)


def test_mean_ci_degenerate_cases():
    mean, half = mean_ci([4.0])
    assert mean == 4.0 and math.isnan(half)
    with pytest.raises(ValueError):
        mean_ci([])


def test_aggregate_cells_groups_by_params():
    rows = [
        ({"power": 10}, {"rssi": -70.0}),
        ({"power": 10}, {"rssi": -72.0}),
        ({"power": 25}, {"rssi": -55.0}),
        ({"power": 25}, {"rssi": -53.0}),
    ]
    out = aggregate_cells(rows)
    assert [(a.params, a.metric, a.n) for a in out] == [
        ({"power": 10}, "rssi", 2), ({"power": 25}, "rssi", 2),
    ]
    lo = out[0]
    assert lo.mean == -71.0
    assert lo.std == pytest.approx(math.sqrt(2), rel=1e-12)
    expected_half = T95[1] * math.sqrt(2) / math.sqrt(2)
    assert lo.half_width == pytest.approx(expected_half, rel=1e-9)
    assert lo.ci_low == pytest.approx(-71.0 - expected_half, rel=1e-9)
    assert lo.ci_high == pytest.approx(-71.0 + expected_half, rel=1e-9)


def test_aggregate_cells_metric_selection_and_non_numeric():
    rows = [
        ({"x": 1}, {"a": 1.0, "b": 2.0, "note": "skip", "flag": True}),
        ({"x": 1}, {"a": 3.0, "b": None}),
    ]
    everything = aggregate_cells(rows)
    # Strings, bools and Nones never aggregate; 'b' has one numeric sample.
    assert {(a.metric, a.n) for a in everything} == {("a", 2), ("b", 1)}
    only_a = aggregate_cells(rows, metrics=["a"])
    assert [a.metric for a in only_a] == ["a"]
    assert only_a[0].mean == 2.0


def test_aggregate_single_replicate_reports_nan_bounds():
    (agg,) = aggregate_cells([({"x": 1}, {"m": 5.0})])
    assert agg.n == 1 and agg.mean == 5.0 and agg.std == 0.0
    assert math.isnan(agg.ci_low) and math.isnan(agg.ci_high)
    assert "n=1" in agg.render()


def test_param_order_does_not_split_cells():
    rows = [
        ({"a": 1, "b": 2}, {"m": 1.0}),
        ({"b": 2, "a": 1}, {"m": 3.0}),
    ]
    (agg,) = aggregate_cells(rows)
    assert agg.n == 2 and agg.mean == 2.0


def test_render_with_interval():
    agg = CellAggregate(params={}, metric="m", n=3, mean=2.0, std=1.0,
                        ci_low=2.0 - 2.484, ci_high=2.0 + 2.484)
    text = agg.render()
    assert "±" in text and "n=3" in text and "95%" in text
