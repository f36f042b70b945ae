"""Metrics registry: counter/gauge/histogram semantics and the
monitor's delegation to the registry."""

import json

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.export import metrics_to_json
from repro.sim.monitor import Monitor, PacketRecord

# -- counters and gauges ------------------------------------------------------


def test_counter_increments_and_rejects_negative():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_holds_last_value():
    gauge = Gauge("g")
    gauge.set(3)
    gauge.set(1.5)
    assert gauge.value == 1.5


# -- histogram percentile math ------------------------------------------------


def test_empty_histogram_reports_none_everywhere():
    hist = Histogram("h")
    assert hist.count == 0
    assert hist.min is None
    assert hist.mean is None
    assert hist.max is None
    assert hist.percentile(50) is None
    summary = hist.summary()
    assert summary["count"] == 0
    assert summary["p99"] is None


def test_one_sample_histogram_is_that_sample_at_every_percentile():
    hist = Histogram("h")
    hist.observe(4.7)
    for p in (0, 1, 50, 90, 99, 100):
        assert hist.percentile(p) == 4.7
    assert hist.min == hist.mean == hist.max == 4.7


def test_nearest_rank_percentiles_on_known_set():
    """Nearest-rank on 1..100: pN is exactly N (no interpolation)."""
    hist = Histogram("h")
    for value in range(100, 0, -1):  # reverse order: exercises lazy sort
        hist.observe(value)
    assert hist.percentile(50) == 50
    assert hist.percentile(90) == 90
    assert hist.percentile(99) == 99
    assert hist.percentile(100) == 100
    assert hist.percentile(0) == 1
    assert hist.percentile(0.5) == 1  # ceil(0.5) rank -> first sample


def test_nearest_rank_small_set():
    hist = Histogram("h")
    for value in (10.0, 20.0, 30.0):
        hist.observe(value)
    assert hist.percentile(50) == 20.0   # ceil(1.5) = rank 2
    assert hist.percentile(90) == 30.0   # ceil(2.7) = rank 3
    assert hist.percentile(33.4) == 20.0


def test_percentile_range_validated():
    hist = Histogram("h")
    hist.observe(1.0)
    with pytest.raises(ValueError):
        hist.percentile(-0.1)
    with pytest.raises(ValueError):
        hist.percentile(100.1)


def test_observe_after_percentile_resorts():
    hist = Histogram("h")
    hist.observe(10.0)
    assert hist.percentile(100) == 10.0
    hist.observe(5.0)  # arrives after the sort
    assert hist.percentile(0) == 5.0
    assert hist.percentile(100) == 10.0


# -- registry -----------------------------------------------------------------


def test_registry_get_or_create_is_idempotent():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.get("a") is registry.counter("a")
    assert registry.get("missing") is None


def test_registry_rejects_type_morphing():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.histogram("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_snapshot_and_json_export_are_sorted_and_stable():
    registry = MetricsRegistry()
    registry.counter("b").inc(2)
    registry.counter("a").inc(1)
    registry.gauge("depth").set(3.0)
    registry.histogram("rtt").observe(4.0)
    snap = registry.snapshot()
    assert list(snap["counters"]) == ["a", "b"]
    assert snap["gauges"] == {"depth": 3.0}
    assert snap["histograms"]["rtt"]["count"] == 1
    # JSON export round-trips and is deterministic.
    assert json.loads(metrics_to_json(registry)) == json.loads(
        metrics_to_json(registry))


def test_render_mentions_every_section():
    registry = MetricsRegistry()
    assert registry.render() == "no metrics recorded"
    registry.counter("sent").inc()
    registry.gauge("depth").set(2)
    registry.histogram("rtt").observe(1.0)
    text = registry.render()
    assert "counters:" in text
    assert "gauges:" in text
    assert "histograms:" in text
    assert "sent" in text


# -- monitor delegation -------------------------------------------------------


def test_monitor_counters_live_in_registry():
    mon = Monitor()
    mon.count("frames", 3)
    assert mon.counter("frames") == 3
    assert mon.registry.counter("frames").value == 3
    assert mon.counters == {"frames": 3}


def test_monitor_counter_of_non_counter_metric_is_zero():
    mon = Monitor()
    mon.observe("rtt", 1.0)  # creates a histogram under this name
    assert mon.counter("rtt") == 0


def test_monitor_record_feeds_histogram():
    """Values recorded with ``observe`` land in the same-named histogram."""
    mon = Monitor()
    for value in (1.0, 2.0, 3.0, 4.0):
        mon.observe("rtt", value)
    assert mon.histogram("rtt").count == 4
    percentiles = mon.percentiles("rtt")
    assert percentiles["count"] == 4
    assert percentiles["p50"] == 2.0
    assert percentiles["max"] == 4.0


def test_monitor_histogram_lookups_reach_the_registry_object():
    """``observe``, ``histogram`` and ``percentiles`` all reach the
    registry's one histogram for a name: the monitor keeps no index of
    its own beside the registry."""
    mon = Monitor()
    mon.observe("rtt", 1.0)
    hist = mon.registry.get("rtt")
    mon.observe("rtt", 2.0)
    mon.observe("rtt", 3.0)
    assert mon.histogram("rtt") is hist
    assert mon.registry.histogram("rtt") is hist
    assert hist.count == 3
    assert mon.percentiles("rtt")["count"] == 3
    assert not [name for name, value in vars(mon).items()
                if isinstance(value, dict)]


def test_monitor_observe_skips_series():
    """``observe`` keeps only the histogram: no per-sample time series is
    stored, so a snapshot carries the summary and nothing sample by
    sample."""
    mon = Monitor()
    mon.observe("occupancy", 2.0)
    assert mon.histogram("occupancy").count == 1
    snap = mon.snapshot()
    assert "series" not in snap
    assert snap["histograms"]["occupancy"]["count"] == 1


def test_monitor_snapshot_carries_no_packet_digest():
    """A snapshot is the registry plus the packet count: hashing every
    record is :meth:`Monitor.packet_digest`'s job alone."""
    mon = Monitor()
    mon.log_packet(PacketRecord(time=0.5, sender=1, receiver=None,
                                kind="beacon", port=2, size_bytes=20,
                                delivered=True))
    snap = mon.snapshot()
    assert "packet_sha256" not in snap
    assert snap["n_packets"] == 1
    assert Monitor().snapshot() == {"counters": {}, "gauges": {},
                                    "histograms": {}, "n_packets": 0}
