"""Metrics and monitor state must survive a pickle round-trip.

Campaign workers return their observations across a process boundary;
these are the regression tests that every metrics object — and the
plain-data snapshots the runner actually ships — pickles at *every*
protocol (the ``__slots__`` classes need explicit state for protocols
0 and 1).
"""

import pickle

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.monitor import Monitor

ALL_PROTOCOLS = list(range(pickle.HIGHEST_PROTOCOL + 1))


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_metric_primitives_roundtrip(protocol):
    counter = Counter("c")
    counter.inc(41)
    gauge = Gauge("g")
    gauge.set(2.5)
    hist = Histogram("h")
    for v in (3.0, 1.0, 2.0):
        hist.observe(v)
    repeats = Histogram("lqi")
    for v in (105, 98, 105, 105, 98, 71):
        repeats.observe(v)
    summary = repeats.summary()  # fills the sorted-key cache

    c2 = pickle.loads(pickle.dumps(counter, protocol))
    assert (c2.name, c2.value) == ("c", 41)
    c2.inc()  # still usable
    assert c2.value == 42

    g2 = pickle.loads(pickle.dumps(gauge, protocol))
    assert (g2.name, g2.value) == ("g", 2.5)

    h2 = pickle.loads(pickle.dumps(hist, protocol))
    assert h2.count == 3 and h2.percentile(50) == 2.0
    assert sorted(h2.values()) == [1.0, 2.0, 3.0]

    # The value -> count state: repeats survive as counts, and the
    # clone keeps observing (a new distinct value re-sorts its keys).
    r2 = pickle.loads(pickle.dumps(repeats, protocol))
    assert r2.name == "lqi"
    assert repr(r2.summary()) == repr(summary)
    assert r2.values() == [71.0, 98.0, 98.0, 105.0, 105.0, 105.0]
    r2.observe(50)
    assert (r2.count, r2.min, r2.percentile(50)) == (7, 50.0, 98.0)
    assert repeats.count == 6  # the original is untouched


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_registry_roundtrip(protocol):
    registry = MetricsRegistry()
    registry.counter("tx").inc(7)
    registry.gauge("depth").set(3.0)
    registry.histogram("rtt").observe(4.5)

    clone = pickle.loads(pickle.dumps(registry, protocol))
    assert clone.counters() == {"tx": 7}
    assert clone.gauges() == {"depth": 3.0}
    assert clone.histogram("rtt").count == 1
    assert clone.snapshot() == registry.snapshot()
    # Type guarding still works after the round-trip.
    with pytest.raises(TypeError):
        clone.gauge("tx")


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_monitor_roundtrip(protocol):
    from repro.sim.monitor import PacketRecord
    monitor = Monitor()
    monitor.count("sent", 3)
    monitor.observe("queue", 1.0)
    monitor.log_packet(PacketRecord(time=0.5, sender=1, receiver=2,
                                    kind="data", port=10, size_bytes=32,
                                    delivered=True))

    clone = pickle.loads(pickle.dumps(monitor, protocol))
    assert clone.counter("sent") == 3
    assert clone.percentiles("queue")["count"] == 1
    assert clone.packet_digest() == monitor.packet_digest()
    # The memo caches still function: counting after unpickle works.
    clone.count("sent")
    assert clone.counter("sent") == 4


def test_monitor_snapshot_is_plain_and_picklable():
    monitor = Monitor()
    monitor.count("medium.transmissions", 9)
    monitor.observe("lqi", 101.0)
    snap = monitor.snapshot()
    assert snap["counters"] == {"medium.transmissions": 9}
    assert snap["n_packets"] == 0
    assert snap["histograms"]["lqi"]["count"] == 1
    for protocol in ALL_PROTOCOLS:
        assert pickle.loads(pickle.dumps(snap, protocol)) == snap
    # JSON-ready too: no live objects anywhere.
    import json
    assert json.loads(json.dumps(snap)) == snap
