"""Prometheus text-exposition export of the metrics registry.

The exporter is the data source behind ``repro.serve``'s ``/metrics``
endpoint and a standalone batch artifact (textfile collection), so the
properties pinned here are the ones scrapers rely on: legal metric
names, escaped label values, the histogram-summary → gauge-per-
percentile mapping, and deterministic (sorted, byte-stable) output.
"""

import math

import pytest

from repro.obs.export import (
    escape_label_value,
    metrics_to_prometheus,
    prometheus_line,
    sanitize_metric_name,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry


# -- name sanitization --------------------------------------------------------

@pytest.mark.parametrize("raw, clean", [
    ("mac.sent_frames", "mac_sent_frames"),
    ("diag.finding.broken_link", "diag_finding_broken_link"),
    ("already_legal:name", "already_legal:name"),
    ("ping rtt (ms)", "ping_rtt__ms_"),
    ("9lives", "_9lives"),
    ("", "_empty_"),
])
def test_sanitize_metric_name(raw, clean):
    assert sanitize_metric_name(raw) == clean


def test_sanitized_names_are_legal_prometheus_names():
    import re
    legal = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
    for raw in ("mac.tx", "8-ball", "Ünïcode", "a b\tc", "x"):
        assert legal.match(sanitize_metric_name(raw)), raw


# -- label escaping -----------------------------------------------------------

def test_label_escaping():
    assert escape_label_value('say "hi"') == 'say \\"hi\\"'
    assert escape_label_value("back\\slash") == "back\\\\slash"
    assert escape_label_value("two\nlines") == "two\\nlines"


def test_prometheus_line_labels_sorted_and_escaped():
    line = prometheus_line("mac.tx", {"node": 7, "fleet": 'a"b'}, 3)
    assert line == 'mac_tx{fleet="a\\"b",node="7"} 3'


def test_prometheus_line_without_labels():
    assert prometheus_line("x.y", None, 1.5) == "x_y 1.5"


# -- full registry rendering --------------------------------------------------

def test_empty_registry_renders_empty_string():
    assert metrics_to_prometheus(MetricsRegistry()) == ""


def test_counters_and_gauges():
    registry = MetricsRegistry()
    registry.counter("mac.sent_frames").inc(4)
    registry.gauge("queue.depth").set(2.5)
    text = metrics_to_prometheus(registry)
    assert "# TYPE mac_sent_frames counter\nmac_sent_frames 4\n" in text
    assert "# TYPE queue_depth gauge\nqueue_depth 2.5\n" in text


def test_histogram_summary_maps_to_gauge_per_percentile():
    registry = MetricsRegistry()
    hist = registry.histogram("ping.rtt_ms")
    for value in (1.0, 2.0, 3.0, 4.0):
        hist.observe(value)
    text = metrics_to_prometheus(registry)
    assert "# TYPE ping_rtt_ms_count counter\nping_rtt_ms_count 4\n" in text
    for stat, expected in [("min", 1.0), ("max", 4.0), ("mean", 2.5),
                           ("p50", 2.0), ("p90", 4.0), ("p99", 4.0)]:
        assert (f"# TYPE ping_rtt_ms_{stat} gauge\n"
                f"ping_rtt_ms_{stat} {expected!r}\n") in text, stat


def test_empty_histogram_emits_only_count():
    registry = MetricsRegistry()
    registry.histogram("silent.series")
    text = metrics_to_prometheus(registry)
    assert "silent_series_count 0" in text
    assert "silent_series_p50" not in text
    assert "silent_series_min" not in text


def test_labels_applied_to_every_sample():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.gauge("b").set(1)
    registry.histogram("c").observe(2.0)
    text = metrics_to_prometheus(registry, labels={"fleet": "field",
                                                   "node": 3})
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        assert '{fleet="field",node="3"}' in line, line


def test_output_is_sorted_and_deterministic():
    def build():
        registry = MetricsRegistry()
        for name in ("z.last", "a.first", "m.middle"):
            registry.counter(name).inc()
        return registry

    first = metrics_to_prometheus(build())
    second = metrics_to_prometheus(build())
    assert first == second
    names = [line.split(" ")[0] for line in first.splitlines()
             if not line.startswith("#")]
    assert names == sorted(names)


def test_every_sample_line_parses(tmp_path):
    """The whole output round-trips through a minimal format parser."""
    registry = MetricsRegistry()
    registry.counter("mac.sent").inc(10)
    registry.gauge("depth").set(0.25)
    registry.histogram("rtt").observe(12.5)
    text = metrics_to_prometheus(registry, labels={"fleet": "x"})
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert kind in ("counter", "gauge")
            continue
        body, value = line.rsplit(" ", 1)
        assert not math.isnan(float(value))
        assert body.endswith('}') and '{fleet="x"' in body


def test_write_prometheus_counts_sample_lines(tmp_path):
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.histogram("h").observe(1.0)
    path = tmp_path / "metrics.prom"
    # a (1) + h_count/min/mean/max/p50/p90/p99 (7) = 8 samples
    assert write_prometheus(registry, str(path)) == 8
    content = path.read_text()
    assert content == metrics_to_prometheus(registry)
    assert content.endswith("\n")


def test_write_prometheus_empty_registry(tmp_path):
    path = tmp_path / "empty.prom"
    assert write_prometheus(MetricsRegistry(), str(path)) == 0
    assert path.read_text() == ""
