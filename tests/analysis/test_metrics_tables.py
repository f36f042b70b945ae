"""Tests for metric aggregation and table rendering."""

import math

from repro.analysis import (
    packets_between,
    render_kv,
    render_series,
    render_table,
    summarize,
)
from repro.sim.monitor import Monitor, PacketRecord


def record(time, kind="data"):
    return PacketRecord(time=time, sender=1, receiver=2, kind=kind,
                        port=None, size_bytes=30, delivered=True)


def test_summarize_basic():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.count == 4
    assert s.mean == 2.5
    assert s.minimum == 1.0
    assert s.maximum == 4.0
    assert s.p50 == 2.5


def test_summarize_empty():
    s = summarize([])
    assert s.count == 0
    assert math.isnan(s.mean)


def test_summarize_render():
    assert "n=3" in summarize([1, 2, 3]).render("ms")


def test_packets_between_window_and_exclusion():
    mon = Monitor()
    mon.log_packet(record(1.0))
    mon.log_packet(record(2.0, kind="beacon"))
    mon.log_packet(record(3.0))
    mon.log_packet(record(9.0))
    window = packets_between(mon, 0.5, 5.0)
    assert [r.time for r in window] == [1.0, 3.0]


def test_render_table_alignment():
    text = render_table(["hop", "delay"], [[1, 4.5], [10, 123.25]],
                        title="Figure 5")
    lines = text.splitlines()
    assert lines[0] == "Figure 5"
    assert "hop" in lines[1] and "delay" in lines[1]
    assert lines[-1].endswith("123.25")


def test_render_table_empty_rows():
    text = render_table(["a", "b"], [])
    assert "a" in text


def test_render_series():
    text = render_series("S", [(1, 2.0)], x_label="hop", y_label="ms")
    assert "hop" in text and "2.00" in text


def test_render_kv():
    text = render_kv("Footprints", {"ping flash": 2148, "ratio": 0.5})
    assert "ping flash" in text and "2148" in text and "0.50" in text
