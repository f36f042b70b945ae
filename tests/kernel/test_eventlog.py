"""Unit tests for the kernel event log."""

import pytest

from repro.kernel import EventLog, Testbed
from repro.kernel.eventlog import DEFAULT_CAPACITY


def test_log_and_recent_order():
    log = EventLog()
    log.log(1.0, "a", "first")
    log.log(2.0, "b", "second")
    events = log.recent()
    assert [e.code for e in events] == ["a", "b"]
    assert events[0].time == 1.0


def test_ring_wraps_and_counts_drops():
    log = EventLog()
    for i in range(DEFAULT_CAPACITY + 2):
        log.log(float(i), f"e{i}")
    assert len(log) == DEFAULT_CAPACITY
    assert log.dropped == 2
    assert log.logged == DEFAULT_CAPACITY + 2
    assert [e.code for e in log.recent()] == [
        f"e{i}" for i in range(2, DEFAULT_CAPACITY + 2)]


def test_recent_limit():
    log = EventLog()
    for i in range(5):
        log.log(float(i), f"e{i}")
    assert [e.code for e in log.recent(2)] == ["e3", "e4"]


def test_recent_limit_zero_is_empty():
    """Regression: ``events[-0:]`` is the whole list, so limit=0 used to
    return the entire ring instead of nothing."""
    log = EventLog()
    for i in range(5):
        log.log(float(i), f"e{i}")
    assert log.recent(0) == []


def test_recent_negative_limit_raises():
    log = EventLog()
    log.log(0.0, "x")
    with pytest.raises(ValueError):
        log.recent(-1)


def test_recent_limit_beyond_length_returns_all():
    log = EventLog()
    log.log(0.0, "x")
    assert [e.code for e in log.recent(100)] == ["x"]


def test_clear_keeps_totals():
    log = EventLog()
    log.log(0.0, "x")
    log.clear()
    assert len(log) == 0
    assert log.logged == 1


def test_render():
    log = EventLog()
    log.log(12.5, "radio.power", "31 -> 10")
    assert "radio.power: 31 -> 10" in log.recent()[0].render()


def test_kernel_services_log_events():
    tb = Testbed(seed=1)
    node = tb.add_node("a", (0, 0))
    node.syscalls.invoke("radio_set_power", 10)
    node.neighbors.blacklist(7)
    node.neighbors.set_beacon_interval(1.0)
    codes = [e.code for e in node.events.recent()]
    assert "radio.power" in codes
    assert "neighbor.blacklist" in codes
    assert "neighbor.beacon_interval" in codes


def test_kernel_events_route_to_tracer_when_enabled():
    tb = Testbed(seed=1)
    node = tb.add_node("a", (0, 0))
    node.syscalls.invoke("radio_set_power", 10)  # before enable: not traced
    tb.tracer.enable()
    node.syscalls.invoke("radio_set_channel", 20)
    node.neighbors.blacklist(7)
    kinds = [(e.kind, e.node) for e in tb.tracer.events
             if e.kind.startswith("kernel.")]
    assert ("kernel.radio.channel", node.id) in kinds
    assert ("kernel.neighbor.blacklist", node.id) in kinds
    assert all(kind != "kernel.radio.power" for kind, _ in kinds)
    # The ring itself still has everything.
    assert "radio.power" in [e.code for e in node.events.recent()]


def test_event_log_syscall():
    tb = Testbed(seed=1)
    node = tb.add_node("a", (0, 0))
    node.syscalls.invoke("radio_set_channel", 20)
    events = node.syscalls.invoke("event_log", 5)
    assert events and events[-1].code == "radio.channel"
