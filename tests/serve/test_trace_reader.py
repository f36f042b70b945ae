"""A served fleet traces only while an ``/events`` client listens.

Each ``FleetSupervisor.advance`` switches the packet-lifecycle tracer on
exactly when the fleet's event hub has a subscriber to that fleet's
events (an unscoped one, or one whose ``?fleet=`` names it), then
publishes and clears what that advance recorded.  Pinned world:
``chain:5``, seed 11, advanced 8 x 5 s.  Tracing draws nothing and
schedules nothing, so the packet digest is the same whoever listens,
and a listener gets the same trace batches for the ticks it was
connected as one that listened from the start.  On a server of two
fleets, a ``?fleet=`` client reads, and traces, its own fleet alone.
"""

import asyncio
import hashlib
import json

import pytest

from repro.serve import ServeApp, build_fleet

from tests.serve.conftest import open_events

TICKS = 8
#: ``Monitor.packet_digest()`` of the pinned world after 8 x 5 s.
PACKET_DIGEST = \
    "8de6d5d4678fa3f8a74ce3bba13fad7c3bb7b03becd72cb47f94ee9701e9cc17"
#: SHA-256 of the compact, key-sorted JSON list of every ``trace`` event
#: a subscriber from the first advance receives: 10 batches, 1,347
#: trace records.
TRACE_SHA256 = \
    "593c637dd20f6b33f1c28dbe7da58abd2f84bc183699a968a8a40a40e21f3ad4"


def run(listening):
    """Advance the pinned fleet ``TICKS`` times, with one subscriber
    connected before each advance whose index is in ``listening``.

    Returns the fleet, the ``trace`` events published at each tick, and
    whether the tracer ran at each tick.
    """
    fleet = build_fleet("chain:5", seed=11, assess_every=20.0,
                        warm_up=10.0)
    published = []
    publish = fleet.hub.publish

    def recording(event):
        published.append(event)
        publish(event)

    fleet.hub.publish = recording
    sub, ticks, traced = None, [], []
    for tick in range(TICKS):
        if tick in listening and sub is None:
            sub = fleet.hub.subscribe()
        elif tick not in listening and sub is not None:
            fleet.hub.unsubscribe(sub)
            sub = None
        start = len(published)
        fleet.advance(5.0)
        traced.append(fleet.testbed.tracer.enabled)
        if sub is not None:  # the subscriber received all of it
            assert [sub.queue.get_nowait()
                    for _ in range(sub.queue.qsize())] == published[start:]
        ticks.append([event for event in published[start:]
                      if event["type"] == "trace"])
    return fleet, ticks, traced


def sha256(value) -> str:
    return hashlib.sha256(json.dumps(
        value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned():
    """The trace events of each tick, subscribed from the start."""
    return run(range(TICKS))


def test_no_subscriber_no_trace():
    fleet, ticks, traced = run(())
    assert traced == [False] * TICKS
    assert ticks == [[]] * TICKS
    assert len(fleet.testbed.tracer) == 0
    assert fleet.monitor.packet_digest() == PACKET_DIGEST


def test_a_subscriber_from_the_start_gets_the_pinned_trace(pinned):
    fleet, ticks, traced = pinned
    assert traced == [True] * TICKS
    batches = [event for tick in ticks for event in tick]
    assert len(batches) == 10
    assert sum(len(batch["events"]) for batch in batches) == 1347
    assert sha256(batches) == TRACE_SHA256
    assert len(fleet.testbed.tracer) == 0  # each tick cleared what it sent
    assert fleet.monitor.packet_digest() == PACKET_DIGEST


def test_a_late_subscriber_gets_the_pinned_ticks_it_listened_to(pinned):
    _, full, _ = pinned
    fleet, ticks, traced = run(range(3, 6))
    assert traced == [False] * 3 + [True] * 3 + [False] * 2
    assert ticks[3:6] == full[3:6]
    assert all(full[3:6])
    assert ticks[:3] + ticks[6:] == [[]] * 5
    assert fleet.monitor.packet_digest() == PACKET_DIGEST


async def stream_two_fleets(path):
    """Advance two ``chain:3`` fleets, ``a`` (seed 3) and ``b`` (seed 4),
    4 x 5 s behind one server with one client on ``path``.

    Returns every event the client read (as many as the hub delivered
    to it) and each fleet's tracer state after each advance.
    """
    fleets = [build_fleet("chain:3", seed=seed, name=name, warm_up=1.0)
              for name, seed in (("a", 3), ("b", 4))]
    app = ServeApp(fleets)
    await app.start(auto_tick=False)
    try:
        _, _, reader, writer = await open_events(app.port, path)
        (sub,) = app.hub.subscribers
        traced = {fleet.name: [] for fleet in fleets}
        for _ in range(4):
            for fleet in fleets:
                fleet.advance(5.0)
                traced[fleet.name].append(fleet.testbed.tracer.enabled)
            await asyncio.sleep(0)
        events = []
        while len(events) < sub.delivered:
            frame = await asyncio.wait_for(reader.readuntil(b"\n\n"),
                                           timeout=10)
            events.append(json.loads(frame.split(b"data: ", 1)[1]))
        assert sub.dropped == 0
        writer.close()
        return events, traced
    finally:
        await app.stop()


def test_a_fleet_scoped_client_reads_and_traces_only_its_fleet():
    events, traced = asyncio.run(stream_two_fleets("/events?fleet=a"))
    assert events and {event["fleet"] for event in events} == {"a"}
    assert {event["type"] for event in events} == {"trace"}
    assert traced == {"a": [True] * 4, "b": [False] * 4}


def test_an_unscoped_client_reads_and_traces_every_fleet():
    events, traced = asyncio.run(stream_two_fleets("/events"))
    assert {event["fleet"] for event in events} == {"a", "b"}
    assert traced == {"a": [True] * 4, "b": [True] * 4}
