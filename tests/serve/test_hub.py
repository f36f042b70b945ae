"""Unit tests for the SSE event hub: bounded fan-out, drop accounting,
and the wire format."""

import asyncio
import json

from repro.serve.hub import EventHub, format_sse


def run(coro):
    return asyncio.run(coro)


def test_subscribe_unsubscribe_lifecycle():
    hub = EventHub()
    assert len(hub) == 0
    sub = hub.subscribe()
    assert len(hub) == 1
    assert sub in hub.subscribers
    hub.unsubscribe(sub)
    assert len(hub) == 0
    # Double unsubscribe is a no-op, not an error.
    hub.unsubscribe(sub)


def test_publish_reaches_every_subscriber():
    async def main():
        hub = EventHub()
        subs = [hub.subscribe() for _ in range(3)]
        hub.publish({"type": "health", "n": 1})
        hub.publish({"type": "trace", "n": 2})
        for sub in subs:
            first = await sub.get()
            second = await sub.get()
            assert first["n"] == 1 and second["n"] == 2
            assert sub.delivered == 2 and sub.dropped == 0
        assert hub.total_published == 2
        assert hub.total_dropped == 0

    run(main())


def test_a_scoped_subscriber_takes_only_its_fleets_events():
    """Unscoped subscribers take everything; one scoped to a fleet takes
    only events naming that fleet, so no campaign event.  A fleet has a
    listener while some subscriber takes its events."""
    hub = EventHub()
    assert not hub.listening("a")
    scoped = hub.subscribe("a")
    assert hub.listening("a") and not hub.listening("b")
    events = [{"type": "trace", "fleet": "a"},
              {"type": "trace", "fleet": "b"},
              {"type": "campaign", "campaign": "c"}]
    for event in events:
        hub.publish(event)
    assert scoped.delivered == 1 and scoped.dropped == 0
    assert scoped.queue.get_nowait() == events[0]
    everything = hub.subscribe()
    assert hub.listening("b")
    for event in events:
        hub.publish(event)
    assert [everything.queue.get_nowait() for _ in events] == events
    assert scoped.delivered == 2
    assert hub.total_published == 6


def test_full_queue_drops_and_counts_without_blocking():
    async def main():
        hub = EventHub(queue_limit=2)
        stalled = hub.subscribe()
        healthy = hub.subscribe()
        for n in range(5):
            hub.publish({"n": n})
            # The healthy reader keeps up; the stalled one never reads.
            assert (await healthy.get())["n"] == n
        assert stalled.delivered == 2       # queue bound
        assert stalled.dropped == 3         # the rest were shed
        assert healthy.dropped == 0
        assert hub.total_dropped == 3
        # The stalled reader still gets what was queued before it fell
        # behind — drops lose the newest events, never reorder.
        assert (await stalled.get())["n"] == 0
        assert (await stalled.get())["n"] == 1

    run(main())


def test_publish_with_no_subscribers_is_cheap_noop():
    hub = EventHub()
    hub.publish({"n": 1})
    assert hub.total_published == 1
    assert hub.total_dropped == 0


def test_format_sse_wire_shape():
    frame = format_sse({"type": "finding", "fleet": "f", "x": 1}, 7)
    text = frame.decode()
    lines = text.split("\n")
    assert lines[0] == "event: finding"
    assert lines[1] == "id: 7"
    assert lines[2].startswith("data: ")
    assert text.endswith("\n\n")
    payload = json.loads(lines[2][len("data: "):])
    assert payload == {"type": "finding", "fleet": "f", "x": 1}


def test_format_sse_defaults():
    frame = format_sse({"x": 1}).decode()
    assert frame.startswith("event: message\n")
    assert "id:" not in frame
