"""The event hub: fan-out of fleet events to SSE subscribers.

One :class:`EventHub` per server.  Fleet supervisors ``publish`` plain
JSON-ready dicts; each connected ``/events`` client holds a
:class:`Subscription` — a **bounded** queue its pump task drains into
the socket.  A subscription scoped to one fleet (``/events?fleet=``)
is offered only the events that carry that fleet's name.

The bound is the whole point.  The simulator must never wait for a
network peer: ``publish`` is synchronous and non-blocking, and when a
subscriber's queue is full (a stalled or slow client) the event is
**dropped and counted** on that subscription instead of applying
backpressure to the sim.  Slow consumers lose events; the sim loses
nothing — the invariant the snapshot-isolation tests assert.
"""

from __future__ import annotations

import asyncio
import json
import typing as _t
from itertools import count

__all__ = ["Subscription", "EventHub", "format_sse"]

#: Default per-subscriber queue bound.  Sized to absorb one tick's burst
#: of batched events with headroom; a client that falls further behind
#: than this is dropping, not buffering.
DEFAULT_QUEUE_LIMIT = 256


class Subscription:
    """One subscriber's bounded event queue plus its drop accounting."""

    __slots__ = ("id", "fleet", "queue", "dropped", "delivered")

    def __init__(self, sub_id: int, limit: int, fleet: str | None):
        self.id = sub_id
        #: The one fleet whose events this subscriber takes, or None for
        #: every event.
        self.fleet = fleet
        self.queue: asyncio.Queue[dict] = asyncio.Queue(maxsize=limit)
        #: Events discarded because this queue was full.
        self.dropped = 0
        #: Events successfully enqueued for this subscriber.
        self.delivered = 0

    async def get(self) -> dict:
        """Next event for this subscriber (awaits until one arrives)."""
        return await self.queue.get()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Subscription {self.id} queued={self.queue.qsize()} "
                f"dropped={self.dropped}>")


class EventHub:
    """Synchronous publish, per-subscriber bounded delivery."""

    def __init__(self, *, queue_limit: int = DEFAULT_QUEUE_LIMIT):
        self.queue_limit = queue_limit
        self._subs: dict[int, Subscription] = {}
        self._ids = count(1)
        #: Running totals across all past and present subscribers.
        self.total_published = 0
        self.total_dropped = 0

    # -- subscriber lifecycle ------------------------------------------------

    def subscribe(self, fleet: str | None = None) -> Subscription:
        """A new subscriber to every event, or to ``fleet``'s alone."""
        sub = Subscription(next(self._ids), self.queue_limit, fleet)
        self._subs[sub.id] = sub
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        self._subs.pop(sub.id, None)

    @property
    def subscribers(self) -> list[Subscription]:
        return list(self._subs.values())

    def __len__(self) -> int:
        return len(self._subs)

    def listening(self, fleet: str) -> bool:
        """True while some subscriber takes ``fleet``'s events."""
        return any(sub.fleet is None or sub.fleet == fleet
                   for sub in self._subs.values())

    # -- publishing ----------------------------------------------------------

    def publish(self, event: dict) -> None:
        """Offer ``event`` to every subscriber that takes it; never blocks.

        Unscoped subscribers take every event; a scoped one takes only
        events whose ``fleet`` is its own, so campaign events reach
        unscoped subscribers alone.  A full queue drops the event *for
        that subscriber only* and increments its ``dropped`` counter —
        the producing sim thread is isolated from every consumer's pace.
        """
        self.total_published += 1
        fleet = event.get("fleet")
        for sub in self._subs.values():
            if sub.fleet is not None and sub.fleet != fleet:
                continue
            try:
                sub.queue.put_nowait(event)
                sub.delivered += 1
            except asyncio.QueueFull:
                sub.dropped += 1
                self.total_dropped += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EventHub subs={len(self._subs)} "
                f"published={self.total_published} "
                f"dropped={self.total_dropped}>")


def format_sse(event: _t.Mapping, event_id: int | None = None) -> bytes:
    """Render one event in Server-Sent Events wire format.

    ``event:`` carries the payload's ``type`` field (default
    ``message``); ``data:`` is the compact JSON body; an optional
    ``id:`` lets reconnecting clients resume.
    """
    name = str(event.get("type", "message"))
    data = json.dumps(event, sort_keys=True, separators=(",", ":"))
    lines = [f"event: {name}"]
    if event_id is not None:
        lines.append(f"id: {event_id}")
    lines.append(f"data: {data}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")
