"""Bounded MAC transmit queue.

The queue matters to the reproduction twice over: its *occupancy* is one
of the observables the ping command reports (``Queue = 0/0`` in the
paper's sample output), and its hold-and-release behaviour under a busy
channel is the stated cause of Figure 5's back-to-back report arrivals
("the underlying routing protocol has a queueing mechanism to hold
packets temporarily").
"""

from __future__ import annotations

import typing as _t
from collections import deque

from repro.sim.engine import Environment
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer

__all__ = ["TxQueue", "QUEUE_CAPACITY"]

#: Frames a mote's transmit queue holds; the fault engine's
#: ``queue_saturate`` lowers it through :meth:`TxQueue.set_capacity`.
QUEUE_CAPACITY = 8


class TxQueue:
    """FIFO of frames with event-based consumption and drop accounting."""

    def __init__(self, env: Environment, *,
                 tracer: "Tracer | None" = None, owner: int | None = None):
        self.env = env
        self.capacity = QUEUE_CAPACITY
        self._items: deque = deque()
        self._getters: deque[Event] = deque()
        #: Frames rejected because the queue was full.
        self.drops = 0
        #: Frames accepted in total.
        self.enqueued = 0
        #: High-water mark of the occupancy.
        self.peak_occupancy = 0
        #: Lifecycle tracer and owning node id (None when untraced).
        self._tracer = tracer
        self._owner = owner

    @property
    def occupancy(self) -> int:
        """Number of frames currently waiting (the ping report's value)."""
        return len(self._items)

    @property
    def is_full(self) -> bool:
        """True when another ``put`` would be rejected."""
        return len(self._items) >= self.capacity

    def put(self, item: object) -> bool:
        """Enqueue ``item``; returns False (and counts a drop) if full."""
        tracer = self._tracer
        if self._getters:
            # A consumer is already waiting: hand over directly.
            self.enqueued += 1
            self._getters.popleft().succeed(item)
            if tracer is not None and tracer.enabled:
                tracer.emit("mac.enqueue", self.env.now, node=self._owner,
                            packet=getattr(item, "trace_id", None),
                            occupancy=0)
            return True
        if len(self._items) >= self.capacity:
            self.drops += 1
            if tracer is not None and tracer.enabled:
                tracer.emit("mac.queue_drop", self.env.now, node=self._owner,
                            packet=getattr(item, "trace_id", None),
                            reason="queue_full", occupancy=len(self._items))
            return False
        self.enqueued += 1
        self._items.append(item)
        self.peak_occupancy = max(self.peak_occupancy, len(self._items))
        if tracer is not None and tracer.enabled:
            tracer.emit("mac.enqueue", self.env.now, node=self._owner,
                        packet=getattr(item, "trace_id", None),
                        occupancy=len(self._items))
        return True

    def get(self) -> Event:
        """An event that yields the next frame (immediately if available)."""
        event = Event(self.env)
        if self._items:
            item = self._items.popleft()
            tracer = self._tracer
            if tracer is not None and tracer.enabled:
                tracer.emit("mac.dequeue", self.env.now, node=self._owner,
                            packet=getattr(item, "trace_id", None),
                            occupancy=len(self._items))
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    def set_capacity(self, capacity: int) -> None:
        """Re-bound the queue (the fault engine's ``queue_saturate`` hook).

        Frames already waiting above a lowered bound stay queued — the
        clamp starts rejecting new work, it does not destroy old work —
        so occupancy drains through the MAC as usual while ``put``
        answers False, exactly the congested-mote symptom the diagnosis
        commands report as a full queue.
        """
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity

    def clear(self) -> list:
        """Drop all queued frames (used when a node's radio is disabled)."""
        dropped = list(self._items)
        self._items.clear()
        return dropped

    def snapshot(self) -> _t.Mapping[str, int]:
        """Counters for diagnostics and tests."""
        return {
            "occupancy": self.occupancy,
            "capacity": self.capacity,
            "enqueued": self.enqueued,
            "drops": self.drops,
            "peak_occupancy": self.peak_occupancy,
        }
