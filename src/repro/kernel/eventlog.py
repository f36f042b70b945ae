"""Kernel event log: on-demand logging of internal events.

The paper positions LiteView alongside LiteOS's "support for
understanding system dynamics based on on-demand logging of internal
events".  This is that facility: a bounded ring of time-stamped events
the kernel services append to (radio reconfigurations, blacklist
changes, neighbor evictions, command thread launches), retrievable over
the air through the runtime controller (`events` in the shell).

The ring is sized for mote RAM: old events fall off the back, and the
total dropped count is retained so a reader can tell the log wrapped.
"""

from __future__ import annotations

import typing as _t
from collections import deque
from dataclasses import dataclass

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer

__all__ = ["KernelEvent", "EventLog", "DEFAULT_CAPACITY"]

#: Ring size: 32 events × ~40 B fits easily in mote RAM.
DEFAULT_CAPACITY = 32


@dataclass(frozen=True)
class KernelEvent:
    """One logged kernel event."""

    time: float
    code: str      # short machine-readable tag, e.g. "radio.power"
    detail: str    # human-readable specifics, e.g. "31 -> 10"

    def render(self) -> str:
        return f"[{self.time:10.3f}] {self.code}: {self.detail}"


class EventLog:
    """Bounded ring of kernel events."""

    def __init__(self, *, tracer: "Tracer | None" = None,
                 node_id: int | None = None):
        self._ring: deque[KernelEvent] = deque(maxlen=DEFAULT_CAPACITY)
        #: Events that fell off the back of the ring.
        self.dropped = 0
        #: Total events ever logged.
        self.logged = 0
        #: Optional lifecycle tracer: when attached and enabled, kernel
        #: events are mirrored into the shared trace timeline so ``events``
        #: output and exported traces tell one story.
        self._tracer = tracer
        self._node_id = node_id

    def log(self, time: float, code: str, detail: str = "") -> None:
        """Append one event (oldest entry evicted when full)."""
        if len(self._ring) == DEFAULT_CAPACITY:
            self.dropped += 1
        self._ring.append(KernelEvent(time=time, code=code, detail=detail))
        self.logged += 1
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(f"kernel.{code}", time, node=self._node_id,
                        detail=detail)

    def recent(self, limit: int | None = None) -> list[KernelEvent]:
        """The most recent ``limit`` events, oldest first.

        ``limit=None`` returns the whole ring; ``limit=0`` returns an
        empty list (a ``[-0:]`` slice used to return everything — the
        one Python slice where "last n" arithmetic betrays you).
        """
        events = list(self._ring)
        if limit is None:
            return events
        if limit < 0:
            raise ValueError(f"event log limit must be >= 0, got {limit}")
        return events[-limit:] if limit > 0 else []

    def clear(self) -> None:
        """Empty the ring (the dropped/logged totals are kept)."""
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)
