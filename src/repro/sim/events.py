"""Event primitives for the discrete-event engine.

The engine follows the classic generator-coroutine design: simulated
activities are Python generators that ``yield`` :class:`Event` objects and
are resumed when those events *process*.  This module defines the event
types; the scheduler lives in :mod:`repro.sim.engine` and the coroutine
driver in :mod:`repro.sim.process`.

Lifecycle of an event::

    created -> triggered (has a value, sits in the heap) -> processed
               (callbacks have run)

``succeed``/``fail`` trigger an event explicitly; :class:`Timeout` triggers
itself at construction time for ``delay`` seconds in the future.
"""

from __future__ import annotations

import typing as _t

from repro.errors import SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

__all__ = ["PENDING", "Event", "Timeout", "AnyOf"]

#: Sentinel for "this event has no value yet".
PENDING = object()

#: Scheduling priority for urgent bookkeeping events (process init,
#: interrupts).  Lower sorts earlier at equal timestamps.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class Event:
    """A happening at a point in simulated time.

    Events carry a *value* (delivered to a waiting process via ``yield``)
    or an *exception* (thrown into the waiting process).  Callbacks added
    after the event has processed fire immediately, which keeps condition
    composition free of races.
    """

    # Events are the engine's unit of allocation — tens of thousands per
    # simulated minute — so they carry no __dict__.
    __slots__ = ("env", "callbacks", "_value", "_exc", "_ok", "_processed",
                 "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[_t.Callable[[Event], None]] | None = []
        self._value: object = PENDING
        self._exc: BaseException | None = None
        self._ok: bool | None = None
        self._processed = False
        #: Set when a failure has been delivered somewhere (a process or a
        #: condition absorbed it); unabsorbed failures crash ``env.run``.
        self.defused = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and sits in the schedule."""
        return self._value is not PENDING or self._exc is not None

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered")
        return bool(self._ok)

    @property
    def value(self) -> object:
        """The event's value (or raises its stored exception)."""
        if self._exc is not None:
            raise self._exc
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The stored failure, if the event failed."""
        return self._exc

    # -- triggering -------------------------------------------------------

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed with ``exc``."""
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._exc = exc
        self.env.schedule(self)
        return self

    # -- callback plumbing --------------------------------------------------

    def add_callback(self, callback: _t.Callable[["Event"], None]) -> None:
        """Run ``callback(self)`` when the event processes.

        If the event has already processed the callback fires immediately;
        this makes late subscription (e.g. conditions over already-finished
        processes) well defined.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def remove_callback(self, callback: _t.Callable[["Event"], None]) -> None:
        """Unsubscribe a callback previously added (no-op if absent)."""
        if self.callbacks is not None and callback in self.callbacks:
            self.callbacks.remove(callback)

    def _process(self) -> None:
        """Run the callbacks.  Called exactly once by the scheduler."""
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks or ():
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after it is created."""

    #: ``_pooled`` marks instances owned by the environment's timeout
    #: pool (see :meth:`Environment.pooled_timeout`); the dispatch loop
    #: recycles those after their callbacks run.
    __slots__ = ("delay", "_pooled")

    def __init__(self, env: "Environment", delay: float, value: object = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._pooled = False
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)


class AnyOf(Event):
    """Succeeds as soon as any of a fixed list of events succeeds.

    The value is a dict mapping each processed, successful member to its
    value.  An empty list succeeds at once.  The first member failure is
    absorbed (defused) and fails the condition with the same exception.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: _t.Sequence[Event]):
        super().__init__(env)
        self._events = list(events)
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("condition spans multiple environments")
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            ev.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defused = True
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        self.succeed(
            {ev: ev._value for ev in self._events if ev.processed and ev.ok}
        )
