"""The discrete-event scheduler.

:class:`Environment` owns the simulated clock and the event heap.  It is
deliberately small: deterministic ordering, a handful of factory helpers,
and strict failure propagation (an event that fails with nobody listening
crashes ``run`` — silent losses hide protocol bugs).

Determinism: events at equal timestamps order by (priority, insertion
sequence), so two runs of the same seeded scenario produce identical
traces.  This property is load-bearing for the benchmark suite, which
regenerates the paper's figures bit-for-bit.
"""

from __future__ import annotations

import heapq
import typing as _t
from itertools import count

from repro.errors import SimulationError
from repro.obs.trace import Tracer
from repro.sim.events import NORMAL, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.profiler import SimProfiler

__all__ = ["Environment", "Infinity"]

#: Sentinel horizon for "run until the heap drains".
Infinity = float("inf")


class Environment:
    """A single simulated world: clock + event heap + factories."""

    #: Recycled pooled timeouts kept per environment (see
    #: :meth:`pooled_timeout`); bounded so a burst cannot pin memory.
    _POOL_LIMIT = 1024

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._eid = count()
        self._timeout_pool: list[Timeout] = []
        #: Structured tracer shared by every subsystem of this world.
        #: Disabled by default; call sites guard on ``tracer.enabled``.
        self.tracer = Tracer()
        #: Opt-in wall-clock profiler (see :mod:`repro.obs.profiler`).
        #: ``None`` keeps dispatch on the unmeasured fast path.
        self.profiler: "SimProfiler | None" = None

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling --------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        """Insert a triggered event into the heap ``delay`` seconds ahead."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past ({delay})")
        heapq.heappush(
            self._heap, (self._now + delay, priority, next(self._eid), event)
        )

    def run(self, until: float | Event | None = None) -> object:
        """Run the simulation.

        * ``until=None`` — run until the heap drains.
        * ``until=<number>`` — run until simulated time reaches it (the
          clock lands exactly on ``until`` even if the heap drains early).
        * ``until=<Event>`` — run until that event processes and return its
          value; raise :class:`SimulationError` if the heap drains first.

        The engine's one dispatch loop: pop, set the clock, dispatch
        (through the profiler when one is attached), surface unabsorbed
        failures and recycle pooled timeouts.  A profiler attached
        mid-run (the shell's `profile on`) measures from the next event
        on.
        """
        horizon = Infinity
        target: Event | None = None
        # Filled only by the target event's callback.
        done: list[Event] = []
        if isinstance(until, Event):
            target = until
            if target.processed:
                return target.value
            target.add_callback(done.append)
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"run(until={horizon}) is in the past (now={self._now})"
                )
        heap = self._heap
        pop = heapq.heappop
        pool = self._timeout_pool
        while heap and heap[0][0] <= horizon and not done:
            when, _prio, _eid, event = pop(heap)
            self._now = when
            if self.profiler is None:
                event._process()
            else:
                self.profiler.measure(event)
            if not event._ok and not event.defused:
                # A failure nobody absorbed: surface it loudly.
                raise event._exc  # type: ignore[misc]
            if (event.__class__ is Timeout and event._pooled
                    and len(pool) < self._POOL_LIMIT):
                pool.append(event)
        if target is not None:
            if not done:
                raise SimulationError(
                    f"schedule drained before {target!r} triggered"
                )
            return target.value
        if until is not None:
            self._now = horizon
        return None

    # -- factories -----------------------------------------------------------

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def pooled_timeout(self, delay: float, value: object = None) -> Timeout:
        """A recycled timeout for yield-and-forget delays.

        Identical to :meth:`timeout` except the instance returns to a
        per-environment free pool right after its callbacks run, skipping
        an allocation per delay — CSMA backoffs alone account for tens of
        thousands per simulated minute.

        Use it **only** where the sole consumer is the immediate ``yield``
        (or a single ``add_callback``): holding a pooled timeout past its
        firing — storing it, putting it in an :class:`AnyOf`, passing
        it to ``run(until=...)`` — reads recycled state.
        """
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            if delay < 0:
                pool.append(timeout)
                raise SimulationError(f"negative timeout delay {delay!r}")
            timeout.delay = delay
            timeout.callbacks = []
            timeout._value = value
            timeout._exc = None
            timeout._ok = True
            timeout._processed = False
            timeout.defused = False
            self.schedule(timeout, delay=delay)
            return timeout
        timeout = Timeout(self, delay, value)
        timeout._pooled = True
        return timeout

    def call_at(self, when: float, fn: _t.Callable[[], None]) -> Event:
        """Schedule ``fn()`` to run at absolute simulated time ``when``.

        The hook the fault-injection engine compiles plans through: a
        plan's activations are plain callbacks at fixed times, ordered
        against same-instant traffic by insertion order like every
        other event.  ``when`` in the past (including "now") fires on
        the next dispatch without moving the clock backwards.
        """
        event = Timeout(self, max(0.0, when - self._now))
        event.add_callback(lambda _ev: fn())
        return event

    def process(self, generator: ProcessGenerator,
                name: str | None = None) -> Process:
        """Launch ``generator`` as a simulated process."""
        return Process(self, generator, name=name)

    def any_of(self, events: _t.Sequence[Event]) -> AnyOf:
        """Condition that succeeds when any of ``events`` succeeds."""
        return AnyOf(self, events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Environment t={self._now:.6f}s pending={len(self._heap)}>"
