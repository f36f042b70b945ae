"""Generator-coroutine processes for the discrete-event engine.

A *process* wraps a Python generator.  Each ``yield`` hands an
:class:`~repro.sim.events.Event` to the engine; the generator resumes when
that event processes, receiving the event's value (or having its exception
thrown in).  A process is itself an event that triggers when the generator
returns, so processes compose: one process can ``yield`` another to wait
for it, or pass it to :class:`~repro.sim.events.AnyOf` for timeouts.
"""

from __future__ import annotations

import typing as _t

from repro.errors import ProcessInterrupt, SimulationError
from repro.sim.events import URGENT, Event

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

__all__ = ["Process"]

ProcessGenerator = _t.Generator[Event, object, object]


class Process(Event):
    """Drives a generator through the event loop.

    The process event succeeds with the generator's return value, or fails
    with any exception that escapes the generator (including an uncaught
    :class:`~repro.errors.ProcessInterrupt`).
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: str | None = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process() needs a generator, got {generator!r}"
            )
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process currently waits on (None when running or
        #: finished).
        self._target: Event | None = None
        # Bootstrap: resume the generator for the first time as an urgent
        # event at the current instant.
        init = Event(env)
        init._ok = True
        init._value = None
        init.add_callback(self._resume)
        env.schedule(init, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`ProcessInterrupt` into the generator.

        The interrupt is delivered as an urgent event at the current
        simulated instant.  Interrupting a finished process is a no-op,
        matching the "best effort cancellation" semantics the LiteView
        controller relies on when it tears down command threads.
        """
        if self.triggered:
            return
        if self._target is not None:
            self._target.remove_callback(self._resume)
            self._target = None
        poke = Event(self.env)
        poke._ok = False
        poke._exc = ProcessInterrupt(cause)
        poke.defused = True  # delivery into the generator absorbs it
        poke.add_callback(self._resume)
        self.env.schedule(poke, priority=URGENT)

    # -- engine plumbing ----------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        if self.triggered:
            # An interrupt raced the bootstrap (or another interrupt) and
            # the generator already finished; late resumes are no-ops.
            if not event._ok:
                event.defused = True
            return
        self._target = None
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event.defused = True
                next_event = self._generator.throw(event._exc)  # type: ignore[arg-type]
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if not isinstance(next_event, Event):
            error = SimulationError(
                f"process {self.name!r} yielded {next_event!r}, not an Event"
            )
            self._generator.close()
            self.fail(error)
            return
        if next_event.env is not self.env:
            self._generator.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded an event from another "
                "environment"
            ))
            return
        self._target = next_event
        next_event.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'done' if self.triggered else 'alive'}>"
