"""Sim profiler: wall-clock accounting per process / event callback.

The ROADMAP's perf work needs a baseline: *which* event callbacks eat
the wall-clock when a testbed runs.  :class:`SimProfiler` hooks the
engine's dispatch loop (``Environment.profiler``) and times each
``event._process()`` call, attributing the cost to the simulated
process the event resumes (or, for bare events, the event class).

This is the **only** place wall time is allowed in the observability
stack — trace records are sim-clock-only so they stay deterministic.
The hook is opt-in: with no profiler attached the engine pays one
attribute read and an ``is None`` branch per event, nothing more.
"""

from __future__ import annotations

import time
import typing as _t
from dataclasses import dataclass

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment
    from repro.sim.events import Event

__all__ = ["ProfileEntry", "SimProfiler"]


@dataclass(frozen=True)
class ProfileEntry:
    """Aggregated cost of one label (process name or event class)."""

    label: str
    calls: int
    total_s: float
    max_s: float

    @property
    def mean_us(self) -> float:
        return self.total_s / self.calls * 1e6 if self.calls else 0.0


class SimProfiler:
    """Accumulates per-label wall-clock cost of event dispatch."""

    def __init__(self) -> None:
        # label -> [calls, total_s, max_s]
        self._stats: dict[str, list[float]] = {}
        #: Wall-clock total across all measured dispatches.
        self.total_s = 0.0
        self.calls = 0

    # -- engine hook --------------------------------------------------------

    def measure(self, event: "Event") -> None:
        """Dispatch ``event`` (calling its callbacks), timing the work.

        Called by :meth:`Environment.run` in place of the direct
        ``event._process()`` when a profiler is attached.  The label is
        resolved *before* dispatch because processing consumes the
        callback list.
        """
        label = self._label(event)
        start = time.perf_counter()
        try:
            event._process()
        finally:
            elapsed = time.perf_counter() - start
            stat = self._stats.get(label)
            if stat is None:
                self._stats[label] = [1, elapsed, elapsed]
            else:
                stat[0] += 1
                stat[1] += elapsed
                if elapsed > stat[2]:
                    stat[2] = elapsed
            self.total_s += elapsed
            self.calls += 1

    @staticmethod
    def _label(event: "Event") -> str:
        """Attribute an event to the process it resumes, if any.

        Processes register their ``_resume`` bound method as a callback;
        the first such callback names the bill-payer.  Bare events
        (timeouts nobody waits on, medium end-of-frame callbacks) fall
        back to their class name.
        """
        for callback in event.callbacks or ():
            owner = getattr(callback, "__self__", None)
            name = getattr(owner, "name", None)
            if name is not None and hasattr(owner, "_generator"):
                return f"process:{name}"
        return f"event:{type(event).__name__}"

    # -- lifecycle ----------------------------------------------------------

    def attach(self, env: "Environment") -> "SimProfiler":
        """Install onto ``env`` (replacing any previous profiler)."""
        env.profiler = self
        return self

    @staticmethod
    def detach(env: "Environment") -> None:
        """Remove whatever profiler ``env`` carries."""
        env.profiler = None

    def reset(self) -> None:
        self._stats.clear()
        self.total_s = 0.0
        self.calls = 0

    # -- reporting ----------------------------------------------------------

    def entries(self) -> list[ProfileEntry]:
        """Per-label costs, hottest first (ties break by label)."""
        entries = [
            ProfileEntry(label=label, calls=int(stat[0]),
                         total_s=stat[1], max_s=stat[2])
            for label, stat in self._stats.items()
        ]
        entries.sort(key=lambda e: (-e.total_s, e.label))
        return entries

    def report(self, top: int = 20) -> str:
        """The hotspot table future perf PRs cite as their baseline."""
        entries = self.entries()
        if not entries:
            return "profiler: no events dispatched yet"
        lines = [
            f"profiler: {self.calls} dispatches, "
            f"{self.total_s * 1e3:.3f} ms wall-clock total",
            f"{'label':<40} {'calls':>8} {'total ms':>10} "
            f"{'mean us':>9} {'max us':>9}",
        ]
        for entry in entries[:top]:
            lines.append(
                f"{entry.label:<40} {entry.calls:>8} "
                f"{entry.total_s * 1e3:>10.3f} {entry.mean_us:>9.2f} "
                f"{entry.max_s * 1e6:>9.2f}"
            )
        if len(entries) > top:
            lines.append(f"... {len(entries) - top} more labels")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SimProfiler {self.calls} calls "
                f"{self.total_s * 1e3:.1f} ms>")
