"""Discrete-event simulation substrate.

The engine is a minimal generator-coroutine kernel (in the style of
SimPy): an :class:`Environment` owns the clock and event heap, processes
are generators that ``yield`` events, and :class:`AnyOf` waits for the
first of several (the receive-with-timeout idiom).  :class:`RngRegistry`
provides named seeded random streams and :class:`Monitor` collects the
observables the paper's evaluation reports.
"""

from repro.sim.engine import Environment, Infinity
from repro.sim.events import AnyOf, Event, Timeout
from repro.sim.monitor import Monitor, PacketRecord
from repro.sim.process import Process
from repro.sim.rng import RngRegistry, stable_hash

__all__ = [
    "Environment",
    "Infinity",
    "Event",
    "Timeout",
    "AnyOf",
    "Process",
    "Monitor",
    "PacketRecord",
    "RngRegistry",
    "stable_hash",
]
