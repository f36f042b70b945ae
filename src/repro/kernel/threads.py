"""Thread table: LiteView commands run as individual kernel threads.

"Unlike other built-in commands supported by LiteOS, the commands
supported by LiteView are executed as individual processes."  The thread
table models that: a bounded registry of named simulated processes with
spawn/kill/list — the process-level control LiteView has over its command
executables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KernelError, ProcessInterrupt
from repro.sim.engine import Environment
from repro.sim.process import Process, ProcessGenerator

__all__ = ["ThreadInfo", "ThreadTable", "MAX_THREADS", "MAX_TID"]

#: LiteOS-class kernels run a handful of threads on the ATmega128.
MAX_THREADS = 8
#: Largest thread id: ``ps`` and ``kill`` carry a tid in 16 bits.
MAX_TID = 0xFFFF


@dataclass
class ThreadInfo:
    """One kernel thread: a simulated process plus metadata."""

    tid: int
    name: str
    process: Process
    started_at: float

    @property
    def alive(self) -> bool:
        """True while the thread's process has not finished."""
        return self.process.is_alive


class ThreadTable:
    """Bounded registry of a node's running threads."""

    def __init__(self, env: Environment, node_id: int):
        self.env = env
        self.node_id = node_id
        self._last_tid = 0
        self._threads: dict[int, ThreadInfo] = {}

    def spawn(self, name: str, generator: ProcessGenerator) -> ThreadInfo:
        """Start ``generator`` as a named thread.

        Raises :class:`KernelError` when every slot holds a live thread —
        the admission control a 4 KB-RAM mote actually enforces.
        """
        self._reap()
        if len(self._threads) >= MAX_THREADS:
            raise KernelError(
                f"node {self.node_id}: thread table full "
                f"({MAX_THREADS} threads)"
            )
        tid = self._next_tid()
        info = ThreadInfo(
            tid=tid, name=name,
            process=self.env.process(
                _absorb_kill(generator), name=f"{name}@{self.node_id}"
            ),
            started_at=self.env.now,
        )
        self._threads[tid] = info
        return info

    def _next_tid(self) -> int:
        """The next free id in 1..:data:`MAX_TID`, wrapping after the
        last one and skipping ids still held by a live thread."""
        tid = self._last_tid
        while True:
            tid = tid % MAX_TID + 1
            if tid not in self._threads:
                self._last_tid = tid
                return tid

    def alive(self) -> list[ThreadInfo]:
        """Live threads, oldest first (spawn order, which is id order
        until the ids wrap)."""
        self._reap()
        return list(self._threads.values())

    def find(self, name: str) -> ThreadInfo | None:
        """The oldest live thread with this name, if any."""
        for info in self.alive():
            if info.name == name:
                return info
        return None

    def kill(self, tid: int) -> bool:
        """Interrupt a live thread; returns whether one was found."""
        info = self._threads.get(tid)
        if info is None or not info.alive:
            return False
        info.process.interrupt("killed")
        return True

    def _reap(self) -> None:
        finished = [tid for tid, t in self._threads.items() if not t.alive]
        for tid in finished:
            del self._threads[tid]


def _absorb_kill(generator: ProcessGenerator):
    """Driver that turns ``kill`` into a clean death.

    Threads are killed by throwing :class:`ProcessInterrupt` into their
    generator; a command that does not handle it just stops — the
    kernel's semantics for killing a process — rather than crashing the
    scheduler with an unhandled failure.
    """
    try:
        result = yield from generator
        return result
    except ProcessInterrupt:
        return None
