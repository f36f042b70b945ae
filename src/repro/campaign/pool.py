"""Persistent warm-worker pool: one cell in flight per warm worker.

Workers are **warm**: each imports the simulator and the scenario
registry once, then services every batch of the process's lifetime.
Campaigns, the benches and the serve layer share one pool through
:func:`get_warm_pool`, so that import bill is paid once per process.

Each worker is a **slot**, a single-worker
:class:`~concurrent.futures.ProcessPoolExecutor` never given more than
one cell at a time; :meth:`WarmPool.run_batch` hands the next cell to
whichever slot finishes first.  Scheduling changes wall-clock only: a
cell's outcome is a pure function of its
:class:`~repro.campaign.spec.RunSpec`, and results are reassembled by index.

A worker that *dies* (OOM killer, ``os._exit`` in scenario code) breaks
only its own slot, so its ``BrokenProcessPool`` names exactly the cell
it held: that cell settles as a failed result (the runner's retry
ladder applies) and the slot is replaced.  A shared N-worker executor
cannot do this: one death terminates all its workers and fails every
pending future with the same ``BrokenProcessPool``.  The pool never
runs a cell in the caller, so a cell that kills every worker it touches
costs failed results, never the calling process.

Each slot keeps two threads in the parent (its manager and its call
queue's feeder).  Interpreter exit joins the manager threads before
:mod:`atexit` runs, so a cell already running finishes first.
"""

from __future__ import annotations

import atexit
import importlib
import multiprocessing
import os
import sys
import threading
import traceback
import typing as _t
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import replace

from repro.campaign.results import RunResult
from repro.campaign.spec import RunSpec

__all__ = [
    "WarmPool",
    "get_warm_pool",
    "shutdown_warm_pools",
    "resolve_start_method",
    "PRELOAD",
]

#: Modules every worker imports once at startup (the scenario registry
#: pulls the heavy simulator stack in behind it).  Paying this while the
#: pool is idle is the whole point of warm workers.
PRELOAD = (
    "repro.campaign.scenarios",
    "repro.workloads",
    "repro.core.deploy",
    "repro.faults",
    "repro.diag",
)


def resolve_start_method(name: str) -> str | None:
    """The concrete start method for ``name``, or None for "run serially".

    ``"auto"`` prefers ``forkserver`` (cheap refills, no inherited
    threads) and falls back to ``spawn``.  ``spawn``/``forkserver``
    children re-import the parent's ``__main__``; when that module has a
    recorded file that does not exist on disk (a stdin-fed script, a
    REPL), every child would die at startup — degrade to ``fork`` where
    available, else to serial.  Correctness never depends on the
    context, only wall-clock does.
    """
    methods = multiprocessing.get_all_start_methods()
    if name == "auto":
        name = "forkserver" if "forkserver" in methods else "spawn"
    if name not in methods:
        return None
    if name in ("spawn", "forkserver"):
        main = sys.modules.get("__main__")
        spec_name = getattr(getattr(main, "__spec__", None), "name", None)
        main_file = getattr(main, "__file__", None)
        if (spec_name is None and main_file is not None
                and not os.path.exists(main_file)):
            name = "fork" if "fork" in methods else None
    return name


def _preload() -> None:
    """Slot initializer: import the simulator once, before any cell."""
    for module in PRELOAD:
        try:
            importlib.import_module(module)
        except Exception:  # pragma: no cover - a missing optional module
            pass            # must not kill the worker; runs import lazily


def _execute_task(spec: RunSpec, timeout_s: float | None,
                  attempt: int, cache) -> RunResult:
    """One cell attempt: cache probe, execute, cache fill.

    Warm workers run it, and so does the runner's serial path.
    ``attempt`` is threaded onto the result *before* the cache put, so
    a cached re-read reports the true attempt count (a run that failed
    once and succeeded on retry caches ``attempts=2``).
    """
    from repro.campaign.runner import execute_spec

    if cache is not None:
        hit = cache.get(spec)
        if hit is not None:
            return hit
    result = replace(execute_spec(spec, timeout_s), attempts=attempt)
    if cache is not None:
        cache.put(result)
    return result


class _Slot(ProcessPoolExecutor):
    """One warm worker process; the pool gives it one cell at a time."""

    def __init__(self, ctx):
        super().__init__(1, mp_context=ctx, initializer=_preload)
        # Start the worker now, so it imports while the pool is idle.
        self.ready = self.submit(os.getpid)

    @property
    def pid(self) -> int | None:
        """The worker's pid while it lives, else None."""
        procs = (self._processes or {}).values()  # {pid: Process}
        return next((proc.pid for proc in procs if proc.is_alive()), None)


class WarmPool:
    """A long-lived pool of pre-imported worker processes.

    Create one (or share the registry's via :func:`get_warm_pool`), then
    call :meth:`run_batch` any number of times; workers persist across
    batches and campaigns.  ``close()`` (also registered ``atexit``)
    shuts the workers down.
    """

    def __init__(self, workers: int, mp_context: str = "auto"):
        method = resolve_start_method(mp_context)
        if method is None:
            raise RuntimeError(
                f"no usable multiprocessing start method for "
                f"{mp_context!r} on this platform")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.method = method
        self._ctx = multiprocessing.get_context(method)
        if method == "forkserver":
            # The forkserver imports the simulator once; every worker
            # (and every replacement after a crash) forks from that warm
            # image instead of re-importing.
            self._ctx.set_forkserver_preload(list(PRELOAD))
        # One batch at a time: a batch assumes its slots start idle, so a
        # concurrent caller (the serve layer's campaign threads) waits.
        self._batch_lock = threading.Lock()
        self._closed = False
        self._slots = [_Slot(self._ctx) for _ in range(workers)]
        atexit.register(self.close)

    # -- lifecycle -----------------------------------------------------------

    @property
    def alive(self) -> int:
        """Live worker processes right now."""
        return len(self.pids())

    def pids(self) -> list[int]:
        """PIDs of live workers (stable across batches — the warmth)."""
        return [pid for pid in (slot.pid for slot in self._slots)
                if pid is not None]

    def warm(self, timeout_s: float = 120.0) -> int:
        """Block until workers report their imports done; returns how
        many are warm.  Purely an optimisation hook (benches, serve) —
        ``run_batch`` works regardless."""
        done, _ = wait([slot.ready for slot in self._slots],
                       timeout=timeout_s)
        return sum(1 for future in done if future.exception() is None)

    def close(self) -> None:
        """Shut every worker down (idempotent; registered atexit)."""
        self._closed = True
        for slot in self._slots:
            slot.shutdown()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- batch execution -----------------------------------------------------

    def run_batch(self, indexed: _t.Sequence[tuple[int, RunSpec]], *,
                  timeout_s: float | None = None, attempt: int = 1,
                  cache=None) -> _t.Iterator[tuple[int, RunResult]]:
        """Yield ``(index, result)`` for every task, in completion order.

        ``indexed`` pairs an opaque caller index with a spec; workers
        probe/fill ``cache`` themselves (it must be picklable — a
        :class:`~repro.campaign.cache.ResultCache` is).  Every task
        yields exactly once, whatever workers live or die.  A lock held
        from the first step until the generator is exhausted (or closed)
        makes a concurrent caller wait for this batch to drain.
        """
        with self._batch_lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            todo = list(indexed)[::-1]
            idle = list(range(self.workers))[::-1]
            running: dict[Future, tuple[int, int, RunSpec]] = {}
            while todo or running:
                while todo and idle:
                    n, (index, spec) = idle.pop(), todo.pop()
                    if self._slots[n].pid is None:  # died while idle
                        self._replace(n)
                    try:
                        future = self._slots[n].submit(
                            _execute_task, spec, timeout_s, attempt, cache)
                    except BrokenProcessPool as exc:  # died since then
                        future = Future()
                        future.set_exception(exc)
                    running[future] = (n, index, spec)
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    n, index, spec = running.pop(future)
                    idle.append(n)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        self._replace(n)
                        result = RunResult(
                            spec=spec, attempts=attempt,
                            error=f"worker process {n} died mid-run "
                                  "(killed or crashed hard)")
                    except Exception:  # raised worker-side, e.g. by cache
                        result = RunResult(
                            spec=spec, attempts=attempt,
                            error=traceback.format_exc(limit=8))
                    yield index, result

    def _replace(self, n: int) -> None:
        """Swap slot ``n`` for a fresh warm worker."""
        self._slots[n].shutdown(wait=False)
        self._slots[n] = _Slot(self._ctx)


# -- shared pool registry ----------------------------------------------------

_POOLS: dict[str, WarmPool] = {}
_POOLS_LOCK = threading.Lock()


def get_warm_pool(workers: int, mp_context: str = "auto",
                  ) -> WarmPool | None:
    """The process-wide shared pool for ``context``, created on first
    use and reused (warm) by every later campaign.

    One pool per start method: a request needing more workers than the
    current pool holds retires it (after any in-flight batch drains)
    and builds a bigger one; smaller requests share the existing pool —
    extra idle workers cost almost nothing, while a registry keyed by
    size would let a server fielding client-chosen worker counts
    accumulate one persistent worker set per distinct count.  Returns
    None when no multiprocessing context is usable — callers fall back
    to serial execution.
    """
    method = resolve_start_method(mp_context)
    if method is None or workers < 1:
        return None
    with _POOLS_LOCK:
        pool = _POOLS.get(method)
        if pool is not None and not pool.closed:
            if pool.workers >= workers:
                return pool
            workers = max(workers, pool.workers)
            # Let the batch in flight (if any) finish on the old pool
            # before retiring it — its campaign completes untouched.
            with pool._batch_lock:
                pool.close()
        pool = WarmPool(workers, method)
        _POOLS[method] = pool
        return pool


def shutdown_warm_pools() -> None:
    """Close every registry pool (tests; long-lived hosts on reload)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()
