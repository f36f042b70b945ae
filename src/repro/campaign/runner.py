"""Execute a campaign: serially, or over the persistent warm-worker pool.

The runner owns everything *around* a run — cache prefetch, the warm
pool, per-run timeouts, bounded retries, progress reporting — while the
run itself is a pure function of its :class:`RunSpec`: the worker
resolves the scenario by name, builds the world from the spec's derived
seed, and returns a picklable :class:`RunResult`.  Because no run reads
anything from another run (or from the parent process), the sharded
campaign is bit-for-bit identical to the serial one; worker count only
changes wall-clock.

Parallel execution goes through :mod:`repro.campaign.pool`: a
process-wide pool of **warm** workers that imported the simulator once
and then service every campaign of the process's lifetime, each given
the next cell as soon as it finishes its last.  With ``workers > 1``,
or a per-run ``timeout_s`` (armed only in a worker), every cell runs in
the pool, so a cell that kills its process never kills the caller.
Where no multiprocessing context is usable the runner silently degrades
to in-process serial execution without deadlines — correctness never
depends on the pool.

Failure handling is per-run, never campaign-fatal: an exception, a
timeout, or a worker process death becomes a ``RunResult`` with
``error`` set, the run is retried up to ``retries`` extra times, and
whatever still fails is reported in ``CampaignResult.failures``
alongside the successes.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
import typing as _t
from dataclasses import dataclass, field

from repro.campaign.cache import as_cache
from repro.campaign.pool import _execute_task, get_warm_pool
from repro.campaign.results import CampaignResult, RunResult
from repro.campaign.scenarios import import_scenario_module, resolve_scenario
from repro.campaign.spec import Campaign, CampaignShard, RunSpec
from repro.plan import check

__all__ = ["run_campaign", "execute_spec", "default_workers",
           "check_run_options", "CampaignRequest", "MAX_RETRIES",
           "MAX_WORKERS"]

#: Type of the optional progress callback: (done, total, result).
ProgressFn = _t.Callable[[int, int, RunResult], None]

#: Most extra attempts per failing run: a bound, so one campaign cannot
#: hold its caller for days retrying a cell that always fails.
MAX_RETRIES = 8

#: Most worker processes one campaign may ask for; more are clamped.
MAX_WORKERS = 64


def default_workers() -> int:
    """A sensible pool size: the CPUs this process may actually use.

    A ``REPRO_WORKERS`` environment variable overrides the detection
    (clamped to >= 1) so CI runners and shared boxes can pin the pool
    without touching call sites; a non-numeric value is ignored.
    """
    override = os.environ.get("REPRO_WORKERS")
    if override is not None:
        try:
            return max(1, int(override))
        except ValueError:
            pass
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def check_run_options(workers: int | None = None,
                      timeout_s: float | None = None,
                      retries: int = 1) -> tuple[int, float | None, int]:
    """The one check of how a campaign runs, as ``(workers, timeout_s,
    retries)``.

    :func:`run_campaign` applies it, and ``python -m repro campaign``
    and ``POST /campaigns`` call it before launching anything.
    ``workers`` is an integer clamped to 1..:data:`MAX_WORKERS`, where
    ``None`` or 0 means :func:`default_workers`; ``timeout_s`` is
    ``None`` or 0 (no deadline) to ``threading.TIMEOUT_MAX`` seconds,
    the furthest a per-run alarm can be armed; ``retries`` is an integer
    from 0 to :data:`MAX_RETRIES`.  Anything else raises ``ValueError``.
    """
    check(workers, int | None, "workers")
    check(timeout_s, float | None, "timeout_s")
    check(retries, int, "retries")
    if timeout_s is not None:
        if not 0 <= timeout_s <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout_s must be 0 to "
                             f"{threading.TIMEOUT_MAX:g} seconds, got "
                             f"{timeout_s}")
        timeout_s = float(timeout_s)
    if not 0 <= retries <= MAX_RETRIES:
        raise ValueError(f"retries must be 0 to {MAX_RETRIES}, "
                         f"got {retries}")
    workers = max(1, min(MAX_WORKERS, workers or default_workers()))
    return workers, timeout_s, retries


@dataclass(frozen=True)
class CampaignRequest:
    """A campaign and how to run it, as one JSON object: the body of
    ``POST /campaigns``.  Decode it with :func:`repro.plan.decode`
    (unknown keys, a missing ``scenario`` and mistyped values are
    errors), then :meth:`checked` applies the checks every caller gets.
    """

    scenario: str
    name: str = ""  # empty: the scenario
    seed: int = 0
    repeats: int = 1
    base_params: dict[str, object] = field(default_factory=dict)
    grid: dict[str, list] = field(default_factory=dict)
    shard: tuple[int, int] | None = None
    workers: int | None = None
    timeout_s: float | None = None
    retries: int = 1

    def checked(self) -> tuple[Campaign | CampaignShard, int,
                               float | None, int]:
        """``(target, workers, timeout_s, retries)``: the campaign, or
        the requested shard of it, and :func:`check_run_options`."""
        campaign = Campaign(
            name=self.name or self.scenario, scenario=self.scenario,
            seed=self.seed, base_params=self.base_params, grid=self.grid,
            repeats=self.repeats)
        target = campaign if self.shard is None else campaign.shard(
            *self.shard)
        return (target, *check_run_options(self.workers, self.timeout_s,
                                           self.retries))


class _RunTimeout(BaseException):
    """Raised inside a worker when the per-run SIGALRM deadline fires; a
    ``BaseException``, so no ``except Exception`` in a cell (or around
    its import) swallows it."""


def _raise_timeout(signum, frame) -> None:
    raise _RunTimeout()


def _run_cell(spec: RunSpec, timeout_s: float | None) -> object:
    """Import a reference's module, resolve the cell and run it, all
    under a ``SIGALRM`` deadline where ``timeout_s`` sets one.

    Only warm-pool workers pass a deadline, on their main thread, so the
    alarm never touches a caller's own handler or timer.
    """
    armed = bool(timeout_s) and hasattr(signal, "SIGALRM")
    if armed:
        signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        import_scenario_module(spec.scenario)
        return resolve_scenario(spec.scenario)(spec.seed, **spec.params_dict)
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)


def execute_spec(spec: RunSpec, timeout_s: float | None = None) -> RunResult:
    """Build, run and snapshot one cell — the unit of work a worker does.

    ``timeout_s`` bounds all of the cell, import included; pass it only
    on a main thread, as warm workers do.  Never raises: scenario
    exceptions, ``SystemExit`` included, and timeouts come back as a
    ``RunResult`` with ``error`` set, so a single bad cell cannot take
    down a whole shard or its caller.
    """
    start = time.perf_counter()
    try:
        outcome = _run_cell(spec, timeout_s)
    except _RunTimeout:
        return RunResult(spec=spec, wall_s=time.perf_counter() - start,
                         error=f"timeout after {timeout_s:g}s")
    except (Exception, SystemExit):
        return RunResult(spec=spec, wall_s=time.perf_counter() - start,
                         error=traceback.format_exc(limit=8))

    testbed, values = None, {}
    if isinstance(outcome, tuple):
        testbed, values = outcome
    elif isinstance(outcome, dict):
        values = outcome
    else:
        testbed = outcome

    metrics: dict = {}
    packet_sha256, n_packets, sim_time = "", 0, 0.0
    if testbed is not None:
        monitor = testbed.monitor
        metrics = monitor.registry.snapshot()
        packet_sha256 = monitor.packet_digest()
        n_packets = len(monitor.packets)
        sim_time = float(testbed.env.now)
    return RunResult(
        spec=spec, metrics=metrics,
        values=dict(values or {}), packet_sha256=packet_sha256,
        n_packets=n_packets, sim_time=sim_time,
        wall_s=time.perf_counter() - start,
    )


def run_campaign(campaign: "Campaign | object", *, workers: int | None = 1,
                 cache: object = None, timeout_s: float | None = None,
                 retries: int = 1, progress: ProgressFn | None = None,
                 mp_context: str = "auto",
                 pool: object = None) -> CampaignResult:
    """Execute every cell of ``campaign`` and return the ordered results.

    ``campaign`` is a :class:`Campaign` or one shard of it
    (:meth:`Campaign.shard`).  ``workers`` (``None`` or 0:
    :func:`default_workers`) is clamped to 1..:data:`MAX_WORKERS`;
    ``workers=1`` runs serially in-process (and is the reference the
    parallel and sharded paths are bit-for-bit compared against);
    ``workers>1``, or any ``timeout_s``, dispatches to the process-wide
    warm pool
    (``mp_context``: ``"auto"`` picks forkserver where available, else
    pre-imported spawn), and ``pool`` substitutes an explicit
    :class:`~repro.campaign.pool.WarmPool`, which runs every cell
    whatever ``workers`` is.  ``cache`` is a
    :class:`~repro.campaign.cache.ResultCache`, a directory path, or
    None; the parent batch-prefetches hits and the workers probe/fill
    the same cache themselves, so no worker recomputes a cell any
    process already produced.  ``retries`` bounds *extra* attempts for a
    failed run, and ``timeout_s`` each attempt.  ``progress`` is called
    as ``progress(done, total, result)`` once per settled run, cached
    hits included.  ``workers``, ``timeout_s`` and ``retries`` pass
    :func:`check_run_options` before anything runs.
    """
    workers, timeout_s, retries = check_run_options(workers, timeout_s,
                                                    retries)
    specs = campaign.expand()
    store = as_cache(cache)
    started = time.perf_counter()

    results: dict[int, RunResult] = {}
    pending: list[tuple[int, RunSpec]] = []
    total = len(specs)

    def settle(index: int, result: RunResult) -> None:
        results[index] = result
        if progress is not None:
            progress(len(results), total, result)

    hits = store.get_many(specs) if store is not None else [None] * total
    for index, (spec, hit) in enumerate(zip(specs, hits)):
        if hit is not None:
            settle(index, hit)
        else:
            pending.append((index, spec))

    warm_pool = pool
    if warm_pool is None and (workers > 1 or timeout_s) and pending:
        warm_pool = get_warm_pool(workers, mp_context)

    attempts_left = retries
    attempt_no = 1
    while pending:
        retry: list[tuple[int, RunSpec]] = []
        for index, result in _run_batch(pending, warm_pool, timeout_s,
                                        attempt_no, store):
            if not result.ok and attempts_left > 0:
                retry.append((index, specs[index]))
                continue
            settle(index, result)
        if not retry:
            break
        pending, attempts_left, attempt_no = retry, attempts_left - 1, \
            attempt_no + 1

    return CampaignResult(
        name=getattr(campaign, "name", ""),
        runs=[results[i] for i in range(total)],
        wall_s=time.perf_counter() - started,
        workers=workers,
        shard=getattr(campaign, "shard_key", None),
    )


def _run_batch(pending: list[tuple[int, RunSpec]], warm_pool,
               timeout_s: float | None, attempt_no: int, store,
               ) -> _t.Iterator[tuple[int, RunResult]]:
    """One attempt over ``pending``: the warm pool if there is one, else
    each cell in the caller, through the same cell-attempt function the
    pool's workers run, without a deadline."""
    if warm_pool is not None:
        yield from warm_pool.run_batch(pending, timeout_s=timeout_s,
                                       attempt=attempt_no, cache=store)
        return
    for index, spec in pending:
        yield index, _execute_task(spec, None, attempt_no, store)
