"""The warm worker pool: reuse, overlap, crash recovery, cache visibility.

Most of these tests share one process-wide pool (``get_warm_pool``) on
purpose — pool persistence across campaigns *is* the feature under
test.  The crash tests build their own pool per start method instead:
``"auto"`` resolves to ``forkserver`` here but to ``fork`` in a
stdin-fed script, and a worker death must be contained under both.  The
synthetic scenarios live in ``tests/campaign/_pool_scenarios.py`` as
``module:function`` references so worker processes can import them.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.campaign import (
    Campaign,
    default_workers,
    get_warm_pool,
    run_campaign,
)
from repro.campaign.pool import WarmPool, resolve_start_method

TINY = Campaign(
    name="tiny", scenario="chain_beacons", seed=5,
    base_params={"seconds": 5.0}, grid={"nodes": [3, 4]}, repeats=1,
)

SCN = "tests.campaign._pool_scenarios"


def pool2():
    pool = get_warm_pool(2, "auto")
    assert pool is not None, "no multiprocessing context available"
    return pool


@pytest.fixture(params=["fork", "forkserver"])
def crash_pool(request):
    """A private two-worker pool, so crashes never touch the shared one."""
    pool = WarmPool(2, request.param)
    try:
        yield pool
    finally:
        pool.close()


# -- the pool end to end -----------------------------------------------------


def test_warm_pool_matches_serial_digest():
    serial = run_campaign(TINY, workers=1)
    parallel = run_campaign(TINY, workers=2)
    assert parallel.digest() == serial.digest()
    assert parallel.failures == [] and parallel.workers == 2


def test_pool_persists_across_campaigns():
    pool = pool2()
    pool.warm(timeout_s=180.0)
    pids_before = set(pool.pids())
    assert len(pids_before) == 2
    first = run_campaign(Campaign(
        name="pids-a", scenario=f"{SCN}:echo_pid", seed=1,
        grid={"cell": list(range(6))}), workers=2)
    second = run_campaign(Campaign(
        name="pids-b", scenario=f"{SCN}:echo_pid", seed=2,
        grid={"cell": list(range(6))}), workers=2)
    worker_pids = {r.values["pid"] for r in first.ok + second.ok}
    # Same warm processes serviced both campaigns; none run in-parent.
    assert worker_pids <= pids_before
    assert set(pool.pids()) == pids_before
    assert os.getpid() not in worker_pids


def test_concurrent_campaigns_on_one_pool_stay_isolated():
    """Two threads running campaigns on the SAME pool (the serve layer
    does exactly this for concurrent ``POST /campaigns``) serialize at
    the pool's batch lock: neither receives the other's results at its
    own indices, and neither spins forever on tasks the other consumed.
    """
    pool = pool2()
    pool.warm(timeout_s=180.0)
    camps = {
        key: Campaign(name=f"conc-{key}", scenario=f"{SCN}:echo_pid",
                      seed=seed, grid={"cell": list(range(8))})
        for key, seed in (("a", 21), ("b", 22))
    }
    out = {}

    def run(key):
        out[key] = run_campaign(camps[key], workers=2, pool=pool)

    threads = [threading.Thread(target=run, args=(key,), daemon=True)
               for key in camps]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180.0)
    assert all(not t.is_alive() for t in threads), "a campaign hung"
    for key, camp in camps.items():
        result = out[key]
        assert result.failures == []
        assert result.digest() == run_campaign(camp, workers=1).digest()


def test_registry_keeps_one_pool_per_method(monkeypatch):
    """Varying worker counts must not accumulate worker sets: the
    registry holds one pool per start method, grows it to the max
    requested size, and shares it with smaller requests."""
    from repro.campaign import pool as pool_mod
    monkeypatch.setattr(pool_mod, "_POOLS", {})
    try:
        first = get_warm_pool(1, "auto")
        assert first is not None and first.workers == 1
        assert get_warm_pool(1, "auto") is first
        grown = get_warm_pool(2, "auto")
        assert grown is not first and grown.workers == 2
        assert first.closed
        # A smaller request shares the bigger pool instead of creating
        # (and leaking) a size-keyed sibling.
        assert get_warm_pool(1, "auto") is grown
        assert list(pool_mod._POOLS.values()) == [grown]
    finally:
        for p in pool_mod._POOLS.values():
            p.close()


def test_uneven_cells_overlap_across_workers():
    """One expensive cell plus many cheap ones on two workers: the
    cheap cells keep flowing while the slow cell runs, so wall-clock
    stays well under the serial sum (sleeps overlap even on one CPU)."""
    pool = pool2()
    pool.warm(timeout_s=180.0)
    durations = [0.3] + [0.05] * 8  # serial sum: 0.7 s
    out = run_campaign(Campaign(
        name="overlap", scenario=f"{SCN}:sleepy", seed=3,
        grid={"duration": durations}), workers=2, pool=pool)
    assert out.failures == []
    assert len(out.runs) == len(durations)
    # Both warm workers actually serviced the batch...
    assert len({r.values["pid"] for r in out.ok}) == 2
    # ...and their sleeps overlapped: well under executing all serially.
    assert out.wall_s < 0.6


def test_worker_death_is_contained_and_pool_refills(crash_pool):
    pool = crash_pool
    out = run_campaign(Campaign(
        name="crashy", scenario=f"{SCN}:hard_crash", seed=4,
        grid={"cell": list(range(6))}, base_params={"crash_cell": 2}),
        workers=2, pool=pool, retries=0)
    (failure,) = out.failures
    assert failure.spec.params_dict["cell"] == 2
    assert "died" in failure.error
    assert len(out.ok) == 5          # every other cell still settled
    # The pool refilled the dead slot and serves the next campaign.
    after = run_campaign(TINY, workers=2, pool=pool)
    assert after.failures == []
    assert after.digest() == run_campaign(TINY, workers=1).digest()
    assert pool.alive == 2


def test_worker_death_feeds_the_retry_ladder(crash_pool, tmp_path):
    """A worker death is a failure like any other: the cell is retried,
    and when the crash was transient the retry succeeds (attempts=2)."""
    pool = crash_pool
    out = run_campaign(Campaign(
        name="crash-retry", scenario=f"{SCN}:crash_once", seed=6,
        grid={"cell": list(range(4))},
        base_params={"marker_dir": str(tmp_path), "crash_cell": 1}),
        workers=2, pool=pool, retries=1)
    assert out.failures == []
    (recovered,) = [r for r in out.runs if r.spec.params_dict["cell"] == 1]
    assert recovered.values["recovered"] is True
    assert recovered.attempts == 2
    assert all(r.attempts == 1 for r in out.runs if r is not recovered)


def test_every_worker_dying_never_runs_a_cell_in_the_caller(crash_pool):
    """Every cell kills the worker that runs it.  Each one settles as a
    failed run and its slot is replaced; none runs in the caller, which
    it would kill too."""
    out = run_campaign(Campaign(
        name="all-crash", scenario=f"{SCN}:hard_crash", seed=4,
        base_params={"cell": 2, "crash_cell": 2}, repeats=4),
        workers=2, pool=crash_pool, retries=0)
    assert len(out.failures) == 4 and out.ok == []
    assert all("died mid-run" in r.error for r in out.failures)
    assert crash_pool.alive == 2


def test_lone_retry_of_a_crashing_cell_runs_in_the_pool():
    """The retry batch holds a single cell and still goes to the shared
    pool, so the repeat crash costs a failed run, not the caller."""
    out = run_campaign(Campaign(
        name="lone-retry", scenario=f"{SCN}:hard_crash", seed=4,
        grid={"cell": [0, 1, 2]}, base_params={"crash_cell": 1}),
        workers=2, retries=1)
    (failure,) = out.failures
    assert failure.spec.params_dict["cell"] == 1
    assert failure.attempts == 2 and "died mid-run" in failure.error
    assert len(out.ok) == 2


def test_one_cell_campaign_runs_in_the_pool():
    out = run_campaign(Campaign(
        name="one-cell", scenario=f"{SCN}:hard_crash", seed=4,
        base_params={"cell": 0, "crash_cell": 0}), workers=2, retries=0)
    (failure,) = out.failures
    assert "died mid-run" in failure.error and out.ok == []


def test_idle_worker_death_is_replaced_before_the_next_batch():
    """A worker killed between batches costs no cell: the next batch
    replaces its slot and keeps the surviving worker."""
    pool = WarmPool(2, "auto")
    try:
        assert pool.warm(timeout_s=180.0) == 2
        victim, survivor = pool.pids()
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while victim in pool.pids() and time.monotonic() < deadline:
            time.sleep(0.01)
        out = run_campaign(TINY, workers=2, pool=pool, retries=0)
        assert out.failures == []
        assert out.digest() == run_campaign(TINY, workers=1).digest()
        assert pool.alive == 2
        assert survivor in pool.pids() and victim not in pool.pids()
    finally:
        pool.close()


def test_pool_unavailable_context_returns_none():
    assert get_warm_pool(2, "definitely-not-a-start-method") is None
    with pytest.raises(RuntimeError):
        WarmPool(2, "definitely-not-a-start-method")


def test_resolve_auto_prefers_forkserver_or_spawn():
    method = resolve_start_method("auto")
    assert method in ("forkserver", "spawn", "fork")
    methods = multiprocessing.get_all_start_methods()
    if "forkserver" in methods and method != "fork":
        assert method == "forkserver"


# -- worker-count policy -----------------------------------------------------


def test_default_workers_honors_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("REPRO_WORKERS", "0")     # clamped to >= 1
    assert default_workers() == 1
    monkeypatch.setenv("REPRO_WORKERS", "-2")
    assert default_workers() == 1
    monkeypatch.setenv("REPRO_WORKERS", "not-a-number")  # ignored
    detected = default_workers()
    assert detected >= 1
    monkeypatch.delenv("REPRO_WORKERS")
    assert default_workers() == detected  # env gone == env unparsable


# -- worker-visible cache ----------------------------------------------------


def test_workers_fill_and_reuse_the_shared_cache(tmp_path):
    campaign = Campaign(name="shared-cache", scenario="chain_beacons",
                        seed=6, base_params={"seconds": 4.0},
                        grid={"nodes": [3, 4]}, repeats=2)
    first = run_campaign(campaign, workers=2, cache=tmp_path)
    assert first.n_cached == 0 and first.failures == []
    # Entries written by worker processes, readable by anyone.
    assert list(tmp_path.rglob("*.json"))
    second = run_campaign(campaign, workers=2, cache=tmp_path)
    assert second.n_cached == len(second.runs)
    assert second.digest() == first.digest()


@pytest.mark.slow
def test_explicit_spawn_pool_still_supported():
    out = run_campaign(TINY, workers=2, mp_context="spawn")
    assert out.digest() == run_campaign(TINY, workers=1).digest()
