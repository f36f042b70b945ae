"""Synthetic scenario callables for pool/runner tests.

Referenced by ``"tests.campaign._pool_scenarios:<name>"`` module:function
specs so warm-pool worker processes can re-import them; none of them
build a testbed — they return plain value dicts, which ``execute_spec``
accepts — because what the tests exercise is the machinery *around* a
run, not the simulator.
"""

import os
import time


def flaky_once(seed, *, marker_dir, cell=0):
    """Fail the first attempt, succeed ever after.

    Cross-process deterministic: the first attempt leaves a marker file
    (keyed by seed and cell so grid cells fail independently), so the
    retry — wherever it executes — sees it and succeeds.
    """
    marker = os.path.join(marker_dir, f"flaky-{seed}-{cell}")
    if os.path.exists(marker):
        return {"succeeded_on_retry": True, "cell": cell}
    with open(marker, "w"):
        pass
    raise RuntimeError("first attempt fails by design")


def sleepy(seed, *, duration=0.05):
    """Sleep ``duration`` seconds — a task with a knowable cost — and
    report which process ran it (overlap checks)."""
    time.sleep(float(duration))
    return {"slept": float(duration), "pid": os.getpid()}


def hard_crash(seed, *, cell=0, crash_cell=0):
    """Kill the whole worker process for one cell (no exception, no
    cleanup — the way an OOM kill looks to the parent)."""
    if int(cell) == int(crash_cell):
        os._exit(3)
    return {"cell": cell}


def crash_once(seed, *, marker_dir, cell=0, crash_cell=0):
    """Kill the worker on the *first* attempt at one cell only.

    The marker file makes the crash single-shot across processes, so
    the runner's retry ladder — which treats a worker death like any
    other failure — can be observed succeeding on attempt 2.
    """
    marker = os.path.join(marker_dir, f"crash-{seed}-{cell}")
    if int(cell) == int(crash_cell) and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(3)
    return {"cell": cell, "recovered": int(cell) == int(crash_cell)}


def echo_pid(seed, **params):
    """Report which process ran the cell (warm-pool reuse checks)."""
    return {"pid": os.getpid(), **{k: v for k, v in params.items()}}
