"""Synthetic scenario cells for pool/runner tests.

Each is registered with ``@scenario`` under its own
``"tests.campaign._pool_scenarios:<name>"`` reference, the form the
tests name them by, so warm-pool worker processes resolve them by
re-importing this module.  None of them build a testbed — they return
plain value dicts, which ``execute_spec`` accepts — because what the
tests exercise is the machinery *around* a run, not the simulator.
"""

import os
import time

from repro.campaign import scenario


def _cell(fn):
    """Register ``fn`` under its ``module:function`` reference."""
    return scenario(f"{__name__}:{fn.__name__}")(fn)


@_cell
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


@_cell
def sleepy(seed, *, duration=0.05):
    """Sleep ``duration`` seconds — a task with a knowable cost — and
    report which process ran it (overlap checks)."""
    time.sleep(float(duration))
    return {"slept": float(duration), "pid": os.getpid()}


@_cell
def hard_crash(seed, *, cell=0, crash_cell=0):
    """Kill the whole worker process for one cell (no exception, no
    cleanup — the way an OOM kill looks to the parent)."""
    if int(cell) == int(crash_cell):
        os._exit(3)
    return {"cell": cell}


@_cell
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


@_cell
def echo_pid(seed, **params):
    """Report which process ran the cell (warm-pool reuse checks)."""
    return {"pid": os.getpid(), **{k: v for k, v in params.items()}}


@_cell
def exits(seed, *, code=56):
    """Raise ``SystemExit`` the way a scenario calling ``sys.exit``
    would; it must cost one failed run, never the caller."""
    raise SystemExit(code)
