"""A registered cell whose module is slow to import in a worker.

The test process imports it at once (registering the cell); a warm
worker importing it to run the cell sleeps first, the way a module that
loads data or waits on a device at import would.
"""

import multiprocessing
import time

from repro.campaign import scenario

if multiprocessing.parent_process() is not None:  # a worker process
    time.sleep(3.0)


@scenario(f"{__name__}:quick")
def quick(seed):
    """Return at once: only the import is slow."""
    return {"seed": seed}
