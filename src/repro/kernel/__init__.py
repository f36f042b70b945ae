"""LiteOS kernel model: nodes, testbeds, and kernel services."""

from repro.kernel.eventlog import EventLog, KernelEvent
from repro.kernel.filesystem import Namespace
from repro.kernel.memory import (
    FLASH_BUDGET_BYTES,
    PAPER_FOOTPRINTS,
    RAM_BUDGET_BYTES,
    InstalledImage,
    MemoryModel,
)
from repro.kernel.neighbors import (
    DEFAULT_BEACON_INTERVAL,
    NeighborEntry,
    NeighborTable,
)
from repro.kernel.node import SensorNode
from repro.kernel.syscalls import ParameterBuffer, SyscallTable
from repro.kernel.testbed import Testbed
from repro.kernel.threads import MAX_THREADS, ThreadInfo, ThreadTable

__all__ = [
    "Testbed",
    "EventLog",
    "KernelEvent",
    "SensorNode",
    "Namespace",
    "NeighborTable",
    "NeighborEntry",
    "DEFAULT_BEACON_INTERVAL",
    "ThreadTable",
    "ThreadInfo",
    "MAX_THREADS",
    "SyscallTable",
    "ParameterBuffer",
    "MemoryModel",
    "InstalledImage",
    "PAPER_FOOTPRINTS",
    "FLASH_BUDGET_BYTES",
    "RAM_BUDGET_BYTES",
]
