"""Metric aggregation for experiments and benches."""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass

import numpy as np

from repro.sim.monitor import Monitor, PacketRecord

__all__ = ["SeriesSummary", "summarize", "packets_between"]


@dataclass(frozen=True)
class SeriesSummary:
    """Descriptive statistics of one series of observations."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p90: float
    maximum: float

    def render(self, unit: str = "") -> str:
        suffix = f" {unit}" if unit else ""
        return (
            f"n={self.count} mean={self.mean:.2f}{suffix} "
            f"std={self.std:.2f} min={self.minimum:.2f} "
            f"p50={self.p50:.2f} p90={self.p90:.2f} "
            f"max={self.maximum:.2f}{suffix}"
        )


def summarize(values: _t.Iterable[float]) -> SeriesSummary:
    """Summary statistics (empty input yields NaNs with count 0)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        nan = math.nan
        return SeriesSummary(0, nan, nan, nan, nan, nan, nan)
    return SeriesSummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=0)),
        minimum=float(arr.min()),
        p50=float(np.percentile(arr, 50)),
        p90=float(np.percentile(arr, 90)),
        maximum=float(arr.max()),
    )


def packets_between(monitor: Monitor, start: float,
                    end: float) -> list[PacketRecord]:
    """Transmissions logged in a time window, minus the kernel's beacons.

    This is how the Figure 7 bench attributes packets to a command
    invocation on an otherwise idle network: everything transmitted in
    the window except the beacons belongs to the command.
    """
    return [
        r for r in monitor.packets
        if start <= r.time < end and r.kind != "beacon"
    ]
