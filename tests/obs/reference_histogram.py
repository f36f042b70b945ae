"""The list-backed histogram that :class:`repro.obs.metrics.Histogram`
must agree with, kept as a test-only parity oracle.

This is the obviously-correct form: every sample kept in a list,
``math.fsum`` for the total, a sort for the percentiles.  Production
stores value -> count instead, and the parity suite
(``test_histogram_parity.py``) holds the two to ``repr``-equal output.

The nearest rank is clamped to at least 1: a ``p`` so small that
``p / 100`` underflows to 0.0 still means the minimum, where an
unclamped rank 0 would index ``[-1]`` and return the maximum.
"""

from __future__ import annotations

import math

from repro.obs.metrics import SUMMARY_PERCENTILES


class ReferenceHistogram:
    """Exact-sample histogram with nearest-rank percentiles."""

    __slots__ = ("name", "_values", "_sorted")

    def __init__(self, name: str):
        self.name = name
        self._values: list[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        self._values.append(float(value))
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return math.fsum(self._values)

    @property
    def mean(self) -> float | None:
        return self.total / len(self._values) if self._values else None

    @property
    def min(self) -> float | None:
        return min(self._values) if self._values else None

    @property
    def max(self) -> float | None:
        return max(self._values) if self._values else None

    def percentile(self, p: float) -> float | None:
        """Nearest-rank percentile ``p`` in [0, 100]; None when empty."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside 0..100")
        if not self._values:
            return None
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        if p == 0.0:
            return self._values[0]
        rank = math.ceil(p / 100.0 * len(self._values))
        return self._values[max(rank, 1) - 1]

    def summary(self) -> dict[str, float | int | None]:
        """count/min/mean/max plus the p50/p90/p99 triple."""
        out: dict[str, float | int | None] = {
            "count": self.count, "min": self.min, "mean": self.mean,
            "max": self.max,
        }
        for p in SUMMARY_PERCENTILES:
            out[f"p{p:g}"] = self.percentile(p)
        return out

    def values(self) -> list[float]:
        """The raw samples; order is not guaranteed (percentile queries
        sort in place)."""
        return list(self._values)
