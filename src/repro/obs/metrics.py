"""Metrics registry: counters, gauges, and percentile histograms.

Diagnosis wants *summaries*: "what is the p99 ping RTT", "how full do
MAC queues get".  The registry is the typed store behind
:class:`~repro.sim.monitor.Monitor`, plus the ``stats`` shell command's
data source.

Histograms store each distinct sample value with its count, not every
sample: a live fleet's LQI takes ~60 distinct values over hundreds of
thousands of receptions.  Percentiles are still exact nearest-rank
over the full sample set (there is no bucketing error to reason
about), and a summary costs O(distinct values), so rendering does not
slow down as a fleet's uptime grows.  An empty histogram reports
``None`` percentiles rather than inventing a value.
"""

from __future__ import annotations

import math
import typing as _t

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: The percentile triple every summary reports.
SUMMARY_PERCENTILES = (50.0, 90.0, 99.0)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment")
        self.value += amount

    # __slots__ classes need explicit state for the oldest pickle
    # protocols; campaign workers ship metrics across process boundaries.
    def __getstate__(self):
        return (self.name, self.value)

    def __setstate__(self, state) -> None:
        self.name, self.value = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A set-to-current-value metric (queue depth, table size, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __getstate__(self):
        return (self.name, self.value)

    def __setstate__(self, state) -> None:
        self.name, self.value = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Exact histogram with nearest-rank percentiles, kept as counts.

    Samples are stored as a value -> count map: ``observe`` is one dict
    update, memory is O(distinct values), and :meth:`summary` costs
    O(distinct values) however many samples a long-lived fleet has
    seen.  Nothing is bucketed, so every statistic equals what the full
    sample list gives.  ``0.0`` and ``-0.0`` are one key under dict
    equality and count together under whichever sign arrived first (no
    producer emits ``-0.0``).
    """

    __slots__ = ("name", "_counts", "_keys")

    def __init__(self, name: str):
        self.name = name
        self._counts: dict[float, int] = {}
        #: ``_counts``' keys in ascending order.  Keys are only ever
        #: added, so the cache is stale exactly when it is shorter.
        self._keys: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self._counts[value] = self._counts.get(value, 0) + 1

    def _sorted_keys(self) -> list[float]:
        if len(self._keys) != len(self._counts):
            self._keys = sorted(self._counts)
        return self._keys

    @property
    def count(self) -> int:
        return sum(self._counts.values())

    @property
    def total(self) -> float:
        """``math.fsum`` of every sample, rounded once from the exact sum.

        Finite values accumulate exactly as one integer over a
        power-of-two denominator, and int/int true division rounds
        correctly, as ``fsum`` does.  Non-finite values go to ``fsum``
        itself: inf, nan, or its ``ValueError`` for +inf with -inf.
        """
        num, den = 0, 1
        special = []
        for value, count in self._counts.items():
            if not math.isfinite(value):
                special.append(value)
                continue
            n, d = value.as_integer_ratio()
            if d > den:
                num *= d // den
                den = d
            num += n * count * (den // d)
        return math.fsum(special) if special else num / den

    @property
    def mean(self) -> float | None:
        count = self.count
        return self.total / count if count else None

    @property
    def min(self) -> float | None:
        return self._sorted_keys()[0] if self._counts else None

    @property
    def max(self) -> float | None:
        return self._sorted_keys()[-1] if self._counts else None

    def _at_ranks(self, ranks: list[int]) -> list[float]:
        """The samples at ascending 1-based ``ranks``, in one walk."""
        counts = self._counts
        keys = iter(self._sorted_keys())
        out: list[float] = []
        seen = 0
        for rank in ranks:
            while seen < rank:
                key = next(keys)
                seen += counts[key]
            out.append(key)
        return out

    @staticmethod
    def _rank(p: float, count: int) -> int:
        # At least 1: a tiny p whose p/100 underflows is still the minimum.
        return max(1, math.ceil(p / 100.0 * count))

    def percentile(self, p: float) -> float | None:
        """Nearest-rank percentile ``p`` in [0, 100]; None when empty."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside 0..100")
        count = self.count
        if not count:
            return None
        return self._at_ranks([self._rank(p, count)])[0]

    def summary(self) -> dict[str, float | int | None]:
        """count/min/mean/max plus the p50/p90/p99 triple."""
        count = self.count
        out: dict[str, float | int | None] = {
            "count": count, "min": self.min, "mean": self.mean,
            "max": self.max,
        }
        ranks = [self._rank(p, count) for p in SUMMARY_PERCENTILES]
        quantiles = self._at_ranks(ranks) if count else [None] * len(ranks)
        for p, value in zip(SUMMARY_PERCENTILES, quantiles):
            out[f"p{p:g}"] = value
        return out

    def values(self) -> list[float]:
        """Every sample, in ascending order; use for distribution checks."""
        counts = self._counts
        return [key for key in self._sorted_keys()
                for _ in range(counts[key])]

    def __getstate__(self):
        return (self.name, self._counts)

    def __setstate__(self, state) -> None:
        self.name, self._counts = state
        self._keys = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Named metrics, one namespace per simulation.

    ``counter``/``gauge``/``histogram`` get-or-create; asking for an
    existing name as a different type raises — silent type morphing is
    how dashboards end up lying.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls: type) -> _t.Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def get(self, name: str) -> "Counter | Gauge | Histogram | None":
        """The metric registered under ``name``, if any (no creation)."""
        return self._metrics.get(name)

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    # -- bulk views ---------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def counters(self) -> dict[str, int]:
        return {m.name: m.value for m in self._metrics.values()
                if isinstance(m, Counter)}

    def gauges(self) -> dict[str, float]:
        return {m.name: m.value for m in self._metrics.values()
                if isinstance(m, Gauge)}

    def histograms(self) -> dict[str, Histogram]:
        return {m.name: m for m in self._metrics.values()
                if isinstance(m, Histogram)}

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Plain-data dump: {counters: {...}, gauges: {...},
        histograms: {name: summary}} — JSON-ready."""
        return {
            "counters": dict(sorted(self.counters().items())),
            "gauges": dict(sorted(self.gauges().items())),
            "histograms": {
                name: hist.summary()
                for name, hist in sorted(self.histograms().items())
            },
        }

    def render(self, prefix: str = "") -> str:
        """ASCII table of everything, for the ``stats`` shell command.

        ``prefix`` keeps only metrics whose name starts with it — the
        shell's ``stats mac.`` narrows a busy registry to one subsystem.
        """
        snap = self.snapshot()
        if prefix:
            snap = {
                group: {name: value for name, value in metrics.items()
                        if name.startswith(prefix)}
                for group, metrics in snap.items()
            }
        lines: list[str] = []
        if snap["counters"]:
            lines.append("counters:")
            width = max(len(n) for n in snap["counters"])
            lines.extend(f"  {name:<{width}}  {value}"
                         for name, value in snap["counters"].items())
        if snap["gauges"]:
            lines.append("gauges:")
            width = max(len(n) for n in snap["gauges"])
            lines.extend(f"  {name:<{width}}  {value:g}"
                         for name, value in snap["gauges"].items())
        if snap["histograms"]:
            lines.append("histograms:"
                         "               count       min      mean       max"
                         "       p50       p90       p99")
            for name, summary in snap["histograms"].items():
                cells = [f"{summary['count']:>9}"]
                for key in ("min", "mean", "max", "p50", "p90", "p99"):
                    value = summary[key]
                    cells.append("        -" if value is None
                                 else f"{value:>9.3f}")
                lines.append(f"  {name:<24}" + " ".join(cells))
        if lines:
            return "\n".join(lines)
        if prefix:
            return f"no metrics match prefix {prefix!r}"
        return "no metrics recorded"

    def __getstate__(self):
        return self._metrics

    def __setstate__(self, state) -> None:
        self._metrics = state

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry {len(self._metrics)} metrics>"
