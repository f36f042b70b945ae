"""Merge per-run campaign metrics into means and confidence intervals.

A campaign produces many independent seeded replicates per parameter
cell; what the evaluation tables want is the cell-level summary — mean
and a Student-t confidence interval, the standard treatment for a small
number of i.i.d. trials.  This module is deliberately independent of
:mod:`repro.campaign`: it aggregates any ``(params, values)`` rows, so
hand-rolled sweeps and cached campaign results merge the same way.
"""

from __future__ import annotations

import json
import math
import typing as _t
from dataclasses import dataclass

__all__ = ["CellAggregate", "mean_ci", "aggregate_cells", "CONFIDENCE"]

#: Level of every confidence interval the tables report.
CONFIDENCE = 0.95


def _t_critical(df: int) -> float:
    """Two-sided Student-t critical value at :data:`CONFIDENCE` for
    ``df``."""
    from scipy.stats import t
    return float(t.ppf(0.5 + CONFIDENCE / 2.0, df))


def mean_ci(values: _t.Sequence[float]) -> tuple[float, float]:
    """``(mean, half_width)`` of the two-sided Student-t interval at
    :data:`CONFIDENCE`.

    ``half_width`` is NaN for fewer than two samples — a single trial
    has no spread estimate, and pretending otherwise would make tables
    lie.  Empty input raises.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("mean_ci of no samples")
    n = len(vals)
    mean = math.fsum(vals) / n
    if n < 2:
        return mean, math.nan
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    half = _t_critical(n - 1) * math.sqrt(var / n)
    return mean, half


@dataclass(frozen=True)
class CellAggregate:
    """Summary of one metric over one parameter cell's replicates."""

    params: dict
    metric: str
    n: int
    mean: float
    std: float            # sample standard deviation (ddof=1; 0 if n == 1)
    ci_low: float         # NaN bounds when n == 1, else at CONFIDENCE
    ci_high: float

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def render(self) -> str:
        if math.isnan(self.ci_low):
            return f"{self.mean:.3g} (n={self.n})"
        return (f"{self.mean:.3g} ± {self.half_width:.2g} "
                f"(n={self.n}, {CONFIDENCE:.0%})")


def _numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def aggregate_cells(
    rows: _t.Iterable[tuple[_t.Mapping[str, object],
                            _t.Mapping[str, object]]],
    metrics: _t.Sequence[str] | None = None,
) -> list[CellAggregate]:
    """Combine ``(params, values)`` rows into per-cell, per-metric stats.

    Rows sharing an identical ``params`` mapping form a cell.  With
    ``metrics=None`` every numeric observable seen in the cell is
    aggregated; otherwise only the named ones (rows lacking a name or
    holding a non-numeric value simply don't contribute to it).  Output
    is ordered by cell key then metric name.
    """
    cells: dict[str, tuple[dict, dict[str, list[float]]]] = {}
    for params, values in rows:
        key = json.dumps(sorted((str(k), v) for k, v in params.items()),
                         sort_keys=True)
        if key not in cells:
            cells[key] = (dict(params), {})
        _, series = cells[key]
        for name, value in values.items():
            if metrics is not None and name not in metrics:
                continue
            if _numeric(value):
                series.setdefault(name, []).append(float(value))

    out: list[CellAggregate] = []
    for key in sorted(cells):
        params, series = cells[key]
        for metric in sorted(series):
            vals = series[metric]
            mean, half = mean_ci(vals)
            n = len(vals)
            if n < 2:
                std, lo, hi = 0.0, math.nan, math.nan
            else:
                std = math.sqrt(
                    math.fsum((v - mean) ** 2 for v in vals) / (n - 1))
                lo, hi = mean - half, mean + half
            out.append(CellAggregate(
                params=params, metric=metric, n=n, mean=mean, std=std,
                ci_low=lo, ci_high=hi,
            ))
    return out
