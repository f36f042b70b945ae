"""Picklable per-run and per-campaign results.

Workers run in separate processes, so everything they return must cross
a pickle boundary: a :class:`RunResult` carries only plain data — the
metrics-registry snapshot (the counter map among it), the order-
sensitive packet-log digest, and whatever scalar observables the
scenario computed — never live simulation objects.
"""

from __future__ import annotations

import hashlib
import json
import typing as _t
from dataclasses import dataclass, field, replace
from types import MappingProxyType

from repro.campaign.spec import RunSpec

__all__ = ["RunResult", "CampaignResult", "merge_shards"]


def _spec_key(spec: RunSpec) -> str:
    """A hashable canonical identity for a spec.

    ``RunSpec.params`` may carry list values (``canonical_params``
    allows JSON scalars *and lists*), which makes the frozen dataclass
    itself unhashable — so identity comparisons that need a dict go
    through this canonical-JSON key instead of the spec object.
    """
    return json.dumps(spec.to_dict(), sort_keys=True,
                      separators=(",", ":"))


@dataclass(frozen=True)
class RunResult:
    """The outcome of one campaign cell, safe to pickle and cache."""

    spec: RunSpec
    metrics: dict = field(default_factory=dict)   # MetricsRegistry.snapshot()
    values: dict = field(default_factory=dict)    # scenario observables
    packet_sha256: str = ""
    n_packets: int = 0
    sim_time: float = 0.0
    wall_s: float = 0.0
    attempts: int = 1
    error: str | None = None
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def counters(self) -> _t.Mapping[str, int]:
        """A read-only view of ``metrics["counters"]``, the one copy."""
        return MappingProxyType(self.metrics.get("counters", {}))

    def value(self, name: str, default: object = None) -> object:
        """An observable by name: scenario values first, then counters."""
        if name in self.values:
            return self.values[name]
        return self.counters.get(name, default)

    def digest_line(self) -> str:
        """The run's contribution to the campaign digest."""
        return repr((self.spec.scenario, self.spec.params,
                     self.spec.replicate, self.spec.seed,
                     self.packet_sha256, sorted(self.counters.items()),
                     self.sim_time))

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(), "metrics": dict(self.metrics),
            "values": dict(self.values), "packet_sha256": self.packet_sha256,
            "n_packets": self.n_packets, "sim_time": self.sim_time,
            "wall_s": self.wall_s, "attempts": self.attempts,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: _t.Mapping, *, cached: bool = False) -> "RunResult":
        return cls(
            spec=RunSpec.from_dict(data["spec"]),
            metrics=dict(data.get("metrics", {})),
            values=dict(data.get("values", {})),
            packet_sha256=data.get("packet_sha256", ""),
            n_packets=int(data.get("n_packets", 0)),
            sim_time=float(data.get("sim_time", 0.0)),
            wall_s=float(data.get("wall_s", 0.0)),
            attempts=int(data.get("attempts", 1)),
            error=data.get("error"), cached=cached,
        )

    def as_cached(self) -> "RunResult":
        return replace(self, cached=True)


@dataclass
class CampaignResult:
    """All runs of one campaign (or one shard of it), in expansion order.

    ``shard`` is ``(index, of)`` when this result covers one
    :meth:`~repro.campaign.spec.Campaign.shard` slice, None for a whole
    campaign; :func:`merge_shards` reassembles slices into the whole.
    """

    name: str
    runs: list[RunResult]
    wall_s: float = 0.0
    workers: int = 1
    shard: tuple[int, int] | None = None

    @property
    def ok(self) -> list[RunResult]:
        return [r for r in self.runs if r.ok]

    @property
    def failures(self) -> list[RunResult]:
        return [r for r in self.runs if not r.ok]

    @property
    def n_cached(self) -> int:
        return sum(1 for r in self.runs if r.cached)

    def digest(self) -> str:
        """Order-sensitive digest over every run's seed, counters and
        packet log — two campaigns agree iff every run agreed."""
        h = hashlib.sha256()
        for run in self.runs:
            h.update(run.digest_line().encode())
        return h.hexdigest()

    def by_cell(self) -> dict[str, list[RunResult]]:
        """Successful runs grouped by parameter cell, replicate-ordered."""
        cells: dict[str, list[RunResult]] = {}
        for run in self.ok:
            cells.setdefault(run.spec.cell_key(), []).append(run)
        for runs in cells.values():
            runs.sort(key=lambda r: r.spec.replicate)
        return cells

    def aggregate(self):
        """Per-cell mean/CI of every numeric observable (see
        :func:`repro.analysis.aggregate.aggregate_cells`)."""
        from repro.analysis.aggregate import aggregate_cells
        rows = [(run.spec.params_dict, {**run.counters, **run.values})
                for run in self.ok]
        return aggregate_cells(rows)

    def __len__(self) -> int:
        return len(self.runs)


def merge_shards(campaign, shard_results: _t.Iterable[CampaignResult],
                 ) -> CampaignResult:
    """Reassemble shard results into the whole campaign's result.

    ``campaign`` is the *unsharded* :class:`~repro.campaign.spec.
    Campaign` the shards were cut from; its expansion order defines
    where every run belongs, so shards may arrive in any order (and
    from any machine — results are plain data).  The merge is strict:
    a run none of the campaign's cells claims, a cell covered twice,
    or a cell covered by no shard is a ``ValueError``, never a silent
    best-effort.  The merged ``digest()`` is byte-identical to the
    serial single-machine run — per-cell seeds and results are content-
    addressed, so the partition cannot change them.
    """
    specs = campaign.expand()
    position = {_spec_key(spec): i for i, spec in enumerate(specs)}
    runs: list[RunResult | None] = [None] * len(specs)
    wall_s, workers = 0.0, 1
    for result in shard_results:
        wall_s += result.wall_s
        workers = max(workers, result.workers)
        for run in result.runs:
            i = position.get(_spec_key(run.spec))
            if i is None:
                raise ValueError(
                    f"run {run.spec.label()} belongs to no cell of "
                    f"campaign {campaign.name!r}")
            if runs[i] is not None:
                raise ValueError(
                    f"cell {run.spec.label()} covered by more than one "
                    "shard")
            runs[i] = run
    missing = [specs[i].label() for i, run in enumerate(runs)
               if run is None]
    if missing:
        raise ValueError(
            f"{len(missing)} cell(s) covered by no shard, first: "
            f"{missing[0]}")
    return CampaignResult(
        name=campaign.name,
        runs=_t.cast("list[RunResult]", runs),
        wall_s=wall_s, workers=workers,
    )
