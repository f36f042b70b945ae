"""Multi-medium partitioning: one `RadioMedium` per radio-connected region.

A deployment whose districts sit further apart than the maximum radio
range is physically several networks sharing nothing but the clock.
:class:`PartitionedMedium` detects that — connected components under
max-range adjacency — and runs each component on its own
:class:`~repro.radio.medium.RadioMedium`, the apnetsim multi-medium
pattern (SNIPPETS.md snippet 3): per-region media with per-region
active-transmission books, so a frame in district A never even enters
district B's bookkeeping.

The facade keeps the ``Testbed``/``SensorNode`` API unchanged: it
exposes the same ``attach`` / ``transceiver`` / ``cca_busy`` /
``ambient_power_dbm`` / ``transmit`` / ``faults`` surface as a single
medium, and every child shares the environment, monitor, propagation
model and (via the registry's per-name memoization) the exact same RNG
streams.  Because the component radius *is* the candidate-pruning
radius, a sender's in-range candidate set inside its component equals
the set the single medium would have produced — so with uniform transmit
power a partitioned run is **bit-for-bit identical** to the unpartitioned
one (asserted by ``tests/radio/test_partition.py``), while dead regions
cost nothing.

Partitioning is computed lazily at the first traffic operation and
recomputed — only while no frame is in flight — after membership or
power changes that could re-draw the component boundaries.  A
cross-component move while a frame is on the air takes effect at the
next idle moment (frames are milliseconds; mobility is not).

Moves are *batched* instead of triggering a repartition each: the facade
keeps its own incremental :class:`SpatialGrid` over every attached node
and, per move, checks whether the mover came within the adjacency radius
of a node owned by a *different* child — the only way a stale component
map could wrongly silence a link (a component that merely *should* split
is coarser than optimal but still physically exact, because each child's
own spatial pruning already skips the out-of-range members).  Only such
boundary-merging moves, power changes, or every
:attr:`PartitionedMedium.repartition_every` accumulated drift moves (the
rebalance that re-splits drifted-apart components) mark the partition
stale — so a patrol node walking inside its district advances the
boundaries' bookkeeping by two grid-bucket updates per step, not a
union-find over the whole city.
"""

from __future__ import annotations

import typing as _t

from repro.errors import RadioError
from repro.radio.cc2420 import SENSITIVITY_DBM, RadioConfig
from repro.radio.medium import RANGE_MARGIN_SIGMAS, RadioMedium, Transceiver
from repro.radio.propagation import LogDistancePropagation
from repro.radio.rssi import RssiModel
from repro.radio.spatial import SpatialGrid
from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.sim.monitor import Monitor
from repro.sim.rng import RngRegistry

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.mac.frame import Frame

__all__ = ["PartitionedMedium"]


class PartitionedMedium:
    """A drop-in ``RadioMedium`` facade over per-component child media."""

    def __init__(
        self,
        env: Environment,
        rng: RngRegistry,
        monitor: Monitor,
        propagation: LogDistancePropagation,
        *,
        corrupt_delivery_fraction: float = 0.3,
        use_spatial_index: bool = True,
    ) -> None:
        self.env = env
        self.monitor = monitor
        self.tracer = env.tracer
        self.propagation = propagation
        self._rng = rng
        #: Shared-stream PHY models, so ``SensorNode`` observables read
        #: through the facade exactly as through a plain medium.
        self.rssi_model = RssiModel(rng)
        self.corrupt_delivery_fraction = float(corrupt_delivery_fraction)
        self._use_spatial_index = bool(use_spatial_index)
        self._xcvrs: dict[int, Transceiver] = {}
        self._children: list[RadioMedium] = []
        self._owner: dict[int, RadioMedium] = {}
        self._faults: _t.Any | None = None
        self._stale = True
        #: Rebalance cadence: how many intra-component moves may batch
        #: up before the next traffic operation re-runs the union-find
        #: (splitting drifted-apart components).  Merges never wait —
        #: a move entering a foreign component's radius marks the
        #: partition stale immediately.
        self.repartition_every = 256
        #: How many times the union-find actually ran (tests and the
        #: mobility bench assert batching keeps this o(moves)).
        self.partition_builds = 0
        self._moves_since_partition = 0
        #: Facade-level grid over *all* attached nodes at the adjacency
        #: radius, maintained incrementally so the per-move merge test
        #: is one bucket move plus one neighborhood query.
        self._grid: SpatialGrid | None = None
        self._grid_radius = 0.0

    # -- membership --------------------------------------------------------

    def attach(self, node_id: int, position: tuple[float, float],
               config: RadioConfig | None = None) -> Transceiver:
        """Register a node's radio at ``position``.

        The transceiver is bound to the facade (its ``medium`` attribute
        never changes), so MAC layers and nodes built before the first
        partition pass keep working after it.
        """
        if node_id in self._xcvrs:
            raise RadioError(f"node {node_id} already attached to the medium")
        xcvr = Transceiver(self, node_id, position, config or RadioConfig())
        xcvr.config._listener = self._invalidate_channels
        xcvr.config._power_listener = self._invalidate_power
        self._xcvrs[node_id] = xcvr
        if self._grid is not None:
            # Keep the facade grid warm: an attach touches one bucket.
            self._grid.insert(node_id, xcvr._position)
        self._stale = True
        return xcvr

    def transceiver(self, node_id: int) -> Transceiver:
        try:
            return self._xcvrs[node_id]
        except KeyError:
            raise RadioError(f"node {node_id} not attached") from None

    def distance(self, a: int, b: int) -> float:
        pa = self._xcvrs[a]._position
        pb = self._xcvrs[b]._position
        return ((pa[0] - pb[0]) ** 2 + (pa[1] - pb[1]) ** 2) ** 0.5

    def node_ids(self) -> list[int]:
        return sorted(self._xcvrs)

    # -- fault hooks -------------------------------------------------------

    @property
    def faults(self) -> _t.Any | None:
        return self._faults

    @faults.setter
    def faults(self, injector: _t.Any | None) -> None:
        self._faults = injector
        for child in self._children:
            child.faults = injector

    @property
    def use_spatial_index(self) -> bool:
        return self._use_spatial_index

    @use_spatial_index.setter
    def use_spatial_index(self, value: bool) -> None:
        self._use_spatial_index = bool(value)
        for child in self._children:
            child.use_spatial_index = self._use_spatial_index

    #: Cumulative candidate accounting, aggregated over the children
    #: (they all update the same monitor gauges as they go).
    @property
    def candidates_considered(self) -> int:
        return sum(c.candidates_considered for c in self._children)

    @property
    def candidates_pruned(self) -> int:
        return sum(c.candidates_pruned for c in self._children)

    # -- invalidation ------------------------------------------------------

    def _invalidate_topology(self) -> None:
        self._stale = True
        for child in self._children:
            child._invalidate_topology()

    def _reposition(self, node_id: int, position: tuple[float, float]) -> None:
        # Keep the owning child's spatial buckets and pending movers
        # current, then decide whether the *component boundaries* could
        # have moved.  Only a merge risk (the mover is now within the
        # adjacency radius of a foreign-owned node) forces an immediate
        # repartition; pure drift batches up to ``repartition_every``
        # moves before a rebalance pass re-splits drifted components —
        # a coarse component map is still physically exact (each child
        # prunes its own out-of-range members), just not minimal.
        child = self._owner.get(node_id)
        if child is not None:
            child._reposition(node_id, position)
        grid = self._grid
        if grid is None or node_id not in grid:
            self._stale = True
            return
        grid.move(node_id, position)
        if self._stale:
            return
        for other in grid.within(position, self._grid_radius):
            if self._owner.get(other) is not child:
                self._stale = True
                return
        self._moves_since_partition += 1
        if self._moves_since_partition >= self.repartition_every:
            self._stale = True

    def _invalidate_channels(self) -> None:
        # Channel assignments never affect component boundaries (range is
        # channel-agnostic); forward to the children's channel caches.
        for child in self._children:
            child._invalidate_channels()

    def _invalidate_power(self) -> None:
        # Power changes move the range bound, which can re-draw component
        # boundaries as well as every child's query radius.
        self._stale = True
        for child in self._children:
            child._invalidate_power()

    # -- partitioning ------------------------------------------------------

    @property
    def max_range_m(self) -> float:
        """The global conservative radio range (the adjacency radius the
        components are built under)."""
        prop = self.propagation
        max_tx = max(
            (x.config._tx_power_dbm for x in self._xcvrs.values()),
            default=0.0,
        )
        budget = (
            max_tx - SENSITIVITY_DBM
            + RANGE_MARGIN_SIGMAS * (prop.shadowing_sigma_db
                                     + prop.fading_sigma_db)
            - min(0.0, prop.pinned_floor_db)
        )
        return prop.range_for_budget_m(budget)

    def _in_flight(self) -> bool:
        now = self.env.now
        return any(
            tx.end > now
            for child in self._children
            for tx in child._active
        )

    def _ensure_partition(self) -> None:
        if not self._stale:
            return
        if self._children and self._in_flight():
            # Defer the rebuild: the current component map stays valid
            # for physics (only boundary re-draws wait), and child-level
            # invalidation has already been forwarded.
            return
        ids = sorted(self._xcvrs)
        radius = self.max_range_m
        grid = self._grid
        if (grid is None or self._grid_radius != radius
                or len(grid) != len(ids)):
            # (Re)build the facade grid: first partition, a power change
            # that moved the adjacency radius, or membership drift.
            grid = SpatialGrid(radius)
            for nid in ids:
                grid.insert(nid, self._xcvrs[nid]._position)
            self._grid = grid
            self._grid_radius = radius
        # Union-find over max-range adjacency.
        parent = {nid: nid for nid in ids}

        def find(n: int) -> int:
            root = n
            while parent[root] != root:
                root = parent[root]
            while parent[n] != root:
                parent[n], n = root, parent[n]
            return root

        for nid in ids:
            rn = find(nid)
            for other in grid.within(self._xcvrs[nid]._position, radius):
                ro = find(other)
                if ro != rn:
                    parent[ro] = rn
        components: dict[int, list[int]] = {}
        for nid in ids:
            components.setdefault(find(nid), []).append(nid)

        self._children = []
        self._owner = {}
        for root in sorted(components, key=lambda r: components[r][0]):
            child = RadioMedium(
                self.env, self._rng, self.monitor, self.propagation,
                corrupt_delivery_fraction=self.corrupt_delivery_fraction,
                use_spatial_index=self._use_spatial_index,
            )
            child.faults = self._faults
            for nid in components[root]:
                xcvr = self._xcvrs[nid]
                child._adopt(xcvr)
                # _adopt points the config listeners at the child; route
                # them back through the facade so partition staleness is
                # tracked too (the facade forwards to the children).
                xcvr.config._listener = self._invalidate_channels
                xcvr.config._power_listener = self._invalidate_power
                self._owner[nid] = child
            self._children.append(child)
        self.partition_builds += 1
        self._moves_since_partition = 0
        self._stale = False

    def partitions(self) -> list[list[int]]:
        """The current component structure: sorted ids per child medium,
        ordered by each component's lowest id."""
        self._ensure_partition()
        return [sorted(child._xcvrs) for child in self._children]

    def _child_of(self, xcvr: Transceiver) -> RadioMedium:
        self._ensure_partition()
        try:
            return self._owner[xcvr.node_id]
        except KeyError:
            raise RadioError(
                f"node {xcvr.node_id} not attached") from None

    # -- traffic operations (delegated) ------------------------------------

    def cca_busy(self, xcvr: Transceiver) -> bool:
        return self._child_of(xcvr).cca_busy(xcvr)

    def ambient_power_dbm(self, xcvr: Transceiver) -> float:
        return self._child_of(xcvr).ambient_power_dbm(xcvr)

    def transmit(self, xcvr: Transceiver, frame: "Frame") -> Event:
        return self._child_of(xcvr).transmit(xcvr, frame)
