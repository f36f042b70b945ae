"""Kernel-maintained neighbor table with beacons and blacklists (§III-B.2).

The paper's design decision, reproduced here: neighborhood state lives in
the *kernel*, not in any protocol — "it is more efficient to provide
neighborhood management as part of kernel services, which both users and
applications can access via system calls."  Every node broadcasts periodic
beacons carrying its name and position; receivers maintain entries with
EWMA link-quality estimates.  LiteView's neighborhood commands then just
expose this table: list it, blacklist entries (a per-entry *enabled* flag
that all routing protocols honour), and retune the beacon frequency.
"""

from __future__ import annotations

import struct
import typing as _t
from dataclasses import dataclass

from repro.errors import ProcessInterrupt
from repro.net.packet import ANY_NODE, Packet
from repro.net.ports import WellKnownPorts
from repro.radio.medium import FrameBatch, Row

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.node import SensorNode

__all__ = ["NeighborEntry", "NeighborTable", "DEFAULT_BEACON_INTERVAL",
           "NEIGHBOR_CAPACITY"]

#: Default beacon period (seconds); the `update` command retunes it.
DEFAULT_BEACON_INTERVAL = 2.0
#: Table rows a mote's RAM holds; a new neighbor past this evicts the
#: longest-silent entry.
NEIGHBOR_CAPACITY = 16
#: A neighbor silent for this many beacon periods leaves the table.
LIFETIME_FACTOR = 3.5
#: Weight of the newest beacon in the LQI/RSSI moving averages.
EWMA_ALPHA = 0.3

_BEACON_FMT = ">ffB"  # x, y, name length; name bytes follow
_BEACON_HEADER_BYTES = struct.calcsize(_BEACON_FMT)


@dataclass(slots=True)
class NeighborEntry:
    """One row of the kernel neighbor table.

    Slotted: a large deployment keeps tens of thousands of these rows
    live and rewrites them on every beacon, so dropping the per-instance
    dict both shrinks the table's footprint and speeds the EWMA updates.
    """

    node_id: int
    name: str
    position: tuple[float, float] | None
    lqi: float = 0.0          # EWMA of beacon LQI
    rssi: float = 0.0         # EWMA of beacon RSSI readings
    first_heard: float = 0.0
    last_heard: float = 0.0
    beacons_received: int = 0
    first_seq: int = 0
    last_seq: int = 0
    #: The paper's blacklist flag: "the kernel associates a field to each
    #: neighbor entry that specifies whether or not the current neighbor
    #: is considered enabled".
    enabled: bool = True

    @property
    def prr_estimate(self) -> float:
        """Beacon delivery ratio estimated from sequence-number gaps."""
        expected = ((self.last_seq - self.first_seq) & 0xFFFF) + 1
        if expected <= 0:
            return 0.0
        return min(1.0, self.beacons_received / expected)


class NeighborTable:
    """Kernel neighbor service: beaconing, estimation, blacklist."""

    def __init__(self, node: "SensorNode", *, beaconing: bool = True):
        self.node = node
        self._beacon_interval = DEFAULT_BEACON_INTERVAL
        self._entries: dict[int, NeighborEntry] = {}
        self._blacklist: set[int] = set()
        self._seq = 0
        self._rng = node.rng.stream(f"neighbors.jitter.{node.id}")
        node.stack.ports.subscribe_batch(
            WellKnownPorts.NEIGHBOR, NeighborTable._on_beacon, self,
            name="neighbor-beacons",
        )
        #: A non-beaconing node (the management workstation) hears its
        #: neighborhood but never advertises itself, so routing protocols
        #: on other nodes cannot pick it as a next hop.  It is not a fleet
        #: member either: the beacon taps never hear what it receives.
        self.beaconing = beaconing
        self._beacon_process = None
        if beaconing:
            self._beacon_process = node.env.process(
                self._beacon_loop(), name=f"beacons-{node.id}"
            )

    # -- configuration ------------------------------------------------------

    @property
    def beacon_interval(self) -> float:
        """Current beacon period (the `update` command's knob)."""
        return self._beacon_interval

    def set_beacon_interval(self, interval: float) -> None:
        """Retune the beacon frequency (takes effect next period)."""
        if interval <= 0:
            raise ValueError(f"beacon interval must be positive: {interval}")
        self.node.events.log(self.node.env.now, "neighbor.beacon_interval",
                             f"{self._beacon_interval:g}s -> {interval:g}s")
        self._beacon_interval = float(interval)

    @property
    def entry_lifetime(self) -> float:
        """How long a silent neighbor stays in the table."""
        return LIFETIME_FACTOR * self._beacon_interval

    # -- table access ---------------------------------------------------------

    def entries(self) -> list[NeighborEntry]:
        """Live entries, sorted by node id (expired ones purged first)."""
        self._expire()
        return sorted(self._entries.values(), key=lambda e: e.node_id)

    def usable(self) -> list[NeighborEntry]:
        """Live entries that are not blacklisted — what protocols use."""
        return [e for e in self.entries() if e.enabled]

    def usable_ids(self) -> list[int]:
        """Node ids of usable neighbors."""
        return [e.node_id for e in self.usable()]

    def lookup(self, node_id: int) -> NeighborEntry | None:
        """The live entry for ``node_id``, if present."""
        self._expire()
        return self._entries.get(node_id)

    def position_of(self, node_id: int) -> tuple[float, float] | None:
        """A neighbor's beaconed position, if known."""
        entry = self.lookup(node_id)
        return entry.position if entry else None

    # -- blacklist -----------------------------------------------------------------

    def blacklist(self, node_id: int) -> None:
        """Temporarily stop communicating with a neighbor."""
        self._blacklist.add(node_id)
        entry = self._entries.get(node_id)
        if entry:
            entry.enabled = False
        self.node.events.log(self.node.env.now, "neighbor.blacklist",
                             f"node {node_id} disabled")

    def unblacklist(self, node_id: int) -> None:
        """Re-enable a previously blacklisted neighbor."""
        self._blacklist.discard(node_id)
        entry = self._entries.get(node_id)
        if entry:
            entry.enabled = True
        self.node.events.log(self.node.env.now, "neighbor.blacklist",
                             f"node {node_id} re-enabled")

    def clear(self) -> None:
        """Forget every neighbor and restart the beacon sequence.

        Models the RAM loss of a reboot: the table and the sequence
        counter live in kernel RAM, so a power cycle empties both.  The
        blacklist is also RAM-resident and clears with them — re-applying
        operator intent after a reboot is the controller's job, exactly
        the stale-state hazard the diagnosis tooling exists to surface.
        """
        self._entries.clear()
        self._blacklist.clear()
        self._seq = 0

    def is_blacklisted(self, node_id: int) -> bool:
        """Whether traffic to/from ``node_id`` is currently suppressed."""
        return node_id in self._blacklist

    def blacklisted_ids(self) -> list[int]:
        """Sorted blacklisted node ids."""
        return sorted(self._blacklist)

    # -- beaconing ------------------------------------------------------------------

    def _beacon_loop(self):
        # Timers tick in *local* clock units: a node whose oscillator
        # runs fast (clock_rate > 1) exhausts a beacon period in fewer
        # true seconds, hence the division.  Rate 1.0 divides exactly,
        # so undrifted runs are bit-identical to the unscaled code.
        try:
            yield self.node.env.timeout(
                float(self._rng.uniform(0.0, self._beacon_interval))
                / self.node.clock_rate
            )
            while True:
                self._send_beacon()
                jitter = float(self._rng.uniform(-0.1, 0.1))
                yield self.node.env.timeout(
                    self._beacon_interval * (1.0 + jitter)
                    / self.node.clock_rate
                )
        except ProcessInterrupt:
            return

    def _send_beacon(self) -> None:
        self._seq = (self._seq + 1) & 0xFFFF
        name_bytes = self.node.name.encode("utf-8")[:40]
        x, y = self.node.position
        payload = struct.pack(_BEACON_FMT, x, y, len(name_bytes)) + name_bytes
        packet = Packet(
            port=WellKnownPorts.NEIGHBOR, origin=self.node.id,
            dest=ANY_NODE, payload=payload, seq=self._seq, ttl=1,
        )
        self.node.stack.broadcast(packet, kind="beacon")
        self.node.monitor.count("neighbors.beacons_sent")

    @staticmethod
    def _on_beacon(packet: Packet, batch: FrameBatch,
                   tables: "list[NeighborTable]", rows: list[Row]) -> None:
        """The neighbor service's receive entry: one beacon, decoded once.

        The stack calls it once for a frame's run of beacon rows;
        ``tables[i]`` took ``rows[i]``.  Each table folds the row's LQI
        and RSSI into its entry for the beacon's origin, and the beacon
        taps then read the rows the fleet members took, in one call.
        Static, like the stack's entry, so one span sees every batch.
        """
        origin = packet.origin
        # A node never takes its own beacon as a neighbor's.  The sender
        # hears none of its own frames, so only a beacon someone else
        # put on the air under another origin can reach that node.
        if origin != batch.sender and any(
                table.node.id == origin for table in tables):
            kept = [(t, r) for t, r in zip(tables, rows) if t.node.id != origin]
            if not kept:
                return
            tables = [t for t, _ in kept]
            rows = [r for _, r in kept]
        monitor = tables[0].node.monitor
        payload = packet.payload
        try:
            x, y, name_len = struct.unpack_from(_BEACON_FMT, payload)
            name = payload[
                _BEACON_HEADER_BYTES:_BEACON_HEADER_BYTES + name_len
            ].decode("utf-8")
        except (struct.error, UnicodeDecodeError):
            monitor.count("neighbors.malformed_beacons", len(tables))
            return
        monitor.count("neighbors.beacons_received", len(tables))
        position = (x, y)
        seq = packet.seq
        now = batch.time
        keep = 1 - EWMA_ALPHA
        alpha = EWMA_ALPHA
        tapped: list[Row] = []
        for table, row in zip(tables, rows):
            entry = table._entries.get(origin)
            if entry is None:
                table._add(origin, name, position, seq, row[4], row[3], now)
            else:
                entry.name = name
                entry.position = position
                entry.lqi = keep * entry.lqi + alpha * row[4]
                entry.rssi = keep * entry.rssi + alpha * row[3]
                entry.last_heard = now
                entry.beacons_received += 1
                entry.last_seq = seq
            if table.beaconing:
                tapped.append(row)
        taps = monitor.beacon_taps
        if taps and tapped:
            for tap in taps:
                tap(packet, batch, tapped)

    def _add(self, node_id: int, name: str, position: tuple[float, float],
             seq: int, lqi: int, rssi: int, now: float) -> None:
        """A first beacon from ``node_id``: a new entry, making room by
        expiring silent neighbors and then evicting the longest-silent."""
        self._expire()
        if len(self._entries) >= NEIGHBOR_CAPACITY:
            self._evict()
        self._entries[node_id] = NeighborEntry(
            node_id=node_id, name=name, position=position,
            lqi=float(lqi), rssi=float(rssi),
            first_heard=now, last_heard=now, beacons_received=1,
            first_seq=seq, last_seq=seq,
            enabled=node_id not in self._blacklist,
        )

    def _expire(self) -> None:
        now = self.node.env.now
        lifetime = self.entry_lifetime
        stale = [nid for nid, e in self._entries.items()
                 if now - e.last_heard > lifetime]
        for nid in stale:
            del self._entries[nid]
            self.node.monitor.count("neighbors.expired")
            self.node.events.log(now, "neighbor.expired",
                                 f"node {nid} fell silent")

    def _evict(self) -> None:
        """Drop the longest-silent entry to make room (LRU policy)."""
        oldest = min(self._entries.values(), key=lambda e: e.last_heard)
        del self._entries[oldest.node_id]
        self.node.monitor.count("neighbors.evicted")

    def stop(self) -> None:
        """Stop beaconing (used when a node is shut down)."""
        if self._beacon_process is not None:
            self._beacon_process.interrupt("node stopped")
