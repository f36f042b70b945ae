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
from dataclasses import dataclass, field

from repro.errors import ProcessInterrupt
from repro.net.packet import ANY_NODE, Packet
from repro.net.ports import WellKnownPorts
from repro.radio.medium import FrameArrival

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.node import SensorNode

__all__ = ["NeighborEntry", "NeighborTable", "DEFAULT_BEACON_INTERVAL"]

#: Default beacon period (seconds); the `update` command retunes it.
DEFAULT_BEACON_INTERVAL = 2.0
#: A neighbor silent for this many beacon periods leaves the table.
LIFETIME_FACTOR = 3.5
#: Weight of the newest beacon in the LQI/RSSI moving averages.
EWMA_ALPHA = 0.3

_BEACON_FMT = ">ffB"  # x, y, name length; name bytes follow
_BEACON_HEADER_BYTES = struct.calcsize(_BEACON_FMT)

#: Last successfully decoded beacon payload: (payload bytes, x, y, name).
#: One broadcast beacon reaches every in-range receiver as the *same*
#: payload object (the parse memo in Packet.from_bytes shares the slice),
#: so repeats skip the struct unpack and UTF-8 decode.  Identity-keyed on
#: immutable bytes; the decoded fields are immutable and safe to share.
_beacon_memo: tuple[bytes, float, float, str] | None = None


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

    def __init__(self, node: "SensorNode", *,
                 capacity: int = 16,
                 beaconing: bool = True):
        if capacity < 1:
            raise ValueError("neighbor table capacity must be >= 1")
        self.node = node
        self.capacity = capacity
        self._beacon_interval = DEFAULT_BEACON_INTERVAL
        self._entries: dict[int, NeighborEntry] = {}
        self._blacklist: set[int] = set()
        self._seq = 0
        self._rng = node.rng.stream(f"neighbors.jitter.{node.id}")
        # Lazily bound handle for the per-beacon receive counter (created
        # on first increment so it stays out of untouched snapshots).
        self._c_received = None
        node.stack.ports.subscribe(
            WellKnownPorts.NEIGHBOR, self._on_beacon, name="neighbor-beacons"
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

    def _on_beacon(self, packet: Packet, arrival: FrameArrival | None) -> None:
        global _beacon_memo
        if arrival is None or packet.origin == self.node.id:
            return
        payload = packet.payload
        memo = _beacon_memo
        if memo is not None and memo[0] is payload:
            x, y, name = memo[1], memo[2], memo[3]
        else:
            try:
                x, y, name_len = struct.unpack_from(_BEACON_FMT, payload)
                name = payload[
                    _BEACON_HEADER_BYTES:_BEACON_HEADER_BYTES + name_len
                ].decode("utf-8")
            except (struct.error, UnicodeDecodeError):
                self.node.monitor.count("neighbors.malformed_beacons")
                return
            if type(payload) is bytes:
                _beacon_memo = (payload, x, y, name)
        monitor = self.node.monitor
        c = self._c_received
        if c is None:
            c = self._c_received = monitor.registry.counter(
                "neighbors.beacons_received")
        c.value += 1
        self._update(packet.origin, name, (x, y), packet.seq, arrival)
        taps = monitor.beacon_taps
        if taps and self.beaconing:
            for tap in taps:
                tap(self.node.id, packet.origin, packet.seq, arrival)

    def _update(self, node_id: int, name: str,
                position: tuple[float, float], seq: int,
                arrival: FrameArrival) -> None:
        now = self.node.env.now
        entry = self._entries.get(node_id)
        if entry is None:
            self._expire()
            if len(self._entries) >= self.capacity:
                self._evict()
            entry = NeighborEntry(
                node_id=node_id, name=name, position=position,
                lqi=float(arrival.lqi), rssi=float(arrival.rssi),
                first_heard=now, last_heard=now, beacons_received=1,
                first_seq=seq, last_seq=seq,
                enabled=node_id not in self._blacklist,
            )
            self._entries[node_id] = entry
            return
        alpha = EWMA_ALPHA
        entry.name = name
        entry.position = position
        entry.lqi = (1 - alpha) * entry.lqi + alpha * arrival.lqi
        entry.rssi = (1 - alpha) * entry.rssi + alpha * arrival.rssi
        entry.last_heard = now
        entry.beacons_received += 1
        entry.last_seq = seq

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
