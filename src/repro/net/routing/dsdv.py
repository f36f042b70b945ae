"""DSDV-style distance-vector routing.

A proactive protocol in the spirit of the destination-sequenced
distance-vector family: every node periodically broadcasts its routing
table (one-hop adverts), neighbors run the Bellman-Ford update, and
destination-issued sequence numbers keep the tables loop-free.  It is the
second full routing protocol of the toolkit, demonstrating the paper's
protocol-independence claim: ping and traceroute run over it by changing
one ``port=`` parameter, with no other code involved.

Advert payload layout (one-hop broadcast, ``dest = ANY_NODE``, ttl 1)::

    msg_type  1 B    MSG_ADVERT
    count     1 B
    entries   count * (dest 2 B | metric 1 B | seq 2 B)

With the 64-byte payload region this caps at 12 entries per advert;
larger tables are split across several adverts per round.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.net.packet import ANY_NODE, Packet
from repro.net.ports import WellKnownPorts
from repro.net.routing.base import RoutingProtocol
from repro.radio.medium import FrameArrival

__all__ = ["DsdvRouting", "Route", "MSG_ADVERT"]

MSG_ADVERT = 0x10

_ENTRY_FMT = ">HBH"
_ENTRY_BYTES = struct.calcsize(_ENTRY_FMT)
#: payload region (64) minus msg_type and count bytes, per advert.
MAX_ENTRIES_PER_ADVERT = (64 - 2) // _ENTRY_BYTES

#: Metric value meaning "unreachable".
INFINITE_METRIC = 255

#: Seconds between table adverts (each jittered by ±10%).
ADVERT_INTERVAL = 5.0
#: A route not refreshed for this long is dropped (3.5 advert rounds).
ROUTE_LIFETIME = 3.5 * ADVERT_INTERVAL
#: Adverts heard below this LQI are ignored: learning a route over a
#: fringe link trades one hop of metric for heavy silent loss (hop-count
#: metrics famously prefer long bad links otherwise).
MIN_LQI = 90.0


@dataclass
class Route:
    """One routing-table entry."""

    dest: int
    next_hop: int
    metric: int
    seq: int
    updated_at: float


class DsdvRouting(RoutingProtocol):
    """Proactive distance-vector routing on port 11."""

    port = WellKnownPorts.DSDV
    name = "dsdv"
    protocol_kind = "dsdv"

    def __init__(self, node):
        super().__init__(node)
        self._table: dict[int, Route] = {}
        self._own_seq = 0
        self._jitter_rng = node.rng.stream(f"dsdv.jitter.{node.id}")
        self._advert_process = node.env.process(
            self._advert_loop(), name=f"dsdv-advert-{node.id}"
        )

    # -- table inspection ---------------------------------------------------

    def routes(self) -> list[Route]:
        """A snapshot of live routing-table entries."""
        self._expire()
        return sorted(self._table.values(), key=lambda r: r.dest)

    def route_to(self, dest: int) -> Route | None:
        """The live route toward ``dest``, if any."""
        self._expire()
        return self._table.get(dest)

    # -- forwarding ---------------------------------------------------------------

    def next_hop(self, packet: Packet) -> int | None:
        dest = packet.dest
        if dest == ANY_NODE:
            return None
        direct = None
        for entry in self.node.neighbors.usable():
            if entry.node_id == dest:
                if entry.lqi >= MIN_LQI:
                    return dest  # a good direct link always wins
                direct = dest   # fringe direct link: fallback only
        route = self.route_to(dest)
        if (route is not None and route.metric < INFINITE_METRIC
                and not self.node.neighbors.is_blacklisted(route.next_hop)):
            return route.next_hop
        return direct

    # -- advertising ---------------------------------------------------------------

    def _advert_loop(self):
        from repro.errors import ProcessInterrupt
        try:
            # Desynchronise nodes so adverts do not all collide forever.
            yield self.node.env.timeout(
                float(self._jitter_rng.uniform(0.0, ADVERT_INTERVAL))
            )
            while True:
                self._broadcast_table()
                jitter = float(self._jitter_rng.uniform(-0.1, 0.1))
                yield self.node.env.timeout(ADVERT_INTERVAL * (1 + jitter))
        except ProcessInterrupt:
            return  # protocol stopped

    def _broadcast_table(self) -> None:
        self._own_seq = (self._own_seq + 2) & 0xFFFF
        self._expire()
        entries = [(self.node.id, 0, self._own_seq)]
        entries.extend(
            (r.dest, r.metric, r.seq) for r in self._table.values()
        )
        for start in range(0, len(entries), MAX_ENTRIES_PER_ADVERT):
            chunk = entries[start:start + MAX_ENTRIES_PER_ADVERT]
            payload = bytes([MSG_ADVERT, len(chunk)]) + b"".join(
                struct.pack(_ENTRY_FMT, d, m, s) for d, m, s in chunk
            )
            packet = Packet(
                port=self.port, origin=self.node.id, dest=ANY_NODE,
                payload=payload, ttl=1,
            )
            self.node.stack.broadcast(packet, kind="dsdv-advert")
            self.node.monitor.count("dsdv.adverts_sent")

    # -- table updates -----------------------------------------------------------

    def _handle_control(self, msg_type: int, packet: Packet,
                        arrival: FrameArrival | None) -> None:
        if msg_type != MSG_ADVERT or arrival is None:
            self.node.monitor.count("routing.unknown_control")
            return
        if arrival.lqi < MIN_LQI:
            self.node.monitor.count("dsdv.fringe_adverts_ignored")
            return
        neighbor = arrival.sender
        try:
            entries = _parse_advert(packet.payload)
        except (struct.error, ValueError):
            self.node.monitor.count("dsdv.malformed_adverts")
            return
        self.node.monitor.count("dsdv.adverts_received")
        now = self.node.env.now
        for dest, metric, seq in entries:
            if dest == self.node.id:
                continue
            new_metric = min(metric + 1, INFINITE_METRIC)
            current = self._table.get(dest)
            # A route stays alive only on destination-issued freshness
            # (newer seq) or a strict improvement.  Deliberately *not*
            # refreshed on same-seq re-adverts from the current next hop:
            # that mutual-refresh loop keeps routes to dead nodes alive
            # forever (the count-to-infinity variant of route staleness).
            accept = (
                current is None
                or _seq_newer(seq, current.seq)
                or (seq == current.seq and new_metric < current.metric)
            )
            if accept:
                self._table[dest] = Route(
                    dest=dest, next_hop=neighbor, metric=new_metric,
                    seq=seq, updated_at=now,
                )

    def _expire(self) -> None:
        now = self.node.env.now
        stale = [d for d, r in self._table.items()
                 if now - r.updated_at > ROUTE_LIFETIME]
        for dest in stale:
            del self._table[dest]
            self.node.monitor.count("dsdv.routes_expired")

    def stop(self) -> None:
        self._advert_process.interrupt("protocol stopped")
        super().stop()


def _parse_advert(payload: bytes) -> list[tuple[int, int, int]]:
    if len(payload) < 2:
        raise ValueError("advert too short")
    count = payload[1]
    expected = 2 + count * _ENTRY_BYTES
    if len(payload) != expected:
        raise ValueError(
            f"advert length {len(payload)} does not match count {count}"
        )
    return [
        struct.unpack_from(_ENTRY_FMT, payload, 2 + i * _ENTRY_BYTES)
        for i in range(count)
    ]


def _seq_newer(a: int, b: int) -> bool:
    """Is sequence number ``a`` newer than ``b`` (mod-2^16 wraparound)?"""
    return ((a - b) & 0xFFFF) < 0x8000 and a != b
