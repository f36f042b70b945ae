"""ETX collection-tree routing: the classic WSN data-gathering pattern.

A proactive tree rooted at a designated sink, in the style of MintRoute/
CTP: the root beacons cost 0, every other node picks the parent that
minimises *path ETX* — the expected number of transmissions to reach the
root, estimated from the kernel neighbor table's beacon delivery ratio —
and advertises its own cost.  Data flows strictly upward.

Two roles in the reproduction:

* a third full routing protocol for the §IV-A.1 protocol-independence
  story (ping/traceroute toward the sink work unchanged via ``port=``);
* the ETX-vs-hop-count contrast: unlike DSDV's hop metric, the tree
  prefers two good links over one marginal one, which is exactly the
  link-quality-awareness the LiteView observables exist to support.

Only root-bound traffic is routable ("collection"); packets for any
other destination get ``no_route``, which is honest to the pattern.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import ProcessInterrupt
from repro.net.packet import ANY_NODE, Packet
from repro.net.routing.base import RoutingProtocol
from repro.radio.medium import FrameArrival

__all__ = ["TreeRouting", "TREE_PORT", "MSG_COST_ADVERT"]

#: The collection tree's port.
TREE_PORT = 13

#: Seconds between cost adverts (each jittered by ±10%).
ADVERT_INTERVAL = 5.0
#: A parent not heard for this long is dropped (3.5 advert rounds).
PARENT_LIFETIME = 3.5 * ADVERT_INTERVAL

MSG_COST_ADVERT = 0x20

_ADVERT_FMT = ">BH"  # msg type, path cost (ETX x 10, saturating)

#: Cost value meaning "no route to root".
INFINITE_COST = 0xFFFF


@dataclass
class ParentLink:
    """The current parent and the cost it advertised."""

    parent: int
    advertised_cost: int  # parent's path ETX x 10
    link_etx10: int       # our link to the parent, ETX x 10
    updated_at: float

    @property
    def path_cost(self) -> int:
        return min(INFINITE_COST, self.advertised_cost + self.link_etx10)


class TreeRouting(RoutingProtocol):
    """ETX collection tree on port 13."""

    port = TREE_PORT
    name = "tree"
    protocol_kind = "tree"

    def __init__(self, node, root: int | None = None):
        super().__init__(node)
        #: The sink this tree collects toward.
        self.root = node.id if root is None else int(root)
        self._parent: ParentLink | None = None
        self._jitter_rng = node.rng.stream(f"tree.jitter.{node.id}")
        self._advert_process = node.env.process(
            self._advert_loop(), name=f"tree-advert-{node.id}"
        )

    # -- state inspection ------------------------------------------------------

    @property
    def is_root(self) -> bool:
        """Whether this node is the collection sink."""
        return self.node.id == self.root

    def parent(self) -> int | None:
        """Current parent toward the root (None when detached)."""
        self._expire()
        return self._parent.parent if self._parent else None

    def path_cost10(self) -> int:
        """Own path ETX x 10 (0 at the root, INFINITE when detached)."""
        if self.is_root:
            return 0
        self._expire()
        return self._parent.path_cost if self._parent else INFINITE_COST

    # -- forwarding -------------------------------------------------------------

    def next_hop(self, packet: Packet) -> int | None:
        if packet.dest != self.root:
            return None  # collection trees only route to the sink
        if self.is_root:
            return None
        parent = self.parent()
        if parent is None or self.node.neighbors.is_blacklisted(parent):
            return None
        return parent

    # -- cost adverts ------------------------------------------------------------

    def _advert_loop(self):
        try:
            yield self.node.env.timeout(
                float(self._jitter_rng.uniform(0.0, ADVERT_INTERVAL))
            )
            while True:
                self._broadcast_cost()
                jitter = float(self._jitter_rng.uniform(-0.1, 0.1))
                yield self.node.env.timeout(ADVERT_INTERVAL * (1 + jitter))
        except ProcessInterrupt:
            return

    def _broadcast_cost(self) -> None:
        cost = self.path_cost10()
        if cost >= INFINITE_COST and not self.is_root:
            return  # nothing useful to advertise while detached
        payload = struct.pack(_ADVERT_FMT, MSG_COST_ADVERT, cost)
        packet = Packet(port=self.port, origin=self.node.id,
                        dest=ANY_NODE, payload=payload, ttl=1)
        self.node.stack.broadcast(packet, kind="tree-advert")
        self.node.monitor.count("tree.adverts_sent")

    def _handle_control(self, msg_type: int, packet: Packet,
                        arrival: FrameArrival | None) -> None:
        if msg_type != MSG_COST_ADVERT or arrival is None:
            self.node.monitor.count("routing.unknown_control")
            return
        if self.is_root:
            return
        try:
            _type, advertised = struct.unpack_from(
                _ADVERT_FMT, packet.payload)
        except struct.error:
            self.node.monitor.count("tree.malformed_adverts")
            return
        self.node.monitor.count("tree.adverts_received")
        neighbor = arrival.sender
        entry = self.node.neighbors.lookup(neighbor)
        if entry is None or not entry.enabled:
            return
        link_etx10 = self._link_etx10(entry)
        candidate = ParentLink(
            parent=neighbor, advertised_cost=advertised,
            link_etx10=link_etx10, updated_at=self.node.env.now,
        )
        self._expire()
        current = self._parent
        if current is None or candidate.path_cost < current.path_cost or \
                current.parent == neighbor:
            # Adopt strictly better parents; refresh the current one on
            # every advert (its freshness, and any cost change, matter).
            self._parent = candidate

    @staticmethod
    def _link_etx10(entry) -> int:
        """Link ETX x 10 from the neighbor table's beacon PRR estimate.

        ETX = 1 / (PRR_fwd * PRR_bwd); with only the inbound PRR
        observable we use the standard single-direction approximation
        ETX ≈ 1 / PRR², floored to avoid division blow-ups.
        """
        prr = max(0.1, min(1.0, entry.prr_estimate))
        return min(INFINITE_COST, int(round(10.0 / (prr * prr))))

    def _expire(self) -> None:
        if (self._parent is not None
                and self.node.env.now - self._parent.updated_at
                > PARENT_LIFETIME):
            self._parent = None
            self.node.monitor.count("tree.parent_expired")

    def stop(self) -> None:
        self._advert_process.interrupt("protocol stopped")
        super().stop()
