"""Greedy geographic forwarding — the protocol of the paper's traceroute
example ("we let the geographic forwarding protocol listen on the port
number 10").

Each hop forwards to the usable neighbor that is geometrically closest to
the destination, provided that neighbor makes strict progress.  Neighbor
positions come from kernel beacons (the neighbor table); the destination's
position comes from the node's location lookup.  Greedy failure — no
neighbor closer than ourselves — drops the packet with a ``no_route``
count, the honest mote behaviour (we deliberately do not implement
perimeter recovery; the paper's protocol does not either).
"""

from __future__ import annotations

import math

from repro.net.packet import ANY_NODE, Packet
from repro.net.ports import WellKnownPorts
from repro.net.routing.base import RoutingProtocol

__all__ = ["GeographicForwarding"]


class GeographicForwarding(RoutingProtocol):
    """Greedy geographic routing on the paper's port 10.

    ``min_lqi`` filters forwarding candidates by their beacon-estimated
    link quality: greedy progress over a barely-audible fringe neighbor
    loses more to retransmission-free packet loss than it gains in
    distance, so (like production geographic stacks) we only route over
    links whose EWMA LQI clears a floor.  The destination itself is always
    eligible as a last hop, whatever its quality — there is no alternative.
    """

    port = WellKnownPorts.GEOGRAPHIC
    name = "geographic forwarding"
    protocol_kind = "geographic"

    def __init__(self, node, min_lqi: float = 90.0):
        super().__init__(node)
        self.min_lqi = float(min_lqi)

    def next_hop(self, packet: Packet) -> int | None:
        dest = packet.dest
        if dest == ANY_NODE:
            return None  # greedy routing has no notion of "everywhere"
        neighbors = self.node.neighbors.usable()
        dest_pos = self.node.lookup_position(dest)
        if dest_pos is None:
            return None
        my_distance = _distance(self.node.position, dest_pos)
        best_id: int | None = None
        best_distance = my_distance
        for entry in neighbors:
            if entry.position is None or entry.lqi < self.min_lqi:
                continue
            # The destination itself scores distance 0 and wins outright.
            d = 0.0 if entry.node_id == dest else _distance(
                entry.position, dest_pos
            )
            if d < best_distance - 1e-12:
                best_distance = d
                best_id = entry.node_id
        if best_id is not None:
            return best_id
        # Last resort: a fringe-quality direct link to the destination
        # beats dropping the packet.
        for entry in neighbors:
            if entry.node_id == dest:
                return dest
        return None


def _distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])
