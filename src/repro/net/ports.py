"""The port map: subscription-based dispatch (Figure 2 of the paper).

Processes subscribe to ports; incoming packets are matched against the
port map and handed to the matching subscriber's handler.  This is the
mechanism that gives LiteView its protocol independence: the ping and
traceroute processes, the runtime controller and every routing protocol
are all just subscribers — "the only shared data between layers are
packets themselves".
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.errors import PortInUse

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.radio.medium import FrameArrival, FrameBatch, Row

__all__ = ["PortMap", "Subscription", "WellKnownPorts"]


class WellKnownPorts:
    """Port assignments used across the toolkit.

    GEOGRAPHIC is 10 to match the paper's traceroute example ("we let the
    geographic forwarding protocol listen on the port number 10").
    """

    CONTROL = 1        # runtime controller <-> command interpreter
    NEIGHBOR = 2       # kernel neighbor beacons
    GEOGRAPHIC = 10    # geographic forwarding routing protocol
    DSDV = 11          # distance-vector routing protocol
    FLOODING = 12      # controlled flooding protocol
    PING = 20          # ping command processes
    TRACEROUTE = 21    # traceroute command processes


#: Handler signature: (packet, arrival) — ``arrival`` carries the PHY
#: observables of the hop the packet came in on, or None for loopback.
PortHandler = _t.Callable[["Packet", "_t.Optional[FrameArrival]"], None]

#: Batch handler signature: (packet, batch, owners, rows) — one call for
#: a run of ``batch``'s rows that carry ``packet`` to subscriptions
#: sharing the handler; ``owners[i]`` is the subscribing object of the
#: node that took ``rows[i]``.
BatchHandler = _t.Callable[
    ["Packet", "FrameBatch", "list[_t.Any]", "list[Row]"], None]


@dataclass
class Subscription:
    """One process's claim on a port.

    A batch subscription (``owner`` set, see
    :meth:`PortMap.subscribe_batch`) takes a beacon's rows together and
    never sees a :class:`~repro.radio.medium.FrameArrival`.
    """

    port: int
    name: str
    handler: "PortHandler | BatchHandler"
    owner: _t.Any = None


class PortMap:
    """Port-number → subscriber table with dispatch accounting."""

    def __init__(self) -> None:
        self._subs: dict[int, Subscription] = {}
        #: Packets dropped because no process was listening.
        self.unmatched = 0

    def subscribe(self, port: int, handler: PortHandler,
                  name: str = "?") -> Subscription:
        """Claim ``port``; raises :class:`PortInUse` on conflict."""
        if port in self._subs:
            raise PortInUse(
                f"port {port} already held by {self._subs[port].name!r}"
            )
        sub = Subscription(port=port, name=name, handler=handler)
        self._subs[port] = sub
        return sub

    def subscribe_batch(self, port: int, handler: BatchHandler, owner: _t.Any,
                        name: str = "?") -> Subscription:
        """Claim ``port`` for radio deliveries only, taken a batch at a
        time: the stack calls ``handler(packet, batch, owners, rows)``
        once for a run of one frame's rows whose subscriptions share the
        handler, and never builds a per-row packet copy or arrival.  A
        loopback or routed packet on the port is accepted and dropped."""
        sub = self.subscribe(port, handler, name)
        sub.owner = owner
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Release a subscription (no-op if already released)."""
        current = self._subs.get(sub.port)
        if current is sub:
            del self._subs[sub.port]

    def holder(self, port: int) -> Subscription | None:
        """The current subscription on ``port``, if any."""
        return self._subs.get(port)

    def ports(self) -> list[int]:
        """Sorted list of subscribed ports."""
        return sorted(self._subs)

    def dispatch(self, packet: "Packet",
                 arrival: "_t.Optional[FrameArrival]") -> bool:
        """Deliver a packet to its port's subscriber.

        Returns False (and counts the miss) when nobody listens — an
        unmatched packet is silently dropped, like on the motes.
        """
        sub = self._subs.get(packet.port)
        if sub is None:
            self.unmatched += 1
            return False
        if sub.owner is None:
            sub.handler(packet, arrival)
        return True
