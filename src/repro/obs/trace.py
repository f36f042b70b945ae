"""Structured, deterministic tracing of packet lifecycles.

The paper's tools answer "what happened to *this* probe and *where* did
it die" on real motes; :class:`Tracer` is the simulation-side analogue.
Instrumented subsystems (stack, MAC queue, CSMA, medium, routing,
kernel event log) emit time-stamped :class:`TraceEvent` records, and the
records that belong to one network packet — keyed by the wire-stable
packet id ``origin:port:seq`` — form its **lifecycle trace**:

    stack.send → mac.enqueue → mac.backoff* → mac.tx → radio.rx /
    radio.drop(reason) → stack.rx → route.forward → … → route.deliver
    or route.drop(reason)

Design constraints, both load-bearing:

* **Off by default, near-zero overhead when off.**  Every call site
  guards with ``if tracer.enabled:`` before building any record, so the
  disabled path costs one attribute read and a branch.
* **Deterministic.**  Records carry only simulated time and
  seed-deterministic fields (never wall time, object ids, or the MAC
  frame's process-global sequence counter), so two runs of the same
  seeded scenario export byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TraceEvent", "Tracer", "packet_trace_id"]


def packet_trace_id(origin: int, port: int, seq: int) -> str:
    """The wire-stable lifecycle key of one network packet.

    ``origin`` scopes ``seq`` (each sender numbers its own packets) and
    ``port`` separates protocols sharing a node, so the triple survives
    serialisation and re-parsing at every hop — unlike Python object
    identity, which dies at the first ``to_bytes``.
    """
    return f"{origin}:{port}:{seq}"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One time-stamped observation, optionally tied to a packet."""

    time: float
    kind: str                      # e.g. "mac.tx", "route.drop"
    node: int | None = None        # node where the event happened
    packet: str | None = None      # lifecycle key (packet_trace_id)
    detail: dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.detail.items())
        where = f"node {self.node}" if self.node is not None else "-"
        return (f"[{self.time:10.6f}] {where:>8}  {self.kind}"
                + (f"  {extras}" if extras else ""))


class Tracer:
    """Collects trace events for one simulation.

    Disabled by default; call sites must guard on :attr:`enabled` so the
    off path allocates nothing.  The one store is the global timeline:
    every per-packet query (lifecycle, fate, last packet) is derived
    from it on demand, so recording is a single append.
    """

    __slots__ = ("enabled", "events")

    def __init__(self) -> None:
        self.enabled = False
        #: Global timeline, in emission order (== time order, since the
        #: simulation clock never goes backwards).
        self.events: list[TraceEvent] = []

    # -- control ------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop all collected events (the enabled flag is kept)."""
        self.events.clear()

    # -- recording ----------------------------------------------------------

    def emit(self, kind: str, time: float, *, node: int | None = None,
             packet: str | None = None, **detail: object) -> None:
        """Record one event.  Callers must check :attr:`enabled` first."""
        self.events.append(TraceEvent(time=time, kind=kind, node=node,
                                      packet=packet, detail=detail))

    # -- queries ------------------------------------------------------------

    @property
    def last_packet_id(self) -> str | None:
        """The packet most recently touched by any event (`trace last`)."""
        for event in reversed(self.events):
            if event.packet is not None:
                return event.packet
        return None

    def lifecycle(self, packet_id: str) -> list[TraceEvent]:
        """All events of one packet, in time order (empty if unknown)."""
        return [event for event in self.events if event.packet == packet_id]

    def packet_ids(self) -> list[str]:
        """Every packet with at least one event, in first-seen order."""
        return list(dict.fromkeys(event.packet for event in self.events
                                  if event.packet is not None))

    def outcome(self, packet_id: str) -> tuple[str, TraceEvent | None]:
        """Classify a packet's fate from its trace.

        Returns ``(verdict, deciding_event)`` where verdict is one of
        ``"delivered"``, ``"dropped"``, ``"in-flight"`` or ``"unknown"``.
        A packet can be both delivered *and* later dropped (broadcasts,
        TTL death after delivery); delivery wins, matching what the
        end user asked ("did my packet arrive?").
        """
        events = self.lifecycle(packet_id)
        if not events:
            return "unknown", None
        delivered = None
        dropped = None
        for event in events:
            if event.kind == "route.deliver":
                delivered = delivered or event
            elif event.kind.endswith(".drop") or event.kind.endswith("_drop"):
                dropped = dropped or event
        if delivered is not None:
            return "delivered", delivered
        if dropped is not None:
            return "dropped", dropped
        return "in-flight", events[-1]

    def explain(self, packet_id: str) -> str:
        """Reconstruct the hop-by-hop story of one packet.

        The software analogue of the paper's per-hop traceroute report:
        a header naming the packet's fate (and, for drops, the hop and
        reason), followed by the chronological event list.
        """
        events = self.lifecycle(packet_id)
        if not events:
            return (f"no trace for packet {packet_id!r} "
                    "(tracing disabled, or the id is wrong)")
        verdict, decider = self.outcome(packet_id)
        lines = [f"packet {packet_id}: {len(events)} events, {verdict}"]
        if verdict == "dropped" and decider is not None:
            reason = decider.detail.get("reason", decider.kind)
            lines[0] += (f" at node {decider.node} "
                         f"({reason}, t={decider.time:.6f}s)")
        elif verdict == "delivered" and decider is not None:
            lines[0] += (f" to node {decider.node} "
                         f"(t={decider.time:.6f}s)")
        lines.extend(e.render() for e in events)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return (f"<Tracer {state} events={len(self.events)} "
                f"packets={len(self.packet_ids())}>")
