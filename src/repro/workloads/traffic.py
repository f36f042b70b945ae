"""Background application traffic: the load that creates hotspots.

The abstract's hotspot-diagnosis claim needs congested nodes to find.
:class:`TrafficGenerator` runs periodic application flows over a routing
protocol; nodes on the shared segments of several flows accumulate MAC
queue backlog and inflated per-hop delays — exactly what the traceroute-
based hotspot detector looks for.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.errors import ProcessInterrupt
from repro.kernel.testbed import Testbed
from repro.net.ports import WellKnownPorts
from repro.sim.process import Process

__all__ = ["Flow", "TrafficGenerator", "APP_SINK_PORT"]

#: Port the generator's sink subscribes on at every node.
APP_SINK_PORT = 60


@dataclass(frozen=True)
class Flow:
    """One periodic unicast flow."""

    src: int
    dst: int
    interval: float = 0.2
    payload_bytes: int = 24

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("flow interval must be positive")
        if not 0 <= self.payload_bytes <= 60:
            raise ValueError("flow payload must fit the payload region")


class TrafficGenerator:
    """Drives a set of flows over geographic forwarding (port 10)."""

    def __init__(self, testbed: Testbed, flows: _t.Sequence[Flow]):
        self.testbed = testbed
        self.flows = list(flows)
        self.delivered = 0
        self.sent = 0
        self._processes: list[Process] = []
        for node in testbed.nodes():
            if node.stack.ports.holder(APP_SINK_PORT) is None:
                node.stack.ports.subscribe(
                    APP_SINK_PORT, self._sink, name="app-sink"
                )

    def _sink(self, packet, arrival) -> None:
        self.delivered += 1
        self.testbed.monitor.count("traffic.delivered")

    def start(self) -> None:
        """Launch one process per flow (idempotent)."""
        if self._processes:
            return
        for index, flow in enumerate(self.flows):
            self._processes.append(self.testbed.env.process(
                self._drive(flow, index), name=f"flow-{index}"
            ))

    def stop(self) -> None:
        """Interrupt all flow processes."""
        for process in self._processes:
            process.interrupt("traffic stopped")
        self._processes.clear()

    def _drive(self, flow: Flow, index: int):
        env = self.testbed.env
        rng = self.testbed.rng.stream(f"traffic.{index}")
        src = self.testbed.node(flow.src)
        payload = bytes(flow.payload_bytes)
        try:
            # Staggered start so flows do not begin in lockstep.
            yield env.timeout(float(rng.uniform(0, flow.interval)))
            while True:
                protocol = src.protocols.get(WellKnownPorts.GEOGRAPHIC)
                if protocol is not None:
                    if protocol.send(flow.dst, APP_SINK_PORT, payload,
                                     kind="app"):
                        self.sent += 1
                        self.testbed.monitor.count("traffic.sent")
                jitter = float(rng.uniform(0.9, 1.1))
                yield env.timeout(flow.interval * jitter)
        except ProcessInterrupt:
            return

    @property
    def delivery_ratio(self) -> float:
        """Delivered / sent (1.0 when nothing sent yet)."""
        return self.delivered / self.sent if self.sent else 1.0
