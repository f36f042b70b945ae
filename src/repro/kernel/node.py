"""The sensor node: radio + MAC + stack + kernel services, wired together.

A :class:`SensorNode` is one simulated MicaZ mote running the LiteOS-like
kernel: its CC2420 transceiver attaches to the testbed's shared medium,
the CSMA MAC feeds the port-based communication stack, and the kernel
services (neighbor table, thread table, syscalls, parameter buffer,
memory ledger) sit on top.  Routing protocols install onto ports at
runtime — the "no recompilation" property the paper's protocol-
independence challenge demands.
"""

from __future__ import annotations

import typing as _t

from repro.errors import KernelError
from repro.kernel.eventlog import EventLog
from repro.kernel.memory import (
    KERNEL_FLASH_BYTES,
    KERNEL_RAM_BYTES,
    MemoryModel,
)
from repro.kernel.neighbors import NeighborTable
from repro.kernel.syscalls import ParameterBuffer, SyscallTable
from repro.kernel.threads import ThreadTable
from repro.mac.csma import CsmaMac
from repro.net.routing.base import RoutingProtocol
from repro.net.stack import CommunicationStack
from repro.radio.cc2420 import RadioConfig

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.testbed import Testbed

__all__ = ["SensorNode"]


class SensorNode:
    """One mote: hardware model plus kernel services."""

    def __init__(self, testbed: "Testbed", node_id: int, name: str,
                 position: tuple[float, float], *, beaconing: bool = True):
        self.testbed = testbed
        self.id = node_id
        self.name = name
        self.env = testbed.env
        self.rng = testbed.rng
        self.monitor = testbed.monitor

        self.xcvr = testbed.medium.attach(node_id, position)
        self.mac = CsmaMac(
            self.env, testbed.medium, self.xcvr, self.rng, self.monitor
        )
        self.stack = CommunicationStack(
            self.env, self.mac, self.monitor, node_id
        )
        self.memory = MemoryModel()
        self.memory.install("kernel", KERNEL_FLASH_BYTES, KERNEL_RAM_BYTES)
        self.events = EventLog(tracer=self.env.tracer, node_id=node_id)
        self.threads = ThreadTable(self.env, node_id)
        self.syscalls = SyscallTable()
        self.params = ParameterBuffer()
        #: Local clock rate relative to true simulated time (1.0 = perfect;
        #: the fault engine's ``clock_drift`` sets e.g. 1.02 for a clock
        #: running 2% fast).  Kernel timers — beacon scheduling — tick in
        #: local time, so drift skews beacon spacing the way a bad
        #: oscillator does on a real mote.
        self.clock_rate = 1.0
        self._clock_base = 0.0
        self._clock_ref = 0.0
        self.neighbors = NeighborTable(self, beaconing=beaconing)
        #: Installed routing protocols, keyed by port.
        self.protocols: dict[int, RoutingProtocol] = {}
        #: Installed services (ping, traceroute, controller, ...) by name.
        self.services: dict[str, object] = {}
        self._register_default_syscalls()

    # -- syscalls ----------------------------------------------------------

    def _register_default_syscalls(self) -> None:
        """The kernel APIs the runtime controller reads state through."""
        sc = self.syscalls
        sc.register("get_parameters", self.params.read)
        sc.register("neighbor_table", self.neighbors.entries)
        sc.register("queue_occupancy", lambda: self.mac.queue_occupancy)
        sc.register("radio_get", lambda: {
            "power_level": self.radio.power_level,
            "channel": self.radio.channel,
        })
        sc.register("radio_set_power", self._set_power_logged)
        sc.register("radio_set_channel", self._set_channel_logged)
        sc.register("rssi_sample", self._sample_rssi)
        sc.register("event_log", self.events.recent)
        sc.register("thread_table", self.threads.alive)
        sc.register("thread_kill", self._kill_thread_logged)

    def _kill_thread_logged(self, tid: int) -> bool:
        killed = self.threads.kill(tid)
        if killed:
            self.events.log(self.env.now, "thread.killed", f"tid {tid}")
        return killed

    def _set_power_logged(self, level: int) -> None:
        before = self.radio.power_level
        self.radio.set_power_level(level)
        self.events.log(self.env.now, "radio.power", f"{before} -> {level}")

    def _set_channel_logged(self, channel: int) -> None:
        before = self.radio.channel
        self.radio.set_channel(channel)
        self.events.log(self.env.now, "radio.channel",
                        f"{before} -> {channel}")

    def _sample_rssi(self) -> int:
        """One ambient RSSI register sample on the current channel
        (energy detect — no frame reception involved)."""
        medium = self.testbed.medium
        return medium.rssi_model.reading(
            medium.ambient_power_dbm(self.xcvr)
        )

    # -- geometry / radio -------------------------------------------------------

    @property
    def position(self) -> tuple[float, float]:
        """The node's physical position (metres)."""
        return self.xcvr.position

    @position.setter
    def position(self, value: tuple[float, float]) -> None:
        # Repositioning a node is exactly the deployment-phase adjustment
        # LiteView exists to support.
        self.xcvr.position = (float(value[0]), float(value[1]))

    @property
    def radio(self) -> RadioConfig:
        """The node's radio configuration (power level, channel)."""
        return self.xcvr.config

    def lookup_position(self, node_id: int) -> tuple[float, float] | None:
        """Location lookup used by geographic forwarding.

        Prefers the beaconed position in the neighbor table; falls back to
        the testbed's location directory (modelling the location service a
        real geographic-forwarding deployment configures at install time).
        """
        beaconed = self.neighbors.position_of(node_id)
        if beaconed is not None:
            return beaconed
        return self.testbed.position_of(node_id)

    # -- protocol management -------------------------------------------------------

    def install_protocol(self, protocol_cls: type[RoutingProtocol],
                         **kwargs: object) -> RoutingProtocol:
        """Instantiate a routing protocol on this node.

        The protocol subscribes to its port in its constructor; a port
        conflict surfaces as :class:`~repro.errors.PortInUse`.
        """
        protocol = protocol_cls(self, **kwargs)  # type: ignore[arg-type]
        self.protocols[protocol.port] = protocol
        return protocol

    def protocol_on(self, port: int) -> RoutingProtocol:
        """The routing protocol installed on ``port``."""
        try:
            return self.protocols[port]
        except KeyError:
            raise KernelError(
                f"node {self.id}: no routing protocol on port {port}"
            ) from None

    def uninstall_protocol(self, port: int) -> None:
        """Stop and remove the protocol on ``port``."""
        protocol = self.protocol_on(port)
        protocol.stop()
        del self.protocols[port]

    # -- local clock -------------------------------------------------------

    def local_time(self) -> float:
        """The node's own clock reading (true time scaled by drift).

        Piecewise-linear: each :meth:`set_clock_rate` rebases so the
        local clock is continuous across rate changes, as a real
        oscillator's accumulated error would be.
        """
        return self._clock_base + (
            self.env.now - self._clock_ref
        ) * self.clock_rate

    def set_clock_rate(self, rate: float) -> None:
        """Change the local oscillator rate (fault engine hook).

        ``rate`` is local seconds per true second; 1.0 restores a
        perfect clock going forward (accumulated offset persists).
        """
        if rate <= 0:
            raise ValueError(f"clock rate must be positive, got {rate}")
        self._clock_base = self.local_time()
        self._clock_ref = self.env.now
        self.clock_rate = float(rate)

    # -- failure injection -------------------------------------------------------

    @property
    def is_up(self) -> bool:
        """Whether the node is currently powered."""
        return self.xcvr.enabled

    def fail(self) -> None:
        """Crash the node: radio off, transmit queue lost.

        Models a battery death or reset — the failure mode deployed
        networks exhibit and the diagnosis tools must surface (the node
        simply falls silent; its neighbors' tables age it out).
        """
        if not self.xcvr.enabled:
            return
        self.xcvr.enabled = False
        self.mac.queue.clear()
        self.monitor.count("kernel.failures")
        self.events.log(self.env.now, "kernel.failed", "node down")

    def recover(self) -> None:
        """Power the node back up (beaconing resumes on schedule).

        A recovery is a *reboot*: kernel RAM is gone, so the neighbor
        table (entries, blacklist, beacon sequence) is cleared rather
        than carried over.  Before this clear, a rebooted node kept
        months-stale neighbor entries and routed through ghosts — the
        exact stale-state failure the chaos suite pins down.
        """
        if self.xcvr.enabled:
            return
        self.xcvr.enabled = True
        self.neighbors.clear()
        self.monitor.count("kernel.recoveries")
        self.events.log(self.env.now, "kernel.recovered", "node up")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SensorNode {self.id} {self.name!r} at {self.position}>"
