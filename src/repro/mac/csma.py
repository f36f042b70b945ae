"""Unslotted CSMA/CA in the style of 802.15.4.

Each node runs one transmit process: pop a frame from the
:class:`~repro.mac.queue.TxQueue`, back off a random number of unit
periods, carrier-sense, and transmit when clear — doubling the backoff
window (up to ``MAX_BE``) on every busy assessment and dropping the frame
after ``MAX_BACKOFFS`` failures, exactly as macMinBE/macMaxBE/macMaxCSMABackoffs
prescribe.  The random hold-and-release this creates under load is the
mechanism behind the paper's Figure 5 observation that reports can arrive
back-to-back ("the routing layer ... will add random jitters before
sending out packets in the queue").

No MAC-level acknowledgements are modelled: LiteView's reliability lives
in its own command-layer protocol (per-batch acks, §IV-B of the paper),
and the LiteOS broadcast MAC the paper builds on does not ack either.
"""

from __future__ import annotations

import typing as _t

from repro.mac.frame import Frame
from repro.mac.queue import TxQueue
from repro.radio.medium import FrameBatch, RadioMedium, Transceiver
from repro.sim.engine import Environment
from repro.sim.monitor import Monitor
from repro.sim.rng import RngRegistry
from repro.units import us

__all__ = ["CsmaMac"]

#: aUnitBackoffPeriod: 20 symbols of 16 us.
UNIT_BACKOFF = us(320)
#: macMinBE / macMaxBE / macMaxCSMABackoffs defaults.
MIN_BE = 3
MAX_BE = 5
MAX_BACKOFFS = 4
#: Rx/Tx turnaround before a frame actually leaves the radio.
TURNAROUND = us(192)


class CsmaMac:
    """One node's MAC: bounded queue + CSMA/CA transmit process."""

    def __init__(
        self,
        env: Environment,
        medium: RadioMedium,
        xcvr: Transceiver,
        rng: RngRegistry,
        monitor: Monitor,
    ) -> None:
        self.env = env
        self.medium = medium
        self.xcvr = xcvr
        self.monitor = monitor
        self.node_id = xcvr.node_id
        self.tracer = env.tracer
        self.queue = TxQueue(env, tracer=env.tracer, owner=self.node_id)
        self._rng = rng.stream(f"mac.backoff.{self.node_id}")
        # Receiving is the radio's hardware address recognition: a
        # unicast frame for another node stops there, and corrupted
        # frames go up too — the communication stack's CRC checker
        # (Figure 2 of the paper) is the component that discards them.
        xcvr.address_recognition = True
        self._tx_process = env.process(self._tx_loop(), name=f"mac-tx-{self.node_id}")

    # -- upper-layer interface ------------------------------------------------

    def set_receive_handler(
        self, handler: _t.Callable[[FrameBatch], None] | None,
        upper: _t.Any = None,
    ) -> None:
        """Install the network-stack delivery callback: ``handler(batch)``
        gets the rows of each :class:`~repro.radio.medium.FrameBatch`
        that address recognition accepted (see
        :meth:`Transceiver.set_receive_handler`)."""
        self.xcvr.set_receive_handler(handler, upper)

    def send(self, frame: Frame) -> bool:
        """Enqueue a frame for transmission.

        Returns False (and counts the drop) when the queue is full — the
        caller sees the same silent loss a real overloaded mote produces.
        """
        accepted = self.queue.put(frame)
        if not accepted:
            self.monitor.count("mac.queue_drops")
        self.monitor.observe("mac.queue_occupancy", self.queue.occupancy)
        return accepted

    @property
    def queue_occupancy(self) -> int:
        """Frames currently waiting — the ping report's ``Queue`` value."""
        return self.queue.occupancy

    # -- transmit path -----------------------------------------------------------

    def _tx_loop(self):
        while True:
            frame = yield self.queue.get()
            sent = yield from self._csma_transmit(frame)
            if sent:
                self.monitor.count("mac.sent_frames")
            else:
                self.monitor.count("mac.cca_failures")

    def _csma_transmit(self, frame: Frame):
        """One CSMA/CA attempt cycle; returns True if the frame aired."""
        tracer = self.tracer
        be = MIN_BE
        for attempt in range(MAX_BACKOFFS + 1):
            slots = int(self._rng.integers(0, 2 ** be))
            if tracer.enabled:
                tracer.emit("mac.backoff", self.env.now, node=self.node_id,
                            packet=frame.trace_id, attempt=attempt, be=be,
                            slots=slots)
            # Pooled: the backoff delay is yielded and forgotten, so the
            # event object can be recycled by the engine.
            yield self.env.pooled_timeout(slots * UNIT_BACKOFF)
            if not self.xcvr.enabled:
                # The radio was switched off while the frame waited; drop
                # it like the silicon would.
                self.monitor.count("mac.radio_off_drops")
                if tracer.enabled:
                    tracer.emit("mac.drop", self.env.now, node=self.node_id,
                                packet=frame.trace_id, reason="radio_off")
                return False
            if not self.medium.cca_busy(self.xcvr):
                yield self.env.pooled_timeout(TURNAROUND)
                if not self.xcvr.enabled:
                    self.monitor.count("mac.radio_off_drops")
                    if tracer.enabled:
                        tracer.emit("mac.drop", self.env.now,
                                    node=self.node_id,
                                    packet=frame.trace_id,
                                    reason="radio_off")
                    return False
                if tracer.enabled:
                    tracer.emit("mac.tx", self.env.now, node=self.node_id,
                                packet=frame.trace_id, dst=frame.dst,
                                attempts=attempt + 1)
                yield self.medium.transmit(self.xcvr, frame)
                return True
            be = min(be + 1, MAX_BE)
            self.monitor.count("mac.busy_assessments")
            if tracer.enabled:
                tracer.emit("mac.cca_busy", self.env.now, node=self.node_id,
                            packet=frame.trace_id, attempt=attempt)
        if tracer.enabled:
            tracer.emit("mac.drop", self.env.now, node=self.node_id,
                        packet=frame.trace_id, reason="cca_exhausted")
        return False
