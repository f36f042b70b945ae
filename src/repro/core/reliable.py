"""The reliable one-hop exchange protocol (§IV-B of the paper).

The command interpreter and the runtime controllers talk over a simple
reliable protocol layered on one-hop unicast:

* A message is split into chunks; chunks go out in **batches**, the last
  chunk of each batch requesting an acknowledgement.
* The ack carries a bitmap of everything received so far, so "lost
  packets are detected at the node side by detecting missing sequence
  numbers" and only the missing chunks are resent.
* The batch size adapts to link quality — "a smaller batch size is
  preferred when packets are more likely to get lost": halve on loss,
  grow by one on a clean batch.
* Single-packet commands degenerate to the paper's "one acknowledgement
  packet, combined with a timeout mechanism".

Wire layout::

    DATA  0x40 | xfer_id(2) | index(1) | total(1) | flags(1) | chunk...
    ACK   0x41 | xfer_id(2) | bitmap(4)

The 32-bit bitmap caps a transfer at 32 chunks (~1.7 KB) — far beyond any
LiteView command or reply.
"""

from __future__ import annotations

import struct
import typing as _t
from collections import OrderedDict

from repro.core.wire import MsgType
from repro.errors import HeaderError, ReliableTransferError
from repro.net.packet import Packet
from repro.net.ports import WellKnownPorts
from repro.radio.medium import FrameArrival
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.node import SensorNode

__all__ = ["ReliableEndpoint", "CHUNK_BYTES", "MAX_CHUNKS", "ACK_TIMEOUT",
           "BACKOFF_CAP", "MAX_ATTEMPTS"]

_DATA_FMT = ">BHBBB"
_DATA_HEADER = struct.calcsize(_DATA_FMT)
_ACK_FMT = ">BHI"

#: Payload bytes per chunk (64-byte payload region minus the DATA header).
CHUNK_BYTES = 64 - _DATA_HEADER
#: Bitmap width caps the chunk count.
MAX_CHUNKS = 32

_FLAG_ACK_REQUEST = 0x01

#: How many completed inbound transfers to remember for duplicate
#: suppression (re-acking straggler retransmissions).
_COMPLETED_MEMORY = 64

#: Base ack deadline (seconds) of a batch, before its per-chunk airtime.
ACK_TIMEOUT = 0.06
#: Ceiling on the exponential ack-deadline multiplier of a stall run.
BACKOFF_CAP = 8.0
#: Retry budget: consecutive attempts without progress before a send
#: gives up (any acknowledged chunk resets the count).
MAX_ATTEMPTS = 10


class ReliableEndpoint:
    """One side of the workstation↔node control channel."""

    #: The control channel's port.
    port = WellKnownPorts.CONTROL

    def __init__(self, node: "SensorNode",
                 on_message: _t.Callable[[int, bytes], None], *,
                 initial_batch: int = 4,
                 min_batch: int = 1,
                 max_batch: int = 8):
        if not 1 <= min_batch <= initial_batch <= max_batch <= MAX_CHUNKS:
            raise ValueError("require 1 <= min <= initial <= max <= 32")
        self.node = node
        self.on_message = on_message
        self.min_batch = min_batch
        self.max_batch = max_batch
        #: Jitter stream, created on the *first timeout* only — clean
        #: runs never touch it, so adding backoff left goldens intact.
        self._backoff_rng = None
        #: Current batch size per peer — the protocol's link-quality
        #: adaptation state.
        self._batch: dict[int, int] = {}
        self._initial_batch = initial_batch
        self._xfer = node.id << 8
        self._ack_waiters: dict[tuple[int, int], Event] = {}
        self._inbound: dict[tuple[int, int], dict] = {}
        self._completed: OrderedDict[tuple[int, int], int] = OrderedDict()
        node.stack.ports.subscribe(self.port, self._on_packet,
                                   name=f"reliable-{node.id}")

    # -- sending ------------------------------------------------------------

    def batch_size(self, peer: int) -> int:
        """Current adaptive batch size toward ``peer``."""
        return self._batch.get(peer, self._initial_batch)

    def send(self, dest: int, payload: bytes):
        """Reliably deliver ``payload`` to ``dest`` (one hop away).

        A generator to run inside a process; returns True when every
        chunk was acknowledged and raises
        :class:`~repro.errors.ReliableTransferError` when the bounded
        retry budget runs out — a dead peer costs a typed exception
        within the budget, never an infinite wait.

        Retries back off: each attempt without progress doubles the ack
        deadline (capped at :data:`BACKOFF_CAP` times the base) and adds up
        to 25% jitter so synchronised senders desynchronise.  The first
        attempt's deadline is exactly the historical one, and the jitter
        stream is only created after a timeout, so loss-free runs are
        bit-identical to the pre-backoff protocol.
        """
        if not payload:
            raise ValueError("refusing to send an empty message")
        chunks = [payload[i:i + CHUNK_BYTES]
                  for i in range(0, len(payload), CHUNK_BYTES)]
        if len(chunks) > MAX_CHUNKS:
            raise ValueError(
                f"message of {len(payload)} B exceeds "
                f"{MAX_CHUNKS * CHUNK_BYTES} B transfer limit"
            )
        node = self.node
        self._xfer = (self._xfer + 1) & 0xFFFF
        xfer = self._xfer
        total = len(chunks)
        pending = set(range(total))
        attempts = 0
        stalls = 0  # consecutive attempts without progress
        last_deadline = 0.0
        deadlines: list[float] = []
        while pending:
            if attempts >= MAX_ATTEMPTS:
                node.monitor.count("reliable.aborts")
                raise ReliableTransferError(
                    dest=dest, attempts=attempts, pending=len(pending),
                    total=total, backoff_delays=tuple(deadlines),
                )
            attempts += 1
            batch = sorted(pending)[: self.batch_size(dest)]
            for offset, index in enumerate(batch):
                flags = _FLAG_ACK_REQUEST if offset == len(batch) - 1 else 0
                data = struct.pack(
                    _DATA_FMT, MsgType.RELIABLE_DATA, xfer, index, total,
                    flags,
                ) + chunks[index]
                # seq carries the transfer id: retries of one message
                # share a lifecycle trace, distinct messages don't.
                packet = Packet(port=self.port, origin=node.id, dest=dest,
                                payload=data, seq=xfer)
                node.stack.send(packet, dest, kind="control")
                node.monitor.count("reliable.data_sent")
            waiter = Event(node.env)
            self._ack_waiters[(dest, xfer)] = waiter
            deadline = ACK_TIMEOUT + 0.003 * len(batch)
            if stalls:
                deadline *= min(2.0 ** stalls, BACKOFF_CAP)
                deadline *= 1.0 + 0.25 * float(self._jitter_rng().random())
                # Batch shrinkage and capped jitter could otherwise dip
                # below an earlier deadline; the clamp guarantees a
                # stall run's deadlines are monotone non-decreasing.
                if deadline < last_deadline:
                    deadline = last_deadline
            last_deadline = deadline
            deadlines.append(deadline)
            outcome = yield node.env.any_of(
                [waiter, node.env.timeout(deadline, value="timeout")]
            )
            self._ack_waiters.pop((dest, xfer), None)
            values = list(outcome.values())
            if values == ["timeout"]:
                node.monitor.count("reliable.ack_timeouts")
                self._shrink(dest)
                stalls += 1
                continue
            bitmap = values[0]
            before = len(pending)
            pending = {
                i for i in range(total) if not (bitmap >> i) & 1
            }
            if any(i in pending for i in batch):
                self._shrink(dest)
            else:
                self._grow(dest)
            if len(pending) < before:
                attempts = 0  # progress resets the retry budget
                stalls = 0
                last_deadline = 0.0
            else:
                stalls += 1
        return True

    def _jitter_rng(self):
        """The backoff-jitter stream (dedicated; created lazily)."""
        rng = self._backoff_rng
        if rng is None:
            rng = self._backoff_rng = self.node.rng.stream(
                f"reliable.backoff.{self.node.id}"
            )
        return rng

    def broadcast(self, payload: bytes) -> bool:
        """One-hop *unacknowledged* broadcast of a single-chunk message.

        This is how the interpreter addresses a group of nodes at once
        ("commands are translated into broadcasted messages that are
        received by the runtime controller"): the request itself is
        fire-and-forget, and reliability comes from each node's unicast
        reply (sent after its random backoff).
        """
        if not payload:
            raise ValueError("refusing to broadcast an empty message")
        if len(payload) > CHUNK_BYTES:
            raise ValueError(
                f"broadcast message of {len(payload)} B exceeds one "
                f"chunk ({CHUNK_BYTES} B)"
            )
        node = self.node
        self._xfer = (self._xfer + 1) & 0xFFFF
        data = struct.pack(
            _DATA_FMT, MsgType.RELIABLE_DATA, self._xfer, 0, 1, 0
        ) + payload
        from repro.net.packet import ANY_NODE
        packet = Packet(port=self.port, origin=node.id, dest=ANY_NODE,
                        payload=data, seq=self._xfer)
        node.monitor.count("reliable.broadcasts")
        return node.stack.broadcast(packet, kind="control")

    def _shrink(self, peer: int) -> None:
        self._batch[peer] = max(self.min_batch, self.batch_size(peer) // 2)

    def _grow(self, peer: int) -> None:
        self._batch[peer] = min(self.max_batch, self.batch_size(peer) + 1)

    # -- receiving -----------------------------------------------------------------

    def _on_packet(self, packet: Packet, arrival: FrameArrival | None) -> None:
        payload = packet.payload
        if not payload:
            return
        msg_type = payload[0]
        try:
            if msg_type == MsgType.RELIABLE_DATA:
                self._on_data(packet)
            elif msg_type == MsgType.RELIABLE_ACK:
                self._on_ack(packet)
            else:
                self.node.monitor.count("reliable.unknown_messages")
        except (HeaderError, struct.error):
            self.node.monitor.count("reliable.malformed")

    def _on_data(self, packet: Packet) -> None:
        node = self.node
        header = packet.payload[:_DATA_HEADER]
        if len(header) < _DATA_HEADER:
            raise HeaderError("short reliable data header")
        _type, xfer, index, total, flags = struct.unpack(_DATA_FMT, header)
        if total == 0 or index >= total or total > MAX_CHUNKS:
            raise HeaderError("impossible chunk indices")
        chunk = packet.payload[_DATA_HEADER:]
        key = (packet.origin, xfer)
        node.monitor.count("reliable.data_received")

        if key in self._completed:
            # Straggler retransmission of a finished transfer: re-ack so
            # the sender stops, but do not redeliver.
            if flags & _FLAG_ACK_REQUEST:
                self._send_ack(packet.origin, xfer, (1 << total) - 1)
            return

        state = self._inbound.setdefault(key, {"total": total, "chunks": {}})
        state["chunks"][index] = chunk
        if flags & _FLAG_ACK_REQUEST:
            bitmap = 0
            for i in state["chunks"]:
                bitmap |= 1 << i
            self._send_ack(packet.origin, xfer, bitmap)
        if len(state["chunks"]) == state["total"]:
            message = b"".join(
                state["chunks"][i] for i in range(state["total"])
            )
            del self._inbound[key]
            self._completed[key] = state["total"]
            while len(self._completed) > _COMPLETED_MEMORY:
                self._completed.popitem(last=False)
            node.monitor.count("reliable.messages_delivered")
            self.on_message(packet.origin, message)

    def _send_ack(self, dest: int, xfer: int, bitmap: int) -> None:
        data = struct.pack(_ACK_FMT, MsgType.RELIABLE_ACK, xfer, bitmap)
        packet = Packet(port=self.port, origin=self.node.id, dest=dest,
                        payload=data, seq=xfer)
        self.node.stack.send(packet, dest, kind="control")
        self.node.monitor.count("reliable.acks_sent")

    def _on_ack(self, packet: Packet) -> None:
        _type, xfer, bitmap = struct.unpack(
            _ACK_FMT, packet.payload[:struct.calcsize(_ACK_FMT)]
        )
        waiter = self._ack_waiters.pop((packet.origin, xfer), None)
        if waiter is None:
            self.node.monitor.count("reliable.orphan_acks")
            return
        waiter.succeed(bitmap)
