"""The per-arrival receive chain that the batched receive path must agree
with, kept as a test-only parity oracle.

This is the obviously-correct form of the receive pipeline (Figure 2 of
the paper), one delivery at a time: each row of a
:class:`~repro.radio.medium.FrameBatch` becomes its own
:class:`~repro.radio.medium.FrameArrival` and walks the radio-on check,
the MAC address filter, the stack's CRC check and parse, the port map,
the kernel neighbor table and the beacon taps alone, counting each step
as it goes — no shared parse, no shared beacon decode, no counts added
per batch.  Production must reproduce every counter, trace event, table
field and detector state of this chain byte for byte.

Swap it in for :meth:`Transceiver.deliver` with :func:`patched`, which
is ``mock.patch.object(Transceiver, "deliver", staticmethod(deliver))``.
The beacon taps are fed through
:meth:`~repro.diag.online.OnlineMonitor.observe_beacon`, one beacon at a
time.
"""

from __future__ import annotations

import struct
from unittest import mock

from repro.errors import CrcError, HeaderError, PacketError
from repro.kernel.neighbors import (
    _BEACON_FMT,
    _BEACON_HEADER_BYTES,
    EWMA_ALPHA,
    NEIGHBOR_CAPACITY,
    NeighborEntry,
    NeighborTable,
)
from repro.net.packet import Packet
from repro.net.stack import CommunicationStack
from repro.obs.trace import packet_trace_id
from repro.radio.medium import FrameBatch, Transceiver


def patched():
    """A context manager that runs every delivery through this chain."""
    return mock.patch.object(Transceiver, "deliver", staticmethod(deliver))


def deliver(batch: FrameBatch) -> None:
    """Walk each row of ``batch`` through the per-arrival chain, in order."""
    for row in batch.rows:
        _radio(batch, row)


def _radio(batch, row) -> None:
    xcvr = row[0]
    if not xcvr.enabled:
        return
    arrival = batch.arrival(row)
    if xcvr.address_recognition:
        monitor = xcvr.medium.monitor
        frame = arrival.frame
        if not frame.is_broadcast and frame.dst != xcvr.node_id:
            monitor.count("mac.filtered_frames")
            return
        monitor.count("mac.received_frames")
    handler = xcvr._receive_handler
    if handler is None:
        return
    if isinstance(xcvr.upper, CommunicationStack):
        _stack(xcvr.upper, arrival)
    else:
        handler(FrameBatch(batch.frame, batch.sender, batch.channel,
                           batch.time, [row]))


def _stack(stack: CommunicationStack, arrival) -> None:
    tracer = stack.tracer
    try:
        packet = Packet.from_bytes(arrival.payload)
    except CrcError:
        stack.monitor.count("stack.crc_drops")
        if tracer.enabled:
            tracer.emit("stack.drop", stack.env.now, node=stack.node_id,
                        packet=arrival.frame.trace_id, reason="crc_fail",
                        sender=arrival.sender)
        return
    except (HeaderError, PacketError):
        stack.monitor.count("stack.header_drops")
        if tracer.enabled:
            tracer.emit("stack.drop", stack.env.now, node=stack.node_id,
                        packet=arrival.frame.trace_id,
                        reason="header_invalid", sender=arrival.sender)
        return
    stack.monitor.count("stack.received_packets")
    if tracer.enabled:
        tracer.emit("stack.rx", stack.env.now, node=stack.node_id,
                    packet=packet_trace_id(packet.origin, packet.port,
                                           packet.seq),
                    sender=arrival.sender, port=packet.port)
    sub = stack.ports.holder(packet.port)
    if sub is not None and isinstance(sub.owner, NeighborTable):
        _beacon(sub.owner, packet, arrival)
    elif not stack.ports.dispatch(packet, arrival):
        stack.monitor.count("stack.unmatched_packets")


def _beacon(table: NeighborTable, packet: Packet, arrival) -> None:
    if packet.origin == table.node.id:
        return
    monitor = table.node.monitor
    payload = packet.payload
    try:
        x, y, name_len = struct.unpack_from(_BEACON_FMT, payload)
        name = payload[
            _BEACON_HEADER_BYTES:_BEACON_HEADER_BYTES + name_len
        ].decode("utf-8")
    except (struct.error, UnicodeDecodeError):
        monitor.count("neighbors.malformed_beacons")
        return
    monitor.count("neighbors.beacons_received")
    _update(table, packet.origin, name, (x, y), packet.seq, arrival)
    if monitor.beacon_taps and table.beaconing:
        for tap in monitor.beacon_taps:
            tap.__self__.observe_beacon(
                table.node.id, packet.origin, seq=packet.seq,
                lqi=float(arrival.lqi), rssi=float(arrival.rssi),
                channel=arrival.channel, now=arrival.time)


def _update(table, node_id, name, position, seq, arrival) -> None:
    now = table.node.env.now
    entry = table._entries.get(node_id)
    if entry is None:
        table._expire()
        if len(table._entries) >= NEIGHBOR_CAPACITY:
            table._evict()
        table._entries[node_id] = NeighborEntry(
            node_id=node_id, name=name, position=position,
            lqi=float(arrival.lqi), rssi=float(arrival.rssi),
            first_heard=now, last_heard=now, beacons_received=1,
            first_seq=seq, last_seq=seq,
            enabled=node_id not in table._blacklist,
        )
        return
    alpha = EWMA_ALPHA
    entry.name = name
    entry.position = position
    entry.lqi = (1 - alpha) * entry.lqi + alpha * arrival.lqi
    entry.rssi = (1 - alpha) * entry.rssi + alpha * arrival.rssi
    entry.last_heard = now
    entry.beacons_received += 1
    entry.last_seq = seq
