"""Binary serialisation of command results for over-the-air replies.

When the interpreter runs ping or traceroute *on* a remote node, the
node's runtime controller executes the command locally and ships the
result back over the reliable protocol.  Results are packed into the same
kind of compact structs every other LiteView message uses — no strings on
the wire except the protocol name the traceroute output echoes and the
names in thread and event listings.  Listings (neighbors, threads,
events, scan rows, hop paths) share one counted-row format, and every
decoder reads through one bounds-checked :class:`_Reader`.
"""

from __future__ import annotations

import struct

from repro.core.results import (
    LinkObservation,
    PingResult,
    PingRound,
    TracerouteHop,
    TracerouteResult,
    NeighborView,
)
from repro.core.wire import pack_signed, unpack_signed
from repro.errors import HeaderError
from repro.kernel.eventlog import KernelEvent
from repro.kernel.filesystem import Namespace

__all__ = [
    "encode_ping_result", "decode_ping_result",
    "encode_trace_result", "decode_trace_result",
    "encode_neighbor_views", "decode_neighbor_views",
    "encode_threads", "decode_threads",
    "encode_events", "decode_events",
    "encode_scan_rows", "decode_scan_rows",
    "encode_radio_state", "decode_radio_state",
]

_PING_HEAD = ">HBBBBBB"
_PING_ROUND = ">BIBBBBBB"
_TRACE_HEAD = ">HBBBBB"
_TRACE_HOP = ">BHIBBBBBBI"
_NEIGHBOR = ">HBBBB"
_THREAD = ">HI"    # tid, start (ms); then the name
_EVENT = ">I"      # time (ms); then the code and the detail
_PAIR = ">BB"      # (channel or LQI, signed RSSI): scan rows, hop paths
_RADIO = ">BB"     # power level, channel


def _milli(value: float) -> int:
    """``value`` in thousandths, saturated to an unsigned 32-bit field."""
    return min(0xFFFFFFFF, int(value * 1000))


def _name_for(namespace: Namespace | None, node_id: int) -> str:
    if namespace is not None and node_id in namespace:
        return namespace.name_of(node_id)
    return str(node_id)


def _text(text: str, limit: int) -> bytes:
    """A length byte, then at most ``limit`` UTF-8 bytes of ``text``
    (never a split multibyte character)."""
    raw = text.encode("utf-8")[:limit].decode("utf-8", "ignore").encode()
    return bytes([len(raw)]) + raw


def _rows(fmt: str, rows: list[tuple], texts: tuple[int, ...] = ()) -> bytes:
    """A count byte, then per row ``fmt``'s fields and its trailing
    texts, each cut to its ``texts`` limit."""
    out = bytearray([len(rows)])
    for row in rows:
        fixed = len(row) - len(texts)
        out += struct.pack(fmt, *row[:fixed])
        for text, limit in zip(row[fixed:], texts):
            out += _text(text, limit)
    return bytes(out)


def _signed_pairs(pairs) -> list[tuple[int, int]]:
    return [(first, pack_signed(rssi)) for first, rssi in pairs]


class _Reader:
    """Reads a reply front to back; running short is a ``HeaderError``."""

    def __init__(self, data: bytes, what: str):
        self.data, self.what, self.offset = data, what, 0

    def take(self, fmt: str) -> tuple:
        size = struct.calcsize(fmt)
        if len(self.data) < self.offset + size:
            raise HeaderError(f"truncated {self.what}")
        self.offset += size
        return struct.unpack_from(fmt, self.data, self.offset - size)

    def text(self) -> str:
        (size,) = self.take(">B")
        return self.take(f"{size}s")[0].decode("utf-8", "replace")

    def rows(self, fmt: str, texts: int = 0) -> list[tuple]:
        """:func:`_rows` output with ``texts`` texts per row."""
        (count,) = self.take(">B")
        return [self.take(fmt) + tuple(self.text() for _ in range(texts))
                for _ in range(count)]

    def signed_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((first, unpack_signed(rssi))
                     for first, rssi in self.rows(_PAIR))


def _link_fields(link: LinkObservation) -> tuple[int, ...]:
    return (link.lqi_forward, link.lqi_backward,
            pack_signed(link.rssi_forward), pack_signed(link.rssi_backward),
            min(255, link.queue_remote), min(255, link.queue_local))


def _link(lqi_f: int, lqi_b: int, rssi_f: int, rssi_b: int, q_r: int,
          q_l: int) -> LinkObservation:
    return LinkObservation(
        lqi_forward=lqi_f, lqi_backward=lqi_b,
        rssi_forward=unpack_signed(rssi_f), rssi_backward=unpack_signed(rssi_b),
        queue_remote=q_r, queue_local=q_l,
    )


# -- ping ---------------------------------------------------------------------

def encode_ping_result(result: PingResult) -> bytes:
    """Pack a :class:`PingResult` (paths included) into bytes."""
    out = bytearray(struct.pack(
        _PING_HEAD, result.target_id, result.requested_rounds,
        result.probe_length, result.power_level, result.channel,
        result.sent, len(result.rounds),
    ))
    for r in result.rounds:
        out += struct.pack(_PING_ROUND, r.seq, _milli(r.rtt_ms),
                           *_link_fields(r.link))
        for path in (r.forward_path, r.backward_path):
            out += _rows(_PAIR, _signed_pairs(path))
    return bytes(out)


def decode_ping_result(data: bytes,
                       namespace: Namespace | None = None) -> PingResult:
    """Unpack :func:`encode_ping_result` output."""
    reader = _Reader(data, "ping result")
    (target_id, rounds_req, length, power, channel, sent, n_rounds
     ) = reader.take(_PING_HEAD)
    result = PingResult(
        target_name=_name_for(namespace, target_id), target_id=target_id,
        requested_rounds=rounds_req, probe_length=length,
        power_level=power, channel=channel, sent=sent,
    )
    for _ in range(n_rounds):
        seq, rtt_us, *link = reader.take(_PING_ROUND)
        result.rounds.append(PingRound(
            seq=seq, rtt_ms=rtt_us / 1000.0, link=_link(*link),
            forward_path=reader.signed_pairs(),
            backward_path=reader.signed_pairs(),
        ))
    return result


# -- traceroute ----------------------------------------------------------------

def encode_trace_result(result: TracerouteResult) -> bytes:
    """Pack a :class:`TracerouteResult` into bytes."""
    out = bytearray(struct.pack(
        _TRACE_HEAD, result.target_id, result.requested_rounds,
        result.probe_length, result.routing_port, result.sent,
        len(result.hops),
    ))
    out += _text(result.protocol_name, 32)
    for h in result.hops:
        out += struct.pack(
            _TRACE_HOP, h.hop_index, h.probed_node_id, _milli(h.rtt_ms),
            *_link_fields(h.link), _milli(h.arrival_ms),
        )
    return bytes(out)


def decode_trace_result(data: bytes,
                        namespace: Namespace | None = None
                        ) -> TracerouteResult:
    """Unpack :func:`encode_trace_result` output."""
    reader = _Reader(data, "traceroute result")
    target_id, rounds_req, length, port, sent, n_hops = reader.take(
        _TRACE_HEAD)
    result = TracerouteResult(
        target_name=_name_for(namespace, target_id), target_id=target_id,
        requested_rounds=rounds_req, probe_length=length,
        protocol_name=reader.text(), routing_port=port, sent=sent,
    )
    for _ in range(n_hops):
        hop_index, probed, rtt_us, *link, arrival_us = reader.take(_TRACE_HOP)
        result.hops.append(TracerouteHop(
            hop_index=hop_index, probed_node_id=probed,
            probed_node_name=_name_for(namespace, probed),
            rtt_ms=rtt_us / 1000.0, link=_link(*link),
            arrival_ms=arrival_us / 1000.0,
        ))
    return result


# -- listings and the radio state -----------------------------------------------

def encode_neighbor_views(views: list[NeighborView]) -> bytes:
    """Pack neighbor-table rows for the `list` command's reply."""
    return _rows(_NEIGHBOR, [
        (v.node_id, min(255, v.lqi), pack_signed(v.rssi),
         min(100, v.prr_percent), 1 if v.enabled else 0) for v in views])


def decode_neighbor_views(data: bytes) -> list[NeighborView]:
    """Unpack :func:`encode_neighbor_views` output."""
    return [NeighborView(node_id=node_id, lqi=lqi, rssi=unpack_signed(rssi),
                         prr_percent=prr, enabled=bool(flags & 1))
            for node_id, lqi, rssi, prr, flags
            in _Reader(data, "neighbor listing").rows(_NEIGHBOR)]


def encode_threads(threads: list) -> bytes:
    """Pack live kernel threads (``ThreadInfo`` rows) for ``ps``."""
    return _rows(_THREAD, [(t.tid, _milli(t.started_at), t.name)
                           for t in threads], texts=(20,))


def decode_threads(data: bytes) -> list[tuple[int, float, str]]:
    """Unpack :func:`encode_threads` output as ``(tid, started_s, name)``."""
    return [(tid, started_ms / 1000, name) for tid, started_ms, name
            in _Reader(data, "thread listing").rows(_THREAD, texts=1)]


def encode_events(events: list[KernelEvent]) -> bytes:
    """Pack kernel event-log entries for ``events``."""
    return _rows(_EVENT, [(_milli(e.time), e.code, e.detail)
                          for e in events], texts=(24, 32))


def decode_events(data: bytes) -> list[KernelEvent]:
    """Unpack :func:`encode_events` output (times to the millisecond)."""
    return [KernelEvent(time_ms / 1000, code, detail)
            for time_ms, code, detail
            in _Reader(data, "event listing").rows(_EVENT, texts=2)]


def encode_scan_rows(rows: list[tuple[int, int]]) -> bytes:
    """Pack ``(channel, peak RSSI)`` channel-scan rows."""
    return _rows(_PAIR, _signed_pairs(rows))


def decode_scan_rows(data: bytes) -> list[tuple[int, int]]:
    """Unpack :func:`encode_scan_rows` output."""
    return list(_Reader(data, "scan listing").signed_pairs())


def encode_radio_state(power_level: int, channel: int) -> bytes:
    """Pack the radio state every radio request answers with."""
    return struct.pack(_RADIO, power_level, channel)


def decode_radio_state(data: bytes) -> tuple[int, int]:
    """Unpack :func:`encode_radio_state` output as ``(power, channel)``."""
    return _Reader(data, "radio state").take(_RADIO)
