"""Wire formats for LiteView's command, probe and report messages.

Everything LiteView sends over the air is a compact struct-packed byte
string whose first byte is a message type — the paper's command
interpreter "translates each user command into a sequence of radio
messages.  Each message header corresponds to one unique type, while the
command parameters are embedded into message bodies."

Message families:

* ``0x01..0x02`` — ping probe / reply (Figure 3)
* ``0x11..0x13`` — traceroute probe / reply / report (Figure 4)
* ``0x20..0x2F`` — management requests (radio config, neighborhood, runs)
* ``0x40..0x41`` — reliable-transfer data / ack (§IV-B)
* ``0x60``      — management reply envelope

Management requests share one envelope and one body layout per type
(:data:`REQUEST_LAYOUTS`), for the senders and the controller alike.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import HeaderError, ParameterError

__all__ = [
    "MsgType", "RequestLayout", "REQUEST_LAYOUTS",
    "encode_request", "decode_request", "encode_reply", "decode_reply",
    "PingProbe", "PingReply", "TraceProbe", "TraceReply", "TraceReport",
    "pack_signed", "unpack_signed",
]


class MsgType:
    """First-byte message-type registry."""

    PING_PROBE = 0x01
    PING_REPLY = 0x02

    TRACE_PROBE = 0x11
    TRACE_REPLY = 0x12
    TRACE_REPORT = 0x13

    GET_RADIO = 0x20
    SET_POWER = 0x21
    SET_CHANNEL = 0x22
    NEIGHBOR_LIST = 0x23
    BLACKLIST_ADD = 0x24
    BLACKLIST_REMOVE = 0x25
    SET_BEACON = 0x26
    RUN_PING = 0x27
    RUN_TRACEROUTE = 0x28
    SCAN_CHANNELS = 0x29
    GET_EVENTS = 0x2A
    GET_THREADS = 0x2B
    KILL_THREAD = 0x2C

    RELIABLE_DATA = 0x40
    RELIABLE_ACK = 0x41

    REPLY = 0x60


def pack_signed(value: int) -> int:
    """Clamp a signed value into one byte's two's-complement encoding."""
    value = max(-128, min(127, int(value)))
    return value & 0xFF


def unpack_signed(byte: int) -> int:
    """Decode a two's-complement byte."""
    return byte - 256 if byte >= 128 else byte


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise HeaderError(f"malformed message: {what}")


def _unpack(fmt: str, msg_type: int, data: bytes, what: str) -> list:
    """The fields after the type byte of a ``fmt`` message."""
    _require(len(data) >= struct.calcsize(fmt), f"short {what}")
    _type, *fields = struct.unpack_from(fmt, data)
    _require(_type == msg_type, f"wrong type for {what}")
    return fields


# ---------------------------------------------------------------------------
# Management requests and replies (§IV-B)
# ---------------------------------------------------------------------------

class RequestLayout:
    """One request body: unsigned big-endian fields, each named after the
    shell parameter it carries.  :meth:`encode` is the shell's input
    check (a value its field cannot carry is a :class:`ParameterError`
    naming the parameter and the field's range); :meth:`decode` is the
    controller's (a short body is a :class:`HeaderError`)."""

    def __init__(self, **codes: str):
        self.names = tuple(codes)
        self._struct = struct.Struct(">" + "".join(codes.values()))
        self._limits = tuple(256 ** struct.calcsize(">" + code) - 1
                             for code in codes.values())

    def encode(self, **values: int) -> bytes:
        for name, limit in zip(self.names, self._limits):
            if not 0 <= values[name] <= limit:
                raise ParameterError(
                    f"{name}={values[name]} outside 0..{limit}")
        return self._struct.pack(*(values[name] for name in self.names))

    def decode(self, body: bytes) -> dict[str, int]:
        _require(len(body) >= self._struct.size,
                 f"body of {len(body)} bytes, need {self._struct.size}")
        return dict(zip(self.names, self._struct.unpack_from(body)))


_RUN = RequestLayout(target="H", round="B", length="B", port="B")
_NEIGHBOR = RequestLayout(neighbor="H")

#: The body layout of every management request type.
REQUEST_LAYOUTS: dict[int, RequestLayout] = {
    MsgType.GET_RADIO: RequestLayout(),
    MsgType.SET_POWER: RequestLayout(power="B"),
    MsgType.SET_CHANNEL: RequestLayout(channel="B"),
    # Senders put 1 here ("usable neighbors only"); no node reads it.
    MsgType.NEIGHBOR_LIST: RequestLayout(usable="B"),
    MsgType.BLACKLIST_ADD: _NEIGHBOR,
    MsgType.BLACKLIST_REMOVE: _NEIGHBOR,
    MsgType.SET_BEACON: RequestLayout(freq="I"),  # beacon interval, ms
    MsgType.RUN_PING: _RUN,
    MsgType.RUN_TRACEROUTE: _RUN,
    MsgType.SCAN_CHANNELS: RequestLayout(first="B", count="B", samples="B",
                                         dwell="H"),  # dwell in ms
    MsgType.GET_EVENTS: RequestLayout(limit="B"),
    MsgType.GET_THREADS: RequestLayout(),
    MsgType.KILL_THREAD: RequestLayout(tid="H"),
}

_REQUEST = ">BH"   # type, request id (3 bytes); then the body
_REPLY = ">BHB"    # REPLY, request id, status (4 bytes); then the body


def encode_request(msg_type: int, request_id: int, body: bytes) -> bytes:
    """A request envelope: type byte, request id, then the body."""
    return struct.pack(_REQUEST, msg_type, request_id) + body


def decode_request(message: bytes) -> tuple[int, int, bytes]:
    """``(msg_type, request_id, body)`` of a request envelope."""
    _require(len(message) >= 3, "short request")
    return (*struct.unpack_from(_REQUEST, message), message[3:])


def encode_reply(request_id: int, status: int, body: bytes) -> bytes:
    """A reply envelope: ``REPLY``, the request's id, a status, the body."""
    return struct.pack(_REPLY, MsgType.REPLY, request_id, status) + body


def decode_reply(message: bytes) -> tuple[int, int, bytes]:
    """``(request_id, status, body)`` of a reply envelope."""
    request_id, status = _unpack(_REPLY, MsgType.REPLY, message, "reply")
    return request_id, status, message[4:]


# ---------------------------------------------------------------------------
# Ping (Figure 3)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PingProbe:
    """Probe: token matches replies to rounds; filler sets probe length.

    ``routing_port`` is 0 for a one-hop probe; otherwise it names the
    routing protocol the reply should travel back over (the probe itself
    arrived over it) — the mechanism behind the ping command's runtime
    ``port=`` parameter.
    """

    token: int
    length: int  # requested probe payload length (the `length=` parameter)
    routing_port: int = 0

    _FMT = ">BHBB"

    def to_bytes(self) -> bytes:
        header = struct.pack(self._FMT, MsgType.PING_PROBE,
                             self.token, self.length, self.routing_port)
        filler = max(0, self.length - len(header))
        return header + bytes(filler)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PingProbe":
        return cls(*_unpack(cls._FMT, MsgType.PING_PROBE, data, "ping probe"))


@dataclass(frozen=True)
class PingReply:
    """Reply: receiver-side observables of the probe, plus — for routed
    probes — the forward path's padded per-hop qualities."""

    token: int
    lqi: int
    rssi: int
    queue: int
    forward_hops: tuple[tuple[int, int], ...] = ()  # (lqi, rssi) per hop

    _FMT = ">BHBBBB"

    def to_bytes(self) -> bytes:
        out = bytearray(struct.pack(
            self._FMT, MsgType.PING_REPLY, self.token, self.lqi,
            pack_signed(self.rssi), min(255, self.queue),
            len(self.forward_hops),
        ))
        for lqi, rssi in self.forward_hops:
            out.append(lqi)
            out.append(pack_signed(rssi))
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PingReply":
        base = struct.calcsize(cls._FMT)
        token, lqi, rssi_b, queue, nhops = _unpack(
            cls._FMT, MsgType.PING_REPLY, data, "ping reply")
        _require(len(data) >= base + 2 * nhops, "truncated forward hops")
        hops = tuple(
            (data[base + 2 * i], unpack_signed(data[base + 2 * i + 1]))
            for i in range(nhops)
        )
        return cls(token=token, lqi=lqi, rssi=unpack_signed(rssi_b),
                   queue=queue, forward_hops=hops)


# ---------------------------------------------------------------------------
# Traceroute (Figure 4)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceProbe:
    """One-hop traceroute probe.

    Besides probing the link, the probe carries the session state the
    receiver needs to continue the traceroute (the paper's "initiate a
    new traceroute task" step): who started it, where it terminates,
    which routing protocol port reports travel on, and the hop index.
    """

    session: int
    origin: int
    final_dest: int
    hop_index: int
    routing_port: int
    length: int

    _FMT = ">BHHHBBB"

    def to_bytes(self) -> bytes:
        header = struct.pack(
            self._FMT, MsgType.TRACE_PROBE, self.session, self.origin,
            self.final_dest, self.hop_index, self.routing_port, self.length,
        )
        return header + bytes(max(0, self.length - len(header)))

    @classmethod
    def from_bytes(cls, data: bytes) -> "TraceProbe":
        return cls(*_unpack(cls._FMT, MsgType.TRACE_PROBE, data,
                            "trace probe"))


@dataclass(frozen=True)
class TraceReply:
    """One-hop probe reply: the receiver's observables of the probe."""

    session: int
    lqi: int
    rssi: int
    queue: int

    _FMT = ">BHBBB"

    def to_bytes(self) -> bytes:
        return struct.pack(self._FMT, MsgType.TRACE_REPLY, self.session,
                           self.lqi, pack_signed(self.rssi),
                           min(255, self.queue))

    @classmethod
    def from_bytes(cls, data: bytes) -> "TraceReply":
        session, lqi, rssi_b, queue = _unpack(
            cls._FMT, MsgType.TRACE_REPLY, data, "trace reply")
        return cls(session=session, lqi=lqi, rssi=unpack_signed(rssi_b),
                   queue=queue)


@dataclass(frozen=True)
class TraceReport:
    """Per-hop report routed back to the source: "this packet contains
    the details on the link quality information for only one hop"."""

    session: int
    probed_node: int       # the node this hop reached ("Reply from ...")
    hop_index: int
    rtt_us: int
    lqi_forward: int       # receiver-measured, on the probe
    lqi_backward: int      # prober-measured, on the reply
    rssi_forward: int
    rssi_backward: int
    queue_remote: int
    queue_local: int

    _FMT = ">BHHBIBBBBBB"

    def to_bytes(self) -> bytes:
        return struct.pack(
            self._FMT, MsgType.TRACE_REPORT, self.session, self.probed_node,
            self.hop_index, min(self.rtt_us, 0xFFFFFFFF),
            self.lqi_forward, self.lqi_backward,
            pack_signed(self.rssi_forward), pack_signed(self.rssi_backward),
            min(255, self.queue_remote), min(255, self.queue_local),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "TraceReport":
        (session, probed, hop_index, rtt_us, lqi_f, lqi_b, rssi_f, rssi_b,
         q_r, q_l) = _unpack(cls._FMT, MsgType.TRACE_REPORT, data,
                             "trace report")
        return cls(session=session, probed_node=probed, hop_index=hop_index,
                   rtt_us=rtt_us, lqi_forward=lqi_f, lqi_backward=lqi_b,
                   rssi_forward=unpack_signed(rssi_f),
                   rssi_backward=unpack_signed(rssi_b),
                   queue_remote=q_r, queue_local=q_l)
