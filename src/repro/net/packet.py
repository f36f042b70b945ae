"""Network-layer packet: header, payload, padding region, CRC trailer.

Wire layout (big-endian)::

    port        1 B   destination port (process subscription key)
    origin      2 B   node that created the packet
    dest        2 B   final destination node (0xFFFF = every node)
    seq         2 B   origin-scoped sequence number
    ttl         1 B   remaining hop budget
    flags       1 B   bit 0: link-quality padding enabled
    hop_count   1 B   hops traversed so far
    payload_len 1 B   data payload length (<= 64)
    pad_count   1 B   number of (LQI, RSSI) padding entries
    payload     payload_len B
    padding     2 * pad_count B
    crc         2 B   CRC16-CCITT over everything above

The header carries both the *final* destination (routing decides next
hops; the MAC address on the frame is the next hop) and the *port*, which
is how the paper's stack achieves protocol/application isolation: "the
thread that has a match in port number is considered the right thread for
the incoming packet".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

from repro.errors import HeaderError, PaddingOverflow
from repro.net.crc import append_crc, split_and_verify
from repro.net.padding import (
    PAD_ENTRY_BYTES,
    PAYLOAD_REGION_BYTES,
    HopQuality,
    decode_entries,
    encode_entries,
)

__all__ = ["Packet", "ANY_NODE", "HEADER_BYTES", "DEFAULT_TTL"]

#: Network-level "all nodes" destination.
ANY_NODE = 0xFFFF
#: Default hop budget.
DEFAULT_TTL = 32

_HEADER_FMT = ">BHHHBBBBB"
HEADER_BYTES = struct.calcsize(_HEADER_FMT)

_FLAG_PADDING = 0x01


@dataclass
class Packet:
    """One network-layer packet.

    Instances are mutable along the forwarding path (hop count, ttl,
    padding entries) but payload bytes never change after construction.
    """

    port: int
    origin: int
    dest: int
    payload: bytes = b""
    seq: int = 0
    ttl: int = DEFAULT_TTL
    padding_enabled: bool = False
    hop_count: int = 0
    hop_quality: list[HopQuality] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 255:
            raise HeaderError(f"port {self.port} outside 0..255")
        for label, value in (("origin", self.origin), ("dest", self.dest),
                             ("seq", self.seq)):
            if not 0 <= value <= 0xFFFF:
                raise HeaderError(f"{label} {value} outside 0..65535")
        if not 0 <= self.ttl <= 255:
            raise HeaderError(f"ttl {self.ttl} outside 0..255")
        if not 0 <= self.hop_count <= 255:
            raise HeaderError(f"hop_count {self.hop_count} outside 0..255")
        if not isinstance(self.payload, (bytes, bytearray)):
            raise HeaderError("payload must be bytes")
        self.payload = bytes(self.payload)
        if len(self.payload) > PAYLOAD_REGION_BYTES:
            raise HeaderError(
                f"payload {len(self.payload)} B exceeds the "
                f"{PAYLOAD_REGION_BYTES} B payload region"
            )

    # -- padding ------------------------------------------------------------

    @property
    def padding_room(self) -> int:
        """How many more hops the padding region can still record."""
        free = (PAYLOAD_REGION_BYTES - len(self.payload)
                - PAD_ENTRY_BYTES * len(self.hop_quality))
        return free // PAD_ENTRY_BYTES

    def add_hop_quality(self, lqi: int, rssi: int) -> None:
        """Append one hop's (LQI, RSSI) pair to the padding region.

        Raises :class:`PaddingOverflow` when the 64-byte region is
        exhausted — the hop-budget limit §IV-C.3 describes.
        """
        if not self.padding_enabled:
            raise PaddingOverflow("padding is not enabled on this packet")
        if self.padding_room <= 0:
            raise PaddingOverflow(
                f"padding region full after {len(self.hop_quality)} hops "
                f"(payload {len(self.payload)} B)"
            )
        self.hop_quality.append(HopQuality(lqi=lqi, rssi=rssi))

    # -- serialisation --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise, appending the CRC trailer."""
        flags = _FLAG_PADDING if self.padding_enabled else 0
        header = struct.pack(
            _HEADER_FMT, self.port, self.origin, self.dest, self.seq,
            self.ttl, flags, self.hop_count, len(self.payload),
            len(self.hop_quality),
        )
        body = header + self.payload + encode_entries(self.hop_quality)
        return append_crc(body)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Packet":
        """Parse and CRC-verify a serialised packet.

        Raises :class:`~repro.errors.CrcError` on corruption and
        :class:`HeaderError` on structurally impossible layouts.
        """
        body = split_and_verify(data)
        if len(body) < HEADER_BYTES:
            raise HeaderError(f"packet body of {len(body)} B has no header")
        (port, origin, dest, seq, ttl, flags, hop_count, payload_len,
         pad_count) = struct.unpack(_HEADER_FMT, body[:HEADER_BYTES])
        expected = HEADER_BYTES + payload_len + PAD_ENTRY_BYTES * pad_count
        if len(body) != expected:
            raise HeaderError(
                f"length mismatch: header promises {expected} B, got "
                f"{len(body)} B"
            )
        if payload_len > PAYLOAD_REGION_BYTES:
            raise HeaderError(
                f"payload {payload_len} B exceeds the "
                f"{PAYLOAD_REGION_BYTES} B payload region"
            )
        payload = body[HEADER_BYTES:HEADER_BYTES + payload_len]
        pad_bytes = body[HEADER_BYTES + payload_len:]
        # Every field came out of a fixed-width wire slot, so the range
        # checks __post_init__ performs cannot fail here (the payload
        # region is the one exception, checked above); building the
        # instance directly skips them on the per-frame receive path.
        packet = cls.__new__(cls)
        packet.port = port
        packet.origin = origin
        packet.dest = dest
        packet.payload = payload
        packet.seq = seq
        packet.ttl = ttl
        packet.padding_enabled = bool(flags & _FLAG_PADDING)
        packet.hop_count = hop_count
        packet.hop_quality = decode_entries(pad_bytes)
        return packet

    def _fast_copy(self) -> "Packet":
        """Field-for-field copy skipping ``__init__`` validation: the
        stack parses a frame once and hands each receiver that may
        mutate its packet (ttl, padding) a copy of its own."""
        cls = type(self)
        packet = cls.__new__(cls)
        packet.port = self.port
        packet.origin = self.origin
        packet.dest = self.dest
        packet.payload = self.payload
        packet.seq = self.seq
        packet.ttl = self.ttl
        packet.padding_enabled = self.padding_enabled
        packet.hop_count = self.hop_count
        packet.hop_quality = list(self.hop_quality)
        return packet

    @property
    def wire_size(self) -> int:
        """Serialised size in bytes (header + payload + padding + CRC)."""
        return (HEADER_BYTES + len(self.payload)
                + PAD_ENTRY_BYTES * len(self.hop_quality) + 2)

    def copy(self) -> "Packet":
        """An independent copy (padding list not shared)."""
        return replace(self, hop_quality=list(self.hop_quality))
