"""Both ends of the management codec: the bytes every shipped sender puts
on the air for each request type, and every reply layout round-tripped.

The pinned bytes are the wire format: a change here changes what a node
reads, so it must be deliberate.
"""

from types import SimpleNamespace

import pytest

from repro.core.interpreter import CommandInterpreter
from repro.core.serialize import (
    decode_events,
    decode_radio_state,
    decode_scan_rows,
    decode_threads,
    encode_events,
    encode_radio_state,
    encode_scan_rows,
    encode_threads,
)
from repro.core.wire import (
    REQUEST_LAYOUTS,
    MsgType,
    RequestLayout,
    decode_reply,
    decode_request,
    encode_reply,
    encode_request,
)
from repro.core.workstation import Reply
from repro.diag import ChannelScanProbe, LinkProbe, NeighborProbe, PathProbe
from repro.errors import HeaderError, ParameterError
from repro.kernel.eventlog import KernelEvent
from repro.workloads import build_chain


class Recorder:
    """Stands in for the workstation: records each request it is asked
    to send and answers with an error reply, so nothing is decoded."""

    def __init__(self, testbed):
        self.testbed = testbed
        self.sent = []

    def call(self, dest, msg_type, body=b"", **kwargs):
        self.sent.append((msg_type, body))
        return Reply(status=1, body=b"recorded", elapsed=0.0)

    def group_call(self, msg_type, body=b"", **kwargs):
        self.sent.append((msg_type, body))
        return {}


@pytest.fixture(scope="module")
def shell():
    interpreter = CommandInterpreter(Recorder(build_chain(8, seed=1)))
    interpreter.execute("cd 1")
    interpreter.execute("neighborsetup")  # adds list/blacklist/update
    return interpreter


# line, request type, body in hex
SHELL_REQUESTS = [
    ("power", MsgType.GET_RADIO, ""),
    ("power 12", MsgType.SET_POWER, "0c"),
    ("channel 20", MsgType.SET_CHANNEL, "14"),
    ("group radio", MsgType.GET_RADIO, ""),
    ("group power 7", MsgType.SET_POWER, "07"),
    ("group channel 26", MsgType.SET_CHANNEL, "1a"),
    ("list", MsgType.NEIGHBOR_LIST, "01"),
    ("blacklist add 2", MsgType.BLACKLIST_ADD, "0002"),
    ("blacklist remove 8", MsgType.BLACKLIST_REMOVE, "0008"),
    ("update freq=750", MsgType.SET_BEACON, "000002ee"),
    ("ping 5 round=3 length=32", MsgType.RUN_PING, "0005032000"),
    ("traceroute 8 round=2", MsgType.RUN_TRACEROUTE, "000802200a"),
    ("scan", MsgType.SCAN_CHANNELS, "0b1004000a"),
    ("scan first=20 count=3 samples=2 dwell=300", MsgType.SCAN_CHANNELS,
     "140302012c"),
    ("events limit=2", MsgType.GET_EVENTS, "02"),
    ("events limit=1000", MsgType.GET_EVENTS, "ff"),  # clamped, as ever
    ("ps", MsgType.GET_THREADS, ""),
    ("kill 3", MsgType.KILL_THREAD, "0003"),
    ("kill 300", MsgType.KILL_THREAD, "012c"),
]


@pytest.mark.parametrize("line, msg_type, body", SHELL_REQUESTS)
def test_shell_sends_pinned_bytes(shell, line, msg_type, body):
    shell.ws.sent.clear()
    shell.execute(line)
    assert shell.ws.sent == [(msg_type, bytes.fromhex(body))]


def test_every_request_type_has_a_pinned_sender():
    assert {msg for _, msg, _ in SHELL_REQUESTS} == set(REQUEST_LAYOUTS)


@pytest.mark.parametrize("probe, msg_type, body", [
    (LinkProbe(src=1, dst=5, rounds=3, length=32, port=0),
     MsgType.RUN_PING, "0005032000"),
    (PathProbe(src=1, dst=8, rounds=2, length=32, port=10),
     MsgType.RUN_TRACEROUTE, "000802200a"),
    (NeighborProbe(node=4), MsgType.NEIGHBOR_LIST, "01"),
    (ChannelScanProbe(node=2, first=11, count=16, samples=4, dwell_ms=10),
     MsgType.SCAN_CHANNELS, "0b1004000a"),
])
def test_probes_send_pinned_bytes(probe, msg_type, body):
    request = probe.request()
    assert (request.msg_type, request.body) == (msg_type,
                                                bytes.fromhex(body))


def test_envelopes_are_pinned_and_round_trip():
    request = encode_request(MsgType.RUN_PING, 0x0102, b"\x00\x05")
    assert request == bytes.fromhex("2701020005")
    assert decode_request(request) == (MsgType.RUN_PING, 0x0102,
                                       b"\x00\x05")
    reply = encode_reply(0x0102, 1, b"no")
    assert reply == bytes.fromhex("600102016e6f")
    assert decode_reply(reply) == (0x0102, 1, b"no")
    with pytest.raises(HeaderError):
        decode_request(b"\x20\x00")
    with pytest.raises(HeaderError):
        decode_reply(request)          # a request is not a reply
    with pytest.raises(HeaderError):
        decode_reply(b"\x60\x00\x01")  # no status byte


def test_layout_checks_both_ends():
    layout = RequestLayout(target="H", dwell="B")
    assert layout.decode(layout.encode(target=513, dwell=9) + b"!") == {
        "target": 513, "dwell": 9}
    with pytest.raises(ParameterError, match=r"dwell=256 outside 0\.\.255"):
        layout.encode(target=1, dwell=256)
    with pytest.raises(ParameterError, match=r"target=-1 outside"):
        layout.encode(target=-1, dwell=0)
    with pytest.raises(HeaderError):
        layout.decode(b"\x00\x01")


# -- reply layouts -------------------------------------------------------------

def test_radio_state_round_trip():
    assert encode_radio_state(31, 17) == b"\x1f\x11"
    assert decode_radio_state(b"\x1f\x11") == (31, 17)
    with pytest.raises(HeaderError):
        decode_radio_state(b"\x1f")


def test_thread_listing_round_trip():
    threads = [SimpleNamespace(tid=3, name="controller-request",
                               started_at=16.0025),
               SimpleNamespace(tid=70, name="x" * 30, started_at=0.0)]
    assert decode_threads(encode_threads(threads)) == [
        (3, 16.002, "controller-request"), (70, 0.0, "x" * 20)]
    assert decode_threads(encode_threads([])) == []


def test_event_listing_round_trip():
    events = [KernelEvent(15.155, "radio.power", "31 -> 12"),
              KernelEvent(2.0, "c" * 30, "x" + "é" * 20)]
    decoded = decode_events(encode_events(events))
    assert decoded[0] == events[0]
    assert decoded[1].code == "c" * 24
    assert decoded[1].detail == "x" + "é" * 15  # never cut mid-character


def test_scan_rows_round_trip_and_clamp():
    rows = [(11, -90), (12, -128), (26, 127)]
    assert decode_scan_rows(encode_scan_rows(rows)) == rows
    assert decode_scan_rows(encode_scan_rows([(11, -300)])) == [(11, -128)]


@pytest.mark.parametrize("decode, data", [
    (decode_threads, encode_threads(
        [SimpleNamespace(tid=1, name="ping", started_at=1.0)])[:-1]),
    (decode_events, encode_events([KernelEvent(1.0, "a", "b")])[:-1]),
    (decode_scan_rows, b"\x02\x0b\xa6"),
    (decode_threads, b""),
])
def test_truncated_listings_are_header_errors(decode, data):
    with pytest.raises(HeaderError):
        decode(data)
