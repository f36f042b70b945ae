"""Fuzz the receive path: arbitrary bytes off the air must never crash.

A mote's radio hands the stack whatever decodes; the stack (and every
port subscriber above it) must drop garbage gracefully.  We synthesise
one-row frame batches with hypothesis-generated payloads and feed them
through the full dispatch path of a node running every service.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deploy import deploy_liteview
from repro.mac.frame import Frame
from repro.net import Packet, append_crc
from repro.net.stack import CommunicationStack
from repro.radio.medium import FrameBatch
from repro.workloads import build_chain
from repro.workloads.scenarios import QUIET_PROPAGATION

import pytest


@pytest.fixture(scope="module")
def loaded_node():
    """A node with routing, ping, traceroute, controller installed."""
    testbed = build_chain(2, seed=3, propagation_kwargs=QUIET_PROPAGATION)
    deploy_liteview(testbed, warm_up=5.0)
    return testbed, testbed.node(1)


def deliver(node, payload: bytes) -> None:
    """Hand ``payload`` to the node's stack as a clean one-row batch."""
    CommunicationStack._on_frame(FrameBatch(
        Frame(src=2, dst=node.id, payload=payload, kind="data"), 2, 17,
        node.env.now, [(node.xcvr, payload, True, -15, 108, 20.0, -60.0)]))


@given(st.binary(min_size=0, max_size=100))
@settings(max_examples=120, deadline=None)
def test_random_bytes_never_crash_the_stack(loaded_node, payload):
    testbed, node = loaded_node
    deliver(node, payload)
    # Drain whatever the garbage provoked; must not raise.
    testbed.run(until=testbed.env.now + 0.01)


@given(
    port=st.integers(0, 255),
    body=st.binary(min_size=0, max_size=40),
)
@settings(max_examples=120, deadline=None)
def test_valid_packets_with_random_bodies_never_crash(loaded_node, port,
                                                      body):
    """Structurally valid packets (good CRC) with arbitrary inner bytes
    hit real subscribers — ping, traceroute, controller, routing — and
    must be rejected without scheduler damage."""
    testbed, node = loaded_node
    packet = Packet(port=port, origin=2, dest=node.id, payload=body)
    deliver(node, packet.to_bytes())
    testbed.run(until=testbed.env.now + 0.01)


@given(st.binary(min_size=14, max_size=90))
@settings(max_examples=80, deadline=None)
def test_crc_valid_garbage_headers_never_crash(loaded_node, body):
    """Bytes with a *valid CRC trailer* but arbitrary header content
    exercise the header validation path specifically."""
    testbed, node = loaded_node
    deliver(node, append_crc(body))
    testbed.run(until=testbed.env.now + 0.01)
