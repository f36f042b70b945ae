"""Edge cases for the workstation request path and the controller."""

import struct

import pytest

from repro.core.wire import REQUEST_LAYOUTS, MsgType
from repro.core.workstation import ATTACH_OFFSET


def test_group_call_waits_full_window(chain_deployment):
    dep = chain_deployment(3, spacing=30.0)
    tb = dep.testbed
    started = tb.env.now
    dep.workstation.group_call(MsgType.GET_RADIO, window=0.4)
    assert tb.env.now - started == pytest.approx(0.4, abs=0.01)


def test_group_replies_carry_elapsed(chain_deployment):
    dep = chain_deployment(3, spacing=30.0)
    dep.workstation.node.position = (30.0, -15.0)
    replies = dep.workstation.group_call(MsgType.GET_RADIO, window=0.5)
    assert replies
    for reply in replies.values():
        assert reply.elapsed == pytest.approx(0.5, abs=0.01)


def test_group_and_unicast_ids_do_not_collide(chain_deployment):
    """A unicast issued right after a group request must not have its
    reply swallowed by the (already closed) group collector."""
    dep = chain_deployment(3, spacing=30.0)
    dep.workstation.group_call(MsgType.GET_RADIO, window=0.4)
    reply = dep.workstation.call(1, MsgType.GET_RADIO)
    assert reply.ok


def test_controller_ignores_garbage(chain_deployment):
    """A malformed (too short) request is dropped and counted."""
    dep = chain_deployment(2)
    controller = dep.controllers[1]
    controller._on_request(99, b"\x20")  # type byte only, no request id
    assert dep.testbed.monitor.counter(
        "controller.malformed_requests") == 1


def test_controller_error_paths_report_status(chain_deployment):
    dep = chain_deployment(2)
    ws = dep.workstation
    # Empty and one-byte-short bodies for each parameterised request type.
    parameterised = (MsgType.SET_POWER, MsgType.SET_CHANNEL,
                     MsgType.NEIGHBOR_LIST, MsgType.BLACKLIST_ADD,
                     MsgType.BLACKLIST_REMOVE, MsgType.SET_BEACON,
                     MsgType.RUN_PING, MsgType.RUN_TRACEROUTE,
                     MsgType.SCAN_CHANNELS, MsgType.GET_EVENTS,
                     MsgType.KILL_THREAD)
    assert set(parameterised) == {
        msg for msg, layout in REQUEST_LAYOUTS.items() if layout.names}
    for msg in parameterised:
        layout = REQUEST_LAYOUTS[msg]
        size = len(layout.encode(**dict.fromkeys(layout.names, 0)))
        for body in (b"", bytes(size - 1)):
            reply = ws.call(1, msg, body)
            assert not reply.ok, (hex(msg), body)
            assert b"malformed message" in reply.body
    # The node is unharmed: a well-formed request still succeeds.
    assert ws.call(1, MsgType.GET_RADIO).ok


def test_run_ping_on_node_without_ping_service(chain_deployment):
    dep = chain_deployment(2)
    tb = dep.testbed
    bare = tb.add_node("bare", (0.0, -30.0))
    from repro.core.controller import install_controller
    install_controller(bare)
    dep.workstation.attach_near(bare.id)
    body = struct.pack(">HBBB", 1, 1, 16, 0)
    reply = dep.workstation.call(bare.id, MsgType.RUN_PING, body,
                                 window=2.0, wait_full_window=False)
    assert not reply.ok
    assert b"not installed" in reply.body


def test_invalid_beacon_interval_over_the_air(chain_deployment):
    dep = chain_deployment(2)
    reply = dep.workstation.call(1, MsgType.SET_BEACON,
                                 struct.pack(">I", 0))
    assert not reply.ok
    # The node's configuration is untouched.
    assert dep.testbed.node(1).neighbors.beacon_interval == 2.0


def test_request_to_nonexistent_node_raises(chain_deployment):
    dep = chain_deployment(2)
    from repro.errors import NoSuchNode
    with pytest.raises(NoSuchNode):
        dep.workstation.call(999, MsgType.GET_RADIO)


def test_attach_near_moves_base_station(chain_deployment):
    dep = chain_deployment(3)
    dep.workstation.attach_near(3)
    target = dep.testbed.node(3).position
    assert dep.workstation.node.position == (
        target[0] + ATTACH_OFFSET[0], target[1] + ATTACH_OFFSET[1])
