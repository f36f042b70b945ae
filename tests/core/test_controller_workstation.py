"""Tests for the runtime controller and the workstation request path."""

import struct

import pytest

from repro.core.serialize import decode_neighbor_views, decode_ping_result
from repro.core.wire import MsgType
from repro.errors import CommandTimeout


def test_rarely_drawn_streams_wait_for_their_first_draw(chain_deployment):
    """A warmed chain that has served no request and reported no hop has
    made no controller or traceroute stream; the first request makes the
    serving node's controller stream and no other."""
    dep = chain_deployment(4)
    names = dep.testbed.rng.names()
    assert any(name.startswith("neighbors.jitter.") for name in names)
    assert not [name for name in names
                if name.startswith(("controller.", "traceroute.jitter."))]
    assert dep.workstation.call(1, MsgType.GET_RADIO).ok
    assert [name for name in dep.testbed.rng.names()
            if name.startswith("controller.")] == ["controller.1"]


def test_get_radio_roundtrip(chain_deployment):
    dep = chain_deployment(2)
    reply = dep.workstation.call(1, MsgType.GET_RADIO)
    assert reply.ok
    assert reply.body == bytes([31, 17])


def test_set_power_applies_on_node(chain_deployment):
    dep = chain_deployment(2)
    reply = dep.workstation.call(1, MsgType.SET_POWER, bytes([10]))
    assert reply.ok
    assert reply.body[0] == 10
    assert dep.testbed.node(1).radio.power_level == 10


def test_set_power_invalid_returns_error(chain_deployment):
    dep = chain_deployment(2)
    reply = dep.workstation.call(1, MsgType.SET_POWER, bytes([99]))
    assert not reply.ok
    assert dep.testbed.node(1).radio.power_level == 31


def test_response_window_is_respected(chain_deployment):
    """E3: one-hop management commands take the full 500 ms window."""
    dep = chain_deployment(2)
    reply = dep.workstation.call(1, MsgType.GET_RADIO, window=0.5)
    assert reply.elapsed == pytest.approx(0.5, abs=0.01)


def test_early_return_when_window_not_forced(chain_deployment):
    dep = chain_deployment(2)
    reply = dep.workstation.call(1, MsgType.GET_RADIO,
                                 wait_full_window=False)
    assert reply.elapsed < 0.5


def test_neighbor_list_via_controller(chain_deployment):
    dep = chain_deployment(3)
    reply = dep.workstation.call(1, MsgType.NEIGHBOR_LIST, b"\x01")
    assert reply.ok
    views = decode_neighbor_views(reply.body)
    assert any(v.node_id == 2 for v in views)


def test_blacklist_add_remove_via_controller(chain_deployment):
    dep = chain_deployment(3)
    node = dep.testbed.node(1)
    assert dep.workstation.call(
        1, MsgType.BLACKLIST_ADD, struct.pack(">H", 2)).ok
    assert node.neighbors.is_blacklisted(2)
    assert dep.workstation.call(
        1, MsgType.BLACKLIST_REMOVE, struct.pack(">H", 2)).ok
    assert not node.neighbors.is_blacklisted(2)


def test_set_beacon_interval_via_controller(chain_deployment):
    dep = chain_deployment(2)
    assert dep.workstation.call(
        1, MsgType.SET_BEACON, struct.pack(">I", 750)).ok
    assert dep.testbed.node(1).neighbors.beacon_interval == 0.75


def test_run_ping_remote_execution(chain_deployment):
    dep = chain_deployment(3)
    body = struct.pack(">HBBB", 2, 2, 32, 0)
    reply = dep.workstation.call(1, MsgType.RUN_PING, body,
                                 window=4.0, wait_full_window=False)
    assert reply.ok
    result = decode_ping_result(reply.body, dep.testbed.namespace)
    assert result.target_id == 2
    assert result.sent == 2
    assert result.received >= 1


def test_run_ping_uses_parameter_buffer(chain_deployment):
    """§IV-C.4: the controller stages the command's parameters in the
    kernel buffer; the command thread reads them back."""
    dep = chain_deployment(2)
    body = struct.pack(">HBBB", 2, 1, 16, 0)
    dep.workstation.call(1, MsgType.RUN_PING, body,
                         window=3.0, wait_full_window=False)
    staged = dep.testbed.node(1).params.read()
    assert staged == "2 round=1 length=16 port=0"


def test_unsupported_request_type(chain_deployment):
    dep = chain_deployment(2)
    reply = dep.workstation.call(1, 0x5F)
    assert reply.status == 2  # UNSUPPORTED


def test_unreachable_node_times_out(chain_deployment):
    dep = chain_deployment(2)
    far = dep.testbed.add_node("far", (9999.0, 0.0))
    from repro.core.controller import install_controller
    install_controller(far)
    with pytest.raises(CommandTimeout):
        dep.workstation.call(far.id, MsgType.GET_RADIO)


def test_response_backoff_randomizes_reply_time(chain_deployment):
    """Controllers back off before replying ('random waiting time before
    sending back replies')."""
    dep = chain_deployment(2)
    elapsed = []
    for _ in range(6):
        reply = dep.workstation.call(1, MsgType.GET_RADIO,
                                     wait_full_window=False)
        elapsed.append(round(reply.elapsed, 4))
    assert len(set(elapsed)) > 2  # backoff varies reply latency


def test_two_nodes_managed_in_turn(chain_deployment):
    dep = chain_deployment(3)
    assert dep.workstation.call(1, MsgType.GET_RADIO).ok
    dep.workstation.attach_near(2)
    assert dep.workstation.call(2, MsgType.GET_RADIO).ok
