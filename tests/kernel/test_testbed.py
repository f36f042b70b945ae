"""Unit tests for testbed/node wiring."""

import pytest

from repro.errors import KernelError, NoSuchNode, PortInUse
from repro.kernel import Testbed
from repro.net import FloodingProtocol, GeographicForwarding


def test_add_and_lookup_by_name_id_path():
    tb = Testbed(seed=1)
    node = tb.add_node("192.168.0.1", (0.0, 0.0))
    assert tb.node("192.168.0.1") is node
    assert tb.node(node.id) is node
    assert tb.node("/sn01/192.168.0.1") is node


def test_auto_ids_are_sequential():
    tb = Testbed(seed=1)
    ids = [tb.add_node(f"n{i}", (i, 0)).id for i in range(3)]
    assert ids == [1, 2, 3]


def test_unknown_lookup_raises():
    tb = Testbed(seed=1)
    with pytest.raises(NoSuchNode):
        tb.node("missing")


def test_contains_and_len():
    tb = Testbed(seed=1)
    tb.add_node("a", (0, 0))
    assert "a" in tb and len(tb) == 1


def test_position_property_and_move():
    tb = Testbed(seed=1)
    node = tb.add_node("a", (1.0, 2.0))
    assert node.position == (1.0, 2.0)
    node.position = (5.0, 6.0)
    assert tb.position_of(node.id) == (5.0, 6.0)


def test_install_protocol_and_port_registry():
    tb = Testbed(seed=1)
    node = tb.add_node("a", (0, 0))
    proto = node.install_protocol(GeographicForwarding)
    assert node.protocol_on(10) is proto
    with pytest.raises(KernelError):
        node.protocol_on(99)


def test_port_conflict_on_double_install():
    tb = Testbed(seed=1)
    node = tb.add_node("a", (0, 0))
    node.install_protocol(GeographicForwarding)
    with pytest.raises(PortInUse):
        node.install_protocol(GeographicForwarding)


def test_uninstall_frees_port():
    tb = Testbed(seed=1)
    node = tb.add_node("a", (0, 0))
    node.install_protocol(FloodingProtocol)
    node.uninstall_protocol(12)
    node.install_protocol(FloodingProtocol)  # port is free again


def test_install_protocol_everywhere():
    tb = Testbed(seed=1)
    for i in range(3):
        tb.add_node(f"n{i}", (i * 10.0, 0))
    protos = tb.install_protocol_everywhere(GeographicForwarding)
    assert len(protos) == 3
    assert all(tb.node(i + 1).protocol_on(10) for i in range(3))


def test_kernel_memory_preinstalled():
    tb = Testbed(seed=1)
    node = tb.add_node("a", (0, 0))
    assert node.memory.lookup("kernel") is not None


def test_same_seed_same_world():
    def build():
        tb = Testbed(seed=77)
        tb.add_node("a", (0, 0))
        tb.add_node("b", (40.0, 0))
        tb.warm_up(10.0)
        entry = tb.node("a").neighbors.lookup(2)
        return (entry.lqi, entry.rssi, entry.beacons_received)

    assert build() == build()


def test_different_seeds_differ():
    def build(seed):
        tb = Testbed(seed=seed)
        tb.add_node("a", (0, 0))
        tb.add_node("b", (40.0, 0))
        tb.warm_up(10.0)
        entry = tb.node("a").neighbors.lookup(2)
        return (entry.lqi, entry.rssi)

    assert build(1) != build(2)
