"""Tests for the channel-scan, group and events shell commands."""

import time

import pytest

from repro.core.deploy import deploy_liteview
from repro.errors import ParameterError
from repro.workloads import Flow, TrafficGenerator, build_chain

#: `scan` with every default, as it printed before its sampling bound.
DEFAULT_SCAN = """channel  peak RSSI
     11        -52  ##
     12        -52  ##
     13        -53  ##
     14        -52  ##
     15        -52  ##
     16        -52  ##
     17        -52  ##
     18        -53  ##
     19        -51  ###
     20        -51  ###
     21        -52  ##
     22        -50  ###
     23        -53  ##
     24        -51  ###
     25        -52  ##
     26        -51  ###"""


def logged_in(chain_deployment, n=3, **kw):
    dep = chain_deployment(n, **kw)
    dep.login("192.168.0.1")
    return dep


class TestScan:
    def test_scan_quiet_network_reads_noise_floor(self, chain_deployment):
        dep = logged_in(chain_deployment)
        out = dep.run("scan first=20 count=3 samples=2")
        lines = out.splitlines()
        assert lines[0].startswith("channel")
        readings = [int(l.split()[1]) for l in lines[1:]]
        assert len(readings) == 3
        # Quiet channels read near the noise floor (~ -53 register).
        assert all(-60 <= r <= -45 for r in readings)

    def test_scan_detects_busy_channel(self, chain_deployment):
        dep = logged_in(chain_deployment, 4, spacing=40.0)
        tb = dep.testbed
        gen = TrafficGenerator(tb, [
            Flow(src=2, dst=4, interval=0.01, payload_bytes=48),
        ])
        gen.start()
        out = dep.run("scan first=16 count=3 samples=8 dwell=7")
        gen.stop()
        readings = {}
        for line in out.splitlines()[1:]:
            parts = line.split()
            readings[int(parts[0])] = int(parts[1])
        # The home channel (17) carries the flow; its peak clearly
        # exceeds the quiet channels either side.
        assert readings[17] > readings[16] + 5
        assert readings[17] > readings[18] + 5

    def test_scan_restores_home_channel(self, chain_deployment):
        dep = logged_in(chain_deployment)
        dep.run("scan first=11 count=4 samples=1")
        assert dep.testbed.node(1).radio.channel == 17

    def test_scan_parameter_validation(self, chain_deployment):
        from repro.core.commands.scan import channel_scan
        dep = logged_in(chain_deployment)
        node = dep.testbed.node(1)
        with pytest.raises(ParameterError):
            next(channel_scan(node, first=5))
        with pytest.raises(ParameterError):
            next(channel_scan(node, first=25, count=5))
        with pytest.raises(ParameterError):
            next(channel_scan(node, samples=0))
        with pytest.raises(ParameterError, match="exceeds 30 s"):
            next(channel_scan(node, count=1, samples=3, dwell=10.001))

    def test_default_scan_prints_as_before(self, chain_deployment):
        dep = logged_in(chain_deployment)
        assert dep.run("scan") == DEFAULT_SCAN

    def test_hostile_scan_is_refused_at_once(self, chain_deployment):
        """16 × 255 × 65.535 s fits the wire fields; the node refuses it
        before sampling instead of holding the shell for simulated
        days."""
        dep = logged_in(chain_deployment)
        sim_before, wall_before = dep.testbed.env.now, time.monotonic()
        out = dep.run("scan count=16 samples=255 dwell=65535")
        assert out == "error: scan of 267383 s exceeds 30 s"
        assert time.monotonic() - wall_before < 1.0
        assert dep.testbed.env.now - sim_before < 1.0
        assert dep.testbed.node(1).radio.channel == 17

    def test_scan_at_the_bound_answers_within_its_window(self):
        """Every dwell may stretch 30%, and the window allows for it."""
        for seed in range(1, 31):
            dep = deploy_liteview(build_chain(3, seed=seed))
            dep.login(1)
            out = dep.run("scan first=11 count=1 samples=3 dwell=10000")
            assert out.splitlines()[0] == "channel  peak RSSI", (seed, out)


class TestGroup:
    def test_group_radio_reads_all_in_range(self, chain_deployment):
        dep = logged_in(chain_deployment, 3, spacing=30.0)
        dep.workstation.node.position = (30.0, -15.0)
        out = dep.run("group radio")
        assert "192.168.0.1: Power = 31, Channel = 17" in out
        assert "192.168.0.2" in out
        assert "nodes replied" in out

    def test_group_power_sets_everywhere(self, chain_deployment):
        dep = logged_in(chain_deployment, 3, spacing=30.0)
        dep.workstation.node.position = (30.0, -15.0)
        out = dep.run("group power 20")
        assert "Power = 20" in out
        replied = int(out.rsplit("(", 1)[1].split()[0])
        assert replied >= 2
        for node_id in (1, 2, 3):
            node = dep.testbed.node(node_id)
            # Nodes out of the broadcast's reach keep their old setting;
            # the ones that replied must have switched.
            if f"192.168.0.{node_id}:" in out:
                assert node.radio.power_level == 20

    def test_group_requires_subcommand(self, chain_deployment):
        dep = logged_in(chain_deployment)
        with pytest.raises(ParameterError):
            dep.run("group")
        with pytest.raises(ParameterError):
            dep.run("group bogus")

    def test_group_no_replies_out_of_range(self, chain_deployment):
        dep = logged_in(chain_deployment, 2)
        dep.workstation.node.position = (9000.0, 0.0)
        assert "no replies" in dep.run("group radio")


class TestEvents:
    def test_events_empty_initially(self, chain_deployment):
        dep = logged_in(chain_deployment)
        assert dep.run("events") == "event log is empty"

    def test_events_reflect_management_actions(self, chain_deployment):
        dep = logged_in(chain_deployment)
        dep.run("power 12")
        dep.run("neighborsetup")
        dep.run("blacklist add 192.168.0.2")
        dep.run("exit")
        out = dep.run("events")
        assert "radio.power: 31 -> 12" in out
        assert "neighbor.blacklist: node 2 disabled" in out

    def test_events_limit(self, chain_deployment):
        dep = logged_in(chain_deployment)
        for level in (10, 11, 12, 13):
            dep.run(f"power {level}")
        out = dep.run("events limit=2")
        assert len(out.splitlines()) == 2
        assert "-> 13" in out
