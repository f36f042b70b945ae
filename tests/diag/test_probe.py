"""The probe pipeline: wire plans, decode, and the executor's drive loop."""

import struct

import pytest

from repro.core.deploy import deploy_liteview
from repro.core.wire import MsgType, pack_signed
from repro.diag import (
    ChannelReading,
    ChannelScanProbe,
    LinkProbe,
    LinkReport,
    NeighborProbe,
    PathProbe,
    ProbeExecutor,
    reduce_link_finding,
)
from repro.diag.probe import ping_window, scan_window, traceroute_window
from repro.workloads import build_chain
from repro.workloads.scenarios import QUIET_PROPAGATION


# -- response-window arithmetic (must match the legacy budgets) ---------------

def test_window_formulas():
    assert ping_window(10) == 10 * 0.6 + 2.5
    assert traceroute_window(1) == 1 * 6.5 + 3.0
    # A scan's window covers its worst case: every dwell stretched 30%.
    assert scan_window(16, 4, 10) == 16 * 4 * 10 / 1000.0 * 1.3 + 2.5


# -- wire plans ---------------------------------------------------------------

def test_link_probe_request():
    request = LinkProbe(src=2, dst=3, rounds=6, length=16, port=0).request()
    assert request.node == 2
    assert request.msg_type == MsgType.RUN_PING
    assert request.body == struct.pack(">HBBB", 3, 6, 16, 0)
    assert request.window == ping_window(6)
    assert not request.wait_full_window


def test_path_probe_request():
    request = PathProbe(src=1, dst=8, rounds=2, length=32, port=10).request()
    assert request.node == 1
    assert request.msg_type == MsgType.RUN_TRACEROUTE
    assert request.body == struct.pack(">HBBB", 8, 2, 32, 10)
    assert request.window == traceroute_window(2)


def test_neighbor_probe_request_waits_full_window():
    request = NeighborProbe(node=4).request()
    assert request.node == 4
    assert request.msg_type == MsgType.NEIGHBOR_LIST
    assert request.body == b"\x01"
    assert request.window == 0.5
    assert request.wait_full_window


def test_scan_probe_decode_and_observe():
    probe = ChannelScanProbe(node=2, first=11, count=3)
    request = probe.request()
    assert request.msg_type == MsgType.SCAN_CHANNELS
    body = bytes([3, 11, pack_signed(-90), 12, pack_signed(-88),
                  20, pack_signed(-55)])
    decoded = probe.decode(body)
    assert decoded == [(11, -90), (12, -88), (20, -55)]
    observed = probe.observe(decoded)
    assert observed == [ChannelReading(2, 11, -90), ChannelReading(2, 12, -88),
                        ChannelReading(2, 20, -55)]


def test_link_probe_failure_observation_counts_budgeted_rounds():
    report = LinkProbe(src=2, dst=3, rounds=6).failure_observation()
    assert report == LinkReport.no_reply(2, 3, 6)
    assert report.has_data and report.loss_ratio == 1.0


def test_describe_labels():
    assert LinkProbe(src=2, dst=3).describe() == "link 2->3"
    assert PathProbe(src=1, dst=8).describe() == "path 1->8"
    assert NeighborProbe(node=4).describe() == "neighbors of 4"
    assert ChannelScanProbe(node=2).describe() == "scan on 2"


# -- the executor over a live deployment --------------------------------------

@pytest.fixture(scope="module")
def chain():
    testbed = build_chain(3, spacing=60.0, seed=5,
                          propagation_kwargs=QUIET_PROPAGATION)
    deployment = deploy_liteview(testbed, warm_up=15.0)
    return testbed, deployment


def test_executor_runs_a_link_probe(chain):
    testbed, deployment = chain
    before = testbed.monitor.counter("diag.probes")
    outcome = ProbeExecutor(deployment).run(
        LinkProbe(src=1, dst=2, rounds=3, length=16))
    assert outcome.ok
    assert isinstance(outcome.value, LinkReport)
    assert outcome.value.src == 1 and outcome.value.dst == 2
    assert outcome.value.received > 0
    assert testbed.monitor.counter("diag.probes") == before + 1


def test_executor_accepts_a_bare_workstation(chain):
    _, deployment = chain
    outcome = ProbeExecutor(deployment.workstation).run(
        NeighborProbe(node=2))
    assert outcome.ok
    assert outcome.value  # node 2 sees both chain neighbors


def test_executor_classifies_a_dead_source_as_unreachable(chain):
    testbed, deployment = chain
    testbed.node(3).fail()
    try:
        before = testbed.monitor.counter("diag.probe_failures")
        outcome = ProbeExecutor(deployment).run(
            LinkProbe(src=3, dst=2, rounds=2, length=16))
        assert not outcome.ok
        assert outcome.failure == "unreachable"
        assert outcome.unreachable
        assert outcome.value is None
        assert testbed.monitor.counter("diag.probe_failures") == before + 1
    finally:
        testbed.node(3).recover()


def test_run_all_preserves_probe_order(chain):
    _, deployment = chain
    probes = [LinkProbe(src=1, dst=2, rounds=1, length=16),
              NeighborProbe(node=2)]
    outcomes = ProbeExecutor(deployment).run_all(probes)
    assert [o.probe for o in outcomes] == probes
    assert all(o.ok for o in outcomes)


def fresh_chain(nodes, seed):
    testbed = build_chain(nodes, spacing=60.0, seed=seed,
                          propagation_kwargs=QUIET_PROPAGATION)
    return testbed, deploy_liteview(testbed, warm_up=15.0)


def test_asymmetric_link_detected():
    testbed, deployment = fresh_chain(3, seed=2)
    # Degrade only the 2->1 direction (e.g. a weak antenna at 2):
    # probes arrive fine, replies arrive at low LQI/RSSI.
    testbed.propagation.set_link_shadowing_db(2, 1, 5.0)
    outcome = ProbeExecutor(deployment).run(LinkProbe(src=1, dst=2, rounds=8))
    assert outcome.ok and outcome.value.received >= 1
    assert outcome.value.lqi_backward < outcome.value.lqi_forward
    assert reduce_link_finding(outcome.value).kind in (
        "asymmetric_link", "lossy_link")


def test_path_probe_reaches_its_target():
    _, deployment = fresh_chain(4, seed=4)
    outcome = ProbeExecutor(deployment).run(PathProbe(src=1, dst=4))
    assert outcome.ok
    assert outcome.value.reached_target
