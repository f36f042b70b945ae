"""The batched receive path against the per-arrival oracle.

Production hands each receive layer one
:class:`~repro.radio.medium.FrameBatch` per transmission: the radio
filters it, the stack parses the clean payload once, the neighbor
service decodes a beacon once, the beacon tap reads it once.
``tests/net/reference_receive.py`` walks every delivery alone through
the per-arrival chain those layers replaced.  These tests run whole
worlds on both and hold them to the same counters, gauges and
histograms, every neighbor-table field (floats by ``hex``), every
online-detector state, the tracer's event list and the packet digest:
on a 30-node minute traced and untraced, on a routed ping session
(unicast frames that address recognition drops at the bystanders), on a
served hybrid fleet under packet corruption and a link fault (CRC
failures, taps, probe-burst pauses and resumes), and on a city with
nodes in motion.
"""

import pytest

from repro.core.deploy import deploy_liteview
from repro.diag.online import OnlineMonitor
from repro.faults import FaultPlan, FaultSpec
from repro.radio import MobilityPlan, MobilitySpec, install_mobility
from repro.serve import build_fleet
from repro.workloads import build_city, thirty_node_field
from repro.workloads.scenarios import QUIET_PROPAGATION
from repro.workloads.topologies import build_chain
from tests.net import reference_receive


def _detector(det) -> tuple:
    return tuple(
        v.hex() if isinstance(v, float) else v
        for v in (getattr(det, name) for name in det.__slots__))


def _window(window) -> tuple:
    return (window.count, tuple(v.hex() for v in window.values()),
            window._sum.hex(), window._sumsq.hex())


def _links(online: OnlineMonitor) -> dict:
    states = {}
    for key, st in sorted(online._links.items()):
        states[key] = (
            _detector(st.lqi), _detector(st.rssi), _detector(st.loss),
            _window(st.loss_window), _window(st.intervals),
            _window(st.baseline_window),
            None if st.baseline_interval is None
            else tuple(v.hex() for v in st.baseline_interval),
            st.nominal.hex(), st.last_seq, st.last_heard.hex(), st.beacons,
            st.channel)
    return {"links": states, "beacons_seen": online.beacons_seen,
            "paused": online._paused,
            "anchor_floor": online._anchor_floor.hex()}


def _tables(testbed) -> dict:
    tables = {}
    for node in testbed.nodes():
        table = node.neighbors
        tables[node.id] = (
            table._seq, sorted(table._blacklist),
            [(e.node_id, e.name, tuple(v.hex() for v in e.position),
              e.lqi.hex(), e.rssi.hex(), e.first_heard.hex(),
              e.last_heard.hex(), e.beacons_received, e.first_seq,
              e.last_seq, e.enabled)
             for _, e in sorted(table._entries.items())])
    return tables


def _observe(testbed, online: OnlineMonitor | None = None) -> dict:
    registry = testbed.monitor.registry
    return {
        "counters": registry.counters(),
        "gauges": registry.gauges(),
        "histograms": {name: sorted(h._counts.items())
                       for name, h in registry.histograms().items()},
        "trace": [(e.time.hex(), e.kind, e.node, e.packet,
                   sorted(e.detail.items())) for e in testbed.tracer.events],
        "digest": testbed.monitor.packet_digest(),
        "now": testbed.env.now.hex(),
        "tables": _tables(testbed),
        "online": None if online is None else _links(online),
    }


def _assert_parity(play) -> dict:
    """Run ``play`` (which returns an observation) on production and on
    the oracle; every observed part must match."""
    production = play()
    with reference_receive.patched():
        reference = play()
    for part in production:
        assert production[part] == reference[part], part
    return production


def _thirty(traced: bool) -> dict:
    testbed = thirty_node_field(seed=2)
    if traced:
        testbed.tracer.enable()
    online = OnlineMonitor(testbed).attach()
    deploy_liteview(testbed, warm_up=60.0)
    return _observe(testbed, online)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_thirty_node_minute_matches_the_oracle(traced):
    seen = _assert_parity(lambda: _thirty(traced))
    assert seen["counters"]["neighbors.beacons_received"] > 1000
    assert seen["online"]["beacons_seen"] > 1000
    assert bool(seen["trace"]) == traced


def _chain_ping() -> dict:
    testbed = build_chain(3, seed=21, propagation_kwargs=QUIET_PROPAGATION)
    testbed.tracer.enable()
    deployment = deploy_liteview(testbed, warm_up=20.0)
    deployment.login("192.168.0.1")
    deployment.run("ping 192.168.0.3 round=2 port=10")
    return _observe(testbed)


def test_routed_ping_session_matches_the_oracle():
    seen = _assert_parity(_chain_ping)
    # Not vacuous: unicast frames stopped at bystanders' radios, and
    # routed packets reached per-row port handlers.
    assert seen["counters"]["mac.filtered_frames"] > 0
    assert seen["counters"]["ping.probes_answered"] > 0


def _served_fleet() -> dict:
    fleet = build_fleet("hundred", seed=1, mode="hybrid", assess_every=20.0,
                        warm_up=10.0)
    links = fleet.assessor.watched_links
    link = links[len(links) // 2]
    fleet.queue_fault_plan(FaultPlan(name="receive-parity", specs=(
        FaultSpec(kind="packet_corrupt", at=fleet.env.now + 2.0,
                  duration=20.0, probability=0.3),
        FaultSpec(kind="link_degrade", at=fleet.env.now + 5.0, link=link,
                  loss_db=80.0),
    )))
    for _ in range(9):
        fleet.advance(5.0)
    return _observe(fleet.testbed, fleet.assessor.online)


def test_served_hybrid_fleet_under_faults_matches_the_oracle():
    seen = _assert_parity(_served_fleet)
    counters = seen["counters"]
    assert counters["faults.activations"] == 2
    assert counters["stack.crc_drops"] > 0
    assert counters["diag.online.beacons"] > 0
    # Probe bursts paused and resumed the listener.
    assert seen["online"]["anchor_floor"] != float("-inf").hex()


def _mobile_city() -> dict:
    testbed = build_city(2, 2, 6, pitch=1500.0, seed=9,
                         propagation_kwargs=QUIET_PROPAGATION)
    install_mobility(testbed, MobilityPlan(name="parity-patrol", specs=(
        MobilitySpec(kind="linear_drift", at=5.0, duration=20.0,
                     nodes=(3,), velocity=(70.0, 0.0), update_every=0.5),
        MobilitySpec(kind="random_waypoint", at=2.0, duration=25.0,
                     nodes=(8,), area=(1500.0, 0.0, 1800.0, 300.0),
                     speed=(2.0, 6.0)),
    )))
    online = OnlineMonitor(testbed).attach()
    deploy_liteview(testbed, warm_up=30.0)
    return _observe(testbed, online)


def test_mobile_city_matches_the_oracle():
    seen = _assert_parity(_mobile_city)
    assert seen["counters"]["medium.repositions"] > 50
    assert seen["counters"]["neighbors.beacons_received"] > 0
