"""The passive-mode contract: listening costs nothing, byte for byte.

A ``mode="passive"`` fleet assesses health from the beacon stream
alone.  The regression pinned here is the strongest form of that
claim: a served passive fleet's ``Monitor.packet_digest()`` is
*byte-identical* to a bare deployment of the same spec/seed/horizon
that has no assessor, no online monitor, and no server at all — and
its probe-kind transmission counters are exactly zero.
"""

import asyncio

from repro.core.deploy import deploy_liteview
from repro.diag.online import PROBE_PACKET_KINDS
from repro.serve import ServeApp, build_fleet
from repro.workloads import build_chain
from repro.workloads.scenarios import QUIET_PROPAGATION

from tests.serve.conftest import fetch_json

SEED, WARM_UP, HORIZON = 11, 10.0, 50.0
FLEET_KW = dict(seed=SEED, assess_every=20.0, warm_up=WARM_UP)


def bare_digest() -> str:
    """The golden: same world, no assessor/monitor/server anywhere."""
    testbed = build_chain(5, seed=SEED,
                          propagation_kwargs=QUIET_PROPAGATION)
    deploy_liteview(testbed, warm_up=WARM_UP)
    testbed.run(until=HORIZON)
    return testbed.monitor.packet_digest()


def probe_packets(monitor) -> int:
    return sum(1 for r in monitor.packets
               if r.kind in PROBE_PACKET_KINDS)


def test_passive_fleet_digest_matches_bare_world():
    fleet = build_fleet("chain:5", mode="passive", **FLEET_KW)
    for _ in range(8):
        fleet.advance((HORIZON - WARM_UP) / 8)
    assert fleet.assessor.assessments == 2          # t=30, t=50
    assert fleet.monitor.packet_digest() == bare_digest()
    assert probe_packets(fleet.monitor) == 0
    # The listener demonstrably ran: it consumed the beacon stream.
    assert fleet.monitor.counter("diag.online.beacons") > 0
    assert fleet.assessor.online.beacons_seen > 0


def test_active_fleet_probes_and_diverges():
    """The control arm: the same fleet in active mode injects probe
    packets, so its digest cannot match the bare world."""
    fleet = build_fleet("chain:5", mode="active", **FLEET_KW)
    for _ in range(8):
        fleet.advance((HORIZON - WARM_UP) / 8)
    assert probe_packets(fleet.monitor) > 0
    assert fleet.monitor.packet_digest() != bare_digest()


def test_served_passive_fleet_stays_byte_identical_under_load():
    """HTTP pollers + a passive assessor: still the bare world's bytes,
    and /health reports its mode and a real verdict."""
    golden = bare_digest()

    async def main():
        fleet = build_fleet("chain:5", mode="passive", **FLEET_KW)
        app = ServeApp([fleet])
        await app.start(auto_tick=False)
        try:
            for _ in range(8):
                clients = [
                    asyncio.ensure_future(fetch_json(
                        app.port, f"/fleets/{fleet.name}/health"))
                    for _ in range(20)
                ]
                await asyncio.sleep(0)
                fleet.advance((HORIZON - WARM_UP) / 8)
                for status, payload in await asyncio.gather(*clients):
                    assert status == 200
                    assert payload["mode"] == "passive"
            status, payload = await fetch_json(
                app.port, f"/fleets/{fleet.name}/health")
            assert status == 200
            assert payload["status"] == "green"
            assert payload["assessments"] == 2
            return fleet.monitor.packet_digest()
        finally:
            await app.stop()

    assert asyncio.run(main()) == golden
