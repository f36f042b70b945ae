"""Bit-for-bit determinism against pre-vectorization golden fixtures.

``tests/golden/determinism_golden.json`` was captured from the *scalar*
per-receiver medium before the vectorized rewrite.  These tests prove
the contract the rewrite was held to: batched RNG draws, the cached
per-sender candidate indexes and mean-loss rows, and the pooled-timeout
fast path change nothing observable — same counters, same packet log,
same final clock, whether or not tracing is enabled.

If a future change legitimately alters the simulation (not just its
speed), recapture the fixture deliberately; never loosen these asserts.
"""

import hashlib
import json
import pathlib

import pytest

from repro.campaign import Campaign, run_campaign
from repro.core.deploy import deploy_liteview
from repro.workloads import QUIET_PROPAGATION, thirty_node_field
from repro.workloads.topologies import build_chain

GOLDEN_PATH = (pathlib.Path(__file__).parent.parent
               / "golden" / "determinism_golden.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _packet_digest(monitor) -> str:
    """Order-sensitive digest of the full packet log (the reference
    implementation :meth:`Monitor.packet_digest` must keep matching —
    the fixture hashes were captured with this exact encoding)."""
    h = hashlib.sha256()
    for r in monitor.packets:
        h.update(repr((r.time.hex(), r.sender, r.receiver, r.kind,
                       r.port, r.size_bytes, r.delivered)).encode())
    return h.hexdigest()


def _snapshot(testbed) -> dict:
    assert testbed.monitor.packet_digest() == _packet_digest(testbed.monitor)
    return {
        "counters": dict(sorted(testbed.monitor.counters.items())),
        "n_packets": len(testbed.monitor.packets),
        "now": testbed.env.now.hex(),
        "packet_sha256": _packet_digest(testbed.monitor),
    }


def run_thirty(seed: int, *, trace: bool = False) -> dict:
    testbed = thirty_node_field(seed=seed)
    if trace:
        testbed.tracer.enable()
    deploy_liteview(testbed, warm_up=60.0)
    return _snapshot(testbed)


def run_chain_ping() -> dict:
    testbed = build_chain(3, seed=21, propagation_kwargs=QUIET_PROPAGATION)
    deployment = deploy_liteview(testbed, warm_up=20.0)
    deployment.login("192.168.0.1")
    deployment.run("ping 192.168.0.3 round=2 port=10")
    return _snapshot(testbed)


@pytest.mark.parametrize("seed", [2, 5])
def test_thirty_node_matches_golden(seed):
    """A full 30-node minute reproduces the pre-vectorization capture."""
    assert run_thirty(seed) == GOLDEN[f"thirty_node_seed{seed}"]


def test_tracing_does_not_perturb_simulation():
    """Packet-lifecycle tracing must observe, never alter, the run."""
    assert run_thirty(2, trace=True) == GOLDEN["thirty_node_seed2"]


def test_chain_ping_matches_golden():
    """An interactive diagnosis session (login + ping) is deterministic."""
    assert run_chain_ping() == GOLDEN["chain3_ping_seed21"]


def test_same_seed_twice_is_identical():
    """Two fresh runs from one seed agree in every recorded detail."""
    assert run_thirty(5) == run_thirty(5)


# -- campaigns: sharded == serial == golden ---------------------------------

GOLDEN_CAMPAIGN = Campaign(
    name="golden", scenario="chain_beacons", seed=11,
    base_params={"seconds": 15.0}, grid={"nodes": [3, 4]}, repeats=1,
)


def _campaign_fixture_view(result) -> dict:
    return {
        "digest": result.digest(),
        "runs": [
            {"seed": r.spec.seed,
             "params": [list(p) for p in r.spec.params],
             "counters": dict(sorted(r.counters.items())),
             "packet_sha256": r.packet_sha256, "n_packets": r.n_packets,
             "sim_time": r.sim_time.hex()}
            for r in result.runs
        ],
    }


def test_serial_campaign_matches_golden():
    """Per-run seeds, counters and packet digests of a seeded campaign
    reproduce the captured fixture exactly."""
    out = run_campaign(GOLDEN_CAMPAIGN, workers=1)
    assert out.failures == []
    assert _campaign_fixture_view(out) == \
        GOLDEN["campaign_chain_beacons_seed11"]


@pytest.mark.slow
def test_sharded_campaign_is_bit_for_bit_serial():
    """The campaign sharded over a 2-worker spawn pool is bit-for-bit
    identical to the serial reference *and* to the golden capture: seed
    derivation never depends on worker count or shard order."""
    sharded = run_campaign(GOLDEN_CAMPAIGN, workers=2, mp_context="spawn")
    assert sharded.failures == []
    assert _campaign_fixture_view(sharded) == \
        GOLDEN["campaign_chain_beacons_seed11"]
