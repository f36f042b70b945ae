"""The spatial medium against the scalar reference medium.

``tests/radio/reference_medium.py`` walks every radio per frame with one
scalar draw per receiver and nothing but the cut-off rule; production
prunes with a grid, caches and patches per-sender rows and batches its
draws.  Here:

* the oracle itself reproduces the pre-vectorization golden captures
  (so it is the model, not a second implementation of the medium);
* the cut-off leaves out only energy at least 20 dB under the noise
  floor, whatever the propagation preset;
* on generated bare-radio worlds — overlapping addressed and broadcast
  frames, moves, channel hops, PA changes, radio on/off, a pinned or
  penalized link, CCA and energy samples — every arrival, reading,
  trace event, packet record and counter is identical;
* two hand-built worlds pin the mid-frame jumps the generator rarely
  reaches.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernel.testbed
from repro.campaign import run_campaign
from repro.mac.frame import BROADCAST, Frame
from repro.radio import (
    NOISE_FLOOR_DBM,
    LogDistancePropagation,
    RadioConfig,
    RadioMedium,
    power_level_to_dbm,
)
from repro.radio.medium import range_bound_m
from repro.sim import Environment, Monitor, RngRegistry
from repro.workloads.scenarios import QUIET_PROPAGATION, REALISTIC_PROPAGATION
from tests.integration.test_golden_determinism import (
    GOLDEN,
    GOLDEN_CAMPAIGN,
    _campaign_fixture_view,
    run_chain_ping,
    run_thirty,
)
from tests.radio.reference_medium import ReferenceMedium


@pytest.fixture
def reference_testbeds():
    with mock.patch.object(repro.kernel.testbed, "RadioMedium",
                           ReferenceMedium):
        yield


# -- the oracle is the model ----------------------------------------------------


@pytest.mark.parametrize("run, key", [
    pytest.param(lambda: run_thirty(2), "thirty_node_seed2", id="thirty2"),
    pytest.param(lambda: run_thirty(5), "thirty_node_seed5", id="thirty5"),
    pytest.param(lambda: run_thirty(5, trace=True), "thirty_node_seed5",
                 id="thirty5-traced"),
    pytest.param(run_chain_ping, "chain3_ping_seed21", id="chain3-ping"),
])
def test_reference_medium_matches_golden(reference_testbeds, run, key):
    assert run() == GOLDEN[key]


def test_reference_medium_matches_golden_campaign(reference_testbeds):
    out = run_campaign(GOLDEN_CAMPAIGN, workers=1)
    assert out.failures == []
    assert _campaign_fixture_view(out) == \
        GOLDEN["campaign_chain_beacons_seed11"]


# -- the cut-off rule -------------------------------------------------------------


@pytest.mark.parametrize("propagation_kwargs", [
    pytest.param(QUIET_PROPAGATION, id="quiet"),
    pytest.param(REALISTIC_PROPAGATION, id="realistic"),
    pytest.param({}, id="default"),
])
def test_pruned_energy_sits_20db_under_the_noise_floor(propagation_kwargs):
    """A max-power sender's mean power at the range bound is at most
    ``NOISE_FLOOR_DBM - 20``: whatever the cut-off leaves out could not
    have moved an SINR, a CCA decision or an energy reading."""
    propagation = LogDistancePropagation(RngRegistry(1),
                                         **propagation_kwargs)
    tx_dbm = power_level_to_dbm(31)
    reach = range_bound_m(propagation, tx_dbm)
    mean_dbm = tx_dbm - propagation.deterministic_loss_db(reach)
    assert mean_dbm <= NOISE_FLOOR_DBM - 20.0 + 1e-9


# -- differential worlds ----------------------------------------------------------

LEVELS = (3, 7, 11, 15, 19, 23, 27, 31)
CHANNELS = (17, 18)
PRESETS = {"quiet": QUIET_PROPAGATION, "realistic": REALISTIC_PROPAGATION}
#: Generated times are microseconds; a 100-byte frame is ~3.6 ms on air.
HORIZON_US = 15_000


def _reach(preset: str) -> float:
    return range_bound_m(
        LogDistancePropagation(RngRegistry(0), **PRESETS[preset]),
        power_level_to_dbm(31))


@st.composite
def worlds(draw):
    preset = draw(st.sampled_from(sorted(PRESETS)))
    span = 2.0 * _reach(preset)
    # Half the radios in one audible cluster, the rest anywhere across
    # two range bounds: inside the cut-off but inaudible, and beyond it.
    position = st.one_of(
        st.tuples(st.floats(0.0, 120.0), st.floats(0.0, 120.0)),
        st.tuples(st.floats(0.0, span), st.floats(0.0, span)))
    channels = CHANNELS[:draw(st.integers(1, 2))]
    n = draw(st.integers(3, 9))
    radios = [(draw(position), draw(st.sampled_from(LEVELS)),
               draw(st.sampled_from(channels))) for _ in range(n)]
    node = st.integers(1, n)
    length = st.integers(0, 100)
    action = st.one_of(
        st.tuples(st.just("send"), node, node, length),
        st.tuples(st.just("send"), node, st.just(BROADCAST), length),
        st.tuples(st.just("send"), node, st.just(BROADCAST), length),
        st.tuples(st.just("move"), node, position),
        st.tuples(st.just("hop"), node, st.sampled_from(channels)),
        st.tuples(st.just("power"), node, st.sampled_from(LEVELS)),
        st.tuples(st.just("toggle"), node),
        st.tuples(st.just("sample"), node),
    )
    script = draw(st.lists(st.tuples(st.integers(0, HORIZON_US), action),
                           min_size=8, max_size=40))
    link = draw(st.tuples(st.integers(0, HORIZON_US),
                          st.sampled_from(["pin", "penalty"]), node, node,
                          st.floats(-30.0, 30.0)))
    return preset, draw(st.integers(0, 2**16)), radios, script, link


def _play(medium_cls, world) -> dict:
    """Run one generated world on ``medium_cls``; return everything a
    receiver, a sampler or the monitor could observe."""
    preset, seed, radios, script, link = world
    env = Environment()
    env.tracer.enable()
    rng = RngRegistry(seed)
    monitor = Monitor()
    propagation = LogDistancePropagation(rng, **PRESETS[preset])
    medium = medium_cls(env, rng, monitor, propagation)
    observed: list[tuple] = []

    # Each observation records how many trace events precede it, so a
    # delivery or a sample out of place among the trace events differs.
    def on_arrival(batch):
        for a in map(batch.arrival, batch.rows):
            observed.append((
                "rx", len(env.tracer.events), a.time.hex(),
                a.frame.trace_id, a.sender, a.receiver, a.channel,
                a.rx_power_dbm.hex(), a.sinr_db.hex(), a.rssi, a.lqi,
                a.crc_ok, a.payload))

    xcvrs = {}
    for nid, (pos, level, channel) in enumerate(radios, start=1):
        xcvrs[nid] = medium.attach(
            nid, pos, RadioConfig(power_level=level, channel=channel))
        xcvrs[nid].set_receive_handler(on_arrival)

    def act(k, step):
        kind, nid, *args = step
        xcvr = xcvrs[nid]
        if kind == "send":
            if xcvr.enabled and not xcvr.is_transmitting:
                dst, length = args
                medium.transmit(xcvr, Frame(
                    src=nid, dst=dst, payload=bytes(range(length)),
                    trace_id=f"{nid}:{k}"))
        elif kind == "move":
            xcvr.position = args[0]
        elif kind == "hop":
            xcvr.config.set_channel(args[0])
        elif kind == "power":
            xcvr.config.set_power_level(args[0])
        elif kind == "toggle":
            xcvr.enabled = not xcvr.enabled
        else:
            observed.append(("sample", len(env.tracer.events),
                             env.now.hex(), nid, medium.cca_busy(xcvr),
                             medium.ambient_power_dbm(xcvr).hex()))

    def change_link():
        _at, kind, src, dst, value = link
        if kind == "pin":
            propagation.set_link_shadowing_db(src, dst, value)
        else:
            propagation.set_link_penalty_db(src, dst, value)

    for k, (at_us, step) in enumerate(script):
        env.call_at(at_us * 1e-6, lambda k=k, step=step: act(k, step))
    env.call_at(link[0] * 1e-6, change_link)
    env.run()
    return {
        "observed": observed,
        "trace": [(e.time.hex(), e.kind, e.node, e.packet,
                   sorted(e.detail.items())) for e in env.tracer.events],
        "digest": monitor.packet_digest(),
        "counters": monitor.counters,
        "lqi": monitor.histogram("radio.lqi").values(),
        "now": env.now.hex(),
    }


@given(worlds())
@settings(max_examples=600, deadline=None, derandomize=True)
def test_generated_worlds_match_reference_medium(world):
    assert _play(RadioMedium, world) == _play(ReferenceMedium, world)


def _teleport_world(second_sender, dst):
    """Node 1 starts a 100-byte broadcast; 1 ms in, node 2 — 30 m from
    node 1 — jumps 1000 m away, next to node 3; 0.1 ms later
    ``second_sender`` transmits to ``dst`` while node 1's frame is still
    on the air.  The two senders' start-of-frame disks are disjoint."""
    return ("quiet", 1,
            [((0.0, 0.0), 31, 17), ((30.0, 0.0), 31, 17),
             ((1020.0, 0.0), 31, 17)],
            [(0, ("send", 1, BROADCAST, 100)),
             (1000, ("move", 2, (1000.0, 0.0))),
             (1100, ("send", second_sender, dst, 10))],
            (0, "penalty", 1, 1, 0.0))


@pytest.mark.parametrize("second_sender, dst, counter, expected", [
    # The mover transmits: it must still be deaf to node 1's frame.
    pytest.param(2, BROADCAST, "medium.halfduplex_loss", 1,
                 id="half-duplex"),
    # The mover receives: both frames reached it at their start, so
    # each is interference to the other there.
    pytest.param(3, 2, "medium.interfered_receptions", 2,
                 id="interference"),
])
def test_mid_frame_move_keeps_overlap_links(second_sender, dst, counter,
                                            expected):
    world = _teleport_world(second_sender, dst)
    production = _play(RadioMedium, world)
    assert production["counters"][counter] == expected
    assert production == _play(ReferenceMedium, world)
