"""Pending-mover patching held to byte equality with full rebuilds.

A move does not rebuild the candidate index and mean-loss row of every
sender near it: each such sender patches its cached index with the
nodes that moved near it (membership by the grid's exact predicate) and
recomputes only the row's distance term.  The contract is that patching
is invisible — after every transmission the cached index and row equal
a from-scratch rebuild (``==`` / ``np.array_equal``, not approx), and
every RNG stream has consumed exactly the draws it consumes when every
transmission rebuilds from scratch.

Hypothesis generates the worlds: nodes scattered over a field two
range bounds wide, some placed exactly on (or one ulp either side of)
another node's range boundary; moves that cross those boundaries;
transmissions interleaved with channel hops and one shadowing pin or
link penalty.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.frame import BROADCAST, Frame

from tests.conftest import World
from tests.radio.test_medium_caching import fresh_row

PROPAGATION = {"shadowing_sigma_db": 4.0, "fading_sigma_db": 1.0}
CHANNELS = (11, 12)


def _range_bound() -> float:
    world = World(**PROPAGATION)
    world.medium.attach(0, (0.0, 0.0))
    return world.medium.max_range_m


#: The conservative range bound every generated world shares (uniform
#: transmit power; a negative pin widens it, which forces full rebuilds).
RANGE = _range_bound()

free = st.tuples(st.floats(-RANGE, RANGE),
                 st.floats(-RANGE, RANGE))
#: On the boundary of node ``ref``'s disk along an axis, or one ulp
#: either side of it.
edge = st.tuples(st.integers(0, 7), st.sampled_from(["x", "y"]),
                 st.sampled_from([-1.0, 1.0]), st.integers(-1, 1))
placement = st.one_of(free.map(lambda p: ("free", p)),
                      edge.map(lambda e: ("edge", e)))
#: A step from the mover's current position, short enough that most
#: steps stay inside the disks they started in (same-member patches).
drift = st.tuples(st.floats(-0.2 * RANGE, 0.2 * RANGE),
                  st.floats(-0.2 * RANGE, 0.2 * RANGE))

#: One step: (kind, node, where the node moves to, channel it hops to);
#: each kind reads the fields it needs.  Hops are rare because every one
#: invalidates every index; transmissions and moves dominate.
op = st.tuples(
    st.sampled_from(["tx"] * 16 + ["move"] * 16 + ["hop"]),
    st.integers(0, 7),
    st.one_of(placement, drift.map(lambda d: ("drift", d))),
    st.sampled_from(CHANNELS),
)
adjustment = st.tuples(st.sampled_from(["pin", "penalty"]),
                       st.integers(0, 7), st.integers(0, 7),
                       st.floats(-20.0, 40.0))


def _place(world, how, nodes, mover=None):
    """Resolve a placement; ``edge`` refers to one of the first ``nodes``
    attached radios (the first radio has none to refer to), ``drift`` to
    the mover's own position."""
    kind, spec = how
    if kind == "free":
        return spec
    if kind == "drift":
        x, y = world.medium.transceiver(mover).position
        return (x + spec[0], y + spec[1])
    if nodes == 0:
        return (0.0, 0.0)
    ref, axis, sign, ulps = spec
    x, y = world.medium.transceiver(ref % nodes).position
    target = (x if axis == "x" else y) + sign * RANGE
    if ulps:
        target = math.nextafter(target, math.copysign(math.inf, ulps))
    return (target, y) if axis == "x" else (x, target)


def _scratch_index(medium, sender):
    """Members and positions by brute force over every attached radio,
    with the grid's predicate (``dx*dx + dy*dy <= r*r``)."""
    sx, sy = medium.transceiver(sender).position
    channel = medium.transceiver(sender).config.channel
    r2 = medium.max_range_m * medium.max_range_m
    ids = []
    for nid in medium.node_ids():
        xcvr = medium.transceiver(nid)
        px, py = xcvr.position
        dx = px - sx
        dy = py - sy
        if dx * dx + dy * dy <= r2 and xcvr.config.channel == channel:
            ids.append(nid)
    positions = np.array([medium.transceiver(n).position for n in ids],
                         dtype=float)
    return ids, positions


def _forget_caches(medium):
    medium._idx_cache.clear()
    medium._pending.clear()
    medium._row_cache.clear()


class _Run:
    """One world driven through the op sequence, recording arrivals."""

    def __init__(self, seed, placements, *, rebuild_always):
        self.world = World(seed=seed, **PROPAGATION)
        self.rebuild_always = rebuild_always
        self.arrivals = []
        medium = self.world.medium
        self.nodes = len(placements)
        for nid, how in enumerate(placements):
            xcvr = medium.attach(nid, _place(self.world, how, nid))
            xcvr.set_receive_handler(self._record)

    def _record(self, batch):
        for arrival in map(batch.arrival, batch.rows):
            self.arrivals.append((arrival.sender, arrival.receiver,
                                  arrival.rx_power_dbm, arrival.rssi,
                                  arrival.lqi, arrival.crc_ok))

    def apply(self, step):
        medium = self.world.medium
        kind = step[0]
        if kind == "move":
            nid = step[1] % self.nodes
            medium.transceiver(nid).position = _place(self.world, step[2],
                                                      self.nodes, nid)
        elif kind == "hop":
            medium.transceiver(step[1] % self.nodes).config.set_channel(
                step[3])
        elif kind == "pin":
            self.world.propagation.set_link_shadowing_db(
                step[1] % self.nodes, step[2] % self.nodes, step[3])
        elif kind == "penalty":
            self.world.propagation.set_link_penalty_db(
                step[1] % self.nodes, step[2] % self.nodes, step[3])
        else:
            sender = step[1] % self.nodes
            if self.rebuild_always:
                _forget_caches(medium)
            xcvr = medium.transceiver(sender)
            medium.transmit(xcvr, Frame(src=sender, dst=BROADCAST,
                                        payload=b"patch"))
            self.world.env.run()
            return sender
        return None

    def streams(self):
        prop = self.world.propagation
        medium = self.world.medium
        return (prop._shadow_rng.bit_generator.state,
                prop._fading_rng.bit_generator.state,
                medium._loss_rng.bit_generator.state,
                dict(prop._shadowing))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16),
       placements=st.lists(placement, min_size=3, max_size=6),
       ops=st.lists(op, min_size=30, max_size=60),
       adjust=st.none() | st.tuples(st.integers(0, 40), adjustment))
def test_patched_caches_equal_full_rebuilds(seed, placements, ops, adjust):
    ops = list(ops)
    if adjust is not None:
        at, (kind, src, dst, value) = adjust
        ops.insert(at % (len(ops) + 1), (kind, src, dst, value))
    patched = _Run(seed, placements, rebuild_always=False)
    rebuilt = _Run(seed, placements, rebuild_always=True)
    medium = patched.world.medium
    for step in ops:
        sender = patched.apply(step)
        rebuilt.apply(step)
        if sender is None:
            continue
        channel = medium.transceiver(sender).config.channel
        idx = medium._idx_cache[sender]
        ids, positions = _scratch_index(medium, sender)
        assert idx.ids == ids
        assert np.array_equal(idx.positions, positions)
        mean = medium._row_cache[(sender, channel)][2]
        assert np.array_equal(mean, fresh_row(medium, sender, ids,
                                              positions))
        assert patched.streams() == rebuilt.streams()
        assert patched.arrivals == rebuilt.arrivals
