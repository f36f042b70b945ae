"""Cache-invalidation and retention tests for the vectorized medium.

The medium caches per-sender receiver-candidate indexes and mean-path-loss
rows between transmissions.  Every mutation path — moving a node,
attaching a new one, hopping channels, pinning per-link shadowing or
injecting a link penalty — must patch or invalidate the right cache, or
the simulation silently keeps using stale geometry.  These tests warm
the caches first and then mutate, so a missing hook fails them.
"""

import gc

import numpy as np
import pytest

from repro.mac.frame import BROADCAST, Frame
from repro.radio import RadioConfig
from repro.radio.medium import _ActiveTransmission
from repro.radio.propagation import link_key


def _collect(xcvr):
    arrivals = []
    xcvr.set_receive_handler(
        lambda batch: arrivals.extend(map(batch.arrival, batch.rows)))
    return arrivals


def _send_one(world, xcvr, payload=b"hello"):
    yield world.medium.transmit(
        xcvr, Frame(src=xcvr.node_id, dst=BROADCAST, payload=payload)
    )


def test_position_move_invalidates_distance_cache(quiet_world):
    a = quiet_world.medium.attach(1, (0.0, 0.0))
    b = quiet_world.medium.attach(2, (5.0, 0.0))
    arrivals = _collect(b)
    assert quiet_world.medium.distance(1, 2) == pytest.approx(5.0)  # warm

    b.position = (2000.0, 0.0)
    assert quiet_world.medium.distance(1, 2) == pytest.approx(2000.0)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert arrivals == []  # moved out of range, not heard via stale matrix


def test_attach_invalidates_topology_cache(quiet_world):
    a = quiet_world.medium.attach(1, (0.0, 0.0))
    quiet_world.medium.attach(2, (5.0, 0.0))
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()  # warm the matrix with the two-node topology

    c = quiet_world.medium.attach(3, (0.0, 5.0))
    arrivals = _collect(c)
    assert quiet_world.medium.distance(1, 3) == pytest.approx(5.0)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert len(arrivals) == 1


def test_channel_hop_invalidates_channel_index(quiet_world):
    a = quiet_world.medium.attach(1, (0.0, 0.0), RadioConfig(channel=11))
    b = quiet_world.medium.attach(2, (5.0, 0.0), RadioConfig(channel=11))
    arrivals = _collect(b)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert len(arrivals) == 1  # same channel, warm index

    b.config.set_channel(26)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert len(arrivals) == 1  # hopped away: silent

    b.config.set_channel(11)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert len(arrivals) == 2  # hopped back: heard again


def test_pinned_shadowing_invalidates_mean_loss_row(quiet_world):
    a = quiet_world.medium.attach(1, (0.0, 0.0))
    b = quiet_world.medium.attach(2, (5.0, 0.0))
    arrivals = _collect(b)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    before = arrivals[-1].rx_power_dbm  # warm mean-loss row

    quiet_world.propagation.set_link_shadowing_db(1, 2, 40.0)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    after = arrivals[-1].rx_power_dbm
    assert before - after == pytest.approx(40.0, abs=1e-9)


def test_link_penalty_invalidates_mean_loss_row(quiet_world):
    a = quiet_world.medium.attach(1, (0.0, 0.0))
    b = quiet_world.medium.attach(2, (5.0, 0.0))
    arrivals = _collect(b)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    before = arrivals[-1].rx_power_dbm  # warm mean-loss row

    quiet_world.propagation.set_link_penalty_db(1, 2, 30.0)
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert before - arrivals[-1].rx_power_dbm == pytest.approx(30.0,
                                                               abs=1e-9)

    quiet_world.propagation.set_link_penalty_db(1, 2, 0.0)  # cleared
    quiet_world.env.process(_send_one(quiet_world, a))
    quiet_world.env.run()
    assert arrivals[-1].rx_power_dbm == before


def test_completed_transmissions_release_overlap_links(quiet_world):
    """A long broadcast storm must not chain transmissions in memory.

    Each in-flight transmission records its overlap partners; once it
    completes those links must be dropped, or a busy channel retains
    every transmission ever made via ``overlapping`` chains.
    """
    xcvrs = [
        quiet_world.medium.attach(i, (float(i), 0.0)) for i in range(1, 11)
    ]

    def storm(xcvr):
        for _ in range(30):
            yield quiet_world.medium.transmit(
                xcvr,
                Frame(src=xcvr.node_id, dst=BROADCAST, payload=b"0" * 20),
            )
            yield quiet_world.env.timeout(0.001)

    for xcvr in xcvrs:
        quiet_world.env.process(storm(xcvr))
    quiet_world.env.run()

    gc.collect()
    live = [obj for obj in gc.get_objects()
            if isinstance(obj, _ActiveTransmission)]
    # Of the 300 transmissions made, only the final not-yet-pruned
    # generation may survive, and none may still hold overlap links.
    assert len(live) <= len(xcvrs)
    assert all(not tx.overlapping and not tx.overlap_senders for tx in live)


# -- pending movers (time-varying geometry) --------------------------------
#
# A move reaches exactly the senders whose in-range membership it could
# have changed: everyone within the range bound of the mover's old or
# new position.  Each of them patches its cached index at its next
# transmission instead of rebuilding it; only the mover itself rebuilds.
# Object identity of the cached _CandidateIndex is the strongest
# observable — "is" proves the far cluster's caches were never touched,
# not merely rebuilt to equal contents.

FAR = 500_000.0  # way beyond any conservative range bound


def _two_clusters(m):
    a1 = m.attach(1, (0.0, 0.0))
    a2 = m.attach(2, (5.0, 0.0))
    b1 = m.attach(3, (FAR, 0.0))
    b2 = m.attach(4, (FAR + 5.0, 0.0))
    return a1, a2, b1, b2


def fresh_row(m, src, ids, positions):
    """``src``'s mean-loss row toward the members ``ids`` at
    ``positions``, computed from scratch (no caches, no draws)."""
    prop = m.propagation
    own = positions[ids.index(src)]
    others = [off for off, nid in enumerate(ids) if nid != src]
    dists = np.sqrt(((positions[others] - own) ** 2).sum(axis=-1))
    shadow = np.array([prop._shadowing[link_key(src, ids[off])]
                       + prop.link_penalty_db(src, ids[off])
                       for off in others])
    return prop.deterministic_loss_db(dists) + shadow


def test_unrelated_move_keeps_far_senders_caches(quiet_world):
    m = quiet_world.medium
    a1, a2, b1, _ = _two_clusters(m)
    ch = a1.config.channel
    idx_a = m._cand_index(1, ch)
    idx_b = m._cand_index(3, ch)
    row_b = m._mean_loss_row(3, idx_b)
    rebuilds = m._gauge_idx_rebuilds.value
    patched = m._gauge_idx_patched.value
    rows = m._gauge_rows_rebuilt.value

    a2.position = (6.0, 0.0)  # drifts inside cluster A only

    assert m._cand_index(3, ch) is idx_b          # far sender: untouched
    assert m._mean_loss_row(3, idx_b)[0] is row_b[0]
    patched_a = m._cand_index(1, ch)              # neighborhood: patched
    assert patched_a is not idx_a
    assert patched_a.ids == idx_a.ids == [1, 2]
    assert patched_a.positions.tolist() == [[0.0, 0.0], [6.0, 0.0]]
    assert idx_a.positions.tolist() == [[0.0, 0.0], [5.0, 0.0]]  # intact
    assert m._gauge_idx_rebuilds.value == rebuilds  # no grid query
    assert m._gauge_idx_patched.value == patched + 1
    assert m._gauge_rows_rebuilt.value == rows    # no row recomputed


def test_drift_inside_disk_patches_row_without_rebuilding(world):
    """Same members, one moved: the row recomputes its distance term and
    reuses its cached shadowing — equal to a from-scratch row, with no
    rebuild and no shadowing draw."""
    m = world.medium
    a1, a2, _, _ = _two_clusters(m)
    ch = a1.config.channel
    row = m._mean_loss_row(1, m._cand_index(1, ch))[0]
    rows = m._gauge_rows_rebuilt.value
    stream = world.propagation._shadow_rng.bit_generator.state

    a2.position = (50.0, 0.0)
    idx = m._cand_index(1, ch)
    mean, _ = m._mean_loss_row(1, idx)
    assert mean is not row
    assert np.array_equal(mean, fresh_row(m, 1, idx.ids, idx.positions))
    assert m._gauge_rows_rebuilt.value == rows
    assert world.propagation._shadow_rng.bit_generator.state == stream


def test_crossing_into_a_disk_splices_the_index(quiet_world):
    """A mover entering a sender's disk joins its members in id order;
    the index is spliced (a patch, not a rebuild) and its row rebuilt."""
    m = quiet_world.medium
    a1, _, b1, _ = _two_clusters(m)
    ch = a1.config.channel
    m._mean_loss_row(1, m._cand_index(1, ch))
    rebuilds = m._gauge_idx_rebuilds.value
    rows = m._gauge_rows_rebuilt.value

    b1.position = (10.0, 0.0)  # node 3 walks into cluster A
    idx = m._cand_index(1, ch)
    assert idx.ids == [1, 2, 3]
    assert m._gauge_idx_rebuilds.value == rebuilds
    mean, _ = m._mean_loss_row(1, idx)
    assert np.array_equal(mean, fresh_row(m, 1, idx.ids, idx.positions))
    assert m._gauge_rows_rebuilt.value == rows + 1


def test_mover_sees_its_own_move(quiet_world):
    """The mover is always inside its own new neighborhood, so its own
    candidate index rebuilds even when nobody else is in range."""
    m = quiet_world.medium
    lone = m.attach(1, (0.0, 0.0))
    m.attach(2, (FAR, 0.0))
    ch = lone.config.channel
    idx = m._cand_index(1, ch)
    rebuilds = m._gauge_idx_rebuilds.value

    lone.position = (10.0, 0.0)
    assert m._cand_index(1, ch) is not idx
    assert m._gauge_idx_rebuilds.value == rebuilds + 1


def test_lazy_draw_elsewhere_keeps_far_row(world):
    """Drawing a never-seen link's shadowing changes no value any cached
    row holds, so a far sender's row survives it."""
    m = world.medium
    a1, _, _, _ = _two_clusters(m)
    ch = a1.config.channel
    idx_b = m._cand_index(3, ch)
    row_b = m._mean_loss_row(3, idx_b)[0]
    rows = m._gauge_rows_rebuilt.value

    m._mean_loss_row(1, m._cand_index(1, ch))   # draws link 1 -> 2
    world.propagation.link_shadowing_db(2, 1)  # and a lone lazy draw

    assert m._mean_loss_row(3, idx_b)[0] is row_b
    assert m._gauge_rows_rebuilt.value == rows + 1  # sender 1's only


def test_cold_move_falls_back_to_global_epoch(quiet_world):
    """Without a warm grid there is no cheap neighborhood test: the move
    must bump the global epoch (correct, and free — no cache is warm)."""
    m = quiet_world.medium
    a = m.attach(1, (0.0, 0.0))
    geom = m._geom_epoch
    a.position = (5.0, 0.0)
    assert m._geom_epoch == geom + 1


def test_reposition_counter_is_lazy(quiet_world):
    """``medium.repositions`` must stay out of counter snapshots until a
    node actually moves (golden fixtures snapshot all live counters)."""
    m = quiet_world.medium
    a = m.attach(1, (0.0, 0.0))
    assert "medium.repositions" not in m.monitor.counters
    a.position = (1.0, 0.0)
    a.position = (2.0, 0.0)
    assert m.monitor.counter("medium.repositions") == 2
