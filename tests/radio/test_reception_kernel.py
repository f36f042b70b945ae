"""The reception kernel decides exactly as the PRR curve does.

:func:`reception_decisions` settles each reception draw from a table of
bit error rates and evaluates the curve only for a draw the table cannot
place.  These tests hold it to ``draws < packet_reception_ratio(...)``
element by element, on the inputs where a bracket could go wrong: grid
points, SINRs between and below them, and draws at the curve, one ulp
either side of it and at the bracket values themselves.  The medium's
end-of-frame walk visits only the audible receivers; the last tests hold
the traced destination drop it must still place in id order to the
scalar reference medium.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.frame import BROADCAST, Frame
from repro.radio import LogDistancePropagation, RadioMedium
from repro.radio.modulation import (
    PRR_BRACKET_SLACK,
    PRR_CERTAIN_SINR_DB,
    PRR_TABLE_FLOOR_DB,
    PRR_TABLE_STEPS_PER_DB,
    bit_error_rate,
    packet_reception_ratio,
    reception_decisions,
)
from repro.sim import Environment, Monitor, RngRegistry
from repro.workloads.scenarios import QUIET_PROPAGATION
from tests.radio.reference_medium import ReferenceMedium

EXACT = settings(max_examples=400, deadline=None, derandomize=True)
STEP = 1.0 / PRR_TABLE_STEPS_PER_DB
#: The last grid index below the certain region.
TOP = int((PRR_CERTAIN_SINR_DB - PRR_TABLE_FLOOR_DB) * PRR_TABLE_STEPS_PER_DB)
#: The largest draw ``random()`` can return.
LAST_DRAW = math.nextafter(1.0, 0.0)


# -- the certain region ------------------------------------------------------

def test_certain_region_ber_rounds_away():
    assert bit_error_rate(PRR_CERTAIN_SINR_DB) < 2.0 ** -54
    assert 1.0 - bit_error_rate(PRR_CERTAIN_SINR_DB) == 1.0


def test_prr_is_exactly_one_in_the_certain_region():
    grid = PRR_CERTAIN_SINR_DB + np.arange((60.0 - PRR_CERTAIN_SINR_DB)
                                           * PRR_TABLE_STEPS_PER_DB + 1) * STEP
    assert grid[-1] == 60.0
    sinrs = np.append(grid, 1e3)
    for length in range(1, 128):
        assert packet_reception_ratio(PRR_CERTAIN_SINR_DB, length) == 1.0
        assert (packet_reception_ratio(sinrs, length) == 1.0).all(), length


# -- the decision ------------------------------------------------------------

def _bracket(sinr, length):
    """The kernel's bracket around ``sinr``'s PRR, or None outside the
    table, recomputed through the public curve."""
    if sinr >= PRR_CERTAIN_SINR_DB or sinr < PRR_TABLE_FLOOR_DB:
        return None
    j = int((sinr - PRR_TABLE_FLOOR_DB) * PRR_TABLE_STEPS_PER_DB)
    grid = PRR_TABLE_FLOOR_DB + np.array([j, j + 1]) * STEP
    lo, hi = (1.0 - bit_error_rate(grid)).tolist()
    e = 8.0 * length
    return lo ** e, hi ** e


@st.composite
def sinrs(draw):
    kind = draw(st.sampled_from(
        ["grid", "between", "any", "below", "burst", "certain"]))
    if kind == "grid":
        return PRR_TABLE_FLOOR_DB + draw(st.integers(0, TOP + 1)) * STEP
    if kind == "between":
        j = draw(st.integers(0, TOP))
        frac = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        return PRR_TABLE_FLOOR_DB + (j + frac) * STEP
    if kind == "any":
        return draw(st.floats(-20.0, 12.0))
    if kind == "below":
        return draw(st.floats(PRR_TABLE_FLOOR_DB - 30.0, PRR_TABLE_FLOOR_DB,
                              exclude_max=True))
    if kind == "burst":
        return draw(st.floats(-400.0, -40.0))
    return draw(st.floats(PRR_CERTAIN_SINR_DB, 80.0))


def _draw_for(data, sinr, length):
    """A draw aimed at the place a wrong decision would show."""
    prr = packet_reception_ratio(sinr, length)
    targets = [0.0, prr, math.nextafter(prr, -1.0), math.nextafter(prr, 2.0),
               data.draw(st.floats(0.0, 1.0, exclude_max=True))]
    bracket = _bracket(sinr, length)
    if bracket is not None:
        for value in bracket:
            targets += [value - PRR_BRACKET_SLACK, value + PRR_BRACKET_SLACK,
                        math.nextafter(value - PRR_BRACKET_SLACK, -1.0),
                        math.nextafter(value + PRR_BRACKET_SLACK, 2.0),
                        value]
    target = data.draw(st.sampled_from(targets))
    return min(max(target, 0.0), LAST_DRAW)


@EXACT
@given(st.data(), st.lists(sinrs(), min_size=1, max_size=24),
       st.sampled_from([1, 20, 52, 60, 127]) | st.integers(1, 127))
def test_decisions_equal_the_curve(data, sinr_list, length):
    draws = [_draw_for(data, s, length) for s in sinr_list]
    expected = (np.array(draws)
                < packet_reception_ratio(np.array(sinr_list), length)).tolist()
    assert reception_decisions(sinr_list, draws, length) == expected


def test_decisions_at_the_bracket_edges():
    """Every grid point's bracket values ± slack, on a 52-byte beacon."""
    length = 52
    sinrs_, draws = [], []
    for j in range(0, TOP + 1, 7):
        sinr = PRR_TABLE_FLOOR_DB + (j + 0.5) * STEP
        for value in _bracket(sinr, length):
            for draw in (value - PRR_BRACKET_SLACK, value + PRR_BRACKET_SLACK):
                sinrs_.append(sinr)
                draws.append(min(max(draw, 0.0), LAST_DRAW))
    expected = (np.array(draws)
                < packet_reception_ratio(np.array(sinrs_), length)).tolist()
    assert reception_decisions(sinrs_, draws, length) == expected


# -- subsets -----------------------------------------------------------------

@EXACT
@given(st.lists(st.tuples(sinrs(), st.booleans()), min_size=1, max_size=40),
       st.integers(1, 127))
def test_subset_batch_equals_full_batch(pairs, length):
    """The fallback evaluates only the undecided elements; each must get
    exactly the value it has in the whole batch."""
    everything = np.array([s for s, _ in pairs])
    keep = np.array([k for _, k in pairs])
    full = packet_reception_ratio(everything, length)
    subset = packet_reception_ratio(everything[keep], length)
    assert subset.tolist() == full[keep].tolist()
    for i in np.flatnonzero(keep)[:3]:
        assert packet_reception_ratio(float(everything[i]), length) == full[i]


@pytest.mark.parametrize("length", [1, 52, 127])
def test_table_region_is_monotone(length):
    """The bracket assumes the curve rises with SINR; on a grid eight
    times finer than the table's, any dip must sit far inside the slack."""
    fine = PRR_TABLE_FLOOR_DB + np.arange((TOP + 1) * 8) * (STEP / 8)
    prr = packet_reception_ratio(fine, length)
    assert (np.diff(prr) >= -PRR_BRACKET_SLACK / 1e4).all()


# -- the audible walk ---------------------------------------------------------

def _unicast_to_skipped_member(medium_cls, case):
    """Node 3 sends to node 4, a candidate the audible walk skips, past
    receivers 1 and 2 below it in id order and 5 above it.  Returns each
    delivery with the number of trace events before it, and the events."""
    env = Environment()
    env.tracer.enable()
    rng = RngRegistry(3)
    medium = medium_cls(env, rng, Monitor(),
                        LogDistancePropagation(rng, **QUIET_PROPAGATION))
    # Quiet propagation: ~108 m of reach at full power, a 398-m cut-off;
    # at 60 m node 4 is audible, and its own frame is 20 dB under node
    # 3's at the other receivers.
    far = (200.0, 0.0) if case == "out_of_range" else (60.0, 0.0)
    positions = {1: (10.0, 0.0), 2: (0.0, 10.0), 3: (0.0, 0.0), 4: far,
                 5: (-10.0, 0.0)}
    seen = []

    def on_arrival(batch):
        for row in batch.rows:
            seen.append((batch.frame.trace_id, row[0].node_id,
                         len(env.tracer.events)))

    xcvrs = {nid: medium.attach(nid, pos) for nid, pos in positions.items()}
    for xcvr in xcvrs.values():
        xcvr.set_receive_handler(on_arrival)
    if case == "radio_off":
        xcvrs[4].enabled = False
    if case == "half_duplex":
        medium.transmit(xcvrs[4], Frame(src=4, dst=BROADCAST,
                                        payload=bytes(100), trace_id="4:0"))
    medium.transmit(xcvrs[3], Frame(src=3, dst=4, payload=bytes(20),
                                    trace_id="3:0"))
    env.run()
    events = [(e.kind, e.node, e.packet, sorted(e.detail.items()))
              for e in env.tracer.events]
    return seen, events


@pytest.mark.parametrize("case", ["out_of_range", "radio_off", "half_duplex"])
def test_skipped_destination_drop_keeps_its_id_order_place(case):
    """The destination's ``radio.drop`` comes after the deliveries to
    lower ids and before those to higher ids, as in the scalar walk."""
    production = _unicast_to_skipped_member(RadioMedium, case)
    assert production == _unicast_to_skipped_member(ReferenceMedium, case)
    seen, events = production
    drop = events.index(next(e for e in events
                             if e[0] == "radio.drop" and e[1] == 4))
    assert dict(events[drop][3])["reason"] == case
    order = {rid: before for packet, rid, before in seen if packet == "3:0"}
    assert sorted(order) == [1, 2, 5]
    assert order[1] <= order[2] <= drop < order[5]
