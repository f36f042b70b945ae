"""Property-based guarantees for the passive online detectors.

What hypothesis buys over the tables in ``test_online_detectors.py``:
the invariants hold for *arbitrary* inputs — hostile floats (NaN/inf),
any series length, any interleaving — not just the curated scenarios.

The contracts under test:

* confidences are always finite and in [0, 1], whatever is fed in;
* memory is O(1) per detector / O(links) per monitor for any series
  length (ring buffers never grow, sums never go non-finite);
* a stationary series whose noise stays inside the threshold never
  fires (no false alarms by construction);
* a level step beyond the threshold fires within a bounded number of
  samples, and the detection delay is monotone in the signal strength.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diag import (
    CusumDetector,
    EwmaDetector,
    OnlineMonitor,
    WindowStats,
)

K_ON, K_OFF, HYST, MIN_SAMPLES, FLOOR = 4.0, 2.0, 3, 8, 2.0


def make_ewma(direction="down"):
    return EwmaDetector(alpha=0.2, k_on=K_ON, k_off=K_OFF,
                        hysteresis=HYST, min_samples=MIN_SAMPLES,
                        sigma_floor=FLOOR, direction=direction)


any_floats = st.lists(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    min_size=0, max_size=200)


@given(any_floats, st.sampled_from(["both", "up", "down"]))
@settings(max_examples=200, deadline=None)
def test_ewma_confidence_finite_on_hostile_input(values, direction):
    det = make_ewma(direction)
    for v in values:
        det.update(v)
        assert math.isfinite(det.confidence)
        assert 0.0 <= det.confidence <= 1.0
        assert math.isfinite(det.mean) and math.isfinite(det.dev)
        assert math.isfinite(det.shift)


@given(any_floats)
@settings(max_examples=200, deadline=None)
def test_cusum_confidence_finite_on_hostile_input(values):
    det = CusumDetector(target=0.0, slack=0.15, threshold=2.0)
    for v in values:
        det.update(v)
        assert math.isfinite(det.confidence)
        assert 0.0 <= det.confidence <= 1.0
        assert 0.0 <= det.statistic <= det.cap


@given(st.integers(min_value=1, max_value=32),
       st.lists(st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False),
                min_size=0, max_size=3000))
@settings(max_examples=100, deadline=None)
def test_windowstats_memory_bounded_and_consistent(capacity, values):
    ws = WindowStats(capacity)
    for v in values:
        ws.push(v)
        assert len(ws) <= capacity
        assert len(ws._buf) == capacity            # ring never grows
        assert math.isfinite(ws.mean)
        assert math.isfinite(ws.variance) and ws.variance >= 0.0
    tail = [float(v) for v in values[-capacity:]]
    assert ws.values() == tail
    if tail:
        assert ws.mean == sum(tail) / len(tail) or math.isclose(
            ws.mean, sum(tail) / len(tail), rel_tol=1e-6, abs_tol=1e-6)


@given(st.floats(min_value=-1e6, max_value=1e6),
       st.lists(st.floats(min_value=-1.0, max_value=1.0),
                min_size=1, max_size=400),
       st.sampled_from(["both", "up", "down"]))
@settings(max_examples=200, deadline=None)
def test_ewma_silent_on_noise_inside_threshold(base, noise, direction):
    """Noise of amplitude < k_on * sigma_floor / 2 around a fixed level
    can never fire: |sample - EWMA mean| <= 2 * amplitude < k_on *
    sigma_floor <= k_on * sigma, whatever the adaptive scale does."""
    amplitude = 0.49 * K_ON * FLOOR / 2.0
    det = make_ewma(direction)
    for d in noise:
        det.update(base + d * amplitude)
        assert not det.fired
        assert det.confidence == 0.0


@given(st.floats(min_value=-1e6, max_value=1e6),
       st.floats(min_value=1.01, max_value=100.0),
       st.floats(min_value=1.0, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_ewma_step_fires_within_hysteresis_and_delay_is_monotone(
        base, step_sigma, ratio):
    """On a noise-free baseline, a downward step of ``step_sigma`` >= 1
    k_on-multiples fires in exactly ``hysteresis`` samples — and a
    ``ratio``-times-larger step never fires later."""
    delays = []
    for mult in (step_sigma, step_sigma * ratio):
        det = make_ewma("down")
        for _ in range(MIN_SAMPLES + 5):
            det.update(base)
        dropped = base - mult * K_ON * FLOOR
        delay = None
        for i in range(1, HYST + 2):
            if det.update(dropped):
                delay = i
                break
        assert delay is not None and delay <= HYST
        delays.append(delay)
    assert delays[1] <= delays[0]


@given(st.floats(min_value=0.2, max_value=0.99),
       st.floats(min_value=1.01, max_value=4.0))
@settings(max_examples=200, deadline=None)
def test_cusum_delay_monotone_in_loss_rate(rate, boost):
    """Time-to-fire on a constant loss level shrinks (never grows) as
    the level rises, and matches ceil(threshold / (rate - slack))."""
    slack, threshold = 0.15, 2.0
    delays = []
    for level in (rate, min(1.0, rate * boost)):
        det = CusumDetector(target=0.0, slack=slack, threshold=threshold)
        delay = None
        for i in range(1, 200):
            if det.update(level):
                delay = i
                break
        assert delay == math.ceil(threshold / (level - slack))
        delays.append(delay)
    assert delays[1] <= delays[0]


beacon_events = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),       # origin
        st.integers(min_value=1, max_value=4),       # receiver
        st.integers(min_value=0, max_value=0xFFFF),  # seq
        st.floats(min_value=0.0, max_value=255.0),   # lqi
        st.floats(min_value=-120.0, max_value=0.0),  # rssi
        st.floats(min_value=0.0, max_value=1e5),     # time
    ),
    min_size=0, max_size=300)


@given(beacon_events)
@settings(max_examples=100, deadline=None)
def test_monitor_invariants_under_arbitrary_beacon_streams(events):
    """Any beacon stream — out-of-order seqs, wild timestamps — yields
    canonical findings with finite [0,1] confidences, and the monitor's
    memory stays bounded by the number of distinct directed links."""
    from repro.diag.findings import FINDING_KINDS

    mon = OnlineMonitor()
    distinct = set()
    for origin, receiver, seq, lqi, rssi, time in events:
        mon.observe_beacon(receiver, origin, seq=seq, lqi=lqi,
                           rssi=rssi, channel=17, now=time)
        distinct.add((origin, receiver))
        assert mon.links_tracked == len(distinct)
    last = max((e[5] for e in events), default=0.0)
    for finding in mon.poll(now=last + 1.0):
        assert finding.kind in FINDING_KINDS
        assert math.isfinite(finding.confidence)
        assert 0.0 <= finding.confidence <= 1.0
        assert finding.to_json()  # canonical JSON never raises
