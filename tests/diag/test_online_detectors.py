"""Table-driven synthetic-series tests for the passive detectors.

Every case feeds a hand-built series (step, ramp, burst-and-recovery,
flapping) or a synthetic beacon sequence into the detectors and asserts
the expected firing behaviour and finding vocabulary — no simulator, no
randomness, each scenario readable at a glance.  These tables pin the
policy constants of ``repro.diag.online``: retuning one is expected to
show up here as a deliberate diff.
"""

import pytest

from repro.diag import (
    CusumDetector,
    EwmaDetector,
    OnlineMonitor,
    WindowStats,
    merge_findings,
)
from repro.diag.findings import Finding
from repro.kernel.neighbors import DEFAULT_BEACON_INTERVAL

BASE = 100.0  # healthy LQI-like level for EWMA series


def series(*segments):
    """Build a flat series from (value, repeats) segments."""
    out = []
    for value, repeats in segments:
        out.extend([float(value)] * repeats)
    return out


# -- EwmaDetector: (name, series, expect_fired_at_end) -----------------------
# Detector config mirrors the LQI detector: direction="down",
# sigma_floor=2.0, k_on=4, k_off=2, hysteresis=3, min_samples=8.
EWMA_CASES = [
    # A clean level: never fires.
    ("stationary", series((BASE, 40)), False),
    # A hard step down (collapse): fires and stays fired.
    ("step_down", series((BASE, 20), (BASE - 50, 10)), True),
    # A step *up* is the wrong direction for a "down" detector.
    ("step_up", series((BASE, 20), (BASE + 50, 10)), False),
    # A burst shorter than the hysteresis never fires.
    ("blip", series((BASE, 20), (BASE - 50, 2), (BASE, 10)), False),
    # Burst then recovery: fires during, recovers after (k_off + hyst).
    ("burst_recovery",
     series((BASE, 20), (BASE - 50, 10), (BASE, 10)), False),
    # A gentle ramp is absorbed by the adaptive baseline.
    ("gentle_ramp",
     series((BASE, 20)) + [BASE - 0.2 * i for i in range(40)], False),
    # A cliff-steep ramp outruns the baseline and fires.
    ("steep_ramp",
     series((BASE, 20)) + [BASE - 25.0 * i for i in range(1, 9)], True),
    # Flapping between two levels never yields `hysteresis` consecutive
    # outliers once the deviation adapts: no finding churn.
    ("flapping", series((BASE, 20)) + [BASE - (50 if i % 2 else 0)
                                       for i in range(30)], False),
]


@pytest.mark.parametrize("name,values,expect", EWMA_CASES,
                         ids=[c[0] for c in EWMA_CASES])
def test_ewma_series_table(name, values, expect):
    det = EwmaDetector(alpha=0.2, k_on=4.0, k_off=2.0, hysteresis=3,
                       min_samples=8, sigma_floor=2.0, direction="down")
    for v in values:
        det.update(v)
    assert det.fired is expect
    if expect:
        assert 0.5 <= det.confidence <= 1.0
        assert det.shift >= det.k_on
    else:
        assert det.confidence == 0.0
        assert det.shift == 0.0


def test_ewma_fires_mid_burst_and_recovers_after():
    """The burst_recovery case, with the timing pinned: fired exactly
    from the `hysteresis`-th outlier until `hysteresis` in-band samples
    after the level returns."""
    det = EwmaDetector(alpha=0.2, k_on=4.0, k_off=2.0, hysteresis=3,
                       min_samples=8, sigma_floor=2.0, direction="down")
    for v in series((BASE, 20)):
        det.update(v)
    assert not det.update(BASE - 50)
    assert not det.update(BASE - 50)
    assert det.update(BASE - 50)          # 3rd consecutive outlier: on
    assert det.update(BASE - 50)
    assert det.update(BASE)
    assert det.update(BASE)
    assert not det.update(BASE)           # 3rd in-band sample: off


# -- CusumDetector: (name, series, expect_fired_at_end) ----------------------
# Config mirrors the loss detector: slack=0.15, threshold=2.0, cap=4.0.
CUSUM_CASES = [
    ("no_loss", series((0.0, 40)), False),
    # Ambient loss below the slack never accumulates.
    ("ambient_loss", series((0.0, 9), (1.0, 1)) * 8, False),
    # A hard outage fires within ceil(threshold / (1 - slack)) samples.
    ("outage", series((0.0, 10), (1.0, 3)), True),
    # Outage then recovery: the cap bounds the drain-out time.
    ("outage_recovery", series((0.0, 10), (1.0, 20), (0.0, 14)), False),
    # Sub-threshold burst, fully drained before the next one: no fire.
    ("spaced_bursts",
     series((0.0, 10), (1.0, 2), (0.0, 12)) * 3, False),
]


@pytest.mark.parametrize("name,values,expect", CUSUM_CASES,
                         ids=[c[0] for c in CUSUM_CASES])
def test_cusum_series_table(name, values, expect):
    det = CusumDetector(target=0.0, slack=0.15, threshold=2.0, cap=4.0)
    for v in values:
        det.update(v)
    assert det.fired is expect
    assert 0.0 <= det.statistic <= det.cap


def test_cusum_recovery_is_bounded_by_cap():
    """However long the outage, (cap - threshold) / slack clean samples
    de-assert the detector — the regression the cap exists for."""
    det = CusumDetector(target=0.0, slack=0.15, threshold=2.0, cap=4.0)
    for _ in range(500):                  # arbitrarily long outage
        det.update(1.0)
    assert det.fired and det.statistic == det.cap
    need = int((det.cap - det.threshold) / det.slack) + 1
    for _ in range(need):
        det.update(0.0)
    assert not det.fired


def test_windowstats_matches_rescan_and_evicts():
    ws = WindowStats(8)
    import math
    data = [float((i * 37) % 11) - 3.0 for i in range(50)]
    for i, v in enumerate(data):
        ws.push(v)
        live = data[max(0, i + 1 - 8):i + 1]
        assert ws.values() == live
        assert ws.mean == pytest.approx(sum(live) / len(live))
        mu = sum(live) / len(live)
        var = sum((x - mu) ** 2 for x in live) / len(live)
        assert ws.variance == pytest.approx(var, abs=1e-9)
        assert ws.std == pytest.approx(math.sqrt(var), abs=1e-9)
    assert ws.full and len(ws) == 8


# -- Synthetic beacon sequences through a detached OnlineMonitor -------------

INTERVAL = DEFAULT_BEACON_INTERVAL


def feed_link(mon, origin, receiver, *, n, t0=0.0, seq0=0,
              interval=INTERVAL, lqi=100.0, rssi=-60.0, channel=17,
              lost=()):
    """Feed ``n`` beacon slots on one directed link; slots whose index
    is in ``lost`` are skipped (a seq gap, exactly as the air would
    show it).  Returns the time after the last slot."""
    t = t0
    for i in range(n):
        t = t0 + (i + 1) * interval
        if i in lost:
            continue
        mon.observe_beacon(receiver, origin, seq=(seq0 + i + 1) & 0xFFFF,
                           lqi=lqi, rssi=rssi, channel=channel, now=t)
    return t


def healthy_mesh(mon, *, n=20, links=((1, 2), (2, 1), (2, 3), (3, 2))):
    """A few healthy directed links, enough beacons to clear warm-up."""
    t = 0.0
    for a, b in links:
        t = feed_link(mon, a, b, n=n)
    return t


def test_healthy_links_yield_no_findings():
    mon = OnlineMonitor()
    t = healthy_mesh(mon)
    assert mon.poll(now=t) == []


def test_silence_on_all_links_names_a_dead_node():
    mon = OnlineMonitor()
    t = healthy_mesh(mon)
    # Node 2 keeps hearing 1 and 3, but nobody hears 2 any more.
    feed_link(mon, 1, 2, n=10, t0=t, seq0=20)
    t2 = feed_link(mon, 3, 2, n=10, t0=t, seq0=20)
    findings = mon.poll(now=t2)
    assert [f.kind for f in findings] == ["dead_node"]
    assert findings[0].node == 2
    assert 0.5 <= findings[0].confidence <= 0.95


def test_partial_silence_is_a_broken_link_not_a_death():
    mon = OnlineMonitor()
    t = healthy_mesh(mon)
    # Node 3 still hears 2; only the 2->1 direction went quiet.
    feed_link(mon, 2, 3, n=10, t0=t, seq0=20)
    feed_link(mon, 1, 2, n=10, t0=t, seq0=20)
    t2 = feed_link(mon, 3, 2, n=10, t0=t, seq0=20)
    findings = mon.poll(now=t2)
    assert [(f.kind, f.link) for f in findings] == [("broken_link", (2, 1))]


def test_seq_gaps_name_a_lossy_link():
    mon = OnlineMonitor()
    t = healthy_mesh(mon)
    # Half the beacons on 2->3 vanish; the reverse stays clean.
    lost = tuple(range(0, 20, 2))
    feed_link(mon, 2, 3, n=20, t0=t, seq0=20, lost=lost)
    feed_link(mon, 3, 2, n=20, t0=t, seq0=20)
    feed_link(mon, 1, 2, n=20, t0=t, seq0=20)
    t2 = feed_link(mon, 2, 1, n=20, t0=t, seq0=20)
    findings = mon.poll(now=t2)
    assert [(f.kind, f.link) for f in findings] == [("lossy_link", (2, 3))]
    # 10 losses in the 32-slot ring (the rest pre-date the fault).
    assert findings[0].evidence["recent_loss"] == pytest.approx(10 / 32)


def test_lqi_collapse_names_a_lossy_link():
    mon = OnlineMonitor()
    t = healthy_mesh(mon)
    feed_link(mon, 2, 3, n=15, t0=t, seq0=20, lqi=30.0)
    feed_link(mon, 3, 2, n=15, t0=t, seq0=20)
    feed_link(mon, 1, 2, n=15, t0=t, seq0=20)
    t2 = feed_link(mon, 2, 1, n=15, t0=t, seq0=20)
    findings = mon.poll(now=t2)
    assert [(f.kind, f.link) for f in findings] == [("lossy_link", (2, 3))]
    assert findings[0].evidence["metric"] == "lqi"


def test_both_directions_degraded_collapse_to_one_finding():
    mon = OnlineMonitor()
    t = healthy_mesh(mon)
    lost = tuple(range(0, 20, 2))
    feed_link(mon, 2, 3, n=20, t0=t, seq0=20, lost=lost)
    feed_link(mon, 3, 2, n=20, t0=t, seq0=20, lost=lost)
    feed_link(mon, 1, 2, n=20, t0=t, seq0=20)
    t2 = feed_link(mon, 2, 1, n=20, t0=t, seq0=20)
    findings = mon.poll(now=t2)
    assert [(f.kind, f.link) for f in findings] == [("lossy_link", (2, 3))]


def test_sequence_restart_is_a_reboot_not_phantom_loss():
    mon = OnlineMonitor()
    t = healthy_mesh(mon)
    # Node 2 reboots: its seq restarts near 0.  A naive gap computation
    # would charge ~65k lost beacons; the monitor must re-anchor.
    feed_link(mon, 2, 3, n=15, t0=t, seq0=0)
    feed_link(mon, 2, 1, n=15, t0=t, seq0=0)
    feed_link(mon, 3, 2, n=15, t0=t, seq0=20)
    t2 = feed_link(mon, 1, 2, n=15, t0=t, seq0=20)
    assert mon.poll(now=t2) == []


def test_simultaneous_multi_link_loss_names_interference():
    mon = OnlineMonitor()
    links = ((1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1))
    t = healthy_mesh(mon, links=links)
    # Every link on channel 17 starts dropping half its beacons at once
    # - spanning 3 origins and 3 receivers, no common endpoint.
    lost = tuple(range(0, 20, 2))
    for a, b in links:
        t2 = feed_link(mon, a, b, n=20, t0=t, seq0=20, lost=lost)
    findings = mon.poll(now=t2)
    assert [f.kind for f in findings] == ["interference"]
    assert findings[0].channel == 17
    assert findings[0].evidence["links_degraded"] == len(links)


def test_clock_drift_names_a_hotspot():
    mon = OnlineMonitor()
    t = healthy_mesh(mon)
    # Node 2's oscillator runs 8% fast: everything it sends arrives
    # on a proportionally shorter cadence, at both receivers.
    drifted = INTERVAL / 1.08
    feed_link(mon, 2, 3, n=40, t0=t, seq0=20, interval=drifted)
    feed_link(mon, 2, 1, n=40, t0=t, seq0=20, interval=drifted)
    feed_link(mon, 3, 2, n=40, t0=t, seq0=20)
    t2 = feed_link(mon, 1, 2, n=40, t0=t, seq0=20)
    findings = mon.poll(now=t2)
    assert [(f.kind, f.node) for f in findings] == [("hotspot", 2)]
    assert findings[0].evidence["interval_shift"] == pytest.approx(
        1 / 1.08 - 1, abs=0.01)
    assert findings[0].evidence["links_agreeing"] == 2


def test_loss_recovery_clears_the_finding():
    mon = OnlineMonitor()
    t = healthy_mesh(mon)
    lost = tuple(range(0, 20, 2))
    feed_link(mon, 2, 3, n=20, t0=t, seq0=20, lost=lost)
    for a, b in ((2, 1), (1, 2), (3, 2)):      # bystanders stay alive
        t2 = feed_link(mon, a, b, n=20, t0=t, seq0=20)
    assert any(f.kind == "lossy_link" for f in mon.poll(now=t2))
    # Clean beacons both drain the CUSUM and dilute the loss window.
    for a, b in ((2, 3), (2, 1), (1, 2), (3, 2)):
        t3 = feed_link(mon, a, b, n=40, t0=t2, seq0=40)
    assert mon.poll(now=t3) == []


def test_poll_detached_requires_explicit_now():
    mon = OnlineMonitor()
    with pytest.raises(ValueError):
        mon.poll()
    with pytest.raises(ValueError):
        OnlineMonitor().attach()


def test_dead_node_waits_out_the_silence_factor():
    # Node 3 goes quiet at t: three missed intervals are not yet
    # silence, five and a half are past the factor of 4 and name it.
    mon = OnlineMonitor()
    t = healthy_mesh(mon)
    for a, b in ((1, 2), (2, 1), (2, 3)):  # bystanders stay alive
        feed_link(mon, a, b, n=12, t0=t, seq0=20)
    assert mon.poll(now=t + 3.0 * INTERVAL) == []
    kinds = [f.kind for f in mon.poll(now=t + 5.5 * INTERVAL)]
    assert kinds == ["dead_node"]


# -- merge_findings -----------------------------------------------------------

def _f(kind, **kw):
    return Finding(kind=kind, confidence=0.8, summary="t", **kw)


def test_merge_dedups_by_subject_and_folds_link_kinds():
    active = [_f("lossy_link", link=(2, 3))]
    passive = [_f("broken_link", link=(3, 2)),   # same pair, other dir
               _f("dead_node", node=5)]
    merged = merge_findings(active, passive)
    assert [(f.kind, f.link, f.node) for f in merged] == [
        ("dead_node", None, 5), ("lossy_link", (2, 3), None)]


def test_merge_primary_wins_on_conflicts():
    active = [_f("dead_node", node=4)]
    passive = [_f("dead_node", node=4)]
    merged = merge_findings(active, passive)
    assert len(merged) == 1 and merged[0] is active[0]


def test_merge_interference_explains_dead_nodes():
    # While a channel is jammed, CSMA silences every transmitter: an
    # active probe's "dead node" claim is unprovable and is dropped.
    active = [_f("dead_node", node=n) for n in range(1, 8)]
    passive = [_f("interference", node=1, channel=17)]
    merged = merge_findings(active, passive)
    assert [f.kind for f in merged] == ["interference"]
