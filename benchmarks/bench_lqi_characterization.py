"""Supplementary — LQI as a link-quality predictor (§III-B.3's claim).

The paper leans on LQI throughout: "a correlation of around 110
indicates the highest quality while a value of 50 the lowest", and LQI
"could also be affected [by] the presence of radio interference" while
RSSI tracks raw strength.  This bench characterises the reproduction's
observables the way a tool-validation section would:

* live-sampled LQI falls monotonically with distance and tracks the
  delivered-packet ratio through the gray region;
* under interference, LQI drops while RSSI of the received frames does
  not — the discriminating behaviour the paper describes.
"""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.kernel import Testbed
from repro.mac.frame import BROADCAST, Frame
from repro.workloads.scenarios import QUIET_PROPAGATION

DISTANCES = [20.0, 50.0, 70.0, 85.0, 92.0, 97.0]
FRAMES = 150


def sample_link(distance, seed=4, jam=False, jam_offset=42.5):
    """Blast frames over one link; return (delivery, mean LQI, mean RSSI)
    of the frames that arrived."""
    tb = Testbed(seed=seed, propagation_kwargs=QUIET_PROPAGATION)
    tx = tb.add_node("tx", (0.0, 0.0))
    rx = tb.add_node("rx", (distance, 0.0))
    arrivals = []
    rx.xcvr.set_receive_handler(
        lambda batch: arrivals.extend(map(batch.arrival, batch.rows)))
    jammer = None
    if jam:
        # An interferer near the receiver, far enough from the sender
        # that its frames overlap (hidden terminal).
        jammer = tb.add_node("jam", (distance + jam_offset, 0.0))

    def blast():
        for _ in range(FRAMES):
            yield tb.medium.transmit(
                tx.xcvr, Frame(src=tx.id, dst=BROADCAST, payload=bytes(40))
            )
            yield tb.env.timeout(0.004)

    def jam_loop():
        # Back-to-back frames: near-continuous interference, so every
        # signal frame decodes through it (SIR just above the capture
        # margin) with degraded correlation.
        while True:
            yield tb.medium.transmit(
                jammer.xcvr,
                Frame(src=jammer.id, dst=BROADCAST, payload=bytes(110)),
            )

    tb.env.process(blast())
    if jam:
        from repro.errors import ProcessInterrupt

        def guarded():
            try:
                yield from jam_loop()
            except ProcessInterrupt:
                return

        proc = tb.env.process(guarded())
    tb.env.run(until=tb.env.now + FRAMES * 0.006 + 0.1)
    if jam:
        proc.interrupt()
        # Bounded drain: the kernel's beacon processes never stop, so a
        # horizonless run() would spin forever.
        tb.env.run(until=tb.env.now + 0.05)
    good = [a for a in arrivals
            if a.crc_ok and a.sender == tx.id
            and a.frame.kind == "data"]
    if not good:
        return 0.0, None, None
    return (
        len(good) / FRAMES,
        float(np.mean([a.lqi for a in good])),
        float(np.mean([a.rssi for a in good])),
    )


def test_lqi_tracks_delivery_through_the_gray_region(benchmark, report):
    benchmark.pedantic(sample_link, args=(70.0,), rounds=2, iterations=1)
    rows = []
    series = {}
    for distance in DISTANCES:
        delivery, lqi, rssi = sample_link(distance)
        series[distance] = (delivery, lqi, rssi)
        rows.append([distance, f"{delivery:.2f}",
                     "-" if lqi is None else round(lqi, 1),
                     "-" if rssi is None else round(rssi, 1)])

    # -- shape assertions ----------------------------------------------
    lqis = [series[d][1] for d in DISTANCES if series[d][1] is not None]
    assert all(b <= a + 2.0 for a, b in zip(lqis, lqis[1:])), \
        "LQI must fall (monotone within noise) with distance"
    # Clean short link: LQI saturated near the paper's 110 ceiling.
    assert series[20.0][1] > 105
    assert series[20.0][0] > 0.99
    # Gray region: intermediate LQI *and* intermediate delivery.
    gray = series[92.0]
    assert 0.05 < gray[0] < 0.95
    assert gray[1] < 95

    report("s1_lqi_vs_distance", render_table(
        ["distance_m", "delivery", "mean_lqi", "mean_rssi"], rows,
        title=("S1 — LQI/RSSI/delivery vs distance "
               f"({FRAMES} frames per link)"),
    ))


def test_interference_hits_lqi_not_rssi(benchmark, report):
    """LQI 'could also be affected [by] the presence of radio
    interference. ... RSSI is different from LQI in that it is more
    related to the signal strength.'"""
    def both():
        # 30 m link (strong signal); jammer 55 m from the receiver: its
        # frames land ~6 dB below the signal — above the capture margin,
        # so frames still decode, with visibly degraded correlation.
        return sample_link(30.0), sample_link(30.0, jam=True)

    (clean, jammed) = benchmark.pedantic(both, rounds=3, iterations=1)
    clean_delivery, clean_lqi, clean_rssi = clean
    jam_delivery, jam_lqi, jam_rssi = jammed
    assert jam_delivery <= clean_delivery
    # LQI of the frames that still arrive is visibly degraded ...
    assert jam_lqi < clean_lqi - 3.0
    # ... while their RSSI stays put (same signal strength).
    assert abs(jam_rssi - clean_rssi) < 2.0

    report("s1_lqi_interference", render_table(
        ["condition", "delivery", "mean_lqi", "mean_rssi"],
        [["clean", f"{clean_delivery:.2f}", round(clean_lqi, 1),
          round(clean_rssi, 1)],
         ["interfered", f"{jam_delivery:.2f}", round(jam_lqi, 1),
          round(jam_rssi, 1)]],
        title="S1 — interference degrades LQI but not RSSI (30 m link)",
    ))
