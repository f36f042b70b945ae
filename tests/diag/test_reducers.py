"""Pure reducers: synthetic observations in, the expected verdict out.

One test per finding kind, driven entirely by hand-built observations —
no simulator, no radio, no RNG.  This is the contract the engine's
reduction phase is held to.
"""

from repro.core.results import LinkObservation, TracerouteHop, TracerouteResult
from repro.diag import (
    ChannelReading,
    LinkReport,
    reduce_dead_node,
    reduce_hotspot_findings,
    reduce_interference_findings,
    reduce_link_finding,
)


def _link_report(sent=10, received=10, lqi=(100.0, 100.0),
                 rssi=(-60.0, -60.0)):
    return LinkReport(src=2, dst=3, sent=sent, received=received,
                      mean_rtt_ms=20.0, lqi_forward=lqi[0],
                      lqi_backward=lqi[1], rssi_forward=rssi[0],
                      rssi_backward=rssi[1])


# -- broken / lossy / asymmetric / healthy links ------------------------------

def test_broken_link_total_loss():
    finding = reduce_link_finding(_link_report(sent=10, received=0))
    assert finding.kind == "broken_link"
    assert finding.link == (2, 3)
    assert finding.confidence == 1.0
    assert finding.evidence["received"] == 0


def test_no_data_is_not_a_broken_link():
    """The sent == 0 edge: absence of evidence must yield no finding."""
    report = LinkReport.no_reply(2, 3, sent=0)
    assert not report.has_data
    assert report.loss_ratio == 1.0  # back-compat sentinel, not data
    assert reduce_link_finding(report) is None


def test_failed_command_with_probes_sent_is_data():
    """rounds were budgeted but nothing returned: that IS total loss."""
    report = LinkReport.no_reply(2, 3, sent=6)
    assert report.has_data
    assert reduce_link_finding(report).kind == "broken_link"


def test_asymmetric_link_by_lqi_delta():
    finding = reduce_link_finding(_link_report(lqi=(100.0, 80.0)))
    assert finding.kind == "asymmetric_link"
    assert finding.evidence["lqi_delta"] == 20.0
    # ratio = 20/12 ≈ 1.67 → confidence 0.5 * ratio ≈ 0.83
    assert 0.8 < finding.confidence < 0.9


def test_asymmetric_link_by_rssi_delta():
    finding = reduce_link_finding(_link_report(rssi=(-50.0, -62.0)))
    assert finding.kind == "asymmetric_link"
    assert finding.evidence["rssi_delta"] == 12.0


def test_lossy_link_partial_loss():
    finding = reduce_link_finding(_link_report(sent=10, received=7))
    assert finding.kind == "lossy_link"
    assert abs(finding.confidence - (0.3 / 0.9)) < 1e-9


def test_healthy_link_yields_no_finding():
    assert reduce_link_finding(_link_report()) is None


def test_lossy_threshold_is_inclusive():
    # 1 of 4 rounds lost is exactly the 25% lossy threshold; 24% is not.
    finding = reduce_link_finding(_link_report(sent=4, received=3))
    assert finding.kind == "lossy_link"
    assert reduce_link_finding(_link_report(sent=100, received=76)) is None


# -- dead nodes ---------------------------------------------------------------

def test_dead_node_unreachable_is_near_certain():
    finding = reduce_dead_node(6, error="no ack")
    assert finding.kind == "dead_node"
    assert finding.node == 6
    assert finding.confidence == 0.95
    assert "no acknowledgment" in finding.summary
    assert finding.evidence == {"failure": "unreachable", "error": "no ack"}


# -- hotspots -----------------------------------------------------------------

def _trace(hop_specs):
    """hop_specs: [(node, rtt_ms, queue), ...] → a TracerouteResult."""
    hops = [
        TracerouteHop(
            hop_index=i + 1, probed_node_id=node,
            probed_node_name=f"192.168.0.{node}", rtt_ms=rtt,
            link=LinkObservation(100, 100, -60, -60, queue, 0),
            arrival_ms=float(i * 100),
        )
        for i, (node, rtt, queue) in enumerate(hop_specs)
    ]
    return TracerouteResult(
        target_name="192.168.0.9", target_id=9, requested_rounds=1,
        probe_length=32, protocol_name="geographic", routing_port=10,
        hops=hops, sent=1,
    )


def test_hotspot_by_rtt_score():
    traces = [_trace([(2, 10.0, 0), (3, 40.0, 0), (4, 10.0, 0)])]
    findings = reduce_hotspot_findings(traces, baseline_rtt_ms=10.0)
    assert [f.node for f in findings] == [3]
    assert findings[0].kind == "hotspot"
    assert findings[0].evidence["score"] == 4.0


def test_hotspot_by_queue_depth():
    traces = [_trace([(2, 10.0, 0), (3, 10.0, 3)])]
    findings = reduce_hotspot_findings(traces, baseline_rtt_ms=10.0)
    assert [f.node for f in findings] == [3]
    assert findings[0].confidence >= 0.7
    assert "queue peaked at 3" in findings[0].summary


def test_hotspot_median_baseline_when_none_given():
    traces = [_trace([(2, 10.0, 0), (3, 30.0, 0), (4, 10.0, 0)])]
    findings = reduce_hotspot_findings(traces)
    assert [f.node for f in findings] == [3]  # 30 / median(10,30,10) = 3x


def test_no_traces_no_hotspots():
    assert reduce_hotspot_findings([]) == []


# -- interference -------------------------------------------------------------

def _readings(per_channel):
    return [ChannelReading(node=2, channel=ch, reading=r)
            for ch, r in per_channel]


def test_interference_names_channel_above_floor():
    readings = _readings([(11, -90), (12, -91), (13, -89), (20, -60)])
    findings = reduce_interference_findings(readings)
    assert len(findings) == 1
    assert findings[0].kind == "interference"
    assert findings[0].channel == 20
    assert findings[0].node == 2  # the observer
    assert findings[0].evidence["excess"] >= 12.0


def test_quiet_band_yields_no_interference():
    readings = _readings([(11, -90), (12, -88), (13, -91)])
    assert reduce_interference_findings(readings) == []


def test_interference_margin_is_inclusive():
    # The floor is the median, -90: 10 above it is ambient, 12 is not.
    readings = _readings([(11, -90), (12, -91), (13, -80)])
    assert reduce_interference_findings(readings) == []
    readings = _readings([(11, -90), (12, -91), (13, -78)])
    findings = reduce_interference_findings(readings)
    assert [f.channel for f in findings] == [13]
