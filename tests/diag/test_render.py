"""Traffic-light and recommendation rendering of diagnosis reports."""

import json

import pytest

from repro.diag.findings import FINDING_KINDS, DiagnosisReport, Finding
from repro.diag.render import (
    GREEN,
    RED,
    YELLOW,
    health_view,
    recommendation,
    traffic_light,
    worst_light,
)


def make(kind, **kw):
    defaults = {
        "dead_node": {"node": 4},
        "broken_link": {"link": (2, 3)},
        "asymmetric_link": {"link": (5, 6)},
        "lossy_link": {"link": (1, 2)},
        "hotspot": {"node": 3},
        "interference": {"channel": 17, "node": 2},
    }[kind]
    return Finding(kind=kind, **{**defaults, **kw})


# -- traffic lights -----------------------------------------------------------

@pytest.mark.parametrize("kind, light", [
    ("dead_node", RED),
    ("broken_link", RED),
    ("asymmetric_link", YELLOW),
    ("lossy_link", YELLOW),
    ("hotspot", YELLOW),
    ("interference", YELLOW),
])
def test_kind_to_light(kind, light):
    assert traffic_light(make(kind, confidence=0.95)) == light


def test_low_confidence_red_demotes_to_yellow():
    assert traffic_light(make("broken_link", confidence=0.3)) == YELLOW
    assert traffic_light(make("dead_node", confidence=0.49)) == YELLOW
    assert traffic_light(make("dead_node", confidence=0.5)) == RED


def test_worst_light():
    assert worst_light([]) == GREEN
    assert worst_light([GREEN, YELLOW]) == YELLOW
    assert worst_light([YELLOW, RED, GREEN]) == RED


# -- recommendations ----------------------------------------------------------

@pytest.mark.parametrize("kind", FINDING_KINDS)
def test_every_kind_has_a_recommendation(kind):
    text = recommendation(make(kind))
    assert isinstance(text, str) and len(text) > 20
    # A recommendation is imperative prose, not a raw verdict dump.
    assert "_" not in text


def test_recommendation_names_the_subject():
    assert "node 4" in recommendation(make("dead_node"))
    assert "nodes 2 and 3" in recommendation(make("broken_link"))
    assert "channel 17" in recommendation(make("interference"))


def test_lossy_recommendation_quotes_loss_rate():
    finding = make("lossy_link", evidence={"loss_ratio": 0.4})
    assert "40% probe loss" in recommendation(finding)


# -- the health view ----------------------------------------------------------

def test_healthy_report_is_all_green():
    view = health_view(DiagnosisReport(), nodes=[1, 2], links=[(1, 2)])
    assert view["status"] == GREEN
    assert view["healthy"] is True
    assert view["nodes"] == {"1": {"status": GREEN}, "2": {"status": GREEN}}
    assert view["links"] == {"1->2": {"status": GREEN}}
    assert view["findings"] == [] and view["recommendations"] == []


def test_findings_paint_their_subjects():
    report = DiagnosisReport(findings=sorted([
        make("broken_link", confidence=0.97,
             summary="10/10 probes lost"),
        make("hotspot", confidence=0.8),
    ], key=Finding.sort_key))
    view = health_view(report, nodes=[1, 2, 3], links=[(1, 2), (2, 3)])
    assert view["status"] == RED
    link = view["links"]["2->3"]
    assert link["status"] == RED and link["kind"] == "broken_link"
    assert "recommendation" in link and "relay" in link["recommendation"]
    assert view["nodes"]["3"]["status"] == YELLOW
    assert view["nodes"]["1"] == {"status": GREEN}
    assert view["counts"] == {"broken_link": 1, "hotspot": 1}


def test_unwatched_subjects_still_reported():
    report = DiagnosisReport(findings=[make("dead_node", confidence=0.95)])
    view = health_view(report)  # nothing watched
    assert view["nodes"]["4"]["status"] == RED


def test_interference_lands_in_channels_group():
    report = DiagnosisReport(findings=[make("interference")])
    view = health_view(report)
    assert view["channels"]["17"]["status"] == YELLOW
    assert "channels" not in health_view(DiagnosisReport())


def test_multiple_findings_on_one_subject_keep_worst_light():
    # Severity order puts broken_link before lossy_link on the same link.
    report = DiagnosisReport(findings=sorted([
        make("lossy_link", link=(2, 3), confidence=0.6),
        make("broken_link", link=(2, 3), confidence=0.95),
    ], key=Finding.sort_key))
    view = health_view(report)
    assert view["links"]["2->3"]["status"] == RED
    assert view["links"]["2->3"]["kind"] == "broken_link"


def test_view_is_json_ready_and_carries_times():
    report = DiagnosisReport(findings=[make("lossy_link")], probes_run=5)
    view = health_view(report, sim_time=12.5, assessed_at=10.0)
    round_tripped = json.loads(json.dumps(view))
    assert round_tripped["sim_time"] == 12.5
    assert round_tripped["assessed_at"] == 10.0
    assert round_tripped["probes_run"] == 5
