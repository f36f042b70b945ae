"""The Finding schema: validation, canonical JSON, report rendering."""

import json

import pytest

from repro.diag import FINDING_KINDS, DiagnosisReport, Finding, NewFindings


def test_kind_vocabulary_is_closed():
    with pytest.raises(ValueError, match="unknown finding kind"):
        Finding(kind="flaky_link")


def test_severity_order_worst_first():
    assert FINDING_KINDS[0] == "dead_node"
    assert FINDING_KINDS.index("broken_link") < FINDING_KINDS.index("hotspot")


def test_subject_names_the_right_thing():
    assert Finding(kind="broken_link", link=(2, 3)).subject == "link 2->3"
    assert Finding(kind="dead_node", node=6).subject == "node 6"
    assert Finding(kind="interference", channel=20).subject == "channel 20"
    assert Finding(kind="interference", channel=20, node=4).subject \
        == "channel 20 at node 4"


def test_link_coerced_to_tuple():
    finding = Finding(kind="lossy_link", link=[4, 5])
    assert finding.link == (4, 5)


def test_to_dict_omits_unset_subjects():
    data = Finding(kind="dead_node", node=6, confidence=0.95).to_dict()
    assert data == {"kind": "dead_node", "confidence": 0.95, "node": 6}
    assert "link" not in data and "channel" not in data


def test_to_json_is_canonical():
    finding = Finding(kind="broken_link", link=(2, 3), confidence=1.0,
                      summary="0/6 probes returned",
                      evidence={"sent": 6, "received": 0,
                                "loss_ratio": 1.0000000001})
    text = finding.to_json()
    # Sorted keys, no whitespace, floats rounded: byte-stable output.
    assert text == ('{"confidence":1.0,"evidence":{"loss_ratio":1.0,'
                    '"received":0,"sent":6},"kind":"broken_link",'
                    '"link":[2,3],"summary":"0/6 probes returned"}')
    assert json.loads(text) == finding.to_dict()


def test_evidence_floats_round_only_at_serialization():
    finding = Finding(kind="hotspot", node=3,
                      evidence={"score": 1.23456789,
                                "nested": {"rtt": [1.00049, 2.0]}})
    # The raw evidence keeps full precision (wrappers rebuild from it) …
    assert finding.evidence["score"] == 1.23456789
    # … and the serialized form rounds recursively to 3 decimals.
    data = finding.to_dict()["evidence"]
    assert data["score"] == 1.235
    assert data["nested"]["rtt"] == [1.0, 2.0]


def test_from_dict_round_trip():
    original = Finding(kind="asymmetric_link", link=(1, 2), confidence=0.75,
                       summary="forward/backward differs",
                       evidence={"lqi_delta": 20.0})
    assert Finding.from_dict(original.to_dict()) == original


def test_sort_key_orders_by_severity_then_subject():
    findings = [
        Finding(kind="hotspot", node=3),
        Finding(kind="broken_link", link=(4, 5)),
        Finding(kind="broken_link", link=(2, 3)),
        Finding(kind="dead_node", node=6),
    ]
    ordered = sorted(findings, key=Finding.sort_key)
    assert [f.kind for f in ordered] == [
        "dead_node", "broken_link", "broken_link", "hotspot"]
    assert ordered[1].link == (2, 3)


def test_render_one_line_verdict():
    finding = Finding(kind="broken_link", link=(2, 3), confidence=0.97,
                      summary="all probes lost")
    assert finding.render() == "[broken_link] link 2->3 (0.97): all probes lost"


# -- DiagnosisReport ----------------------------------------------------------

def _report():
    return DiagnosisReport(
        findings=[Finding(kind="dead_node", node=6, confidence=0.95,
                          evidence={"failure": "unreachable"}),
                  Finding(kind="broken_link", link=(2, 3),
                          summary="0/6 probes returned")],
        started_at=25.0, finished_at=67.5, probes_run=7, probes_failed=1,
        path_stories=["Path 1 -> 8: DID NOT reach the target over 1 hop(s)."],
    )



def test_new_findings_names_a_standing_finding_once():
    """Fresh evidence does not make a standing finding new; a finding
    that clears and comes back is new again."""
    new = NewFindings()

    def silent(seconds):
        return Finding(kind="broken_link", link=(2, 3), confidence=0.6,
                       evidence={"silent_s": seconds})

    dead = Finding(kind="dead_node", node=5)
    assert new.sift([silent(9.0)]) == [silent(9.0)]
    assert new.sift([silent(19.0), dead]) == [dead]
    assert new.sift([silent(29.0)]) == []
    assert new.sift([]) == []
    assert new.sift([silent(49.0), dead]) == [silent(49.0), dead]


def test_report_of_kind_and_len():
    report = _report()
    assert len(report) == 2
    assert [f.node for f in report.of_kind("dead_node")] == [6]
    assert not report.of_kind("hotspot")
    with pytest.raises(ValueError, match="unknown finding kind"):
        report.of_kind("bogus")


def test_report_healthy_only_without_findings():
    assert DiagnosisReport().healthy
    assert not _report().healthy


def test_report_explain_tells_the_whole_story():
    text = _report().explain()
    assert "Diagnosed 2 problem(s):" in text
    assert "[dead_node] node 6 (0.95)" in text
    assert "failure = unreachable" in text          # evidence lines
    assert "Ran 7 probe(s), 1 failed, over 42.5 s" in text
    assert "Path 1 -> 8" in text                     # path narrative
    healthy = DiagnosisReport(probes_run=3).explain()
    assert "No problems diagnosed" in healthy


def test_report_to_json_is_canonical():
    text = _report().to_json()
    assert text == json.dumps(_report().to_dict(), sort_keys=True,
                              separators=(",", ":"))
    assert '": ' not in text  # no padding after separators
