"""The hybrid assessment: probe the watchlist, then merge the listener.

``mode="hybrid"`` pauses the beacon listener around its own probe
burst, runs the watchlist plan, resumes, and folds in the passive
findings whose subject the probes did not name.  These tests drive
that whole path on a small chain fleet.
"""

from repro.serve import build_fleet

WATCHED = (2, 3)


def hybrid_fleet():
    return build_fleet("chain:5", mode="hybrid", seed=7, assess_every=20.0,
                       warm_up=10.0)


def degrade(link, at):
    return {"specs": [{"kind": "link_degrade", "link": list(link),
                       "loss_db": 80.0, "at": at}]}


def test_hybrid_assessment_names_a_degraded_watched_link():
    fleet = hybrid_fleet()
    assert WATCHED in fleet.assessor.watched_links
    fleet.advance(25.0)                      # first assessment, t = 30
    assert fleet.health_payload["status"] == "green"
    fleet.queue_fault_plan(degrade(WATCHED, at=fleet.sim_time))
    fleet.advance(20.0)                      # the next one, t = 50
    report = fleet.assessor.last_report
    assert report.probes_run == len(fleet.assessor.watched_links)
    link = fleet.health_payload["links"]["2->3"]
    assert link["status"] == "red" and link["kind"] == "broken_link"
    # The listener was read at both assessments, around the probes.
    assert fleet.monitor.counter("diag.online.polls") == 2
    assert fleet.assessor.online.beacons_seen > 0


def test_hybrid_advance_slicing_is_not_an_input():
    """One 45 s advance == uneven slices == 9 x 5 s, to the last bit."""
    digests = set()
    for slices in ([45.0], [2.5, 17.5, 0.25, 9.75, 15.0], [5.0] * 9):
        fleet = hybrid_fleet()
        fleet.queue_fault_plan(degrade(WATCHED, at=35.0))
        for seconds in slices:
            fleet.advance(seconds)
        assert fleet.assessor.assessments == 2
        assert fleet.health_payload["links"]["2->3"]["status"] == "red"
        digests.add(fleet.monitor.packet_digest())
    assert len(digests) == 1
