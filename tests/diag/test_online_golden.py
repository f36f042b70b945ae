"""Golden determinism of canonical passive-finding JSON.

``tests/golden/online_findings_golden.json`` pins the byte-exact
canonical JSON a seeded *passive* run emits — the zero-probe twin of
``tests/diag/test_golden_findings.py``.  If a future change
legitimately alters passive output (new evidence keys, retuned
``repro.diag.online`` constants), recapture deliberately with
``PYTHONPATH=src python tests/diag/test_online_golden.py``;
never loosen the asserts.
"""

import json
import pathlib

from repro.core.deploy import deploy_liteview
from repro.diag import OnlineMonitor, score_findings
from repro.faults import FaultPlan, FaultSpec, install_faults
from repro.workloads import build_chain
from repro.workloads.scenarios import QUIET_PROPAGATION

GOLDEN_PATH = (pathlib.Path(__file__).parent.parent
               / "golden" / "online_findings_golden.json")

# The same injuries the active golden diagnoses, listened to instead.
PLAN = FaultPlan(name="golden-online", specs=(
    FaultSpec(kind="link_degrade", at=20.0, link=(2, 3), loss_db=80.0),
    FaultSpec(kind="node_crash", at=20.0, nodes=(6,)),
))


def run_passive() -> dict:
    """The fixture generator: a seeded passive listen, serialized."""
    testbed = build_chain(8, spacing=60.0, seed=7,
                          propagation_kwargs=QUIET_PROPAGATION)
    install_faults(testbed, PLAN)
    online = OnlineMonitor(testbed).attach()
    deploy_liteview(testbed, warm_up=15.0)
    testbed.run(until=60.0)
    report = online.report()
    score = score_findings(report.findings, PLAN, at=60.0)
    return {
        "finding_json": [f.to_json() for f in report.findings],
        "report_json": report.to_json(),
        "precision": score["precision"],
        "recall": score["recall"],
        "probes_run": report.probes_run,
        "beacons_seen": online.beacons_seen,
    }


GOLDEN = (json.loads(GOLDEN_PATH.read_text())
          if GOLDEN_PATH.exists() else {})  # empty only mid-recapture


def test_passive_findings_match_golden_bytes():
    assert run_passive() == GOLDEN["passive_seed7"]


def test_passive_run_names_both_faults():
    got = run_passive()
    assert got["recall"] == 1.0
    assert got["probes_run"] == 0


def test_same_seed_twice_is_identical():
    assert run_passive() == run_passive()


if __name__ == "__main__":  # fixture recapture entry point
    GOLDEN_PATH.write_text(
        json.dumps({"passive_seed7": run_passive()}, indent=2) + "\n")
    print(f"captured {GOLDEN_PATH}")
