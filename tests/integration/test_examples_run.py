"""Smoke tests: the shipped examples must run end to end.

Each example's ``main`` is imported and executed with its default seed;
these tests pin the deliverable, not the exact output.  The figure
reproduction example is exercised by the benchmark suite instead (it is
the slowest by far).
"""

import importlib.util
import io
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(name, capsys):
    module = load_example(name)
    module.main()
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_main("quickstart", capsys)
    assert "/sn01/192.168.0.1" in out
    assert "Pinging 192.168.0.2 with 1 packets with 32 bytes:" in out
    assert "Name of protocol: geographic forwarding" in out
    assert "beacon interval set to 1000 ms" in out


def test_protocol_comparison(capsys):
    out = run_main("protocol_comparison", capsys)
    assert "geographic forwarding" in out
    assert "dsdv" in out
    assert "flooding" in out
    assert "no recompilation" in out


def test_hotspot_diagnosis(capsys):
    out = run_main("hotspot_diagnosis", capsys)
    assert "idle network, per-hop RTT" in out
    assert "hotspots flagged" in out or "no hotspots" in out
    assert "delivery ratio" in out


@pytest.mark.slow
def test_site_survey(capsys):
    out = run_main("site_survey", capsys)
    assert "broken" in out
    assert "post-fix survey" in out
    assert "healthy links:" in out


def test_chaos_fault_injection(capsys):
    out = run_main("chaos_fault_injection", capsys)
    assert "link 4 -> 5: replies 0/6, broken_link  <-- the injury" in out
    assert out.count("<-- the injury") == 1
    assert "every command returned; nothing hung." in out


def test_live_fleet(capsys):
    out = run_main("live_fleet", capsys)
    assert "baseline health:" in out
    assert "POST /faults -> 202" in out
    assert "health after fault: red" in out
    assert "[broken_link]" in out
    assert "recommendation: Restore the path between nodes" in out


def test_mobile_patrol(capsys):
    out = run_main("mobile_patrol", capsys)
    assert "surveyor (node 7) patrols" in out
    assert "beacons in range" in out
    # The surveyor really heard links appear and die...
    assert "joins" in out and "leaves" in out
    assert "total churn over the patrol: 0 joins" not in out
    # ...and the engine did not file the churn as link faults.
    assert "0 link-degrade findings" in out
    assert "false positives vs empty fault plan: 0" in out
    assert "did not mistake mobility churn" in out


def test_interactive_shell_canned_session(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))  # not a tty
    out = run_main("interactive_shell", capsys)
    assert "$ pwd" in out
    assert "/sn01/192.168.0.1" in out
    assert "channel  peak RSSI" in out
