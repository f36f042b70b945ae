"""Tests for the shell-style command interpreter."""

import pytest

from repro.errors import ParameterError, UnknownCommand


def logged_in(chain_deployment, n=3, **kw):
    dep = chain_deployment(n, **kw)
    dep.login("192.168.0.1")
    return dep


def test_pwd_matches_paper_format(chain_deployment):
    dep = logged_in(chain_deployment)
    assert dep.run("pwd") == "/sn01/192.168.0.1"


def test_pwd_without_context(chain_deployment):
    dep = chain_deployment(2)
    assert dep.interpreter.execute("pwd") == "/sn01"


def test_pwd_is_local_no_radio(chain_deployment):
    """Context queries are answered by the interpreter 'without the need
    for contacting remote nodes'."""
    dep = logged_in(chain_deployment)
    before = dep.testbed.monitor.counter("medium.transmissions")
    dep.run("pwd")
    assert dep.testbed.monitor.counter("medium.transmissions") == before


def test_cd_changes_context(chain_deployment):
    dep = logged_in(chain_deployment)
    dep.run("cd 192.168.0.2")
    assert dep.run("pwd") == "/sn01/192.168.0.2"


def test_cd_unknown_node_reports_error(chain_deployment):
    dep = logged_in(chain_deployment)
    assert "error" in dep.run("cd nonsuch")


def test_ls_lists_names(chain_deployment):
    dep = logged_in(chain_deployment)
    listing = dep.run("ls")
    assert "192.168.0.1" in listing and "192.168.0.2" in listing


def test_ping_via_shell(chain_deployment):
    dep = logged_in(chain_deployment)
    out = dep.run("ping 192.168.0.2 round=1 length=32")
    assert "Pinging 192.168.0.2 with 1 packets with 32 bytes:" in out
    assert "RTT = " in out and "LQI = " in out
    assert "Power = 31, Channel = 17" in out
    assert "Received = 1" in out


def test_traceroute_via_shell(chain_deployment):
    dep = logged_in(chain_deployment, 4, seed=4)
    out = dep.run("traceroute 192.168.0.4 round=1 length=32 port=10")
    assert "Reaching 192.168.0.4 with 1 packets" in out
    assert "Name of protocol: geographic forwarding" in out
    assert "Reply from 192.168.0.2" in out


def test_power_get_and_set(chain_deployment):
    dep = logged_in(chain_deployment)
    assert dep.run("power") == "Power = 31, Channel = 17"
    assert dep.run("power 25") == "Power = 25, Channel = 17"
    assert dep.testbed.node(1).radio.power_level == 25


def test_channel_get(chain_deployment):
    dep = logged_in(chain_deployment)
    assert dep.run("channel") == "Power = 31, Channel = 17"


def test_neighborhood_mode_workflow(chain_deployment):
    """§IV-C.2's flow: neighborsetup → list → blacklist → update."""
    dep = logged_in(chain_deployment)
    # Mode commands are unavailable before entering the mode.
    with pytest.raises(UnknownCommand):
        dep.run("list")
    assert "neighborhood" in dep.run("neighborsetup")
    listing = dep.run("list")
    assert "192.168.0.2" in listing
    assert "blacklist add" in dep.run("blacklist add 192.168.0.2")
    assert "BLACKLISTED" in dep.run("list")
    dep.run("blacklist remove 192.168.0.2")
    assert "BLACKLISTED" not in dep.run("list")
    assert "1000 ms" in dep.run("update freq=1000")
    dep.run("exit")
    with pytest.raises(UnknownCommand):
        dep.run("list")


def test_unknown_command_raises(chain_deployment):
    dep = logged_in(chain_deployment)
    with pytest.raises(UnknownCommand):
        dep.run("frobnicate")


def test_bad_parameters_raise(chain_deployment):
    dep = logged_in(chain_deployment)
    with pytest.raises(ParameterError):
        dep.run("ping 192.168.0.2 round=abc")
    with pytest.raises(ParameterError):
        dep.run("ping 192.168.0.2 bogus=1")
    with pytest.raises(ParameterError):
        dep.run("ping")


def test_empty_line_is_noop(chain_deployment):
    dep = logged_in(chain_deployment)
    assert dep.interpreter.execute("") == ""


def test_last_result_holds_structured_data(chain_deployment):
    from repro.core.results import PingResult
    dep = logged_in(chain_deployment)
    dep.run("ping 192.168.0.2 round=1")
    assert isinstance(dep.interpreter.last_result, PingResult)
    assert dep.interpreter.last_result.target_id == 2


def test_session_renders_prompts(chain_deployment):
    dep = logged_in(chain_deployment)
    text = dep.interpreter.session(["pwd"])
    assert text.startswith("$ pwd\n/sn01/192.168.0.1")


def test_command_on_out_of_range_node_reports_error(chain_deployment):
    dep = logged_in(chain_deployment, 3)
    far = dep.testbed.add_node("far", (9999.0, 0.0))
    from repro.core.controller import install_controller
    install_controller(far)
    dep.run("cd far")
    out = dep.run("power")
    assert out.startswith("error:")


def test_watch_is_passive_and_names_a_dead_node(chain_deployment):
    """`watch` listens to beacons and diagnoses without one probe packet:
    the report itself says 0 probes, and the control-traffic counter
    proves the shell sent nothing while watching."""
    from repro.faults import FaultPlan, FaultSpec, install_faults

    dep = logged_in(chain_deployment, 4, seed=4)
    assert "never been enabled" in dep.run("watch report")
    assert "listening" in dep.run("watch on")
    # Crash after the listener's per-link cadence baselines settle
    # (watch starts at t=15; baselines need ~10 beacon intervals).
    install_faults(dep.testbed, FaultPlan(name="t", specs=(
        FaultSpec(kind="node_crash", at=45.0, nodes=(4,)),)))
    sent_before = len(dep.testbed.monitor.packets)
    dep.testbed.run(until=80.0)
    out = dep.run("watch report")
    assert "0 probes sent" in out and "beacons heard" in out
    assert "dead_node" in out
    assert "Ran 0 probe(s)" in out
    # Everything transmitted while watching was the network's own
    # background traffic — the watch added nothing.
    kinds = {r.kind for r in dep.testbed.monitor.packets[sent_before:]}
    assert kinds <= {"beacon", "advert"}
    assert dep.interpreter.last_report is not None


def test_watch_across_a_walk_names_no_link_into_the_workstation(
        chain_deployment):
    """The user's own laptop walk is no link fault: the workstation does
    not beacon, so the passive watch never hears through it, and walking
    it from one end of the chain to the other leaves the report clean."""
    dep = chain_deployment(6, seed=3, warm_up=0.0)
    workstation = str(dep.workstation.node.id)
    dep.login(1)
    dep.run("watch on")
    dep.testbed.run(until=dep.testbed.env.now + 40.0)
    dep.login(6)
    dep.testbed.run(until=dep.testbed.env.now + 40.0)
    out = dep.run("watch report")
    assert f"->{workstation} " not in out and f" {workstation}->" not in out
    assert "No problems diagnosed" in out


def _watch_a_retuned_node(drift=None):
    """Watch a quiet 4-chain for 120 s after the user retunes node 2's
    beacons from the default 2 s to 1 s, optionally with node 2's clock
    running ``drift`` fast from then on."""
    from repro.core.deploy import deploy_liteview
    from repro.faults import FaultPlan, FaultSpec, install_faults
    from repro.workloads import build_chain
    from repro.workloads.scenarios import QUIET_PROPAGATION

    testbed = build_chain(4, seed=3, propagation_kwargs=QUIET_PROPAGATION)
    dep = deploy_liteview(testbed, warm_up=10.0)
    dep.login(2)
    dep.run("watch on")
    dep.run("neighborsetup")
    assert "1000 ms" in dep.run("update freq=1000")
    if drift is not None:
        install_faults(testbed, FaultPlan(name="drift", specs=(
            FaultSpec(kind="clock_drift", at=testbed.env.now, nodes=(2,),
                      drift=drift),)))
    testbed.run(until=testbed.env.now + 120.0)
    return dep.run("watch report")


def test_watch_takes_the_retuned_interval_as_the_drift_reference():
    """The drift check compares a link's cadence with the interval its
    origin was set to, so the user's own retune is no clock fault (it
    read ``beacon interval shifted -50.4%`` against the 2-s default)."""
    out = _watch_a_retuned_node()
    assert "No problems diagnosed" in out


def test_watch_names_clock_drift_after_a_retune():
    out = _watch_a_retuned_node(drift=0.08)
    assert "[hotspot] node 2" in out
    assert "shifted -7." in out


def test_watch_off_keeps_the_report_and_help_mentions_watch(
        chain_deployment):
    dep = logged_in(chain_deployment)
    dep.run("watch on")
    dep.testbed.run(until=30.0)
    assert "disabled" in dep.run("watch off")
    assert "beacons heard" in dep.run("watch")      # state survives off
    assert "watch on|off|report" in dep.run("help")
    with pytest.raises(ParameterError):
        dep.run("watch sideways")
