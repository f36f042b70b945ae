"""Remaining interpreter edge cases."""

import pytest

from repro.errors import ParameterError


def logged_in(chain_deployment, n=3, **kw):
    dep = chain_deployment(n, **kw)
    dep.login("192.168.0.1")
    return dep


def test_group_channel_moves_nodes(chain_deployment):
    dep = logged_in(chain_deployment, 2, spacing=30.0)
    out = dep.run("group channel 20")
    assert "Channel = 20" in out
    # Every node that replied actually switched.
    for node in dep.testbed.nodes():
        if f"{node.name}:" in out:
            assert node.radio.channel == 20


def test_scan_rejects_bad_parameters_via_shell(chain_deployment):
    dep = logged_in(chain_deployment)
    with pytest.raises(ParameterError):
        dep.run("scan first=abc")
    with pytest.raises(ParameterError):
        dep.run("scan bogus=1")
    # Out-of-band scan range comes back as an over-the-air error reply.
    out = dep.run("scan first=25 count=9")
    assert out.startswith("error:")


def test_management_commands_require_context(chain_deployment):
    from repro.errors import CommandError
    dep = chain_deployment(2)  # no login
    for line in ("power", "ping 192.168.0.2", "events", "ps",
                 "neighborsetup"):
        with pytest.raises(CommandError):
            dep.run(line)


def test_attach_without_argument_uses_context(chain_deployment):
    dep = logged_in(chain_deployment, 3)
    dep.run("cd 192.168.0.3")
    dep.run("attach")
    target = dep.testbed.node(3).position
    ws = dep.workstation.node.position
    assert abs(ws[0] - target[0]) < 10 and abs(ws[1] - target[1]) < 10


def test_attach_without_any_context_errors(chain_deployment):
    dep = chain_deployment(2)
    assert "error" in dep.interpreter.execute("attach")


def test_help_reflects_mode(chain_deployment):
    dep = logged_in(chain_deployment)
    base = dep.run("help")
    assert "blacklist" not in base
    dep.run("neighborsetup")
    assert "blacklist" in dep.run("help")


def test_whitespace_only_line(chain_deployment):
    dep = logged_in(chain_deployment)
    assert dep.interpreter.execute("   ") == ""


# Values a wire field cannot carry, each with the parameter its error
# must name; every one raised a bare ValueError or struct.error before
# the codec checked shell input.
HOSTILE_LINES = [
    ("power abc", "power"), ("power 300", "power"), ("channel x", "channel"),
    ("group power abc", "power"), ("group power 999", "power"),
    ("kill 70000", "tid"), ("events limit=-1", "limit"),
    ("ping 2 round=300", "round"), ("ping 2 length=5000", "length"),
    ("ping 2 port=999", "port"), ("scan dwell=-5", "dwell"),
    ("scan first=26 count=1 dwell=70000", "dwell"),
    ("diagnose 3 round=300", "round"),
]
NEIGHBOR_MODE_HOSTILE_LINES = [
    ("update freq=-1", "freq"), ("update freq=5000000000", "freq"),
]


@pytest.fixture(scope="module")
def eight_hop_shell():
    from repro.core.deploy import deploy_liteview
    from repro.workloads import eight_hop_chain
    dep = deploy_liteview(eight_hop_chain(seed=1), warm_up=15.0)
    dep.login(1)
    return dep


@pytest.mark.parametrize("line, parameter",
                         HOSTILE_LINES + NEIGHBOR_MODE_HOSTILE_LINES)
def test_hostile_values_are_parameter_errors(eight_hop_shell, line,
                                             parameter):
    dep = eight_hop_shell
    dep.interpreter.neighbor_mode = line.startswith("update")
    started = dep.testbed.env.now
    with pytest.raises(ParameterError, match=rf"^{parameter}="):
        dep.run(line)
    # Refused before anything went on the air.
    assert dep.testbed.env.now == started


def test_shell_session_survives_hostile_lines(monkeypatch, capsys):
    import io

    from repro.__main__ import main

    lines = (["cd 1"] + [line for line, _ in HOSTILE_LINES]
             + ["neighborsetup"]
             + [line for line, _ in NEIGHBOR_MODE_HOSTILE_LINES]
             + ["exit", "pwd"])
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["shell", "--nodes", "chain:3"]) == 0
    out = capsys.readouterr().out
    errors = [row for row in out.split("$ ") if row.startswith("error:")]
    assert len(errors) == len(HOSTILE_LINES) + len(
        NEIGHBOR_MODE_HOSTILE_LINES), out
    assert out.split("$ ")[-2].strip() == "/sn01/192.168.0.1"
