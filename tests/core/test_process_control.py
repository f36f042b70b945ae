"""Tests for process-level control: ps / kill through the shell.

"The commands supported by LiteView are executed as individual
processes" — and unlike SNMS-class tools that "only allow users to
modify variable state", the toolkit sees and controls threads.
"""

import pytest

from repro.errors import ParameterError


def logged_in(chain_deployment, n=3, **kw):
    dep = chain_deployment(n, **kw)
    dep.login("192.168.0.1")
    return dep


def test_ps_shows_itself_on_an_idle_node(chain_deployment):
    """Like real ps, the request that produces the listing is itself a
    live thread — an idle node shows exactly that one."""
    dep = logged_in(chain_deployment)
    out = dep.run("ps")
    lines = out.splitlines()
    assert lines[0].startswith("tid")
    assert len(lines) == 2
    assert "controller-request" in lines[1]


def test_ps_shows_running_command_thread(chain_deployment):
    """Start a long-running ping locally; `ps` on the node sees it."""
    dep = logged_in(chain_deployment)
    tb = dep.testbed
    service = dep.ping_services[1]
    tb.node(1).threads.spawn(
        "ping", service.ping(2, rounds=50)
    )
    out = dep.run("ps")
    assert "ping" in out
    assert out.splitlines()[0].startswith("tid")


def test_ps_and_kill_after_thread_ids_pass_sixteen_bits(chain_deployment):
    """A long-lived node spawns a thread per served request and per
    traceroute hop; once its ids pass 0xFFFF, ``ps`` still lists every
    live thread and ``kill`` still reaches them."""
    dep = chain_deployment(3)
    dep.login("192.168.0.2")
    tb = dep.testbed
    threads = tb.node(2).threads

    def finished():
        return
        yield

    def idle():
        yield tb.env.timeout(100.0)

    for i in range(65530):
        threads.spawn("short", finished())
        if i % 7 == 6:
            tb.env.run(until=tb.env.now + 1e-6)
    tb.env.run(until=tb.env.now + 1e-6)
    idlers = [threads.spawn("idle", idle()) for _ in range(7)]
    rows = dep.run("ps").splitlines()[1:]
    assert [row.split()[0] for row in rows] == [
        "65531", "65532", "65533", "65534", "65535", "1", "2", "3"]
    assert rows[-1].endswith("controller-request")
    assert "killed" in dep.run(f"kill {idlers[-1].tid}")
    tb.warm_up(1.0)
    assert not idlers[-1].alive


def test_kill_stops_a_command_thread(chain_deployment):
    dep = logged_in(chain_deployment)
    tb = dep.testbed
    service = dep.ping_services[1]
    info = tb.node(1).threads.spawn(
        "ping", service.ping(2, rounds=200)
    )
    out = dep.run(f"kill {info.tid}")
    assert "killed" in out
    tb.warm_up(1.0)
    assert not info.alive
    assert "ping" not in dep.run("ps")
    # The kill is in the kernel event log.
    assert "thread.killed" in dep.run("events")


def test_kill_unknown_tid_errors(chain_deployment):
    dep = logged_in(chain_deployment)
    out = dep.run("kill 99")
    assert out.startswith("error:")


def test_kill_parameter_validation(chain_deployment):
    dep = logged_in(chain_deployment)
    with pytest.raises(ParameterError):
        dep.run("kill")
    with pytest.raises(ParameterError):
        dep.run("kill abc")


def test_killed_ping_reports_partial_result(chain_deployment):
    """Killing mid-command loses the command (its thread dies); the
    system stays healthy and subsequent commands work."""
    dep = logged_in(chain_deployment)
    tb = dep.testbed
    service = dep.ping_services[1]
    info = tb.node(1).threads.spawn(
        "ping", service.ping(2, rounds=100)
    )
    tb.warm_up(2.0)
    dep.run(f"kill {info.tid}")
    tb.warm_up(1.0)
    dep.run("ping 192.168.0.2 round=1")
    assert dep.interpreter.last_result.received == 1
