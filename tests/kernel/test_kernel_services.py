"""Unit tests for threads, syscalls, parameter buffer, memory, namespace."""

import pytest

from repro.errors import (
    KernelError,
    MemoryBudgetExceeded,
    NoSuchNode,
    NoSuchSyscall,
)
from repro.kernel import (
    FLASH_BUDGET_BYTES,
    MAX_THREADS,
    RAM_BUDGET_BYTES,
    MemoryModel,
    Namespace,
    ParameterBuffer,
    SyscallTable,
    Testbed,
)
from repro.kernel.syscalls import PARAMETER_BUFFER_CHARS
from repro.kernel.threads import MAX_TID, ThreadTable
from repro.sim import Environment


# -- thread table -----------------------------------------------------------

def idle(env, duration=1.0):
    def gen():
        yield env.timeout(duration)
    return gen()


def test_spawn_and_list():
    env = Environment()
    table = ThreadTable(env, node_id=1)
    info = table.spawn("worker", idle(env))
    assert info.alive
    assert [t.name for t in table.alive()] == ["worker"]
    env.run()
    assert table.alive() == []


def test_thread_limit_enforced():
    env = Environment()
    table = ThreadTable(env, node_id=1)
    for i in range(MAX_THREADS):
        table.spawn(f"t{i}", idle(env))
    with pytest.raises(KernelError):
        table.spawn("one-too-many", idle(env))


def test_finished_threads_free_slots():
    env = Environment()
    table = ThreadTable(env, node_id=1)
    for i in range(MAX_THREADS):
        table.spawn(f"t{i}", idle(env, 1.0))
    env.run()
    for i in range(MAX_THREADS):
        table.spawn(f"u{i}", idle(env, 1.0))  # must not raise
    env.run()


def finished():
    return
    yield


def cycle_threads(table, env, count):
    """Spawn ``count`` threads that end at once, letting each batch
    finish before the next."""
    for i in range(count):
        table.spawn("short", finished())
        if i % 4 == 3:
            env.run(until=env.now + 1e-3)
    env.run(until=env.now + 1e-3)


def test_thread_ids_wrap_within_sixteen_bits_skipping_live_ones():
    """``ps`` and ``kill`` carry a tid in 16 bits: after id 0xFFFF the
    ids start again at 1, stepping over ids that live threads hold, and
    the listing stays oldest first."""
    env = Environment()
    table = ThreadTable(env, node_id=1)
    keeper = table.spawn("keeper", idle(env, 1e9))
    assert keeper.tid == 1
    cycle_threads(table, env, MAX_TID - 2)   # ids 2..0xFFFE
    last = table.spawn("last", idle(env, 1e9))
    assert last.tid == MAX_TID
    wrapped = table.spawn("wrapped", idle(env, 1e9))
    assert wrapped.tid == 2                  # 1 is still the keeper's
    assert [t.name for t in table.alive()] == ["keeper", "last", "wrapped"]
    assert table.kill(last.tid) and table.kill(wrapped.tid)


def test_kill_interrupts():
    env = Environment()
    table = ThreadTable(env, node_id=1)

    def stubborn():
        from repro.errors import ProcessInterrupt
        try:
            yield env.timeout(100.0)
        except ProcessInterrupt:
            return "stopped"

    info = table.spawn("stubborn", stubborn())
    assert table.kill(info.tid)
    env.run()
    assert info.process.value == "stopped"


def test_kill_unknown_tid_returns_false():
    env = Environment()
    table = ThreadTable(env, node_id=1)
    assert not table.kill(99)


def test_find_by_name():
    env = Environment()
    table = ThreadTable(env, node_id=1)
    info = table.spawn("ping", idle(env))
    assert table.find("ping") is info
    assert table.find("missing") is None


# -- syscalls --------------------------------------------------------------------

def test_syscall_registration_and_invoke():
    sc = SyscallTable()
    sc.register("add", lambda a, b: a + b)
    assert sc.invoke("add", 2, 3) == 5
    assert sc.names() == ["add"]


def test_unknown_syscall_raises():
    sc = SyscallTable()
    with pytest.raises(NoSuchSyscall):
        sc.invoke("nope")


def test_default_node_syscalls():
    tb = Testbed(seed=1)
    node = tb.add_node("n1", (0, 0))
    assert node.syscalls.invoke("radio_get") == {
        "power_level": 31, "channel": 17,
    }
    node.syscalls.invoke("radio_set_power", 10)
    assert node.radio.power_level == 10
    assert node.syscalls.invoke("queue_occupancy") == 0
    assert node.syscalls.invoke("neighbor_table") == []


# -- parameter buffer -----------------------------------------------------------

def test_empty_buffer_starts_with_nul():
    """Paper: 'If no parameter is supplied, the buffer will start with a
    \\0'."""
    buf = ParameterBuffer()
    assert buf.read().startswith("\0")
    assert buf.argv() == []


def test_stage_and_parse_space_separated():
    buf = ParameterBuffer()
    buf.stage("192.168.0.2 round=1 length=32")
    assert buf.argv() == ["192.168.0.2", "round=1", "length=32"]


def test_clear_resets():
    buf = ParameterBuffer()
    buf.stage("x")
    buf.clear()
    assert buf.argv() == []


def test_capacity_enforced():
    buf = ParameterBuffer()
    buf.stage("a" * PARAMETER_BUFFER_CHARS)
    with pytest.raises(ValueError):
        buf.stage("a" * (PARAMETER_BUFFER_CHARS + 1))


def test_empty_string_stage_is_empty():
    buf = ParameterBuffer()
    buf.stage("")
    assert buf.argv() == []


# -- memory ledger ---------------------------------------------------------------

def test_install_and_account():
    mm = MemoryModel()
    mm.install("ping", 2148, 278)
    assert mm.flash_used == 2148
    assert mm.ram_used == 278
    assert mm.lookup("ping").flash_bytes == 2148


def test_paper_footprints_fit_on_a_mote():
    """Both commands install alongside the kernel within MicaZ budgets."""
    from repro.kernel.memory import (
        KERNEL_FLASH_BYTES,
        KERNEL_RAM_BYTES,
        PAPER_FOOTPRINTS,
    )
    mm = MemoryModel()
    mm.install("kernel", KERNEL_FLASH_BYTES, KERNEL_RAM_BYTES)
    for name, (flash, ram) in PAPER_FOOTPRINTS.items():
        mm.install(name, flash, ram)
    assert mm.flash_free > 0 and mm.ram_free > 0


def test_flash_budget_enforced():
    mm = MemoryModel()
    mm.install("kernel", FLASH_BUDGET_BYTES - 1000, 0)
    with pytest.raises(MemoryBudgetExceeded):
        mm.install("big", 1001, 0)
    mm.install("fits", 1000, 0)
    assert mm.flash_free == 0


def test_ram_budget_enforced():
    mm = MemoryModel()
    mm.install("kernel", 0, RAM_BUDGET_BYTES - 100)
    with pytest.raises(MemoryBudgetExceeded):
        mm.install("hungry", 10, 101)
    mm.install("fits", 10, 100)
    assert mm.ram_free == 0


def test_duplicate_install_rejected():
    mm = MemoryModel()
    mm.install("x", 1, 1)
    with pytest.raises(KernelError):
        mm.install("x", 1, 1)


def test_uninstall_frees():
    mm = MemoryModel()
    mm.install("x", 100, 10)
    mm.uninstall("x")
    assert mm.flash_used == 0
    with pytest.raises(KernelError):
        mm.uninstall("x")


def test_negative_footprint_rejected():
    mm = MemoryModel()
    with pytest.raises(ValueError):
        mm.install("neg", -1, 0)


# -- namespace --------------------------------------------------------------------

def test_register_resolve_roundtrip():
    ns = Namespace()
    ns.register(1, "192.168.0.1")
    assert ns.resolve("192.168.0.1") == 1
    assert ns.resolve(1) == 1
    assert ns.name_of(1) == "192.168.0.1"


def test_paths_match_paper_format():
    ns = Namespace()
    ns.register(1, "192.168.0.1")
    assert ns.path_of(1) == "/sn01/192.168.0.1"
    assert ns.resolve("/sn01/192.168.0.1") == 1


def test_unknown_references_raise():
    ns = Namespace()
    with pytest.raises(NoSuchNode):
        ns.resolve("ghost")
    with pytest.raises(NoSuchNode):
        ns.resolve(7)
    with pytest.raises(NoSuchNode):
        ns.name_of(7)


def test_duplicate_registrations_rejected():
    ns = Namespace()
    ns.register(1, "a")
    with pytest.raises(ValueError):
        ns.register(2, "a")
    with pytest.raises(ValueError):
        ns.register(1, "b")


def test_invalid_names_rejected():
    ns = Namespace()
    for bad in ("", "with space", "with/slash"):
        with pytest.raises(ValueError):
            ns.register(1, bad)


def test_contains_and_len():
    ns = Namespace()
    ns.register(1, "a")
    assert "a" in ns and 1 in ns and "b" not in ns
    assert len(ns) == 1
