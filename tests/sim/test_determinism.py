"""Determinism properties: seeded worlds replay exactly."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngRegistry


@given(seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_named_streams_reproducible(seed):
    a = RngRegistry(seed)
    b = RngRegistry(seed)
    assert a.stream("x").random() == b.stream("x").random()
    assert (a.stream("y").integers(0, 1000)
            == b.stream("y").integers(0, 1000))


@given(seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_streams_independent_of_creation_order(seed):
    a = RngRegistry(seed)
    b = RngRegistry(seed)
    # Materialise streams in different orders; draws must not change.
    a.stream("alpha")
    a_val = a.stream("beta").random()
    b.stream("gamma")
    b.stream("beta")
    b.stream("alpha")
    b2 = RngRegistry(seed)
    assert b2.stream("beta").random() == a_val


def test_different_names_differ():
    rng = RngRegistry(5)
    assert rng.stream("a").random() != rng.stream("b").random()


def test_full_stack_world_replays_identically():
    """Two same-seed deployments produce identical packet logs."""
    from repro.core.deploy import deploy_liteview
    from repro.workloads import build_chain
    from repro.workloads.scenarios import QUIET_PROPAGATION

    def run():
        tb = build_chain(3, seed=21, propagation_kwargs=QUIET_PROPAGATION)
        dep = deploy_liteview(tb, warm_up=20.0)
        dep.login("192.168.0.1")
        dep.run("ping 192.168.0.3 round=2 port=10")
        return [(round(r.time, 9), r.sender, r.receiver, r.kind,
                 r.size_bytes, r.delivered) for r in tb.monitor.packets]

    assert run() == run()
