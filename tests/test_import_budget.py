"""What a simulation process imports: no SciPy, and no server stack
until it serves.

SciPy (campaign confidence intervals only) and asyncio with ssl (the
HTTP server only) cost a process tens of megabytes and hundreds of
milliseconds at import.  A process that builds worlds and drives the
shell must load neither; one that also builds and advances fleets
through ``repro.serve`` (whose package init imports the server) must
still load no SciPy.  A confidence interval must still work, loading
SciPy when first asked for.

Each check runs in a fresh interpreter: the test process itself has
long since imported everything.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Modules the simulation path must never load.
HEAVY = ("scipy", "asyncio", "ssl")


def run_fresh(script: str) -> str:
    """Run ``script`` in a new interpreter with ``src`` on the path;
    return its stdout (a failing script fails the test with its stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_simulation_path_loads_no_scipy_and_no_server_stack():
    out = run_fresh(f"""
        import sys

        import repro
        from repro.core.deploy import deploy_liteview
        from repro.workloads import build_chain

        dep = deploy_liteview(build_chain(4, seed=2), warm_up=5.0)
        dep.interpreter.execute("cd 1")
        reply = dep.interpreter.execute("ping 192.168.0.2 round=1 length=32")
        assert "Received = 1" in reply, reply
        loaded = [name for name in {HEAVY!r} if name in sys.modules]
        assert not loaded, loaded

        from repro.serve.fleet import build_fleet

        fleet = build_fleet("chain:8", mode="hybrid", assess_every=20.0,
                            warm_up=5.0)
        fleet.advance(25.0)
        assert fleet.assessor.assessments >= 1
        assert "scipy" not in sys.modules
        print("ok")
    """)
    assert out.strip() == "ok"


def test_confidence_intervals_load_scipy_when_used():
    out = run_fresh("""
        import sys

        from repro.analysis import mean_ci

        assert "scipy" not in sys.modules
        mean, half = mean_ci([1.0, 2.0, 3.0])
        assert mean == 2.0 and 2.4 < half < 2.5, (mean, half)
        assert "scipy.stats" in sys.modules
        print("ok")
    """)
    assert out.strip() == "ok"
