"""``python -m repro serve`` input that could never serve.

A cadence that cannot advance, an unknown topology or a bad fault plan
is a usage error (exit 2) before the server starts: never a traceback,
and never a first tick that spins forever.
"""

import pytest

from repro.serve import ServeApp, build_fleet


@pytest.mark.parametrize("argv, message", [
    (["chain:3", "--assess-every", "0"], "assess_every"),
    (["chain:3", "--assess-every", "-5"], "assess_every"),
    (["chain:3", "--step", "0"], "step_s"),
    (["bogus"], "unknown topology spec 'bogus'"),
    (["chain:3", "--faults", '{"specs": [{"kind": "nope", "at": 1.0}]}'],
     "unknown fault kind 'nope'"),
    (["chain:3", "--faults", "not json"], "plan is not JSON"),
    (["chain:3", "--tick", "nan"], "tick_s"),
    (["chain:3", "--tick", "inf"], "tick_s"),
    (["chain:3", "--tick", "-1"], "tick_s"),
])
def test_bad_serve_input_is_a_usage_error(argv, message, capsys,
                                          monkeypatch):
    from repro.__main__ import main

    async def never(*args, **kwargs):
        raise AssertionError("the server started")

    monkeypatch.setattr(ServeApp, "serve_forever", never)
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", *argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and message in err


@pytest.mark.parametrize("seconds", [0.0, -1.0, float("nan"), float("inf")])
def test_a_cadence_that_never_advances_is_refused(seconds):
    with pytest.raises(ValueError, match="assess_every"):
        build_fleet("chain:3", assess_every=seconds, warm_up=1.0)
    with pytest.raises(ValueError, match="step_s"):
        ServeApp([build_fleet("chain:3", warm_up=1.0)], step_s=seconds)


def test_a_zero_tick_is_legal():
    assert ServeApp([build_fleet("chain:3", warm_up=1.0)],
                    tick_s=0).tick_s == 0.0
