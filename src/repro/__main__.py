"""``python -m repro`` — the LiteView shell, campaign runner and server.

Three subcommands:

``python -m repro shell [--seed N] [--nodes SPEC]``
    Build a simulated testbed with LiteView deployed everywhere and drop
    into the shell-style command interpreter.  This is the default: bare
    ``python -m repro [--seed N] [--nodes ...]`` still works.

``python -m repro campaign --scenario NAME [options]``
    Expand a seeded campaign (grid x repeats) over a scenario cell and
    run it across a worker pool with live progress, optional on-disk
    result caching, per-run timeouts and retries.  Prints a per-cell
    aggregate table and the campaign digest (the digest is identical for
    any worker count — sharding never changes results).

``python -m repro serve [SCENARIO] [--port P] [options]``
    Host a persistent simulated fleet over HTTP: Prometheus metrics on
    ``/metrics``, traffic-light health on ``/health``, live telemetry on
    ``/events`` (SSE), and fault injection via
    ``POST /fleets/<name>/faults``.  See ``docs/SERVING.md``.
"""

from __future__ import annotations

import argparse
import sys
import typing as _t

from repro.errors import ReproError


def run_shell(args: argparse.Namespace) -> int:
    from repro.core.deploy import deploy_liteview
    from repro.workloads.scenarios import testbed_from_spec

    try:
        testbed = testbed_from_spec(args.nodes, seed=args.seed)
    except ValueError as exc:
        raise SystemExit(f"--nodes: {exc}") from None
    deployment = deploy_liteview(testbed, warm_up=15.0)
    interpreter = deployment.interpreter
    print(f"LiteView shell on {len(testbed)} nodes (seed {args.seed}). "
          "`help` lists commands, `cd <node>` logs in, `quit` exits.")
    while True:
        try:
            line = input("$ ").strip()
        except EOFError:
            break
        if line in ("quit", "q", "exit") and not interpreter.neighbor_mode:
            break
        if line.startswith("cd ") and line.split()[1] in testbed:
            deployment.workstation.attach_near(line.split()[1])
        try:
            output = interpreter.execute(line)
        except ReproError as exc:
            output = f"error: {exc}"
        if output:
            print(output)
    return 0


def _parse_value(text: str):
    """CLI parameter literal: int, then float, then bare string."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


def _parse_param(text: str) -> tuple[str, object]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"bad --param {text!r} (expected name=value)")
    return name, _parse_value(value)


def _parse_grid(text: str) -> tuple[str, list[object]]:
    name, sep, values = text.partition("=")
    if not sep or not name or not values:
        raise argparse.ArgumentTypeError(
            f"bad --grid {text!r} (expected name=v1,v2,...)")
    return name, [_parse_value(v) for v in values.split(",")]


def _parse_shard(text: str) -> tuple[int, int]:
    index, sep, of = text.partition("/")
    try:
        if not sep:
            raise ValueError
        return int(index), int(of)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad --shard {text!r} (expected K/N with 0 <= K < N)") from None


def _run_option(name: str) -> _t.Callable[[str], object]:
    """An argparse type for the run option ``name``: a literal that
    passes :func:`~repro.campaign.check_run_options`, which holds the
    option's bound, so a bad value is a usage error naming its flag."""
    def parse(text: str) -> object:
        from repro.campaign import check_run_options

        value = _parse_value(text)
        try:
            check_run_options(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def run_campaign_cli(args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.campaign import (Campaign, check_run_options, run_campaign,
                                scenario_names)
    from repro.campaign.scenarios import import_scenario_module

    if args.list:
        print("\n".join(scenario_names()))
        return 0
    if not args.scenario:
        args.usage_error("--scenario is required (try --list)")
    try:
        # A `module:function` scenario is the user's own code: import it.
        import_scenario_module(args.scenario)
        campaign = Campaign(
            name=args.name, scenario=args.scenario, seed=args.seed,
            base_params=dict(args.param or ()), grid=dict(args.grid or ()),
            repeats=args.repeats,
        )
        target = (campaign if args.shard is None
                  else campaign.shard(*args.shard))
        workers, timeout_s, retries = check_run_options(
            args.workers, args.timeout, args.retries)
    except ValueError as exc:
        args.usage_error(str(exc))
    total = len(target)
    shard_note = ("" if args.shard is None
                  else f", shard {target.index}/{target.of}")
    print(f"campaign {campaign.name!r}: {total} runs "
          f"({args.scenario}, seed {campaign.seed}{shard_note}) on "
          f"{workers} worker{'s' if workers != 1 else ''}",
          file=sys.stderr)

    def progress(done, total, result):
        source = "cache" if result.cached else f"{result.wall_s:.2f}s"
        state = "ok" if result.ok else f"FAILED: {result.error}"
        print(f"  [{done}/{total}] {result.spec.label()} {state} "
              f"({source})", file=sys.stderr)

    out = run_campaign(
        target, workers=workers, cache=args.cache,
        timeout_s=timeout_s, retries=retries, progress=progress,
    )

    cells = out.aggregate()
    if cells:
        print(render_table(
            ["cell", "metric", "n", "mean", "ci95"],
            [[", ".join(f"{k}={v}" for k, v in a.params.items()) or "-",
              a.metric, a.n, f"{a.mean:.3f}",
              "-" if a.n < 2 else f"±{a.half_width:.3f}"]
             for a in cells],
            title=f"campaign {campaign.name!r} aggregates",
        ))
    print(f"digest: {out.digest()}")
    print(f"runs: {len(out.runs)}  ok: {len(out.ok)}  "
          f"failed: {len(out.failures)}  cached: {out.n_cached}  "
          f"wall: {out.wall_s:.2f}s")
    for failure in out.failures:
        print(f"  FAILED {failure.spec.label()}: {failure.error}",
              file=sys.stderr)
    return 1 if out.failures else 0


def run_serve_cli(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeApp, build_fleet

    try:
        fleet = build_fleet(
            args.scenario, seed=args.seed, assess_every=args.assess_every,
            fault_plan=args.faults, mode=args.mode,
        )
        app = ServeApp([fleet], tick_s=args.tick, step_s=args.step)
    except ValueError as exc:  # a bad spec, cadence or fault plan
        args.usage_error(str(exc))
    print(f"serving fleet {fleet.name!r} ({len(fleet.testbed)} nodes, "
          f"seed {args.seed}) on http://{args.host}:{args.port} — "
          "endpoints: /metrics /health /events "
          f"POST /fleets/{fleet.name}/faults", file=sys.stderr)
    try:
        asyncio.run(app.serve_forever(host=args.host, port=args.port))
    except KeyboardInterrupt:
        pass
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="LiteView reproduction: interactive shell and "
                    "campaign runner.",
    )
    sub = parser.add_subparsers(dest="command")

    shell = sub.add_parser("shell", help="interactive LiteView shell")
    shell.add_argument("--seed", type=int, default=3)
    shell.add_argument("--nodes", default="field",
                       help="topology spec, as for serve (default: field)")

    camp = sub.add_parser("campaign", help="run a simulation campaign")
    camp.set_defaults(usage_error=camp.error)
    camp.add_argument("--scenario", help="scenario cell (see --list)")
    camp.add_argument("--name", default="cli")
    camp.add_argument("--seed", type=int, default=0)
    camp.add_argument("--repeats", type=int, default=1)
    camp.add_argument("--workers", type=_run_option("workers"), default=0,
                      help="warm-pool worker processes (default: all "
                           "cores, or the REPRO_WORKERS env var)")
    camp.add_argument("--shard", type=_parse_shard, metavar="K/N",
                      default=None,
                      help="run only shard K of N (0-based); digests of "
                           "merged shards match the serial run")
    camp.add_argument("--param", action="append", type=_parse_param,
                      metavar="NAME=VALUE",
                      help="fixed scenario parameter (repeatable)")
    camp.add_argument("--grid", action="append", type=_parse_grid,
                      metavar="NAME=V1,V2,...",
                      help="swept parameter axis (repeatable)")
    camp.add_argument("--cache", metavar="DIR",
                      help="on-disk result cache directory")
    camp.add_argument("--timeout", type=_run_option("timeout_s"),
                      default=None, help="per-run timeout in seconds")
    camp.add_argument("--retries", type=_run_option("retries"), default=1,
                      help="extra attempts per failing run (default 1)")
    camp.add_argument("--list", action="store_true",
                      help="list built-in scenarios and exit")

    serve = sub.add_parser("serve", help="serve a live fleet over HTTP")
    serve.set_defaults(usage_error=serve.error)
    serve.add_argument("scenario", nargs="?", default="field",
                       help="'field' (30 nodes), 'hundred' (100), "
                            "'city' (~1040, spatially indexed), "
                            "'city:K' (a city of roughly K nodes) or "
                            "'chain:K' (default: field)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8700)
    serve.add_argument("--seed", type=int, default=3)
    serve.add_argument("--assess-every", type=float, default=30.0,
                       help="simulated seconds between health "
                            "assessments (default 30)")
    serve.add_argument("--tick", type=float, default=0.25,
                       help="wall-clock seconds between sim ticks")
    serve.add_argument("--step", type=float, default=1.0,
                       help="simulated seconds advanced per tick")
    serve.add_argument("--faults", metavar="JSON", default=None,
                       help="canonical FaultPlan JSON to pre-inject")
    serve.add_argument("--mode", default="active",
                       choices=("active", "passive", "hybrid"),
                       help="assessment mode: probe the watchlist "
                            "(active), read the zero-probe beacon "
                            "detectors (passive), or both (hybrid)")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Backward compatibility: bare `python -m repro [--seed ...]` is the
    # shell, exactly as before subcommands existed.
    if not argv or argv[0].startswith("-"):
        argv.insert(0, "shell")
    args = _parser().parse_args(argv)
    if args.command == "campaign":
        return run_campaign_cli(args)
    if args.command == "serve":
        return run_serve_cli(args)
    return run_shell(args)


if __name__ == "__main__":
    sys.exit(main())
