"""``python -m repro``: run declarative scenarios from the shell.

Subcommands:

- ``run``: execute a scenario (preset or ``--spec`` file) on one or
  both backends, print the per-phase report, optionally export JSON.
- ``sweep``: expand a parameter grid over a base scenario, run every
  cell, and export CSV/JSON/plots (``--grid clients=5,10,20``,
  ``--grid seed=1..5``, ``--zip`` for lockstep axes).
- ``compare``: run one preset across several protocols and print a
  comparison table (``--csv`` for the tabular form).
- ``bench``: run the pinned performance grid, write ``BENCH_<rev>.json``
  and optionally gate against a committed baseline
  (``--baseline benchmarks/baselines``: the newest file there).
- ``serve``: host a subset of a TCP scenario's replicas in *this*
  process at their ``hosts``-pinned addresses, for multi-machine
  deployments (the scenario process runs the rest and dials these).
- ``lint``: run the repo-invariant static analysis (determinism,
  asyncio-safety, frozen-mutation, crypto boundaries, quorum
  arithmetic, wire-schema parity); exits 1 on new findings.
- ``list-protocols``: the protocol registry with capability flags.
- ``list-presets``: the scenario preset registry.

Examples::

    python -m repro run --preset figure6-smoke --json out.json
    python -m repro run --spec my_experiment.toml
    python -m repro sweep --preset smoke --grid clients=2,4 \
        --grid seed=1,2 --csv out.csv
    python -m repro sweep --spec fig6_sweep.json --plot fig6.png
    python -m repro compare --preset figure4 --csv fig4.csv
    python -m repro list-protocols
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, List, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.protocols.registry import available_protocols, get_protocol
from repro.scenario import (
    REPORT_CSV_COLUMNS,
    ExperimentReport,
    Scenario,
    ScenarioRunner,
    available_presets,
    load_spec,
    preset,
    rows_to_csv,
)
from repro.sweep import SweepRunner, SweepSpec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run declarative BFT consensus experiments "
                    "(scenario presets) on the WAN simulator or real "
                    "TCP sockets.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="execute one scenario (preset or spec file)")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset",
                        help="scenario preset name (see list-presets)")
    source.add_argument("--spec",
                        help="JSON/TOML scenario spec file")
    run.add_argument("--backend",
                     choices=("sim", "tcp", "both"), default=None,
                     help="override the preset's default backend(s)")
    run.add_argument("--protocol", default=None,
                     help="override the preset's protocol")
    run.add_argument("--seed", type=int, default=None,
                     help="override the preset's seed")
    run.add_argument("--json", dest="json_path", default=None,
                     help="write the report(s) to this JSON file")
    run.add_argument("--trace", dest="trace_path", default=None,
                     metavar="PATH",
                     help="enable causal request tracing and write "
                          "the schema-stable span export here; on "
                          "the sim backend seeded runs produce "
                          "byte-identical files")
    run.add_argument("--trace-chrome", dest="trace_chrome_path",
                     default=None, metavar="PATH",
                     help="also write the trace in Chrome trace-"
                          "event form (load in Perfetto or "
                          "chrome://tracing); implies tracing")
    run.add_argument("--trace-sample", type=float, default=1.0,
                     metavar="RATE",
                     help="fraction of requests to trace, decided "
                          "deterministically per request "
                          "(default 1.0)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress the human-readable report")

    swp = sub.add_parser(
        "sweep",
        help="run a parameter grid over a base scenario, "
             "aggregate and export")
    source = swp.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset",
                        help="base scenario preset name")
    source.add_argument("--spec",
                        help="JSON/TOML scenario or sweep spec file")
    swp.add_argument("--grid", action="append", default=[],
                     metavar="AXIS=V1,V2",
                     help="cartesian axis, e.g. clients=5,10,20 or "
                          "seed=1..5 (repeatable)")
    swp.add_argument("--zip", action="append", default=[],
                     dest="zip_axes", metavar="AXIS=V1,V2",
                     help="lockstep axis: all --zip axes advance "
                          "together (repeatable)")
    swp.add_argument("--backend", choices=("sim", "tcp"),
                     default=None,
                     help="override the base scenario's first "
                          "declared backend")
    swp.add_argument("--workers", type=int, default=1,
                     help="worker processes (default 1: serial)")
    swp.add_argument("--csv", dest="csv_path", default=None,
                     help="write one CSV row per (cell, phase)")
    swp.add_argument("--series-csv", dest="series_csv_path",
                     default=None,
                     help="write the aggregated series (mean/stddev/"
                          "95%% CI across collapsed axes) as CSV; "
                          "axes follow --plot-x/--plot-y/--group-by")
    swp.add_argument("--json", dest="json_path", default=None,
                     help="write the full sweep report as JSON")
    swp.add_argument("--plot", dest="plot_path", default=None,
                     help="render curves to this image file "
                          "(needs matplotlib)")
    swp.add_argument("--plot-x", default=None,
                     help="axis for the plot's x (default: first "
                          "grid axis)")
    swp.add_argument("--plot-y", default=None,
                     help="metric for the plot's y (default: p50 "
                          "latency for closed loops, throughput for "
                          "open)")
    swp.add_argument("--group-by", default=None,
                     help="axis drawn as one line per value "
                          "(default: protocol when swept)")
    swp.add_argument("--no-cache", action="store_true",
                     help="always run every cell fresh (skip the "
                          "on-disk sim cell cache)")
    swp.add_argument("--cache-dir", default=None,
                     help="cell cache directory (default "
                          ".repro-cache/sweep-cells)")
    swp.add_argument("--quiet", action="store_true",
                     help="suppress the per-cell summary table")

    compare = sub.add_parser(
        "compare",
        help="run one preset across protocols, print a table")
    compare.add_argument("--preset", required=True)
    compare.add_argument("--protocols", default=None,
                         help="comma-separated list "
                              "(default: every registered protocol)")
    compare.add_argument("--seed", type=int, default=None)
    compare.add_argument("--json", dest="json_path", default=None)
    compare.add_argument("--csv", dest="csv_path", default=None,
                         help="write one CSV row per "
                              "(protocol, phase)")

    bench = sub.add_parser(
        "bench",
        help="run the pinned performance grid and write "
             "BENCH_<rev>.json")
    bench.add_argument("--grid", choices=("full", "smoke"),
                       default="full",
                       help="full pinned grid, or the reduced smoke "
                            "subset CI runs")
    bench.add_argument("--out", default=None,
                       help="artifact path (default BENCH_<rev>.json "
                            "in the working directory)")
    bench.add_argument("--baseline", default=None,
                       help="committed BENCH_*.json to gate against, "
                            "or a directory of them (the newest is "
                            "used); a regression exits 1")
    bench.add_argument("--tolerance", type=float, default=0.35,
                       help="allowed wall-clock throughput drop vs. "
                            "the baseline (default 0.35 = 35%%)")
    bench.add_argument("--quiet", action="store_true",
                       help="suppress the per-cell progress lines")

    serve = sub.add_parser(
        "serve",
        help="host a subset of a tcp scenario's replicas in this "
             "process (multi-machine host-map deployments)")
    serve.add_argument("--spec", required=True,
                       help="JSON/TOML scenario spec with a [hosts] "
                            "table pinning the served replicas")
    serve.add_argument("--replicas", required=True,
                       help="comma-separated replica ids to host "
                            "here, e.g. r2,r3")
    serve.add_argument("--snapshot", default=None,
                       help="write a final metrics+health snapshot "
                            "(JSON) here on drain")
    serve.add_argument("--data-dir", default=None,
                       help="back hosted replicas with an on-disk "
                            "WAL + snapshot store under this "
                            "directory and recover from it on start "
                            "(default: .repro-data/<scenario> when "
                            "the spec sets durable=true)")
    serve.add_argument("--trace", action="store_true",
                       help="collect causal spans into a bounded "
                            "ring and serve them on each obs "
                            "endpoint's GET /trace")
    serve.add_argument("--trace-sample", type=float, default=1.0,
                       metavar="RATE",
                       help="fraction of requests to trace "
                            "(default: 1.0)")
    serve.add_argument("--trace-ring", type=int, default=None,
                       metavar="SPANS",
                       help="ring-buffer capacity in spans "
                            "(default: 4096)")
    serve.add_argument("--json-logs", action="store_true",
                       help="emit structured JSON logs (one object "
                            "per line) with run/replica/seed context")

    from repro.analysis.cli import add_lint_parser
    add_lint_parser(sub)

    sub.add_parser("list-protocols",
                   help="registered protocols and capabilities")
    sub.add_parser("list-presets", help="registered scenario presets")
    return parser


def _resolve_scenario(args: argparse.Namespace):
    if getattr(args, "spec", None):
        scenario = load_spec(args.spec)
        if isinstance(scenario, SweepSpec):
            raise ConfigurationError(
                f"{args.spec} holds a sweep spec; run it with "
                f"`python -m repro sweep --spec {args.spec}`")
    else:
        scenario = preset(args.preset)
    overrides = {}
    if getattr(args, "protocol", None):
        overrides["protocol"] = args.protocol
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if overrides:
        scenario = scenario.with_overrides(**overrides)
    return scenario


def _coerce_token(token: str) -> Any:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError:
        pass
    else:
        if not math.isfinite(value):
            # Mirror the spec loader: a NaN/inf timeout defeats every
            # validate() comparison and runs silently wrong.
            raise ConfigurationError(
                f"non-finite value {token!r} is not allowed in sweep "
                f"axes")
        return value
    if token.lower() in ("true", "false"):
        return token.lower() == "true"
    if token.lower() in ("none", "null"):
        # e.g. --zip primary_region=virginia,none (leaderless arm)
        return None
    return token


def _parse_axis(expr: str) -> Tuple[str, Tuple[Any, ...]]:
    """``clients=5,10,20`` / ``seed=1..5`` -> (axis, values)."""
    axis, sep, value_expr = expr.partition("=")
    if not sep or not axis or not value_expr:
        raise ConfigurationError(
            f"bad --grid/--zip value {expr!r}: expected AXIS=V1,V2,... "
            f"or AXIS=LO..HI")
    values: List[Any] = []
    for token in value_expr.split(","):
        token = token.strip()
        if not token:
            raise ConfigurationError(
                f"bad --grid/--zip value {expr!r}: empty value "
                f"(trailing or doubled comma?)")
        lo, sep, hi = token.partition("..")
        if sep:
            # '..' always means an integer range; a malformed one is a
            # typo to surface, not a string value to run with.
            if not (_is_int(lo) and _is_int(hi)):
                raise ConfigurationError(
                    f"bad range {token!r} for sweep axis {axis!r}: "
                    f"expected LO..HI with integer bounds")
            if int(hi) < int(lo):
                raise ConfigurationError(
                    f"bad range {token!r} for sweep axis {axis!r}: "
                    f"end before start")
            values.extend(range(int(lo), int(hi) + 1))
        else:
            values.append(_coerce_token(token))
    return axis, tuple(values)


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _resolve_sweep(args: argparse.Namespace) -> SweepSpec:
    """Build the SweepSpec: spec file or preset base + CLI axes (CLI
    axes override same-named file axes)."""
    if args.spec:
        loaded = load_spec(args.spec)
        if isinstance(loaded, Scenario):
            loaded = SweepSpec(base=loaded)
    else:
        loaded = SweepSpec(base=args.preset)
    grid = dict(loaded.grid)
    zipped = dict(loaded.zipped)
    for expr in args.grid:
        axis, values = _parse_axis(expr)
        zipped.pop(axis, None)
        grid[axis] = values
    for expr in args.zip_axes:
        axis, values = _parse_axis(expr)
        grid.pop(axis, None)
        zipped[axis] = values
    return SweepSpec(base=loaded.base, grid=grid, zipped=zipped,
                     name=loaded.name)


def _write_json(path: str, reports: List[ExperimentReport]) -> None:
    if len(reports) == 1:
        payload = reports[0].to_dict()
    else:
        payload = {report.backend: report.to_dict()
                   for report in reports}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _backend_suffixed(path: str, backend: str, multi: bool) -> str:
    """``trace.json`` -> ``trace.sim.json`` when several backends run
    in one invocation, so their exports do not clobber each other."""
    if not multi:
        return path
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}.{backend}"
    return f"{stem}.{backend}.{ext}"


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args)
    if args.backend is None:
        backends = scenario.backends
    elif args.backend == "both":
        backends = ("sim", "tcp")
    else:
        backends = (args.backend,)
    tracing = bool(args.trace_path or args.trace_chrome_path)
    reports = []
    for backend in backends:
        runner = ScenarioRunner(backend=backend, trace=tracing,
                                trace_sample_rate=args.trace_sample)
        report = runner.run(scenario)
        reports.append(report)
        if not args.quiet:
            print(report.format_text())
            print()
        if not tracing:
            continue
        multi = len(backends) > 1
        from repro.trace import chrome_trace_json, export_json
        if args.trace_path:
            path = _backend_suffixed(args.trace_path, backend, multi)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(export_json(
                    runner.last_trace_spans,
                    dropped=runner.last_trace["dropped_spans"]))
            if not args.quiet:
                print(f"wrote {path}")
        if args.trace_chrome_path:
            path = _backend_suffixed(args.trace_chrome_path, backend,
                                     multi)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(chrome_trace_json(runner.last_trace_spans))
            if not args.quiet:
                print(f"wrote {path}")
    if args.json_path:
        _write_json(args.json_path, reports)
        if not args.quiet:
            print(f"wrote {args.json_path}")
    unsafe = [(report.backend, violation) for report in reports
              for violation in report.violations]
    for backend, violation in unsafe:
        print(f"violation [{backend}] {violation['check']}: "
              f"{violation['detail']}", file=sys.stderr)
    return 1 if unsafe else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import DEFAULT_CACHE_DIR, SweepCellCache

    spec = _resolve_sweep(args)
    total = spec.size()
    # Like `run`: an explicit --backend wins, else honor what the base
    # scenario declares (its first backend; a sweep runs on one).
    backend = args.backend or spec.base_scenario().backends[0]
    cache = None if args.no_cache else SweepCellCache(
        args.cache_dir or DEFAULT_CACHE_DIR)
    runner = SweepRunner(backend=backend, workers=args.workers,
                         cache=cache)

    done = {"n": 0}

    def progress(cell, report):
        done["n"] += 1
        if not args.quiet:
            label = cell.label() or cell.scenario.name
            print(f"[{done['n']}/{total}] {label}: "
                  f"{report.delivered} delivered, "
                  f"{report.throughput_per_sec:.1f}/s")

    report = runner.run(spec, progress=progress)
    if not args.quiet:
        if cache is not None and (cache.hits or cache.misses):
            print(f"cell cache: {cache.hits} hit(s), "
                  f"{cache.misses} miss(es) "
                  f"[{cache.root}; --no-cache to bypass]")
        print()
        print(report.format_text())
    if args.csv_path:
        report.to_csv(args.csv_path)
        if not args.quiet:
            print(f"wrote {args.csv_path}")
    if args.json_path:
        report.save(args.json_path)
        if not args.quiet:
            print(f"wrote {args.json_path}")
    if args.series_csv_path:
        x, y, group_by = _series_axes(args, spec, report,
                                      purpose="--series-csv")
        report.series_to_csv(x, y=y, group_by=group_by,
                             path=args.series_csv_path)
        if not args.quiet:
            print(f"wrote {args.series_csv_path}")
    if args.plot_path:
        from repro.sweep import plot_series
        x, y, group_by = _series_axes(args, spec, report,
                                      purpose="--plot")
        plot_series(report, x, y=y, group_by=group_by,
                    path=args.plot_path)
        if not args.quiet:
            print(f"wrote {args.plot_path}")
    return 0


def _series_axes(args: argparse.Namespace, spec: SweepSpec,
                 report, purpose: str) -> Tuple[str, str, Optional[str]]:
    """Resolve the (x, y, group_by) axes shared by ``--plot`` and
    ``--series-csv``: explicit flags win, else first axis / a mode-
    appropriate latency-or-throughput metric / protocol grouping."""
    axes = list(report.axes)
    if not axes:
        raise ConfigurationError(
            f"nothing to aggregate for {purpose}: the sweep has no "
            f"axes")
    x = args.plot_x or axes[0]
    if args.plot_y:
        y = args.plot_y
    elif spec.base_scenario().workload.mode == "open":
        y = "throughput_per_sec"
    else:
        y = "latency_p50_ms"
    group_by = args.group_by
    if group_by is None and "protocol" in report.axes and \
            x != "protocol":
        group_by = "protocol"
    return x, y, group_by


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = preset(args.preset)
    if args.seed is not None:
        scenario = scenario.with_overrides(seed=args.seed)
    if args.protocols:
        protocols = tuple(p.strip()
                          for p in args.protocols.split(",") if p.strip())
    else:
        protocols = available_protocols()
    reports = []
    for protocol in protocols:
        get_protocol(protocol)  # fail fast with the available choices
        variant = scenario.with_overrides(
            protocol=protocol, name=f"{scenario.name}-{protocol}")
        reports.append(ScenarioRunner(backend="sim").run(variant))

    header = (f"{'protocol':10s} {'n':>6s} {'thr/s':>8s} "
              f"{'mean':>8s} {'p50':>8s} {'p99':>8s} {'fast':>6s} "
              f"{'oc':>4s} {'vc':>4s}")
    print(f"preset {scenario.name!r} across protocols "
          f"(seed={scenario.seed}):")
    print(header)
    print("-" * len(header))
    for protocol, report in zip(protocols, reports):
        latency = report.latency
        fast = report.fast_path_ratio
        fast_s = f"{fast:.0%}" if not math.isnan(fast) else "-"
        print(f"{protocol:10s} {report.delivered:6d} "
              f"{report.throughput_per_sec:8.1f} "
              f"{latency.mean:8.1f} {latency.p50:8.1f} "
              f"{latency.p99:8.1f} {fast_s:>6s} "
              f"{report.owner_changes:4d} {report.view_changes:4d}")
    if args.json_path:
        payload = {report.protocol: report.to_dict()
                   for report in reports}
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")
        print(f"wrote {args.json_path}")
    if args.csv_path:
        rows = [row for report in reports for row in report.to_rows()]
        rows_to_csv(rows, list(REPORT_CSV_COLUMNS), args.csv_path)
        print(f"wrote {args.csv_path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        compare,
        current_rev,
        grid_cells,
        newest_baseline,
        run_bench,
    )

    # Resolved before the run writes anything: --out may land in the
    # very directory --baseline names.
    baseline_path = newest_baseline(args.baseline) \
        if args.baseline else None
    total = len(grid_cells(args.grid))
    done = {"n": 0}

    def progress(cell, metrics):
        done["n"] += 1
        if not args.quiet:
            events = metrics.get("events_per_second")
            extra = f", {events:.0f} events/s" if events else ""
            print(f"[{done['n']}/{total}] {cell.name}: "
                  f"{metrics['delivered']} delivered in "
                  f"{metrics['wall_seconds']:.2f}s "
                  f"({metrics['throughput']:.0f}/s{extra})")

    artifact = run_bench(grid=args.grid, progress=progress)
    out = args.out or f"BENCH_{artifact['rev']}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2, allow_nan=False)
        fh.write("\n")
    if not args.quiet:
        print(f"wrote {out}")
    if baseline_path:
        with open(baseline_path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        problems = compare(artifact, baseline,
                           tolerance=args.tolerance)
        if problems:
            print(f"bench gate FAILED against {baseline_path} "
                  f"(baseline rev {baseline.get('rev', '?')}, "
                  f"new rev {current_rev()}):", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        if not args.quiet:
            print(f"bench gate passed against {baseline_path} "
                  f"(tolerance {args.tolerance:.0%})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import ServeSession, configure_json_logging

    scenario = load_spec(args.spec)
    if isinstance(scenario, SweepSpec):
        raise ConfigurationError(
            f"{args.spec} holds a sweep spec; serve needs a scenario "
            f"with a 'hosts' table")
    replicas = tuple(r.strip() for r in args.replicas.split(",")
                     if r.strip())
    if not replicas:
        raise ConfigurationError(
            "--replicas needs at least one replica id")
    if args.json_logs:
        configure_json_logging(run=scenario.name, replicas=replicas,
                               seed=str(scenario.seed))
    session = ServeSession(scenario, replicas,
                           snapshot_path=args.snapshot,
                           data_dir=args.data_dir,
                           trace=args.trace,
                           trace_sample_rate=args.trace_sample,
                           trace_ring=args.trace_ring)

    def announce() -> None:
        cluster = session.cluster
        served = ", ".join(
            f"{rid}@{cluster.addresses[rid][0]}:"
            f"{cluster.addresses[rid][1]}" for rid in replicas)
        print(f"serving {served} [scenario {scenario.name!r}, "
              f"{scenario.protocol}]", flush=True)
        obs = ", ".join(f"{rid}@{host}:{port}" for rid, (host, port)
                        in sorted(session.endpoints.items()))
        if obs:
            print(f"obs endpoints (metrics/healthz/control): {obs}",
                  flush=True)

    try:
        asyncio.run(session.run(on_started=announce))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_list_protocols() -> int:
    print(f"{'name':10s} {'capabilities'}")
    print("-" * 48)
    for name in available_protocols():
        leaderless = get_protocol(name).leaderless
        print(f"{name:10s} {'leaderless' if leaderless else '-'}")
    return 0


def _cmd_list_presets() -> int:
    for name in available_presets():
        scenario = preset(name)
        backends = "+".join(scenario.backends)
        print(f"{name:20s} [{scenario.protocol}, {backends}] "
              f"{scenario.description}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "lint":
            from repro.analysis.cli import cmd_lint
            return cmd_lint(args)
        if args.command == "list-protocols":
            return _cmd_list_protocols()
        if args.command == "list-presets":
            return _cmd_list_presets()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
