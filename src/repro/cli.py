"""Command-line experiment runner: ``python -m repro <experiment> [...]``.

Experiments:

* ``figure8`` — aggregate throughput vs offered load (paper Figure 8)
* ``figure9`` — mean end-to-end delay vs offered load (paper Figure 9)
* ``ranges``  — the power-level ↔ decode-range table (Section IV)
* ``list``    — every registered scenario component, per slot, with its
  param schema (the building blocks a ``spec.json`` can name)
* ``quickrun`` (alias ``quick``) — one scenario, one protocol, printed
  summary; ``--scenario spec.json`` runs a scenario defined purely as data
  through the declarative builder and prints its content key
* ``energy`` — run one declarative scenario and print its per-node,
  per-state energy table (and battery deaths, if any); the scenario's
  ``energy`` component selects the accounting model
* ``trace`` — run one declarative scenario with tracing on and export the
  event stream as JSONL (``--out``), with per-category filters
* ``stats`` — run one declarative scenario with periodic probes and print
  per-gauge time-series tables (``--profile`` adds the run's CPU time by
  layer and root handler, sampled)
* ``campaign`` — a protocol × load × seed grid through the parallel
  campaign runner, with an optional content-addressed result store;
  ``--live`` streams a per-cell progress line (events/sec, ETA, peak RSS)
  while cells execute and records runtime stats into the store
* ``fleet`` — the fault-tolerant campaign fleet (see ``docs/campaigns.md``):
  ``serve`` enqueues a grid into a store's durable work queue and drains it
  with supervised lease-holding workers; ``work`` runs one standalone
  worker against any fleet store (same machine or shared filesystem);
  ``status`` prints the structured liveness snapshot (tasks, leases,
  worker heartbeats, stalls) and creates nothing unless asked to
  ``--stop`` or ``--clear-stop``; ``compact`` folds each result shard to one
  line per key, crash-safely, and is the one command that migrates a flat
  pre-shard ``results.jsonl`` into shards (any other command refuses such
  a store with exit status 2 and leaves it untouched)
* ``study NAME`` — run one standing study (``repro.studies.STUDIES``:
  energy_savings, chaos_resilience, capture_study) and write its snapshot
  to ``studies/NAME.json``; the grid is part of the study's declaration,
  so only ``--jobs`` and ``--store`` are flags

``--scale quick`` (default) runs a reduced configuration; ``--scale full``
uses the paper's 50 nodes / 400 s / 8 loads.

``figure8``/``figure9``/``campaign`` share the campaign flags: ``--jobs N``
fans cells out to N worker processes (results are identical to serial —
every cell carries its own seed); ``--store DIR`` memoises finished cells
on disk; ``--no-resume`` forces recomputation of stored cells.  Re-running
against the same store is a pure cache hit, and an interrupted campaign
resumes from the cells already on disk.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from dataclasses import replace
from pathlib import Path

from repro.analysis.export import sweep_to_csv
from repro.analysis.plotting import ascii_chart
from repro.analysis.report import paper_vs_measured
from repro.campaign.runner import run_specs
from repro.campaign.spec import Campaign
from repro.campaign.store import FlatStoreError, ResultStore
from repro.config import ScenarioConfig
from repro.experiments.figure8 import (
    FIGURE8_LOADS_KBPS,
    PAPER_FIG8_KBPS,
    PROTOCOLS,
    run_figure8,
)
from repro.experiments.figure9 import PAPER_FIG9_MS
from repro.experiments.ranges import max_power_ranges, power_level_table
from repro.experiments.scenario import build_network
from repro.experiments.sweep import sweep_from_campaign
from repro.registry import all_registries, registry
from repro.scenariospec import ComponentSpec, ScenarioSpec
from repro.studies import SNAPSHOT_DIR, STUDIES, run_study

#: Default ``repro trace`` categories: the low-rate, semantically dense
#: stream (application endpoints and every drop).  PHY signal edges exist
#: too (phy.tx / phy.rx_ok / phy.rx_err / phy.cs) but dominate volume.
DEFAULT_TRACE_CATEGORIES = "app.tx,app.rx,mac.drop,net.drop,mac.handshake"


def _add_campaign_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (1 = serial)")
    p.add_argument("--store", type=str, default="",
                   help="result store directory (enables caching/resume)")
    p.add_argument("--resume", dest="resume", action="store_true", default=True,
                   help="reuse cells already in the store (default)")
    p.add_argument("--no-resume", dest="resume", action="store_false",
                   help="ignore stored cells and re-simulate everything")
    p.add_argument("--timeout", type=float, default=0.0,
                   help="per-cell wall-clock budget [s] in the pooled path; "
                        "an overdue (hung) cell is retried, then recorded "
                        "as a failure (0 = no limit)")
    p.add_argument("--retries", type=int, default=0,
                   help="extra attempts per failing cell before its error "
                        "is recorded and the campaign moves on")


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro", description="PCMAC reproduction experiments"
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    for fig in ("figure8", "figure9"):
        p = sub.add_parser(fig, help=f"reproduce the paper's {fig}")
        p.add_argument("--scale", choices=("quick", "full"), default="quick")
        p.add_argument("--seeds", type=str, default="1")
        p.add_argument("--loads", type=str, default="")
        p.add_argument("--nodes", type=int, default=0,
                       help="override node count (0 = scale default)")
        p.add_argument("--duration", type=float, default=0.0,
                       help="override simulated seconds (0 = scale default)")
        _add_campaign_flags(p)

    sub.add_parser("ranges", help="power level vs range table")

    sub.add_parser(
        "list", help="registered scenario components, per slot, with params"
    )

    q = sub.add_parser(
        "quickrun", aliases=["quick"], help="single scenario run"
    )
    q.add_argument("--scenario", type=str, default="",
                   help="run a declarative ScenarioSpec from this JSON file "
                        "(overrides every other flag)")
    q.add_argument("--protocol", choices=registry("mac").names(),
                   default="pcmac")
    q.add_argument("--nodes", type=int, default=20)
    q.add_argument("--duration", type=float, default=30.0)
    q.add_argument("--load-kbps", type=float, default=400.0)
    q.add_argument("--seed", type=int, default=1)

    e = sub.add_parser(
        "energy",
        help="run a scenario and print its per-node/per-state energy table",
    )
    e.add_argument("--scenario", type=str, required=True,
                   help="declarative ScenarioSpec JSON file; give it a "
                        "non-null energy component (e.g. wavelan) to "
                        "enable accounting")

    t = sub.add_parser(
        "trace",
        help="run a scenario with tracing on and export the event stream",
    )
    t.add_argument("--scenario", type=str, required=True,
                   help="declarative ScenarioSpec JSON file")
    t.add_argument("--categories", type=str, default=DEFAULT_TRACE_CATEGORIES,
                   help="comma-separated trace categories to enable")
    t.add_argument("--out", type=str, default="",
                   help="stream records to this JSONL file (unbounded; "
                        "default: collect in memory and print)")
    t.add_argument("--limit", type=int, default=20,
                   help="records to print when not exporting")
    t.add_argument("--node", type=int, default=-1,
                   help="only print records for this node (-1 = all)")
    t.add_argument("--max-records", type=int, default=0,
                   help="in-memory record cap override (0 = default)")

    st = sub.add_parser(
        "stats",
        help="run a scenario with periodic probes; print gauge time series",
    )
    st.add_argument("--scenario", type=str, required=True,
                    help="declarative ScenarioSpec JSON file")
    st.add_argument("--interval", type=float, default=0.0,
                    help="probe interval [s] (0 = spec's own, else 1s)")
    st.add_argument("--gauges", type=str, default="",
                    help="comma-separated gauge subset (default: all)")
    st.add_argument("--node", type=int, default=-1,
                    help="per-node drill-down for --gauges' first gauge")
    st.add_argument("--profile", action="store_true",
                    help="also sample the run's CPU time and print it per "
                         "layer and per root handler")

    c = sub.add_parser(
        "campaign",
        help="run a protocol × load × seed grid via the campaign runner",
    )
    c.add_argument("--protocols", type=str, default=",".join(PROTOCOLS),
                   help="comma-separated MAC protocols")
    c.add_argument("--loads", type=str, default="300,500,700",
                   help="comma-separated offered loads [kbps]")
    c.add_argument("--seeds", type=str, default="1",
                   help="comma-separated replication seeds")
    c.add_argument("--nodes", type=int, default=30)
    c.add_argument("--duration", type=float, default=60.0)
    c.add_argument("--export-csv", type=str, default="",
                   help="write per-run CSV to this path ('-' = stdout)")
    c.add_argument("--live", action="store_true",
                   help="stream a live per-cell progress line (sim-time "
                        "rate, events/sec, ETA, peak RSS) and record "
                        "runtime stats into the store")
    _add_campaign_flags(c)

    sy = sub.add_parser(
        "study",
        help="run a standing study and write its snapshot to "
             f"{SNAPSHOT_DIR}/NAME.json",
    )
    sy.add_argument("name", choices=list(STUDIES))
    sy.add_argument("--jobs", type=int, default=1,
                    help="worker processes (1 = serial)")
    sy.add_argument("--store", type=str, default="",
                    help="result store directory (enables caching/resume)")

    f = sub.add_parser(
        "fleet",
        help="fault-tolerant campaign fleet: lease-based work queue over "
             "a sharded, content-addressed result store",
    )
    fsub = f.add_subparsers(dest="fleet_cmd", required=True)

    fs = fsub.add_parser(
        "serve",
        help="enqueue a protocol × load × seed grid and drain it with "
             "supervised lease-holding workers",
    )
    fs.add_argument("store", help="fleet store directory (created if new)")
    fs.add_argument("--protocols", type=str, default=",".join(PROTOCOLS),
                    help="comma-separated MAC protocols")
    fs.add_argument("--loads", type=str, default="300,500,700",
                    help="comma-separated offered loads [kbps]")
    fs.add_argument("--seeds", type=str, default="1",
                    help="comma-separated replication seeds")
    fs.add_argument("--nodes", type=int, default=30)
    fs.add_argument("--duration", type=float, default=60.0)
    fs.add_argument("--jobs", type=int, default=2,
                    help="supervised worker processes to spawn")
    fs.add_argument("--retries", type=int, default=0,
                    help="extra attempts per failing cell before its error "
                         "is recorded permanently")
    fs.add_argument("--lease-ttl", type=float, default=0.0,
                    help="lease time-to-live [s]; a worker silent this "
                         "long forfeits its run to the fleet (0 = default)")
    fs.add_argument("--live", action="store_true",
                    help="stream per-cell progress heartbeats")

    fw = fsub.add_parser(
        "work",
        help="run one standalone worker against a fleet store (any "
             "machine sharing the filesystem)",
    )
    fw.add_argument("store", help="fleet store directory")
    fw.add_argument("--lease-ttl", type=float, default=0.0,
                    help="lease time-to-live [s] (0 = default)")
    fw.add_argument("--max-attempts", type=int, default=0,
                    help="attempt budget per run before its error is "
                         "recorded permanently (0 = default)")
    fw.add_argument("--max-runs", type=int, default=0,
                    help="exit after claiming this many runs (0 = no cap)")
    fw.add_argument("--wait", action="store_true",
                    help="idle when the queue is empty instead of exiting "
                         "(service mode; stop with `repro fleet status` "
                         "STOP or a signal)")

    fst = fsub.add_parser(
        "status",
        help="liveness snapshot: queued tasks, lease owners, worker "
             "heartbeats, stalls",
    )
    fst.add_argument("store", help="fleet store directory")
    fst.add_argument("--stall-after", type=float, default=0.0,
                     help="flag workers whose heartbeat is older than "
                          "this [s] (0 = default)")
    fst.add_argument("--stop", action="store_true",
                     help="request a cooperative fleet-wide stop (workers "
                          "finish their current run, then exit)")
    fst.add_argument("--clear-stop", action="store_true",
                     help="withdraw a previously requested stop")

    fc = fsub.add_parser(
        "compact",
        help="fold each result shard to one line per key (crash-safe; "
             "concurrent readers and writers are unaffected); a flat "
             "pre-shard results.jsonl is first migrated into shards",
    )
    fc.add_argument("store", help="fleet store directory")

    return parser.parse_args(argv)


def _scale_config(scale: str) -> tuple[ScenarioConfig, tuple[float, ...]]:
    if scale == "full":
        return ScenarioConfig(), FIGURE8_LOADS_KBPS
    cfg = ScenarioConfig(node_count=30, duration_s=60.0)
    return cfg, (300.0, 500.0, 700.0, 900.0)


def _run_figure(args: argparse.Namespace, *, delay: bool) -> int:
    cfg, loads = _scale_config(args.scale)
    if args.loads:
        loads = tuple(float(x) for x in args.loads.split(","))
    if args.nodes:
        cfg = replace(cfg, node_count=args.nodes)
    if args.duration:
        cfg = replace(cfg, duration_s=args.duration)
    seeds = tuple(int(s) for s in args.seeds.split(","))
    sweep = run_figure8(
        cfg,
        loads_kbps=loads,
        seeds=seeds,
        progress=lambda s: print("  " + s),
        jobs=args.jobs,
        store=ResultStore(args.store) if args.store else None,
        resume=args.resume,
    )
    if delay:
        measured = sweep.delay_series()
        paper = {
            k: _resample(PAPER_FIG9_MS[k], FIGURE8_LOADS_KBPS, loads)
            for k in PROTOCOLS
        }
        title, ylab = "Figure 9: end-to-end delay vs offered load", "delay [ms]"
    else:
        measured = sweep.throughput_series()
        paper = {
            k: _resample(PAPER_FIG8_KBPS[k], FIGURE8_LOADS_KBPS, loads)
            for k in PROTOCOLS
        }
        title, ylab = "Figure 8: throughput vs offered load", "throughput [kbps]"
    print()
    print(paper_vs_measured("load [kbps]", loads, paper, measured))
    print()
    chart = {name: (list(loads), series) for name, series in measured.items()}
    print(ascii_chart(chart, title=title, x_label="offered load [kbps]", y_label=ylab))
    return 0


def _resample(
    series: tuple[float, ...], xs: tuple[float, ...], targets: tuple[float, ...]
) -> list[float]:
    """Linear interpolation of the digitised paper curves onto other loads."""
    out = []
    for t in targets:
        if t <= xs[0]:
            out.append(series[0])
            continue
        if t >= xs[-1]:
            out.append(series[-1])
            continue
        for i in range(len(xs) - 1):
            if xs[i] <= t <= xs[i + 1]:
                frac = (t - xs[i]) / (xs[i + 1] - xs[i])
                out.append(series[i] + frac * (series[i + 1] - series[i]))
                break
    return out


def _run_ranges() -> int:
    rows = power_level_table()
    print(f"{'P [mW]':>9}  {'paper [m]':>10}  {'computed [m]':>13}  {'sense [m]':>10}  {'err':>6}")
    for row in rows:
        print(
            f"{row.power_mw:9.2f}  {row.paper_range_m:10.0f}  "
            f"{row.computed_range_m:13.1f}  {row.sensing_range_m:10.1f}  "
            f"{row.relative_error * 100:5.1f}%"
        )
    decode, sense = max_power_ranges()
    print(f"\nmax power geometry: decode {decode:.1f} m (paper 250), "
          f"sense {sense:.1f} m (paper 550)")
    return 0


def _run_list() -> int:
    """Enumerate every registered component, slot by slot."""
    for slot, reg in all_registries().items():
        print(f"{slot}:")
        for entry in reg.entries():
            sig = entry.signature()
            line = f"  {entry.name:<14}{entry.doc}"
            print(line.rstrip())
            if sig:
                print(f"  {'':<14}params: {sig}")
    return 0


def _run_quick(args: argparse.Namespace) -> int:
    if args.scenario:
        spec = ScenarioSpec.load(args.scenario)
        print(f"scenario: {args.scenario}")
        print(
            "  components: "
            + ", ".join(
                f"{slot}={comp}" for slot, comp in spec.components().items()
            )
        )
        print(f"  key: {spec.key()}")
        net = spec.build()
    else:
        cfg = ScenarioConfig(
            node_count=args.nodes,
            duration_s=args.duration,
            seed=args.seed,
        )
        cfg = replace(
            cfg,
            traffic=replace(cfg.traffic, offered_load_bps=args.load_kbps * 1000.0),
        )
        net = build_network(cfg, args.protocol)
    result = net.run()
    print(result.row())
    print(f"  fairness (Jain): {result.fairness:.3f}")
    print(f"  drops: {result.drops}")
    print(f"  events: {result.events_executed:,} in {result.wallclock_s:.1f}s wall")
    return 0


def _run_energy(args: argparse.Namespace) -> int:
    """Run one declarative scenario and print its energy accounting."""
    from repro.metrics.summary import energy_node_table, summarise_energy

    spec = ScenarioSpec.load(args.scenario)
    print(f"scenario: {args.scenario}")
    print(f"  energy model: {spec.energy}")
    print(f"  key: {spec.key()}")
    result = spec.build().run()
    print(result.row())
    print()
    print(energy_node_table(result))
    summary = summarise_energy(result)
    if summary is not None:
        print()
        print(
            f"full-stack energy per delivered bit: "
            f"{summary.energy_per_bit_j * 1e6:.2f} J/Mbit "
            f"(radiated only: {summary.radiated_j:.5f} J of "
            f"{summary.total_j:.2f} J total)"
        )
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    """Run one scenario with tracing enabled; export or print the stream."""
    from repro.obs.sinks import JsonlSink

    categories = tuple(c for c in args.categories.split(",") if c)
    if not categories:
        print("error: --categories must name at least one category",
              file=sys.stderr)
        return 2
    spec = ScenarioSpec.load(args.scenario)
    spec = replace(
        spec,
        observability=ComponentSpec(
            "trace", categories=categories, max_records=args.max_records
        ),
    )
    print(f"scenario: {args.scenario}")
    print(f"  categories: {', '.join(categories)}")
    print(f"  key: {spec.key()}")
    net = spec.build()
    sink = None
    if args.out:
        # The sink consumes matching records as they happen — unbounded
        # export, nothing dropped, independent of the in-memory cap.
        sink = JsonlSink(args.out, categories=categories)
        net.tracer.sink = sink
    result = net.run()
    print(result.row())
    counters = {
        cat: count for cat, count in sorted(net.tracer.counters.items()) if count
    }
    print("  counters: " + (", ".join(
        f"{cat}={count}" for cat, count in counters.items()) or "(none)"))
    if sink is not None:
        sink.close()
        print(f"  wrote {sink.written} records to {args.out} "
              f"(dropped: {net.tracer.dropped})")
        return 0
    shown = 0
    for rec in net.tracer.records:
        if args.node >= 0 and rec.node != args.node:
            continue
        detail = " ".join(f"{k}={v}" for k, v in rec.detail)
        print(f"  {rec.time:>10.6f}  n{rec.node:<3} {rec.category:<14} {detail}")
        shown += 1
        if shown >= args.limit:
            break
    remaining = len(net.tracer.records) - shown
    if remaining > 0:
        print(f"  ... {remaining} more in memory (use --out to export all)")
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    """Run one scenario with probes on; print the gauge time series."""
    from repro.analysis.timeseries import node_table, timeseries_table

    spec = ScenarioSpec.load(args.scenario)
    gauges = tuple(g for g in args.gauges.split(",") if g)
    # Respect a spec that already probes unless the flags override it.
    needs_override = (
        spec.observability.name not in ("probes", "flight")
        or args.interval > 0
        or bool(gauges)
        or args.profile
    )
    if needs_override:
        name = "flight" if args.profile else "probes"
        params: dict = {"interval_s": args.interval or 1.0}
        if gauges:
            params["gauges"] = gauges
        spec = replace(spec, observability=ComponentSpec(name, **params))
    print(f"scenario: {args.scenario}")
    print(f"  observability: {spec.observability}")
    print(f"  key: {spec.key()}")
    result = spec.build().run()
    print(result.row())
    print()
    ts = result.timeseries
    assert ts is not None  # the override above guarantees probes
    if args.node >= 0:
        gauge = gauges[0] if gauges else ts.gauges[0]
        if args.node >= ts.node_count:
            print(f"error: node {args.node} out of range "
                  f"(0..{ts.node_count - 1})", file=sys.stderr)
            return 2
        print(node_table(ts, gauge))
    else:
        print(timeseries_table(ts, gauges=gauges))
    if result.profile is not None:
        print()
        print(result.profile.table())
    return 0


def _run_campaign(args: argparse.Namespace) -> int:
    base = ScenarioConfig(node_count=args.nodes, duration_s=args.duration)
    campaign = Campaign.build(
        base,
        tuple(args.protocols.split(",")),
        tuple(float(x) for x in args.loads.split(",")),
        tuple(int(s) for s in args.seeds.split(",")),
    )
    store = ResultStore(args.store) if args.store else None
    print(
        f"campaign: {len(campaign.protocols)} protocols × "
        f"{len(campaign.loads_kbps)} loads × {len(campaign.seeds)} seeds "
        f"= {campaign.size} cells, jobs={args.jobs}"
        + (f", store={args.store}" if args.store else "")
    )
    telemetry = None
    if args.live:
        def telemetry(p) -> None:
            # Heartbeats overwrite one status line; the per-cell completion
            # lines from `progress` print over it with a trailing pad.
            print(f"  {p.line():<76}", end="\n" if p.done else "\r", flush=True)

    # Graceful shutdown: the first SIGINT/SIGTERM stops submitting new
    # cells and drains in-flight ones (every finished cell reaches the
    # store); a second signal force-quits immediately.
    signals_seen = {"count": 0}

    def _on_signal(signum, frame) -> None:
        # No print() here: the handler can fire while the main thread is
        # mid-write on the same buffered stream, and CPython's io layer
        # raises "reentrant call inside BufferedWriter" for that — which
        # would abort the drain loop itself.  Raw os.write is safe.
        signals_seen["count"] += 1
        if signals_seen["count"] >= 2:
            os.write(2, b"\nforce quit (second signal).\n")
            raise SystemExit(130)
        os.write(
            2,
            f"\n{signal.Signals(signum).name}: draining in-flight cells, "
            "then stopping (signal again to force quit)...\n".encode(),
        )

    old_int = signal.signal(signal.SIGINT, _on_signal)
    old_term = signal.signal(signal.SIGTERM, _on_signal)
    try:
        report = run_specs(
            campaign.specs(),
            jobs=args.jobs,
            store=store,
            resume=args.resume,
            progress=lambda s: print("  " + f"{s:<76}"),
            telemetry=telemetry,
            timeout_s=args.timeout or None,
            retries=args.retries,
            should_stop=lambda: signals_seen["count"] > 0,
        )
    finally:
        signal.signal(signal.SIGINT, old_int)
        signal.signal(signal.SIGTERM, old_term)

    print(
        f"\ndone: {report.executed} simulated, {report.cached} cached, "
        f"{len(report.errors)} failed, {report.wallclock_s:.1f}s wall"
    )
    for key, err in report.errors.items():
        print(
            f"  failed {key[:12]}: {err['kind']}: {err['message']} "
            f"(attempts={err['attempts']})"
        )
    if report.stopped or report.errors:
        resume_cmd = (
            f"repro campaign --protocols {args.protocols} "
            f"--loads {args.loads} --seeds {args.seeds} "
            f"--nodes {args.nodes} --duration {args.duration} "
            f"--jobs {args.jobs}"
            + (f" --store {args.store}" if args.store else "")
        )
        if args.store:
            print(f"resume with: {resume_cmd}")
        else:
            print(
                "no --store was set, so finished cells were not persisted; "
                f"re-run (ideally with --store DIR): {resume_cmd}"
            )
        if report.stopped:
            return 130
    if len(report.results) < campaign.size:
        # Stopped or partially failed: the grid is incomplete, so the
        # sweep charts/CSV below would KeyError — stop at the summary.
        return 1 if report.errors else 0
    sweep = sweep_from_campaign(campaign, report.results)
    for title, series, unit in (
        ("throughput [kbps]", sweep.throughput_series(), "kbps"),
        ("end-to-end delay [ms]", sweep.delay_series(), "ms"),
    ):
        chart = {name: (list(sweep.loads_kbps), vals) for name, vals in series.items()}
        print()
        print(ascii_chart(chart, title=f"campaign: {title}",
                          x_label="offered load [kbps]", y_label=unit))
    if args.export_csv:
        # Export the requested grid, not the whole store — a shared store
        # may hold cells from other campaigns.
        csv_text = sweep_to_csv(sweep)
        if args.export_csv == "-":
            print(csv_text, end="")
        else:
            with open(args.export_csv, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
            print(f"wrote {args.export_csv}")
    return 0


def _run_fleet_serve(args: argparse.Namespace) -> int:
    from repro.fleet import DEFAULT_LEASE_TTL_S

    base = ScenarioConfig(node_count=args.nodes, duration_s=args.duration)
    campaign = Campaign.build(
        base,
        tuple(args.protocols.split(",")),
        tuple(float(x) for x in args.loads.split(",")),
        tuple(int(s) for s in args.seeds.split(",")),
    )
    store = ResultStore(args.store)
    ttl = args.lease_ttl or DEFAULT_LEASE_TTL_S
    print(
        f"fleet serve: {campaign.size} cells, jobs={args.jobs}, "
        f"lease ttl={ttl:.0f}s, store={args.store}"
    )
    telemetry = None
    if args.live:
        def telemetry(p) -> None:
            print(f"  {p.line():<76}", end="\n" if p.done else "\r", flush=True)

    # Same two-stage shutdown as `repro campaign`: first signal requests a
    # cooperative stop (workers finish their current run; the queue keeps
    # the rest for a resume), second force-quits.
    signals_seen = {"count": 0}

    def _on_signal(signum, frame) -> None:
        signals_seen["count"] += 1
        if signals_seen["count"] >= 2:
            os.write(2, b"\nforce quit (second signal).\n")
            raise SystemExit(130)
        os.write(
            2,
            f"\n{signal.Signals(signum).name}: stopping the fleet after "
            "in-flight runs (signal again to force quit)...\n".encode(),
        )

    old_int = signal.signal(signal.SIGINT, _on_signal)
    old_term = signal.signal(signal.SIGTERM, _on_signal)
    try:
        report = run_specs(
            campaign.specs(),
            jobs=args.jobs,
            store=store,
            progress=lambda s: print("  " + f"{s:<76}"),
            telemetry=telemetry,
            retries=args.retries,
            should_stop=lambda: signals_seen["count"] > 0,
            fleet=True,
            lease_ttl_s=ttl,
        )
    finally:
        signal.signal(signal.SIGINT, old_int)
        signal.signal(signal.SIGTERM, old_term)

    print(
        f"\ndone: {report.executed} simulated, {report.cached} cached, "
        f"{len(report.errors)} failed, {report.wallclock_s:.1f}s wall"
    )
    for key, err in report.errors.items():
        owners = err.get("owners") or ()
        extra = f", owners={len(owners)}" if owners else ""
        print(
            f"  failed {key[:12]}: {err['kind']}: {err['message']} "
            f"(attempts={err['attempts']}{extra})"
        )
    if report.stopped:
        print(
            f"unfinished runs remain queued; resume with: "
            f"repro fleet serve {args.store} --protocols {args.protocols} "
            f"--loads {args.loads} --seeds {args.seeds} "
            f"--nodes {args.nodes} --duration {args.duration}"
        )
        return 130
    return 1 if report.errors else 0


def _run_fleet_work(args: argparse.Namespace) -> int:
    from repro.fleet import (
        DEFAULT_LEASE_TTL_S,
        DEFAULT_MAX_ATTEMPTS,
        FleetWorker,
        WorkQueue,
    )

    store = ResultStore(args.store)
    queue = WorkQueue(store.root / "fleet")
    worker = FleetWorker(
        store,
        queue,
        lease_ttl_s=args.lease_ttl or DEFAULT_LEASE_TTL_S,
        max_attempts=args.max_attempts or DEFAULT_MAX_ATTEMPTS,
    )
    print(f"worker {worker.worker_id} on {args.store}")

    signals_seen = {"count": 0}

    def _on_signal(signum, frame) -> None:
        signals_seen["count"] += 1
        if signals_seen["count"] >= 2:
            os.write(2, b"\nforce quit (second signal).\n")
            raise SystemExit(130)
        os.write(2, b"\nfinishing current run, then exiting...\n")

    old_int = signal.signal(signal.SIGINT, _on_signal)
    old_term = signal.signal(signal.SIGTERM, _on_signal)
    try:
        report = worker.run(
            max_runs=args.max_runs or None,
            wait_for_work=args.wait,
            should_stop=lambda: signals_seen["count"] > 0,
        )
    finally:
        signal.signal(signal.SIGINT, old_int)
        signal.signal(signal.SIGTERM, old_term)
    print(report.line())
    return 0


def _run_fleet_status(args: argparse.Namespace) -> int:
    from repro.fleet import DEFAULT_STALL_AFTER_S, WorkQueue, fleet_status

    if not (args.stop or args.clear_stop) and not ResultStore.exists(args.store):
        # A status query creates nothing, so a mistyped path is an error
        # rather than a new, empty store.
        print(f"error: no result store at {args.store}", file=sys.stderr)
        return 2
    store = ResultStore(args.store)
    queue = WorkQueue(store.root / "fleet")
    if args.stop:
        queue.request_stop()
        print("stop requested: workers exit after their current run")
    if args.clear_stop:
        queue.clear_stop()
        print("stop cleared")
    status = fleet_status(
        store, queue, stall_after_s=args.stall_after or DEFAULT_STALL_AFTER_S
    )
    print(status.render())
    return 0


def _run_fleet_compact(args: argparse.Namespace) -> int:
    if not ResultStore.exists(args.store):
        # Like status: a mistyped path is an error, not a new empty store.
        print(f"error: no result store at {args.store}", file=sys.stderr)
        return 2
    if ResultStore.migrate_legacy(args.store):
        print(f"migrated the flat results.jsonl of {args.store} into shards")
    stats = ResultStore(args.store).compact()
    print(
        f"compacted {stats.shards} shard(s): {stats.lines_before} -> "
        f"{stats.lines_after} line(s), {stats.folded} folded, "
        f"{stats.quarantined} quarantined"
    )
    return 0


def _run_fleet(args: argparse.Namespace) -> int:
    if args.fleet_cmd == "serve":
        return _run_fleet_serve(args)
    if args.fleet_cmd == "work":
        return _run_fleet_work(args)
    if args.fleet_cmd == "status":
        return _run_fleet_status(args)
    if args.fleet_cmd == "compact":
        return _run_fleet_compact(args)
    return 2  # pragma: no cover - argparse enforces choices


def _run_study(args: argparse.Namespace) -> int:
    study = STUDIES[args.name]
    store = ResultStore(args.store) if args.store else None
    snapshot = run_study(
        study, jobs=args.jobs, store=store, progress=lambda s: print("  " + s)
    )
    out = Path(SNAPSHOT_DIR) / f"{study.name}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {out}\n\n{study.render(snapshot)}")
    failures = study.check(snapshot)
    for claim in failures:
        print(f"claim failed: {claim}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.  A flat pre-shard store is refused with a one-line
    ``error:`` on stderr and exit status 2, before anything runs."""
    try:
        return _dispatch(_parse_args(argv))
    except FlatStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.experiment == "figure8":
        return _run_figure(args, delay=False)
    if args.experiment == "figure9":
        return _run_figure(args, delay=True)
    if args.experiment == "ranges":
        return _run_ranges()
    if args.experiment == "list":
        return _run_list()
    if args.experiment in ("quickrun", "quick"):
        return _run_quick(args)
    if args.experiment == "energy":
        return _run_energy(args)
    if args.experiment == "trace":
        return _run_trace(args)
    if args.experiment == "stats":
        return _run_stats(args)
    if args.experiment == "campaign":
        return _run_campaign(args)
    if args.experiment == "fleet":
        return _run_fleet(args)
    if args.experiment == "study":
        return _run_study(args)
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
