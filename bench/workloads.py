"""The benchmark's workloads and the loops that time them.

Every workload is a list of :class:`~repro.campaign.spec.RunSpec` cells made
from the seed.  One *cold pass* takes each cell from spec to stored result
(build, run, fsync'd put into a fresh sharded store); the *cached phase*
reopens that store and resubmits the cells, which must all be served from
it.  Simulation workloads drive build, run and put directly so each step is
timed on its own; ``campaign-sweep`` goes through ``run_specs`` and its
worker pool, as ``repro campaign`` does.

Timed runs report reference seconds (see :mod:`probe`): the host is probed
between build, put and every one of :data:`RUN_SLICES` slices of each run
(slicing ``run_until`` dispatches the same events in the same order), and
in the campaign's workers before every cell.

Every result is fingerprinted (SHA-256 of its canonical JSON without
``wallclock_s``) and checked against ``golden.json`` at the golden seed, and
against the first fingerprint seen for its cell at any other seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable

from repro.builder import NetworkBuilder
from repro.campaign.runner import run_specs
from repro.campaign.spec import Campaign, RunSpec
from repro.config import MobilityConfig, ScenarioConfig
from repro.fleet.shards import ShardedResultStore
from repro.scenariospec import ScenarioSpec

import layers
from probe import REF_S, RefClock, probe_s

#: The seed whose fingerprints ``golden.json`` records.
GOLDEN_SEED = 7
PROTOCOLS = ("basic", "pcmac")
#: Placements per Section IV workload, seeds ``seed + k * PLACEMENT_STRIDE``:
#: events per second depend on the placement by several per cent, so each
#: pass averages over more than one.
PLACEMENTS = 2
PLACEMENT_STRIDE = 1000
#: Equal slices of simulated time each timed run is cut into.
RUN_SLICES = 40
#: Build-only set-up samples per simulation workload (median reported).
SETUP_SAMPLES = 5
#: Cached phase: after each cold pass, ``REOPENS_PER_PASS`` reopenings of
#: its store, each followed by a sample of at least ``CACHED_BATCH_CELLS``
#: resubmitted cells.  Spread over the run this way, the samples do not all
#: fall into one slow stretch of the host.
REOPENS_PER_PASS = 6
CACHED_BATCH_CELLS = 600
#: Resubmissions inside one traced region.
TRACED_RESUBMISSIONS = 3
#: Largest share of a traced region's wall that no layer may claim.
MAX_UNATTRIBUTED = 0.05
#: Fewest timed passes (untraced) and traced pairs per run.
MIN_PASSES = 2
MIN_TRACED = 1
#: Horizon of the warm-up cells [s]: traffic starts at 1 s.
WARM_HORIZON_S = 1.3

#: The 16-node clustered SINR field of ``examples/dense_capture.spec.json``,
#: kept here so editing the example cannot change the benchmark.
DENSE_CAPTURE = {
    "cfg": {
        "node_count": 16,
        "duration_s": 30.0,
        "traffic": {"flow_count": 6, "offered_load_bps": 400000.0},
        "mobility": {
            "speed_mps": 0.0, "field_width_m": 250.0, "field_height_m": 250.0,
        },
    },
    "components": {
        "placement": {"name": "cluster", "params": {"clusters": 3, "spread_m": 40.0}},
        "mobility": {"name": "static", "params": {}},
        "reception": {"name": "sinr", "params": {}},
    },
    "flow_pairs": [[0, 13], [4, 9], [7, 2], [10, 5], [14, 1], [3, 11]],
}


def _paper(seed: int, *, mobile: bool, horizon_s: float, nodes: int = 50,
           protocols: tuple[str, ...] = PROTOCOLS) -> list[RunSpec]:
    """Section IV cells on :data:`PLACEMENTS` placements drawn from ``seed``.

    The field grows with ``nodes`` at the paper's density.
    """
    side = 1000.0 * math.sqrt(nodes / 50.0)
    base = replace(
        ScenarioConfig(),
        node_count=nodes,
        duration_s=horizon_s,
        mobility=replace(MobilityConfig(), field_width_m=side, field_height_m=side),
    )
    return [
        RunSpec(scenario=ScenarioSpec.from_legacy(replace(base, seed=s), p, mobile=mobile))
        for s in range(seed, seed + PLACEMENT_STRIDE * PLACEMENTS, PLACEMENT_STRIDE)
        for p in protocols
    ]


def _dense(seed: int, smoke: bool) -> list[RunSpec]:
    base = ScenarioSpec.from_dict(DENSE_CAPTURE)
    cfg = replace(base.cfg, seed=seed, duration_s=6.0 if smoke else base.cfg.duration_s)
    return [RunSpec(scenario=replace(base, cfg=cfg, mac=p)) for p in PROTOCOLS]


def _sweep(seed: int, smoke: bool) -> list[RunSpec]:
    """basic/pcmac x 4 loads x 12 seeds of 10 nodes on 400 m x 400 m.

    Each load gets its own 12 seeds: the pass's event count then varies less
    from one ``seed`` to the next, and with it the share of fixed per-cell
    cost in the cold pass.
    """
    base = replace(
        ScenarioConfig(),
        node_count=10,
        duration_s=2.0,
        mobility=replace(MobilityConfig(), field_width_m=400.0, field_height_m=400.0),
    )
    loads = (300.0, 400.0) if smoke else (100.0, 200.0, 300.0, 400.0)
    per_load = 4 if smoke else 12
    return [
        spec
        for j, load in enumerate(loads)
        for spec in Campaign.build(
            base, PROTOCOLS, (load,),
            [seed * 100 + per_load * j + i for i in range(per_load)],
        ).specs()
    ]


@dataclass(frozen=True)
class Workload:
    """A named cell generator: ``cells(seed, smoke) -> [RunSpec]``."""

    name: str
    cells: Callable[[int, bool], list[RunSpec]]
    #: Worker processes; above 1 the cold pass goes through run_specs' pool.
    jobs: int = 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-static",
            lambda s, smoke: _paper(s, mobile=False, horizon_s=2.0 if smoke else 8.0),
        ),
        Workload(
            "paper-mobile",
            lambda s, smoke: _paper(s, mobile=True, horizon_s=3.5 if smoke else 6.0),
        ),
        Workload(
            "mega-flood",
            lambda s, smoke: _paper(
                s, mobile=False, horizon_s=1.2 if smoke else 1.3,
                nodes=400 if smoke else 2000, protocols=("pcmac",),
            ),
        ),
        Workload("dense-sinr", _dense),
        Workload("campaign-sweep", _sweep, jobs=2),
    )
}


def warm_cells(specs: list[RunSpec], count: int) -> list[RunSpec]:
    """``count`` small cells with the workload's components: short, at most
    50 nodes."""
    out = []
    for spec in specs[:count]:
        sc = spec.scenario
        cfg = sc.cfg
        if sc.flow_pairs is None and cfg.node_count > 50:
            shrink = math.sqrt(50 / cfg.node_count)
            cfg = replace(
                cfg,
                node_count=50,
                mobility=replace(
                    cfg.mobility,
                    field_width_m=cfg.mobility.field_width_m * shrink,
                    field_height_m=cfg.mobility.field_height_m * shrink,
                ),
            )
        cfg = replace(cfg, duration_s=min(cfg.duration_s, WARM_HORIZON_S))
        out.append(RunSpec(scenario=replace(sc, cfg=cfg)))
    return out


# ------------------------------------------------------------------ checks


def fingerprint(result) -> str:
    """SHA-256 of the canonical JSON of a result, ``wallclock_s`` left out."""
    data = asdict(result)
    data.pop("wallclock_s")
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Checker:
    """Counts attempted and failed cells against reference fingerprints.

    With ``golden`` the references are fixed; without, the first result
    seen for a cell becomes its reference.
    """

    def __init__(self, golden: dict[str, str] | None) -> None:
        self.fixed = golden is not None
        self.refs: dict[str, str] = dict(golden or {})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, label: str, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {why}")

    def check(self, label: str, result, where: str) -> None:
        if result is None:
            self.fail(label, f"{where}: no result")
            return
        if result.events_executed <= 0 or result.received > result.sent:
            self.fail(label, f"{where}: implausible result")
            return
        fp = fingerprint(result)
        ref = self.refs.get(label) if self.fixed else self.refs.setdefault(label, fp)
        if fp != ref:
            self.fail(label, f"{where}: fingerprint {fp[:12]} != {str(ref)[:12]}")
            return
        self.attempted += 1

    def check_pass(self, p: "Pass", where: str) -> None:
        for label, why in p.errors.items():
            self.fail(label, f"{where}: {why}")
        for label, result in p.results.items():
            self.check(label, result, where)

    def check_cached(self, report, labels: dict[str, str], where: str) -> None:
        for key, label in labels.items():
            if report.executed:
                self.fail(label, f"{where}: {report.executed} cells re-simulated")
            else:
                self.check(label, report.results.get(key), where)


# -------------------------------------------------------------- the passes


class _WallClock:
    """:class:`RefClock`'s interface without probing (traced runs)."""

    @staticmethod
    def time(fn, *args, **kwargs):
        t0 = perf_counter()
        value = fn(*args, **kwargs)
        wall = perf_counter() - t0
        return value, wall, wall


@dataclass
class Pass:
    """One cold pass: every cell from spec to stored result."""

    #: Whole pass [s] and [reference s].
    wall: float = 0.0
    wall_ref: float = 0.0
    #: Σ time simulating: bench-timed ``BuiltNetwork.run``, or the workers'
    #: ``wallclock_s`` for pooled passes [s] and [reference s]; pooled
    #: reference seconds count only the part a worker had a CPU.
    run_s: float = 0.0
    run_ref: float = 0.0
    events: int = 0
    nodes: int = 0
    results: dict[str, object] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)

    def lap(self, wall: float, ref: float) -> None:
        self.wall += wall
        self.wall_ref += ref

    def add(self, label: str, result, nodes: int) -> None:
        self.results[label] = result
        self.events += result.events_executed
        self.nodes += nodes


def _probed_run(run):
    """``RunSpec.run`` that probes the host first and tags the result with
    the probe and the share of the cell's wall time the worker had a CPU.

    Installed only around a timed pooled pass: forked workers inherit it,
    and the tag travels back with the pickled result (``asdict`` and the
    store ignore it).
    """

    def probed(self):
        speed_probe = probe_s()
        wall0, cpu0 = perf_counter(), process_time()
        result = run(self)
        share = (process_time() - cpu0) / (perf_counter() - wall0)
        object.__setattr__(result, "_bench_probe", (speed_probe, min(share, 1.0)))
        return result

    return probed


def _pooled_pass(specs, labels, root: Path, jobs: int, clock) -> Pass:
    p = Pass()
    probed = isinstance(clock, RefClock)
    original = RunSpec.run
    if probed:
        RunSpec.run = _probed_run(original)
    try:
        t0 = perf_counter()
        report = run_specs(specs, jobs=jobs, store=ShardedResultStore(root))
        p.wall = perf_counter() - t0
    finally:
        if probed:
            RunSpec.run = original
    scaled_s = 0.0
    for spec, (key, label) in zip(specs, labels.items()):
        result = report.results.get(key)
        if result is None:
            p.errors[label] = str(report.errors.get(key, {}).get("message", "missing"))
            continue
        p.add(label, result, spec.cfg.node_count)
        p.run_s += result.wallclock_s
        speed_probe, cpu_share = getattr(result, "_bench_probe", (REF_S, 1.0))
        scaled = result.wallclock_s * REF_S / speed_probe
        scaled_s += scaled
        # A 0.5 ms probe rarely notices its worker being time-sliced with a
        # third busy process (two workers already fill two vCPUs), which
        # slowed whole runs by 30 %; the CPU share does.
        p.run_ref += scaled * cpu_share
    # Only the workers' runs are probed.  They overlap ``jobs`` at a time;
    # the rest of the wall (pool hand-offs, the parent's poll sleeps, puts)
    # is kept as measured, since sleeping does not scale with host speed.
    # Time-slicing is kept too: the pass's user waits for it.
    p.wall_ref = p.wall + (scaled_s - p.run_s) / jobs
    return p


def cold_pass(w: Workload, specs, labels, root: Path, jobs: int, clock=None) -> Pass:
    """Take every cell to a stored result in a fresh store under ``root``.

    With a :class:`RefClock` each step is timed in reference seconds and
    each run is cut into :data:`RUN_SLICES` slices; without one (traced
    runs) each run is one call, and only timed segments run repro code.
    """
    clock = clock or _WallClock()
    if w.jobs > 1:
        return _pooled_pass(specs, labels, root, jobs, clock)
    p = Pass()
    sliced = isinstance(clock, RefClock)
    store, *lap = clock.time(ShardedResultStore, root)
    p.lap(*lap)
    for spec, label in zip(specs, labels.values()):
        net, *lap = clock.time(NetworkBuilder(spec.scenario).build)
        p.lap(*lap)
        if sliced:
            horizon = spec.cfg.duration_s
            for k in range(1, RUN_SLICES):
                _, wall, ref = clock.time(net.sim.run_until, horizon * k / RUN_SLICES)
                p.lap(wall, ref)
                p.run_s += wall
                p.run_ref += ref
        result, wall, ref = clock.time(net.run)
        p.lap(wall, ref)
        p.run_s += wall
        p.run_ref += ref
        _, *lap = clock.time(store.put, spec, result)
        p.lap(*lap)
        p.add(label, result, spec.cfg.node_count)
        del net
        gc.collect()
    return p


def resubmit(specs, root: Path, jobs: int, clock=None, batch: int = 1):
    """Reopen the store, then resubmit every cell ``batch`` times.

    Each ``run_specs`` call is its own timed segment, so a sample averages
    many probe pairs and no single outlying probe decides it.
    Returns ``(open wall, open ref, submit wall, submit ref, reports)``.
    """
    clock = clock or _WallClock()
    store, open_wall, open_ref = clock.time(ShardedResultStore, root)
    reports = []
    submit_wall = submit_ref = 0.0
    for _ in range(batch):
        report, wall, ref = clock.time(run_specs, specs, jobs=jobs, store=store)
        reports.append(report)
        submit_wall += wall
        submit_ref += ref
    return open_wall, open_ref, submit_wall, submit_ref, reports


def build_samples(specs, count: int, clock: RefClock) -> list[float]:
    """Set-up time: reference seconds to build every cell, ``count`` times.

    Cells are built and dropped one at a time, so peak RSS stays that of
    one network, as in a pass.
    """
    samples = []
    for _ in range(count):
        total = 0.0
        for s in specs:
            net, _, ref = clock.time(NetworkBuilder(s.scenario).build)
            total += ref
            del net
            gc.collect()
        samples.append(total)
    return samples


def warm_up(w: Workload, specs, root: Path, clock=None) -> None:
    """One pass over small cells of the same components, results discarded.

    A pooled workload warms up with a full pass of its own cells: on a
    shared 2-vCPU host the first seconds of two-process load run slowly.
    """
    small = list(specs) if w.jobs > 1 else warm_cells(specs, 2)
    labels = {s.key(): f"warm{i}" for i, s in enumerate(small)}
    cold_pass(w, small, labels, root, w.jobs, clock)
    resubmit(small, root, w.jobs, clock)
    gc.collect()


def budgeted(seconds: float, minimum: int, step: Callable[[int], object]) -> list:
    """Call ``step(i)`` at least ``minimum`` times, then while the next call
    is expected to end within ``seconds`` of the first."""
    out: list = []
    start = perf_counter()
    last = 0.0
    while len(out) < minimum or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        out.append(step(len(out)))
        last = perf_counter() - t0
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child [MB]."""
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


# -------------------------------------------------------------- measuring


@dataclass
class Outcome:
    """What one run of one workload measured."""

    samples: dict[str, list[float]]
    checker: Checker
    info: dict[str, float]


def _discard(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def measure(w: Workload, *, seed: int, seconds: float, smoke: bool,
            golden: dict[str, str] | None, work: Path) -> Outcome:
    """Timed run with tracing off: the end-to-end metrics."""
    specs = w.cells(seed, smoke)
    labels = {s.key(): s.label() for s in specs}
    checker = Checker(golden)
    clock = RefClock()
    warm_up(w, specs, work / "warm", clock)
    setup = [] if w.jobs > 1 else build_samples(specs, SETUP_SAMPLES, clock)
    batch = math.ceil(CACHED_BATCH_CELLS / len(specs))
    opens, rates = [], []

    def one(i: int) -> Pass:
        root = work / f"cold-{i}"
        p = cold_pass(w, specs, labels, root, w.jobs, clock)
        checker.check_pass(p, f"pass {i}")
        gc.collect()
        for k in range(REOPENS_PER_PASS):
            _, open_ref, _, submit_ref, reports = resubmit(specs, root, w.jobs, clock, batch)
            for j, report in enumerate(reports):
                checker.check_cached(report, labels, f"resubmission {i}.{k}.{j}")
            opens.append(open_ref)
            rates.append(len(specs) * batch / submit_ref)
        _discard(root)
        return p

    passes = budgeted(seconds, MIN_PASSES, one)
    samples = {
        "events_per_s": [p.events / p.run_ref for p in passes],
        "cold_events_per_s": [p.events / p.wall_ref for p in passes],
        "cached_cells_per_s": rates,
        "setup_s": opens if w.jobs > 1 else setup,
        "peak_rss_mb": [peak_rss_mb()],
    }
    med = statistics.median
    info = {
        "cells": len(specs),
        "passes": len(passes),
        "events_per_pass": med(p.events for p in passes),
        "host_speed": med(p.run_ref / p.run_s for p in passes),
        "wall_events_per_s": med(p.events / p.run_s for p in passes),
        "wall_cold_events_per_s": med(p.events / p.wall for p in passes),
        "wall_run_s_per_pass": med(p.run_s for p in passes),
    }
    return Outcome(samples, checker, info)


def measure_traced(w: Workload, *, seed: int, seconds: float, smoke: bool,
                   golden: dict[str, str] | None, work: Path) -> Outcome:
    """Traced run: untraced passes, then a traced region -> per-layer metrics.

    The traced region is one serial cold pass (so every span is in this
    process) plus a few cached resubmissions.  It is compared with an
    untraced serial pass; ``campaign-sweep`` also runs an untraced pooled
    pass for its parallel efficiency.  Nothing probes the host: per-layer
    numbers are wall seconds.
    """
    specs = w.cells(seed, smoke)
    labels = {s.key(): s.label() for s in specs}
    checker = Checker(golden)
    warm_up(w, specs, work / "warm")
    spans = layers.new_spans()

    def untraced(i: int, jobs: int) -> Pass:
        p = cold_pass(w, specs, labels, work / f"u{jobs}-{i}", jobs)
        checker.check_pass(p, f"untraced pass {i}, {jobs} jobs")
        _discard(work / f"u{jobs}-{i}")
        gc.collect()
        return p

    def pair(i: int) -> dict[str, float]:
        serial = untraced(i, 1)
        pooled = untraced(i, w.jobs) if w.jobs > 1 else serial
        cal = layers.calibrate()
        spans.reset()
        walls = 0.0
        reports = []
        with spans:
            t = cold_pass(w, specs, labels, work / f"t-{i}", 1)
            for _ in range(TRACED_RESUBMISSIONS):
                open_s, _, submit_s, _, batch = resubmit(specs, work / f"t-{i}", 1)
                walls += open_s + submit_s
                reports.extend(batch)
        # Calibrated on both sides of the region, the cheaper kept: a slow
        # moment on one side once read 900 ns a call instead of 500 and
        # drove a layer's corrected self time below zero.
        cal = min(cal, layers.calibrate(), key=lambda c: c.total_s)
        checker.check_pass(t, f"traced pass {i}")
        for k, report in enumerate(reports):
            checker.check_cached(report, labels, f"traced resubmission {i}.{k}")
        _discard(work / f"t-{i}")
        gc.collect()
        metrics = layers.layer_metrics(
            spans.corrected(cal),
            cal,
            wall=t.wall + walls,
            events=t.events,
            results=list(t.results.values()),
            nodes=t.nodes,
            traced_run_s=t.run_s,
            untraced_run_s=serial.run_s,
            pooled_wall=pooled.wall,
            jobs=w.jobs,
        )
        share = metrics["trace.unattributed_share"]
        if abs(share) > MAX_UNATTRIBUTED:
            checker.fail("trace", f"traced region {i}: {share:.1%} of its wall unattributed")
        return metrics

    pairs = budgeted(seconds, MIN_TRACED, pair)
    samples = {name: [p[name] for p in pairs] for name in pairs[0]}
    return Outcome(samples, checker, {"cells": len(specs), "traced_pairs": len(pairs)})


def golden_fingerprints(w: Workload) -> dict[str, str]:
    """Fingerprints of every cell of ``w`` at the golden seed, full size."""
    specs = w.cells(GOLDEN_SEED, False)
    if w.jobs > 1:
        report = run_specs(specs, jobs=w.jobs)
        return {s.label(): fingerprint(report.results[s.key()]) for s in specs}
    return {s.label(): fingerprint(s.run()) for s in specs}
