"""Resilience under churn: BASIC vs PCM with the same crash schedule.

The paper's claim is about steady-state efficiency; this standing
experiment asks the robustness question next to it: when relay nodes
crash and rejoin mid-run, does per-frame power control make the network
*more fragile*?  Shorter links mean longer routes, so a single relay
crash severs more paths — the experiment quantifies whether PCM's delivery
degrades more inside fault windows and whether it takes longer to reroute.

Both protocols run the identical scenario at equal offered load with the
**identical** crash schedule: the ``churn`` faults component draws crash
victims and times from the dedicated ``"faults"`` RNG stream, which depends
only on the seed — not on the MAC — so at a given seed BASIC and PCM see
the same nodes die at the same instants.  Flow endpoints are excluded from
the victim pool (``pick_flow_pairs`` is deterministic per seed, so the
endpoints are known before the run), which keeps every crash a *relay*
crash: delivery loss then measures routing disruption, not a dead sender.

Reported per protocol, seed-averaged with 95 % confidence half-widths:
delivery ratio inside vs. outside fault windows, the degradation fraction,
and mean time-to-reroute / time-to-recover after each crash (from the
:class:`~repro.faults.resilience.ResilienceReport` each cell carries).

Campaign-runnable: cells go through :func:`repro.campaign.runner.run_specs`
(``--jobs``/``--store``/resume all work), and ``python -m
repro.experiments.chaos_resilience`` writes the ``chaos_resilience.json``
snapshot that ``tools/make_experiments_md.py`` folds into EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.stats import mean_confidence_interval
from repro.builder import pick_flow_pairs
from repro.campaign.runner import run_specs
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore, reports_flat_store
from repro.config import ScenarioConfig
from repro.scenariospec import ComponentSpec, ScenarioSpec
from repro.sim.rng import RngRegistry

#: Offered load for the comparison [kbps] — the paper's lowest Figure 8
#: point, below saturation, so fault-free delivery is high and the
#: degradation signal is not drowned in congestion losses.
DEFAULT_LOAD_KBPS = 300.0

DEFAULT_SEEDS: tuple[int, ...] = (1, 2, 3)
DEFAULT_CRASHES = 3
DEFAULT_DOWNTIME_S = 8.0
PROTOCOLS: tuple[str, ...] = ("basic", "pcmac")

#: Crashes land inside this fraction of the run, leaving room before the
#: first crash for routes to form and room after the last rejoin to recover.
CRASH_WINDOW = (0.25, 0.6)


@dataclass(frozen=True)
class ProtocolResilience:
    """Seed-averaged outcome of one protocol's cells under churn."""

    protocol: str
    seeds: tuple[int, ...]
    throughput_kbps: float
    delivery_during: float
    delivery_during_ci: float
    delivery_outside: float
    delivery_outside_ci: float
    #: Fractional delivery loss inside fault windows vs. outside.
    degradation: float
    #: Crashes observed across all seeds.
    crashes: int
    #: Crashes after which at least one packet was delivered again.
    rerouted: int
    #: Mean seconds from a crash to the first post-crash delivery.
    mean_reroute_s: float
    #: Mean seconds until delivery returned to 90 % of its baseline.
    mean_recovery_s: float


@dataclass(frozen=True)
class ChaosResilience:
    """The BASIC-vs-PCM churn comparison this experiment exists to make."""

    basic: ProtocolResilience
    pcmac: ProtocolResilience
    #: basic.degradation − pcmac.degradation: positive means PCM held up
    #: *better* inside fault windows, negative that it is more fragile.
    degradation_gap: float

    def to_dict(self) -> dict:
        """JSON-able snapshot (consumed by tools/make_experiments_md.py)."""
        return {
            "protocols": {
                p.protocol: {
                    "seeds": list(p.seeds),
                    "throughput_kbps": p.throughput_kbps,
                    "delivery_during": p.delivery_during,
                    "delivery_during_ci": p.delivery_during_ci,
                    "delivery_outside": p.delivery_outside,
                    "delivery_outside_ci": p.delivery_outside_ci,
                    "degradation": p.degradation,
                    "crashes": p.crashes,
                    "rerouted": p.rerouted,
                    "mean_reroute_s": p.mean_reroute_s,
                    "mean_recovery_s": p.mean_recovery_s,
                }
                for p in (self.basic, self.pcmac)
            },
            "degradation_gap": self.degradation_gap,
        }


def chaos_spec(
    cfg: ScenarioConfig,
    protocol: str,
    *,
    seed: int,
    crash_count: int = DEFAULT_CRASHES,
    downtime_s: float = DEFAULT_DOWNTIME_S,
) -> RunSpec:
    """One cell: the paper topology + seeded relay churn.

    The victim pool excludes the seed's flow endpoints (recomputed here
    with the same draw the builder makes), so every crash hits a relay and
    the measured loss is routing disruption rather than a dead application.
    """
    cfg = replace(cfg, seed=seed)
    pairs = pick_flow_pairs(
        RngRegistry(cfg.seed), cfg.node_count, cfg.traffic.flow_count
    )
    endpoints = sorted({n for pair in pairs for n in pair})
    scenario = ScenarioSpec(
        cfg=cfg,
        mac=ComponentSpec(protocol),
        faults=ComponentSpec(
            "churn",
            crash_count=crash_count,
            window_start_s=cfg.duration_s * CRASH_WINDOW[0],
            window_end_s=cfg.duration_s * CRASH_WINDOW[1],
            downtime_s=downtime_s,
            exclude=tuple(endpoints),
        ),
    )
    return RunSpec(scenario=scenario)


def run_chaos_resilience(
    cfg: ScenarioConfig | None = None,
    *,
    load_kbps: float = DEFAULT_LOAD_KBPS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    crash_count: int = DEFAULT_CRASHES,
    downtime_s: float = DEFAULT_DOWNTIME_S,
    jobs: int = 1,
    store: ResultStore | None = None,
    resume: bool = True,
    progress: Callable[[str], None] | None = None,
) -> ChaosResilience:
    """Run (or resume) the churn grid and reduce it to the comparison."""
    cfg = cfg or ScenarioConfig()
    cfg = replace(
        cfg,
        traffic=replace(cfg.traffic, offered_load_bps=load_kbps * 1000.0),
    )

    def spec_for(protocol: str, seed: int) -> RunSpec:
        return chaos_spec(
            cfg,
            protocol,
            seed=seed,
            crash_count=crash_count,
            downtime_s=downtime_s,
        )

    specs = [spec_for(p, s) for p in PROTOCOLS for s in seeds]
    report = run_specs(
        specs, jobs=jobs, store=store, resume=resume, progress=progress
    )

    per_protocol: dict[str, ProtocolResilience] = {}
    for protocol in PROTOCOLS:
        results = [report.results[spec_for(protocol, s).key()] for s in seeds]
        if any(r.resilience is None for r in results):
            raise RuntimeError(
                "chaos_resilience cells must carry a ResilienceReport "
                "(stale store entry from a fault-free run?)"
            )
        during = [r.resilience.delivery_during_faults for r in results]
        outside = [r.resilience.delivery_outside_faults for r in results]
        during_mean, during_ci = mean_confidence_interval(during)
        outside_mean, outside_ci = mean_confidence_interval(outside)
        crashes = [c for r in results for c in r.resilience.crashes]
        reroutes = [c.reroute_s for c in crashes if c.reroute_s is not None]
        recoveries = [c.recovery_s for c in crashes if c.recovery_s is not None]
        per_protocol[protocol] = ProtocolResilience(
            protocol=protocol,
            seeds=tuple(int(s) for s in seeds),
            throughput_kbps=(
                sum(r.throughput_kbps for r in results) / len(results)
            ),
            delivery_during=during_mean,
            delivery_during_ci=during_ci,
            delivery_outside=outside_mean,
            delivery_outside_ci=outside_ci,
            degradation=(
                1.0 - during_mean / outside_mean if outside_mean > 0 else 0.0
            ),
            crashes=len(crashes),
            rerouted=len(reroutes),
            mean_reroute_s=(
                sum(reroutes) / len(reroutes) if reroutes else 0.0
            ),
            mean_recovery_s=(
                sum(recoveries) / len(recoveries) if recoveries else 0.0
            ),
        )

    basic, pcmac = per_protocol["basic"], per_protocol["pcmac"]
    return ChaosResilience(
        basic=basic,
        pcmac=pcmac,
        degradation_gap=basic.degradation - pcmac.degradation,
    )


@reports_flat_store
def main(argv: Sequence[str] | None = None) -> int:
    """CLI: run the comparison and write the JSON snapshot."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=50)
    parser.add_argument("--duration", type=float, default=40.0)
    parser.add_argument("--load", type=float, default=DEFAULT_LOAD_KBPS,
                        help="aggregate offered load [kbps]")
    parser.add_argument("--seeds", type=str, default="1,2,3")
    parser.add_argument("--crashes", type=int, default=DEFAULT_CRASHES,
                        help="relay crashes per run")
    parser.add_argument("--downtime", type=float, default=DEFAULT_DOWNTIME_S,
                        help="seconds a crashed node stays down")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--store", type=str, default="",
                        help="campaign result store (enables caching/resume)")
    parser.add_argument("--out", type=str, default="chaos_resilience.json",
                        help="snapshot path ('-' = stdout only)")
    args = parser.parse_args(argv)

    cfg = ScenarioConfig(node_count=args.nodes, duration_s=args.duration)
    seeds = tuple(int(s) for s in args.seeds.split(","))
    store = ResultStore(args.store) if args.store else None
    outcome = run_chaos_resilience(
        cfg,
        load_kbps=args.load,
        seeds=seeds,
        crash_count=args.crashes,
        downtime_s=args.downtime,
        jobs=args.jobs,
        store=store,
        progress=lambda s: print("  " + s),
    )

    payload = {
        "experiment": "chaos_resilience",
        "schema": 1,
        "generated_by": "python -m repro.experiments.chaos_resilience",
        "config": {
            "nodes": args.nodes,
            "duration_s": args.duration,
            "load_kbps": args.load,
            "seeds": list(seeds),
            "crashes_per_run": args.crashes,
            "downtime_s": args.downtime,
        },
        **outcome.to_dict(),
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out != "-":
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")

    for p in (outcome.basic, outcome.pcmac):
        print(
            f"{p.protocol:<8} delivery during/outside faults: "
            f"{p.delivery_during:.3f}±{p.delivery_during_ci:.3f} / "
            f"{p.delivery_outside:.3f}±{p.delivery_outside_ci:.3f}"
            f"  (degradation {p.degradation:+.1%})"
        )
        print(
            f"         {p.rerouted}/{p.crashes} crashes rerouted, "
            f"mean reroute {p.mean_reroute_s:.1f}s, "
            f"mean recovery {p.mean_recovery_s:.1f}s"
        )
    print(
        f"degradation gap (basic − pcmac): {outcome.degradation_gap:+.1%} "
        f"({'PCM holds up better' if outcome.degradation_gap > 0 else 'BASIC holds up better'})"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
