"""The paper's energy-savings claim: PCM vs BASIC at equal throughput.

The paper's central argument (and the related work it cites, [4][5][16])
is that per-frame power control saves transmit energy *without* giving up
throughput.  This experiment puts numbers on that claim in the paper's own
Section IV environment: the 50-node random-waypoint field, AODV, CBR
flows, offered load held **below saturation** so both protocols deliver
essentially the whole load — making their throughputs statistically
indistinguishable by construction — while the full-stack energy accounting
(:mod:`repro.energy`, WaveLAN draws) books what each protocol's radios
actually consumed.

Reported per protocol, seed-averaged with 95 % confidence half-widths:
throughput, aggregate electrical energy (all states), the per-state split,
radiated TX energy, and full-stack J/bit.  The headline comparison is

* aggregate (electrical) energy: PCM < BASIC — lower TX draw at reduced
  power levels plus less time spent decoding overheard max-power frames;
* radiated energy: PCM ≪ BASIC — the paper's ten-level table spans 1 mW →
  281.8 mW, so the radiated saving is close to an order of magnitude;
* throughput: Welch's t across seeds stays small and the confidence
  intervals overlap (the equal-throughput premise).

Campaign-runnable: cells go through :func:`repro.campaign.runner.run_specs`
(``--jobs``/``--store``/resume all work), and ``python -m
repro.experiments.energy_savings`` writes the ``energy_savings.json``
snapshot that ``tools/make_experiments_md.py`` folds into EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.stats import mean_confidence_interval
from repro.campaign.runner import run_specs
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore, reports_flat_store
from repro.config import ScenarioConfig
from repro.metrics.summary import summarise_energy
from repro.scenariospec import ComponentSpec, ScenarioSpec

#: Offered load for the equal-throughput comparison [kbps] — the paper's
#: lowest Figure 8 point, comfortably below every protocol's saturation.
DEFAULT_LOAD_KBPS = 300.0

DEFAULT_SEEDS: tuple[int, ...] = (1, 2, 3)
PROTOCOLS: tuple[str, ...] = ("basic", "pcmac")


@dataclass(frozen=True)
class ProtocolEnergy:
    """Seed-averaged outcome of one protocol's cells."""

    protocol: str
    seeds: tuple[int, ...]
    throughput_kbps: float
    throughput_ci_kbps: float
    total_j: float
    total_ci_j: float
    tx_j: float
    rx_j: float
    idle_j: float
    radiated_j: float
    #: Full-stack electrical energy per delivered bit [J/bit].
    energy_per_bit_j: float


@dataclass(frozen=True)
class EnergySavings:
    """The BASIC-vs-PCM comparison this experiment exists to make."""

    basic: ProtocolEnergy
    pcmac: ProtocolEnergy
    #: Fraction of BASIC's aggregate electrical energy PCM saves.
    aggregate_saving: float
    #: Fraction of BASIC's radiated TX energy PCM saves.
    radiated_saving: float
    #: Welch's t statistic on per-seed throughputs (small = no difference).
    throughput_welch_t: float
    #: Whether the two throughput 95 % CIs overlap.
    throughput_indistinguishable: bool

    def to_dict(self) -> dict:
        """JSON-able snapshot (consumed by tools/make_experiments_md.py)."""
        return {
            "protocols": {
                p.protocol: {
                    "seeds": list(p.seeds),
                    "throughput_kbps": p.throughput_kbps,
                    "throughput_ci_kbps": p.throughput_ci_kbps,
                    "total_j": p.total_j,
                    "total_ci_j": p.total_ci_j,
                    "tx_j": p.tx_j,
                    "rx_j": p.rx_j,
                    "idle_j": p.idle_j,
                    "radiated_j": p.radiated_j,
                    "energy_per_bit_j": p.energy_per_bit_j,
                }
                for p in (self.basic, self.pcmac)
            },
            "savings": {
                "aggregate_fraction": self.aggregate_saving,
                "radiated_fraction": self.radiated_saving,
                "throughput_welch_t": self.throughput_welch_t,
                "throughput_indistinguishable": self.throughput_indistinguishable,
            },
        }


def energy_spec(
    cfg: ScenarioConfig, protocol: str, *, seed: int
) -> RunSpec:
    """One cell: the paper topology + the WaveLAN energy model."""
    scenario = ScenarioSpec(
        cfg=replace(cfg, seed=seed),
        mac=ComponentSpec(protocol),
        energy=ComponentSpec("wavelan"),
    )
    return RunSpec(scenario=scenario)


def _welch_t(a: Sequence[float], b: Sequence[float]) -> float:
    """Welch's t statistic (0 for degenerate/zero-variance inputs)."""
    if len(a) < 2 or len(b) < 2:
        return 0.0
    from scipy import stats as _scipy_stats  # deferred, as in repro.analysis.stats

    t = float(_scipy_stats.ttest_ind(a, b, equal_var=False).statistic)
    # Identical per-seed throughputs (common below saturation) give scipy
    # a 0/0 → nan; report that as "no detectable difference".
    return t if math.isfinite(t) else 0.0


def run_energy_savings(
    cfg: ScenarioConfig | None = None,
    *,
    load_kbps: float = DEFAULT_LOAD_KBPS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: int = 1,
    store: ResultStore | None = None,
    resume: bool = True,
    progress: Callable[[str], None] | None = None,
) -> EnergySavings:
    """Run (or resume) the comparison grid and reduce it to the claim."""
    cfg = cfg or ScenarioConfig()
    cfg = replace(
        cfg,
        traffic=replace(cfg.traffic, offered_load_bps=load_kbps * 1000.0),
    )
    specs = [
        energy_spec(cfg, protocol, seed=seed)
        for protocol in PROTOCOLS
        for seed in seeds
    ]
    report = run_specs(
        specs, jobs=jobs, store=store, resume=resume, progress=progress
    )

    per_protocol: dict[str, ProtocolEnergy] = {}
    throughputs: dict[str, list[float]] = {}
    for protocol in PROTOCOLS:
        results = [
            report.results[energy_spec(cfg, protocol, seed=s).key()]
            for s in seeds
        ]
        summaries = [summarise_energy(r) for r in results]
        if any(s is None for s in summaries):
            raise RuntimeError(
                "energy_savings cells must run with a non-null energy "
                "component (stale store entry without accounting?)"
            )
        thr = [r.throughput_kbps for r in results]
        throughputs[protocol] = thr
        thr_mean, thr_ci = mean_confidence_interval(thr)
        tot = [s.total_j for s in summaries]
        tot_mean, tot_ci = mean_confidence_interval(tot)
        n = len(summaries)
        per_protocol[protocol] = ProtocolEnergy(
            protocol=protocol,
            seeds=tuple(int(s) for s in seeds),
            throughput_kbps=thr_mean,
            throughput_ci_kbps=thr_ci,
            total_j=tot_mean,
            total_ci_j=tot_ci,
            tx_j=sum(s.tx_j for s in summaries) / n,
            rx_j=sum(s.rx_j for s in summaries) / n,
            idle_j=sum(s.idle_j for s in summaries) / n,
            radiated_j=sum(s.radiated_j for s in summaries) / n,
            energy_per_bit_j=sum(s.energy_per_bit_j for s in summaries) / n,
        )

    basic, pcmac = per_protocol["basic"], per_protocol["pcmac"]
    overlap = (
        abs(basic.throughput_kbps - pcmac.throughput_kbps)
        <= basic.throughput_ci_kbps + pcmac.throughput_ci_kbps
    )
    return EnergySavings(
        basic=basic,
        pcmac=pcmac,
        aggregate_saving=1.0 - pcmac.total_j / basic.total_j,
        radiated_saving=1.0 - pcmac.radiated_j / basic.radiated_j,
        throughput_welch_t=_welch_t(
            throughputs["basic"], throughputs["pcmac"]
        ),
        throughput_indistinguishable=overlap,
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
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--store", type=str, default="",
                        help="campaign result store (enables caching/resume)")
    parser.add_argument("--out", type=str, default="energy_savings.json",
                        help="snapshot path ('-' = stdout only)")
    args = parser.parse_args(argv)

    cfg = ScenarioConfig(node_count=args.nodes, duration_s=args.duration)
    seeds = tuple(int(s) for s in args.seeds.split(","))
    store = ResultStore(args.store) if args.store else None
    savings = run_energy_savings(
        cfg,
        load_kbps=args.load,
        seeds=seeds,
        jobs=args.jobs,
        store=store,
        progress=lambda s: print("  " + s),
    )

    payload = {
        "experiment": "energy_savings",
        "schema": 1,
        "generated_by": "python -m repro.experiments.energy_savings",
        "config": {
            "nodes": args.nodes,
            "duration_s": args.duration,
            "load_kbps": args.load,
            "seeds": list(seeds),
        },
        **savings.to_dict(),
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out != "-":
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")

    b, p = savings.basic, savings.pcmac
    print(
        f"\nthroughput: basic {b.throughput_kbps:.1f}±{b.throughput_ci_kbps:.1f}"
        f" vs pcmac {p.throughput_kbps:.1f}±{p.throughput_ci_kbps:.1f} kbps"
        f"  (Welch t={savings.throughput_welch_t:+.2f}, "
        f"{'overlapping CIs' if savings.throughput_indistinguishable else 'DISTINCT'})"
    )
    print(
        f"aggregate energy: basic {b.total_j:.0f} J vs pcmac {p.total_j:.0f} J"
        f"  ({savings.aggregate_saving:+.1%} saving)"
    )
    print(
        f"radiated energy:  basic {b.radiated_j:.2f} J vs pcmac "
        f"{p.radiated_j:.2f} J  ({savings.radiated_saving:+.1%} saving)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
