"""Capture study: does the reception model change the protocol verdict?

The paper's BASIC-vs-PCM comparison rides on NS-2's threshold receiver: a
frame decodes iff it clears the lock threshold and stays ``CPThresh`` above
each interferer *pairwise*.  On a dense field that model is generous —
several sub-threshold interferers can sum to more noise than any one of
them — and generous in a way that interacts with power control: PCM's
reduced data powers sit closer to the decode margin, so a stricter receiver
should tax PCM and BASIC differently.

This standing experiment quantifies that modelling risk.  The same dense
clustered field runs under both protocols with the ``null`` (threshold) and
``sinr`` (cumulative-interference, capture-aware) reception components,
seed-averaged.  Reported per cell: throughput, delivery, and the typed drop
ledger the SINR receiver keeps; the headline number is the **BASIC−PCM
throughput gap under each model** — if the gap moves materially (or flips
sign) when the receiver gets honest about interference, conclusions drawn
from the threshold model alone carry that error bar.

Campaign-runnable: cells go through :func:`repro.campaign.runner.run_specs`
(``--jobs``/``--store``/resume all work), and ``python -m
repro.experiments.capture_study`` writes the ``capture_study.json`` snapshot
that ``tools/make_experiments_md.py`` folds into EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.stats import mean_confidence_interval
from repro.campaign.runner import run_specs
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore, reports_flat_store
from repro.config import MobilityConfig, ScenarioConfig
from repro.scenariospec import ComponentSpec, ScenarioSpec

#: Saturating offered load [kbps] — on the 250 m field both protocols sit
#: past their knee here, so decode decisions (not queueing slack) set the
#: throughput and the reception models measurably disagree.  Below
#: saturation MAC retries hide the receiver's behaviour entirely.
DEFAULT_LOAD_KBPS = 1600.0
DEFAULT_SEEDS: tuple[int, ...] = (1, 2, 3)
PROTOCOLS: tuple[str, ...] = ("basic", "pcmac")
RECEPTIONS: tuple[str, ...] = ("null", "sinr")

#: Dense-field dimensions [m]: ~16 nodes in a square this tight keeps most
#: pairs inside carrier-sense range of each other, so overlapping
#: transmissions — the regime where the reception models disagree — are
#: routine rather than rare.
DEFAULT_FIELD_M = 250.0


@dataclass(frozen=True)
class CellSummary:
    """Seed-averaged outcome of one (protocol, reception) cell."""

    protocol: str
    reception: str
    seeds: tuple[int, ...]
    throughput_kbps: float
    throughput_ci: float
    delivery: float
    delivery_ci: float
    #: Typed receiver discards summed over nodes and seeds (all zero under
    #: the null model, which classifies nothing).
    drop_collision: int
    drop_capture_lost: int
    drop_below_sensitivity: int


@dataclass(frozen=True)
class CaptureStudy:
    """The threshold-vs-SINR comparison this experiment exists to make."""

    cells: tuple[CellSummary, ...]
    #: BASIC − PCM throughput gap [kbps] under each reception model.
    gap_null_kbps: float
    gap_sinr_kbps: float
    #: How much of the null-model gap survives the honest receiver:
    #: ``gap_sinr − gap_null`` (0 = the model choice does not matter).
    gap_shift_kbps: float

    def cell(self, protocol: str, reception: str) -> CellSummary:
        """Look up one cell by its coordinates."""
        for c in self.cells:
            if c.protocol == protocol and c.reception == reception:
                return c
        raise KeyError(f"no cell ({protocol}, {reception})")

    def to_dict(self) -> dict:
        """JSON-able snapshot (consumed by tools/make_experiments_md.py)."""
        return {
            "cells": [
                {
                    "protocol": c.protocol,
                    "reception": c.reception,
                    "seeds": list(c.seeds),
                    "throughput_kbps": c.throughput_kbps,
                    "throughput_ci": c.throughput_ci,
                    "delivery": c.delivery,
                    "delivery_ci": c.delivery_ci,
                    "drop_collision": c.drop_collision,
                    "drop_capture_lost": c.drop_capture_lost,
                    "drop_below_sensitivity": c.drop_below_sensitivity,
                }
                for c in self.cells
            ],
            "gap_null_kbps": self.gap_null_kbps,
            "gap_sinr_kbps": self.gap_sinr_kbps,
            "gap_shift_kbps": self.gap_shift_kbps,
        }


def capture_spec(
    cfg: ScenarioConfig, protocol: str, reception: str, *, seed: int
) -> RunSpec:
    """One cell: the dense clustered field under one reception model."""
    return RunSpec(
        scenario=ScenarioSpec(
            cfg=replace(cfg, seed=seed),
            mac=ComponentSpec(protocol),
            placement=ComponentSpec("cluster", clusters=3, spread_m=40.0),
            mobility=ComponentSpec("static"),
            reception=ComponentSpec(reception),
        )
    )


def run_capture_study(
    cfg: ScenarioConfig | None = None,
    *,
    load_kbps: float = DEFAULT_LOAD_KBPS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: int = 1,
    store: ResultStore | None = None,
    resume: bool = True,
    progress: Callable[[str], None] | None = None,
) -> CaptureStudy:
    """Run (or resume) the 2×2 grid and reduce it to the comparison."""
    if cfg is None:
        cfg = ScenarioConfig(
            node_count=16,
            duration_s=15.0,
            mobility=MobilityConfig(
                speed_mps=0.0,
                field_width_m=DEFAULT_FIELD_M,
                field_height_m=DEFAULT_FIELD_M,
            ),
        )
    cfg = replace(
        cfg,
        traffic=replace(cfg.traffic, offered_load_bps=load_kbps * 1000.0),
    )

    def spec_for(protocol: str, reception: str, seed: int) -> RunSpec:
        return capture_spec(cfg, protocol, reception, seed=seed)

    specs = [
        spec_for(p, r, s) for p in PROTOCOLS for r in RECEPTIONS for s in seeds
    ]
    report = run_specs(
        specs, jobs=jobs, store=store, resume=resume, progress=progress
    )

    cells: list[CellSummary] = []
    for protocol in PROTOCOLS:
        for reception in RECEPTIONS:
            results = [
                report.results[spec_for(protocol, reception, s).key()]
                for s in seeds
            ]
            thr_mean, thr_ci = mean_confidence_interval(
                [r.throughput_kbps for r in results]
            )
            pdr_mean, pdr_ci = mean_confidence_interval(
                [r.delivery_ratio for r in results]
            )
            cells.append(
                CellSummary(
                    protocol=protocol,
                    reception=reception,
                    seeds=tuple(int(s) for s in seeds),
                    throughput_kbps=thr_mean,
                    throughput_ci=thr_ci,
                    delivery=pdr_mean,
                    delivery_ci=pdr_ci,
                    drop_collision=int(
                        sum(r.mac_totals["rx_drop_collision"] for r in results)
                    ),
                    drop_capture_lost=int(
                        sum(
                            r.mac_totals["rx_drop_capture_lost"]
                            for r in results
                        )
                    ),
                    drop_below_sensitivity=int(
                        sum(
                            r.mac_totals["rx_drop_below_sensitivity"]
                            for r in results
                        )
                    ),
                )
            )

    study = CaptureStudy(
        cells=tuple(cells),
        gap_null_kbps=0.0,
        gap_sinr_kbps=0.0,
        gap_shift_kbps=0.0,
    )
    gap_null = (
        study.cell("basic", "null").throughput_kbps
        - study.cell("pcmac", "null").throughput_kbps
    )
    gap_sinr = (
        study.cell("basic", "sinr").throughput_kbps
        - study.cell("pcmac", "sinr").throughput_kbps
    )
    return replace(
        study,
        gap_null_kbps=gap_null,
        gap_sinr_kbps=gap_sinr,
        gap_shift_kbps=gap_sinr - gap_null,
    )


@reports_flat_store
def main(argv: Sequence[str] | None = None) -> int:
    """CLI: run the comparison and write the JSON snapshot."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=16)
    parser.add_argument("--duration", type=float, default=15.0)
    parser.add_argument("--field", type=float, default=DEFAULT_FIELD_M,
                        help="square field side [m] (dense = small)")
    parser.add_argument("--load", type=float, default=DEFAULT_LOAD_KBPS,
                        help="aggregate offered load [kbps]")
    parser.add_argument("--seeds", type=str, default="1,2,3")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--store", type=str, default="",
                        help="campaign result store (enables caching/resume)")
    parser.add_argument("--out", type=str, default="capture_study.json",
                        help="snapshot path ('-' = stdout only)")
    args = parser.parse_args(argv)

    cfg = ScenarioConfig(
        node_count=args.nodes,
        duration_s=args.duration,
        mobility=MobilityConfig(
            speed_mps=0.0,
            field_width_m=args.field,
            field_height_m=args.field,
        ),
    )
    seeds = tuple(int(s) for s in args.seeds.split(","))
    store = ResultStore(args.store) if args.store else None
    study = run_capture_study(
        cfg,
        load_kbps=args.load,
        seeds=seeds,
        jobs=args.jobs,
        store=store,
        progress=lambda s: print("  " + s),
    )

    payload = {
        "experiment": "capture_study",
        "schema": 1,
        "generated_by": "python -m repro.experiments.capture_study",
        "config": {
            "nodes": args.nodes,
            "duration_s": args.duration,
            "field_m": args.field,
            "load_kbps": args.load,
            "seeds": list(seeds),
        },
        **study.to_dict(),
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out != "-":
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")

    for c in study.cells:
        drops = (
            f"  drops c/cl/bs {c.drop_collision}/{c.drop_capture_lost}/"
            f"{c.drop_below_sensitivity}"
            if c.reception == "sinr"
            else ""
        )
        print(
            f"{c.protocol:<8} {c.reception:<5} "
            f"thr {c.throughput_kbps:7.1f}±{c.throughput_ci:5.1f} kbps  "
            f"pdr {c.delivery:.3f}±{c.delivery_ci:.3f}{drops}"
        )
    print(
        f"BASIC−PCM gap: {study.gap_null_kbps:+.1f} kbps (threshold) vs "
        f"{study.gap_sinr_kbps:+.1f} kbps (SINR); "
        f"shift {study.gap_shift_kbps:+.1f} kbps"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
