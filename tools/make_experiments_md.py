#!/usr/bin/env python3
"""Generate EXPERIMENTS.md from committed measurement snapshots.

The Figure 8/9 tables come from ``--store DIR``, a campaign result store
produced by e.g.::

    python -m repro campaign \
        --protocols basic,pcmac,scheme1,scheme2 \
        --loads 300,400,500,600,700,800,900,1000 --seeds 1,2,3 \
        --nodes 50 --duration 40 --jobs 8 --store DIR

Stores are content-addressed and resumable: re-running the same command
against the same ``DIR`` only simulates missing cells, so the tables can be
regenerated incrementally as seeds are added.  Without ``--store`` the
figure section carries a how-to-populate note instead.

Each standing study (``repro.studies.STUDIES``) renders its own section
from its committed ``studies/NAME.json`` snapshot, written by ``python -m
repro study NAME`` (a note stands in when the snapshot is absent).

Usage:  python tools/make_experiments_md.py [--store DIR] [--out EXPERIMENTS.md]
With ``--out`` the document is written (CI regenerates it there and fails
on drift); without, it goes to stdout.
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
from collections import defaultdict
from contextlib import redirect_stdout

from repro.analysis.report import markdown_table
from repro.analysis.stats import compare_series
from repro.experiments.figure8 import FIGURE8_LOADS_KBPS, PAPER_FIG8_KBPS
from repro.experiments.figure9 import PAPER_FIG9_MS
from repro.studies import SNAPSHOT_DIR, STUDIES

PROTOCOLS = ("basic", "pcmac", "scheme1", "scheme2")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_campaign_store(root: str) -> tuple[list[int], dict, dict, str]:
    """Seed-averaged series from a campaign result store directory.

    Only protocols present in the store appear in the tables, and only
    loads covered by *every* one of them (a shared store may hold cells
    from several differently-shaped campaigns).
    """
    from repro.analysis.export import load_store_results

    results = load_store_results(root)
    if not results:
        raise SystemExit(f"campaign store {root!r} holds no results")
    cells: dict[tuple[str, int], list] = defaultdict(list)
    seeds: set[int] = set()
    for r in results:
        cells[(r.protocol, int(round(r.offered_load_kbps)))].append(r)
        seeds.add(r.seed)
    protos = [p for p in PROTOCOLS if any(p == cp for cp, _ in cells)]
    loads = sorted(
        ld
        for ld in {load for _, load in cells}
        if all((p, ld) in cells for p in protos)
    )
    if not loads:
        raise SystemExit(
            f"campaign store {root!r} has no load covered by every protocol"
        )

    def mean(metric: str, proto: str, load: int) -> float:
        runs = cells[(proto, load)]
        return sum(getattr(r, metric) for r in runs) / len(runs)

    thr = {p: [mean("throughput_kbps", p, ld) for ld in loads] for p in protos}
    dly = {p: [mean("avg_delay_ms", p, ld) for ld in loads] for p in protos}
    provenance = (
        f"campaign store {root} ({len(results)} runs, "
        f"seeds {{{', '.join(str(s) for s in sorted(seeds))}}} mean)"
    )
    return loads, thr, dly, provenance


def print_figures(args: argparse.Namespace) -> None:
    """Figure 8/9 tables (or a how-to-populate note without a store)."""
    if args.store:
        loads, thr, dly, provenance = load_campaign_store(args.store)
    else:
        print("## Figures 8 & 9 — throughput / delay vs offered load\n")
        print(
            "*(no snapshot — run the campaign below with `--store DIR` and "
            "regenerate with `python tools/make_experiments_md.py --store "
            "DIR --out EXPERIMENTS.md`)*\n"
        )
        print(
            "```\n"
            "python -m repro campaign "
            f"--protocols {','.join(PROTOCOLS)} \\\n"
            "    --loads 300,400,500,600,700,800,900,1000 --seeds 1,2,3 \\\n"
            "    --nodes 50 --duration 40 --jobs 8 --store results/fullscale\n"
            "```"
        )
        return

    protos = list(thr)

    print("## Figures 8 & 9 — throughput / delay vs offered load\n")
    print(f"### Figure 8 — measured ({provenance})\n")
    rows = []
    for i, ld in enumerate(loads):
        rows.append(
            [ld]
            + [round(thr[p][i], 1) for p in protos]
        )
    print(markdown_table(["load [kbps]", *protos], rows))

    print("\n### Figure 9 — measured (same runs)\n")
    rows = []
    for i, ld in enumerate(loads):
        rows.append([ld] + [round(dly[p][i], 1) for p in protos])
    print(markdown_table(["load [kbps]", *protos], rows))

    # Shape agreement is only defined at the paper's x-axis points.
    paper_loads = [ld for ld in loads if ld in FIGURE8_LOADS_KBPS]
    if paper_loads:
        idx = [loads.index(ld) for ld in paper_loads]
        print("\n### Shape agreement vs the digitised paper curves\n")
        rows = []
        for p in protos:
            c8 = compare_series([thr[p][i] for i in idx], [
                PAPER_FIG8_KBPS[p][FIGURE8_LOADS_KBPS.index(ld)]
                for ld in paper_loads
            ])
            c9 = compare_series([dly[p][i] for i in idx], [
                PAPER_FIG9_MS[p][FIGURE8_LOADS_KBPS.index(ld)]
                for ld in paper_loads
            ])
            rows.append([
                p,
                round(c8.rank_correlation, 2),
                round(c8.final_ratio, 2),
                round(c9.rank_correlation, 2),
                round(c9.final_ratio, 2),
            ])
        print(
            markdown_table(
                ["protocol", "Fig8 rank-ρ", "Fig8 final ratio",
                 "Fig9 rank-ρ", "Fig9 final ratio"],
                rows,
            )
        )

    print("\n### Key quantities\n")
    peak = {p: max(thr[p]) for p in protos}
    print(f"- peak throughput: " + ", ".join(
        f"{p} {peak[p]:.0f} kbps" for p in protos))
    if "pcmac" in peak and "basic" in peak:
        gain = (peak["pcmac"] / peak["basic"] - 1) * 100
        print(f"- PCMAC peak-capacity gain over basic 802.11: {gain:+.1f}% "
              f"(paper: +8–10%)")
    mean_dly = {p: sum(dly[p]) / len(dly[p]) for p in protos}
    print(f"- mean delay across the sweep: " + ", ".join(
        f"{p} {mean_dly[p]:.0f} ms" for p in protos))

    print(
        "\n### Reproducing these tables\n\n"
        "```\n"
        "python -m repro campaign "
        f"--protocols {','.join(protos)} \\\n"
        f"    --loads {','.join(str(ld) for ld in loads)} --seeds 1,2,3 \\\n"
        "    --nodes 50 --duration 40 --jobs 8 --store results/fullscale\n"
        "python tools/make_experiments_md.py --store results/fullscale\n"
        "```\n\n"
        "The store is content-addressed (cells keyed by a hash of the full\n"
        "run specification), so interrupted campaigns resume and repeated\n"
        "invocations are pure cache hits."
    )


def render(args: argparse.Namespace) -> str:
    """Compose the whole EXPERIMENTS.md document as a string."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        print("# EXPERIMENTS — measured results\n")
        print(
            "Generated by `python tools/make_experiments_md.py` from "
            "committed snapshots — regenerate rather than editing by hand "
            "(CI diffs this file against a fresh render).\n"
        )
        print_figures(args)
        for study in STUDIES.values():
            path = ROOT / SNAPSHOT_DIR / f"{study.name}.json"
            print()
            if path.is_file():
                print(study.render(json.loads(path.read_text())))
            else:
                print(
                    f"## {study.title}\n\n*(no snapshot — run `python -m "
                    f"repro study {study.name}` to populate this section)*"
                )
    return buf.getvalue().rstrip() + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--store",
        default="",
        help="campaign result store directory for the figure tables "
             "(default: none, and the figure section shows how to make one)",
    )
    parser.add_argument(
        "--out",
        default="",
        help="write the document here instead of stdout",
    )
    args = parser.parse_args()

    text = render(args)
    if args.out:
        pathlib.Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
