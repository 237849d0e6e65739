#!/usr/bin/env python3
"""Measure PHY channel fan-out performance and dump ``BENCH_phy.json``.

Times ``Channel.transmit`` (fan-out + signal-edge dispatch) for the
brute-force scan and the spatial index across the shared ``benchmarks/bench_grid.py`` sweep — the classic
N × placement grid plus the mega-scale columns N ∈ {2000, 10000} (whose
world builders ``benchmarks/test_channel_fanout.py`` provides), then
writes a machine-readable summary to the repo root so the perf trajectory
is tracked across PRs:

    PYTHONPATH=src python tools/bench_phy.py            # writes BENCH_phy.json
    PYTHONPATH=src python tools/bench_phy.py --rounds 50 --out /tmp/b.json
    PYTHONPATH=src python tools/bench_phy.py --no-mega  # classic sizes only

Each cell reports the best-of-``--repeat`` mean microseconds per transmit
(best-of damps scheduler noise; the mean is over ``--rounds`` rounds of
``TX_SAMPLE`` transmissions each).  Mega rows omit the brute column — the
O(N) scan at N = 10 000 is the pathology the spatial index exists to
avoid, and timing it adds minutes without information.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

from bench_grid import DENSITIES, MEGA_SIZES, SIZES, TX_SAMPLE  # noqa: E402
from test_channel_fanout import (  # noqa: E402 - path set up above
    build_mode_world,
    fanout_round,
    make_frame,
)


def time_mode(n: int, density: float, mode: str, rounds: int, repeat: int) -> float:
    """Best-of-``repeat`` mean microseconds per transmit for one mode."""
    best = float("inf")
    for _ in range(repeat):
        sim, chan, radios = build_mode_world(n, density, mode)
        srcs = radios[:TX_SAMPLE]
        frame = make_frame()
        fanout_round(sim, chan, srcs, frame)  # warm-up: caches, grid, heap
        t0 = time.perf_counter()
        for _ in range(rounds):
            fanout_round(sim, chan, srcs, frame)
        dt = time.perf_counter() - t0
        best = min(best, dt / (rounds * TX_SAMPLE) * 1e6)
    return best


def measure_cell(
    n: int, placement: str, density: float, modes: tuple[str, ...],
    rounds: int, repeat: int,
) -> dict:
    """One grid row: per-mode µs/tx plus the index's speedup over brute."""
    row: dict = {"n": n, "placement": placement}
    timed = {m: time_mode(n, density, m, rounds, repeat) for m in modes}
    for mode, us in timed.items():
        row[f"{mode}_us_per_tx"] = round(us, 2)
    if "brute" in timed:
        row["speedup"] = round(timed["brute"] / timed["indexed"], 2)
    parts = "   ".join(f"{m} {us:8.1f} us/tx" for m, us in timed.items())
    print(f"{placement:>6} n={n:<5d} {parts}")
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_phy.json"))
    ap.add_argument("--rounds", type=int, default=30, help="rounds per repeat")
    ap.add_argument("--repeat", type=int, default=3, help="best-of repeats")
    ap.add_argument(
        "--mega-rounds", type=int, default=10,
        help="rounds per repeat for the mega-scale columns",
    )
    ap.add_argument(
        "--no-mega", action="store_true",
        help="skip the N in {2000, 10000} columns (quick smoke)",
    )
    args = ap.parse_args(argv)

    results = []
    for placement, density in sorted(DENSITIES.items()):
        for n in SIZES:
            results.append(measure_cell(
                n, placement, density, ("brute", "indexed"),
                args.rounds, args.repeat,
            ))
        if args.no_mega:
            continue
        for n in MEGA_SIZES:
            results.append(measure_cell(
                n, placement, density, ("indexed",),
                args.mega_rounds, args.repeat,
            ))

    payload = {
        "benchmark": "phy_channel_fanout",
        "schema": 3,
        "generated_by": "tools/bench_phy.py",
        "config": {
            "tx_per_round": TX_SAMPLE,
            "rounds": args.rounds,
            "mega_rounds": args.mega_rounds,
            "repeat": args.repeat,
            "unit": "microseconds per transmit (fan-out + edge dispatch)",
            "note": "mega rows (n >= 2000) omit the brute column",
        },
        "results": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
