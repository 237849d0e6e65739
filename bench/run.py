#!/usr/bin/env python3
"""One outside-in benchmark for the simulator: five workloads, end-to-end
and per-layer metrics, every result checked against golden fingerprints.

    PYTHONPATH=src python bench/run.py                      # all workloads
    python bench/run.py --workload paper-static --seed 8    # one workload
    python bench/run.py --workload mega-flood --trace       # per-layer metrics
    python bench/run.py --smoke --json out.json             # < 60 s pass
    python bench/run.py --compare A.json B.json             # verdict per metric
    python bench/run.py --write-golden                      # refresh golden.json

Each workload runs in its own process (peak RSS is per process).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {value, unit}}``: the end-to-end
metrics, or with ``--trace`` the per-layer ones).  The exit code is non-zero
when any cell failed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_FILE = HERE / "golden.json"
WORK = ROOT / ".bench_work"
SMOKE_SECONDS = 1.0


@functools.cache
def spec() -> dict:
    """``BENCHMARK.json``: workload names, metric units, directions, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _summary(values: list[float]) -> dict[str, float]:
    """Median and quartiles of samples.

    Quartiles are inclusive: with the handful of passes one run makes, the
    exclusive method extrapolates past the smallest and largest sample.
    """
    med = statistics.median(values)
    if len(values) < 2:
        return {"value": med, "q1": med, "q3": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def _declared(trace: bool) -> dict[str, dict]:
    return {m["name"]: m for m in spec()["per_layer" if trace else "end_to_end"]}


def _fmt(x: float) -> str:
    return f"{x:.6g}" if abs(x) < 1e6 else f"{x:,.0f}"


def _import_repro() -> None:
    """Put this checkout's ``src`` first on the path; refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no simulator sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"bench: imported repro from {repro.__file__}, not {SRC}")


def run_one(args) -> int:
    """Measure one workload in this process and print its result line."""
    _import_repro()
    import workloads

    w = workloads.WORKLOADS[args.workload]
    golden = None
    if args.seed == workloads.GOLDEN_SEED and not args.smoke:
        golden = json.loads(GOLDEN_FILE.read_text()).get(w.name, {})
    work = WORK / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    measure = workloads.measure_traced if args.trace else workloads.measure
    try:
        out = measure(
            w, seed=args.seed, seconds=args.seconds, smoke=args.smoke,
            golden=golden, work=work,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = _declared(args.trace)
    if set(out.samples) != set(declared):
        sys.exit(f"bench: emitted {sorted(out.samples)} but declared {sorted(declared)}")
    metrics = {
        name: {**_summary(out.samples[name]), "unit": declared[name]["unit"]}
        for name in declared
    }
    chk = out.checker
    print(f"{w.name}  seed={args.seed}  trace={int(args.trace)}  "
          f"smoke={int(args.smoke)}  golden={'yes' if golden is not None else 'no'}")
    for name, m in metrics.items():
        print(f"  {name:<30} {_fmt(m['value']):>14} {m['unit']:<9} "
              f"IQR {_fmt(m['q1'])}..{_fmt(m['q3'])}  n={m['n']}")
    for key, value in out.info.items():
        print(f"  info {key:<25} {_fmt(value)}")
    print(f"  fail_ratio {chk.failed}/{chk.attempted}")
    for problem in chk.problems:
        print(f"  FAILED {problem}")
    record = {
        "workload": w.name,
        "seed": args.seed,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "problems": chk.problems,
        "metrics": metrics,
        "info": out.info,
    }
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Run every workload in a child process of its own and merge the records."""
    WORK.mkdir(exist_ok=True)
    records = {}
    for name in (m["name"] for m in spec()["workloads"]):
        out = WORK / f"all-{os.getpid()}-{name}.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace)), "--json", str(out)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        if not out.is_file():
            sys.exit(f"bench: workload {name} exited {proc.returncode} without a record")
        records[name] = json.loads(out.read_text())
        out.unlink()
    combined = {"seed": args.seed, "trace": bool(args.trace), "smoke": args.smoke,
                "seconds": args.seconds, "workloads": records}
    if args.json:
        Path(args.json).write_text(json.dumps(combined, indent=1) + "\n")
    failed = sum(r["failed"] for r in records.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": failed,
        "metrics": {
            f"{w}/{n}": {"value": m["value"], "unit": m["unit"]}
            for w, r in records.items() for n, m in r["metrics"].items()
        },
    }))
    return 0 if failed == 0 else 1


# ------------------------------------------------------------------ compare


def _load_side(path: Path) -> list[dict]:
    """Run records (``{workload: record}``) from a file or a directory of them."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        data = json.loads(f.read_text())
        runs.append(data["workloads"] if "workloads" in data else {data["workload"]: data})
    if not runs:
        sys.exit(f"bench: no run records under {path}")
    return runs


def _side_stats(runs: list[dict], workload: str, metric: str) -> dict | None:
    """One file: its own median and IQR.  Several: those of their medians."""
    cells = [r[workload]["metrics"].get(metric) for r in runs if workload in r]
    cells = [c for c in cells if c is not None]
    if not cells:
        return None
    if len(cells) == 1:
        return cells[0]
    return _summary([c["value"] for c in cells])


def verdict(a: dict, b: dict, bound: float, better: str) -> tuple[str, float, float]:
    """better / same / worse / unresolved for change ``b`` against parent ``a``.

    Identical medians are the same.  Otherwise unresolved when either side's
    IQR, as a share of its median, exceeds the bound, and else a change
    beyond the bound either way decides.
    """
    change = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
    gain = change if better == "higher" else -change
    spread = max(
        (s["q3"] - s["q1"]) / abs(s["value"]) if s["value"] else 0.0 for s in (a, b)
    )
    if gain == 0.0:
        return "same", gain, spread
    if spread > bound:
        return "unresolved", gain, spread
    if gain < -bound:
        return "worse", gain, spread
    if gain > bound:
        return "better", gain, spread
    return "same", gain, spread


def compare(path_a: str, path_b: str) -> int:
    side_a, side_b = _load_side(Path(path_a)), _load_side(Path(path_b))
    counts: dict[str, int] = {}
    print(f"{'workload':<15} {'metric':<20} {'A':>14} {'B':>14} {'gain':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in (m["name"] for m in spec()["workloads"]):
        for m in spec()["end_to_end"]:
            a = _side_stats(side_a, w, m["name"])
            b = _side_stats(side_b, w, m["name"])
            if a is None or b is None:
                continue
            v, gain, spread = verdict(a, b, m["bound"], m["better"])
            counts[v] = counts.get(v, 0) + 1
            print(f"{w:<15} {m['name']:<20} {_fmt(a['value']):>14} {_fmt(b['value']):>14} "
                  f"{gain:>+8.2%} {spread:>7.2%} {m['bound']:>6.0%}  {v}")
    print("  ".join(f"{k}={n}" for k, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


def write_golden() -> int:
    _import_repro()
    import workloads

    golden = {}
    for name, w in workloads.WORKLOADS.items():
        golden[name] = workloads.golden_fingerprints(w)
        print(f"{name}: {len(golden[name])} cells")
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[m["name"] for m in spec()["workloads"]],
                    help="run one workload in this process (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=7,
                    help="reseeds placement and flows (7 is checked against golden.json)")
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measuring time per workload (default {spec()['run_seconds']}, "
                    f"smoke {SMOKE_SECONDS})")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="per-layer metrics from a traced run")
    ap.add_argument("--json", help="write the full record (medians, quartiles, counts) here")
    ap.add_argument("--smoke", action="store_true", help="small cells, short runs")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two records (files, or directories of repeated runs)")
    ap.add_argument("--write-golden", action="store_true",
                    help="recompute golden.json at the golden seed")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.write_golden:
        return write_golden()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec()["run_seconds"])
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
