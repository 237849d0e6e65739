"""Checks on the benchmark itself: ``python -m pytest bench -q`` (< 60 s).

One smoke pass of every workload, untraced and traced, shared by the tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".bench_work"


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def scratch():
    path = WORK / f"test-{uuid.uuid4().hex[:8]}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def smoke(scratch):
    """``{"untraced": record, "traced": record}`` plus the untraced file."""
    out = {}
    for kind, trace in (("untraced", "0"), ("traced", "1")):
        path = scratch / f"{kind}.json"
        proc = _bench("--smoke", "--trace", trace, "--json", str(path))
        assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
        last = json.loads(proc.stdout.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        out[kind] = json.loads(path.read_text())
    out["untraced_file"] = scratch / "untraced.json"
    return out


@pytest.mark.parametrize("kind, section", [("untraced", "end_to_end"), ("traced", "per_layer")])
def test_every_workload_emits_every_declared_metric(smoke, kind, section):
    record = smoke[kind]
    assert set(record["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, r in record["workloads"].items():
        assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0, (name, r["problems"])
        assert {n: m["unit"] for n, m in r["metrics"].items()} == declared, name


def test_traced_run_is_identical_and_fully_attributed(smoke):
    # The traced run fails any cell whose traced result differs from its
    # untraced one, so zero failures is the identity check.
    for name, r in smoke["traced"]["workloads"].items():
        assert r["failed"] == 0, (name, r["problems"])
        assert abs(r["metrics"]["trace.unattributed_share"]["value"]) <= 0.05, name
        assert r["metrics"]["trace.overhead"]["value"] > 1.0, name


def test_compare_with_itself_is_all_same(smoke):
    path = str(smoke["untraced_file"])
    proc = _bench("--compare", path, path)
    assert proc.returncode == 0, proc.stdout
    verdicts = [line.split()[-1] for line in proc.stdout.splitlines()[1:-1]]
    assert len(verdicts) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert set(verdicts) == {"same"}, proc.stdout


def test_verdicts_follow_bounds_and_direction():
    sys.path.insert(0, str(HERE))
    from run import verdict

    base = {"value": 100.0, "q1": 99.0, "q3": 101.0}
    up = {"value": 120.0, "q1": 119.0, "q3": 121.0}
    assert verdict(base, up, 0.1, "higher")[0] == "better"
    assert verdict(base, up, 0.1, "lower")[0] == "worse"
    assert verdict(base, base, 0.1, "lower")[0] == "same"
    wide = {"value": 100.0, "q1": 80.0, "q3": 120.0}
    assert verdict(up, wide, 0.1, "lower")[0] == "unresolved"
    assert verdict(wide, wide, 0.1, "lower")[0] == "same"


def test_spans_split_self_time_from_children():
    sys.path.insert(0, str(HERE))
    from layers import Calibration, Spans

    class Toy:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    spans = Spans([("a", Toy, "outer"), ("b", Toy, "inner")])
    with spans:
        assert Toy().outer() == 2
    assert Toy.outer.__name__ == "outer"  # originals restored
    assert spans.calls == [1, 1] and spans.kids == [1, 0]
    assert spans.top[1] == 1 and spans.stack == []
    (_, _, outer_s, _), (_, _, inner_s, _) = spans.corrected(Calibration(0.0, 0.0))
    assert outer_s + inner_s == pytest.approx(spans.top[0])


def test_bare_checkout_fails_without_a_result(scratch):
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench("--workload", "paper-static", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
