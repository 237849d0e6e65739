"""The standing studies hold their committed snapshots to their claims.

Each study in :data:`repro.studies.STUDIES` has a committed snapshot under
``studies/``.  Tier-1 checks that every snapshot keeps its study's shape
claims, that a snapshot broken by hand fails the claim it breaks, that the
study renders its snapshot exactly as EXPERIMENTS.md shows it, and that the
whole harness (grid, campaign runner, reducer, renderer, checks) runs on a
miniature grid.  The slow test re-runs each study's smallest cell and
compares it with the fingerprint its snapshot records.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.campaign.store import ResultStore
from repro.cli import main
from repro.studies import SNAPSHOT_DIR, STUDIES, fingerprint, run_study

ROOT = Path(__file__).resolve().parent.parent


def _snapshot(name: str) -> dict:
    return json.loads((ROOT / SNAPSHOT_DIR / f"{name}.json").read_text())


def _section(title: str) -> str:
    """One ``## title`` section of the committed EXPERIMENTS.md."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for part in text.split("\n## ")[1:]:
        if part.startswith(title + "\n"):
            return ("## " + part).rstrip("\n")
    raise AssertionError(f"EXPERIMENTS.md has no section {title!r}")


#: Each study shrunk to a tier-1-sized grid (<= 8 nodes, <= 2 s, 2 seeds).
MINIATURES = {
    name: replace(study, nodes=8, duration_s=2.0, seeds=(1, 2))
    for name, study in STUDIES.items()
}
# At 8 nodes the ten flows' endpoints cover every node under most seeds,
# leaving churn no relay to crash; seeds 2 and 5 leave one each.
MINIATURES["chaos_resilience"] = replace(
    MINIATURES["chaos_resilience"], seeds=(2, 5), crashes_per_run=1,
    downtime_s=0.5,
)
#: Shape claims a miniature may break: on 8 nodes over 2 s, routes form so
#: late that delivery outside the fault windows can read lower than inside.
MINIATURE_MAY_BREAK = {
    "chaos_resilience": {
        "crashes cost delivery: delivery during faults <= outside",
    },
}


@pytest.mark.parametrize("name", STUDIES)
def test_committed_snapshot_keeps_its_claims(name):
    assert STUDIES[name].check(_snapshot(name)) == []


def _set(path: tuple, value):
    def mutate(snapshot: dict) -> None:
        *parents, leaf = path
        node = snapshot
        for key in parents:
            node = node[key]
        node[leaf] = value

    return mutate


@pytest.mark.parametrize(
    "name, mutate, claim",
    [
        ("energy_savings", _set(("savings", "radiated_fraction"), -0.1),
         "radiated saving: pcmac radiates less than basic"),
        ("energy_savings", _set(("protocols", "pcmac", "throughput_kbps"), 250.0),
         "equal throughput: basic and pcmac throughput CIs overlap"),
        ("energy_savings", _set(("protocols", "basic", "throughput_kbps"), 320.0),
         "delivered <= offered: throughput stays within the offered load"),
        ("energy_savings", _set(("protocols", "pcmac", "rx_j"), 0.0),
         "energy books balance: tx + rx + idle = total, savings match"),
        ("chaos_resilience", _set(("protocols", "basic", "rerouted"), 8),
         "every crash rerouted: rerouted == crashes"),
        ("chaos_resilience", _set(("protocols", "pcmac", "crashes"), 8),
         "identical crash schedule: crashes_per_run crashes per seed each"),
        ("chaos_resilience", _set(("protocols", "pcmac", "delivery_outside"), 1.2),
         "deliveries are ratios in [0, 1]"),
        ("chaos_resilience", _set(("degradation_gap",), 0.1),
         "degradation adds up: 1 - during/outside, gap basic - pcmac"),
        ("capture_study", _set(("cells", 1, "delivery"), 1.2),
         "deliveries are ratios in [0, 1]"),
        ("capture_study", _set(("cells", 0, "drop_collision"), 5),
         "threshold receiver types nothing: no drops on null cells"),
        ("capture_study", _set(("gap_shift_kbps",), 0.0),
         "gaps add up: basic - pcmac per receiver, shift sinr - null"),
    ],
)
def test_a_mutated_snapshot_fails_the_claim_it_breaks(name, mutate, claim):
    snapshot = copy.deepcopy(_snapshot(name))
    mutate(snapshot)
    assert claim in STUDIES[name].check(snapshot)


def test_sinr_cells_without_typed_drops_fail_their_claim():
    snapshot = copy.deepcopy(_snapshot("capture_study"))
    for key in ("drop_collision", "drop_capture_lost", "drop_below_sensitivity"):
        snapshot["cells"][1][key] = 0
    assert STUDIES["capture_study"].check(snapshot) == [
        "sinr receiver types its losses: drops on every sinr cell"
    ]


@pytest.mark.parametrize("name", STUDIES)
def test_render_matches_the_committed_experiments_section(name):
    study = STUDIES[name]
    assert study.render(_snapshot(name)) == _section(study.title)


@pytest.mark.parametrize("name", STUDIES)
def test_committed_snapshot_describes_the_declared_grid(name):
    study, snapshot = STUDIES[name], _snapshot(name)
    assert snapshot["experiment"] == name
    assert snapshot["generated_by"] == f"repro study {name}"
    assert snapshot["config"] == {**asdict(study), "seeds": list(study.seeds)}
    assert snapshot["fingerprint"]["key"] == study.specs()[0].key()


@pytest.mark.parametrize("name", STUDIES)
def test_study_runs_end_to_end_on_a_miniature_grid(name, tmp_path):
    study = MINIATURES[name]
    store = ResultStore(tmp_path / "store")
    snapshot = run_study(study, store=store)

    assert snapshot["config"]["nodes"] == 8
    assert study.render(snapshot).startswith(f"## {study.title}\n\n")
    assert set(study.check(snapshot)) <= MINIATURE_MAY_BREAK.get(name, set())
    # The same grid resumed from the store reduces to the same snapshot,
    # and the fingerprint is the first cell's, run directly.
    assert run_study(study, store=store) == snapshot
    first = study.specs()[0]
    assert snapshot["fingerprint"] == {
        "key": first.key(), "sha256": fingerprint(first.run())
    }


def test_study_cli_writes_the_snapshot(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(STUDIES, "capture_study", MINIATURES["capture_study"])
    assert main(["study", "capture_study"]) == 0
    written = json.loads((tmp_path / SNAPSHOT_DIR / "capture_study.json").read_text())
    assert written == run_study(MINIATURES["capture_study"])
    out = capsys.readouterr().out
    assert "wrote studies/capture_study.json" in out
    assert "## Reception-model sensitivity" in out


@pytest.mark.slow
@pytest.mark.parametrize("name", STUDIES)
def test_smallest_cell_matches_the_snapshot_fingerprint(name):
    study, snapshot = STUDIES[name], _snapshot(name)
    first = study.specs()[0]
    assert snapshot["fingerprint"]["key"] == first.key()
    assert fingerprint(first.run()) == snapshot["fingerprint"]["sha256"], (
        f"{name}: the smallest cell's result moved; re-run "
        f"`repro study {name}` and commit the snapshot only for an intended "
        "result change"
    )
