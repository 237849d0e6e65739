"""run_specs(fleet=True): the campaign API on top of the fleet machinery.

The contract: fleet mode keeps the ``run_specs`` surface (report shape,
resume, error records) while executing through enqueue → supervised
workers → store, and its results are bit-identical to a serial run of the
same specs.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.campaign.runner import run_specs
from repro.campaign.spec import RunSpec
from repro.config import ScenarioConfig, TrafficConfig
from repro.fleet.queue import WorkQueue
from repro.fleet.shards import ShardedResultStore
from repro.scenariospec import ComponentSpec, ScenarioSpec


def cell(seed: int = 1) -> RunSpec:
    cfg = ScenarioConfig(
        node_count=4,
        duration_s=2.0,
        seed=seed,
        traffic=TrafficConfig(flow_count=1, offered_load_bps=50e3),
    )
    return RunSpec(scenario=ScenarioSpec(cfg=cfg, mac=ComponentSpec("basic")))


def doomed(seed: int = 99) -> RunSpec:
    cfg = ScenarioConfig(node_count=6, duration_s=2.0, seed=seed)
    return RunSpec(
        scenario=ScenarioSpec(
            cfg=cfg,
            mac=ComponentSpec("basic"),
            placement=ComponentSpec("explicit", positions=((0.0, 0.0),)),
        )
    )


def deterministic_fields(result) -> dict:
    fields = asdict(result)
    fields.pop("wallclock_s")
    return fields


class TestFleetRunSpecs:
    def test_fleet_requires_a_store(self):
        with pytest.raises(ValueError, match="store"):
            run_specs([cell()], fleet=True)

    def test_results_identical_to_serial(self, tmp_path):
        specs = [cell(1), cell(2)]
        serial = run_specs(specs)
        store = ShardedResultStore(tmp_path / "store", shards=4)
        fleet = run_specs(specs, jobs=2, store=store, fleet=True)
        assert fleet.executed == 2
        assert not fleet.errors
        for spec in specs:
            key = spec.key()
            assert deterministic_fields(
                fleet.results[key]
            ) == deterministic_fields(serial.results[key])

    def test_store_holds_one_line_per_key(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=4)
        specs = [cell(1), cell(2)]
        run_specs(specs, jobs=2, store=store, fleet=True)
        lines = []
        for path in store._result_files():
            if path.exists():
                lines.extend(path.read_text().splitlines())
        assert len(lines) == 2

    def test_resume_is_all_cache_hits(self, tmp_path):
        """The cache identity contract: a resubmitted grid executes no
        cell, serves every key bit-identical to the cold pass, and starts
        no worker (no new heartbeat appears)."""
        store = ShardedResultStore(tmp_path / "store", shards=4)
        specs = [cell(1), cell(2)]
        cold = run_specs(specs, jobs=2, store=store, fleet=True)
        assert cold.executed == len(specs)
        work_queue = WorkQueue(store.root / "fleet")
        workers = set(work_queue.heartbeats())
        assert workers  # the cold pass's workers left their heartbeats

        again = run_specs(specs, jobs=2, store=store, fleet=True)
        assert again.cached == len(specs)
        assert again.executed == 0
        assert not again.errors
        assert set(again.results) == {spec.key() for spec in specs}
        for key, result in cold.results.items():
            assert deterministic_fields(again.results[key]) == (
                deterministic_fields(result)
            )
        assert set(work_queue.heartbeats()) == workers

    def test_failures_carry_the_lease_audit(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=4)
        report = run_specs(
            [cell(1), doomed()],
            jobs=2,
            store=store,
            fleet=True,
            retries=1,
        )
        assert report.executed == 1
        error = report.errors[doomed().key()]
        assert error["kind"] == "ValueError"
        assert error["attempts"] == 2  # retries=1 → attempt budget of 2
        assert len(error["owners"]) == 2
        assert error["label"] == doomed().label()
        # Persisted identically: resume reads the same record back.
        assert store.error(doomed().key())["owners"] == error["owners"]
