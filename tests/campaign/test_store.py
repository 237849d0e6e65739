"""ResultStore tests: round trips, resume across instances, torn writes."""

from __future__ import annotations

import json

import pytest

from repro.campaign.spec import RunSpec
from repro.campaign.store import (
    ResultStore,
    result_from_dict,
    result_to_dict,
)
from repro.config import ScenarioConfig, TrafficConfig
from repro.experiments.scenario import ExperimentResult, FlowSummary


def make_spec(seed: int = 1) -> RunSpec:
    cfg = ScenarioConfig(
        node_count=4,
        duration_s=2.0,
        seed=seed,
        traffic=TrafficConfig(flow_count=2, offered_load_bps=50e3),
    )
    return RunSpec(cfg=cfg, protocol="basic")


def make_result(seed: int = 1) -> ExperimentResult:
    return ExperimentResult(
        protocol="basic",
        offered_load_kbps=50.0,
        duration_s=1.0,
        throughput_kbps=12.5,
        avg_delay_ms=3.25,
        delivery_ratio=0.5,
        fairness=0.9,
        sent=10,
        received=5,
        drops={"ifq": 2, "retry": 3},
        mac_totals={"rts_sent": 9.0},
        routing_totals={"rreq": 4},
        events_executed=1234,
        wallclock_s=0.01,
        seed=seed,
        flows=(
            FlowSummary(0, 5, 3, 0.6, 6.0, 2.0),
            FlowSummary(1, 5, 2, 0.4, 6.5, 4.5),
        ),
    )


class TestSerialisation:
    def test_result_dict_round_trip(self):
        original = make_result()
        rebuilt = result_from_dict(json.loads(json.dumps(result_to_dict(original))))
        assert rebuilt == original

    def test_legacy_dict_without_flows(self):
        payload = result_to_dict(make_result())
        payload.pop("flows")
        rebuilt = result_from_dict(payload)
        assert rebuilt.flows == ()


class TestResultStore:
    def test_put_then_get(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec, result = make_spec(), make_result()
        key = store.put(spec, result)
        assert key == spec.key()
        assert key in store
        assert store.get(key) == result
        assert len(store) == 1

    def test_resume_across_instances(self, tmp_path):
        root = tmp_path / "store"
        first = ResultStore(root)
        spec, result = make_spec(), make_result()
        first.put(spec, result)

        second = ResultStore(root)
        assert spec.key() in second
        assert second.get(spec.key()) == result
        assert second.spec_summary(spec.key())["protocol"] == "basic"

    def test_audit_record_carries_rerunnable_scenario(self, tmp_path):
        """The stored spec summary embeds the full serialized ScenarioSpec,
        so a store entry can be re-expanded into the exact cell that ran."""
        from repro.scenariospec import ScenarioSpec

        store = ResultStore(tmp_path / "store")
        spec, result = make_spec(), make_result()
        key = store.put(spec, result)

        reloaded = ResultStore(tmp_path / "store")
        scenario_dict = reloaded.spec_summary(key)["scenario"]
        rebuilt = ScenarioSpec.from_dict(scenario_dict)
        assert rebuilt == spec.scenario
        assert rebuilt.key() == key

    def test_missing_key_returns_none(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get("deadbeef") is None
        assert "deadbeef" not in store

    def test_identical_put_writes_one_line(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root)
        spec = make_spec()
        store.put(spec, make_result())
        again = make_result()
        again.wallclock_s = 5.0  # a second finisher: same result, own wall time
        ResultStore(root).put(spec, again)
        assert len(store._file_for(spec.key()).read_text().splitlines()) == 1

    def test_last_write_wins_on_duplicate_key(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root)
        spec = make_spec()
        store.put(spec, make_result())
        newer = make_result()
        newer.throughput_kbps = 99.0
        store.put(spec, newer)
        assert store.get(spec.key()).throughput_kbps == 99.0
        reloaded = ResultStore(root)
        assert len(reloaded) == 1
        assert reloaded.get(spec.key()).throughput_kbps == 99.0

    def test_torn_final_line_is_ignored(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root)
        spec, result = make_spec(), make_result()
        store.put(spec, result)
        # Simulate a crash mid-append: a truncated JSON tail.
        with store._file_for(spec.key()).open("a", encoding="utf-8") as fh:
            fh.write('{"key": "abc", "result": {"proto')

        with pytest.warns(RuntimeWarning, match="quarantined 1 corrupt"):
            reloaded = ResultStore(root)
        assert len(reloaded) == 1
        assert reloaded.get(spec.key()) == result

    def test_meta_file_written_once(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root)
        meta = json.loads((root / "meta.json").read_text())
        assert meta["store_format"] == 2
        assert meta["spec_schema"] >= 1
        # Reopening must not rewrite it.
        before = (root / "meta.json").stat().st_mtime_ns
        ResultStore(root)
        assert (root / "meta.json").stat().st_mtime_ns == before
