"""Kernel self-profiling: identical dispatch, accurate attribution."""

from __future__ import annotations

import json

import pytest

from repro.builder import NetworkBuilder
from repro.config import ScenarioConfig
from repro.obs.profile import ProfileEntry, ProfileReport
from repro.scenariospec import ComponentSpec, ScenarioSpec
from repro.sim.kernel import Simulator


def schedule_workload(sim: Simulator) -> list[str]:
    """A small labelled workload; returns the fired-label log."""
    log: list[str] = []
    for i in range(5):
        sim.schedule(float(i), lambda i=i: log.append(f"tick{i}"), label="tick")
    sim.schedule(2.5, lambda: log.append("mid"), label="mid")

    def unlabelled():
        log.append("un")

    sim.schedule(3.5, unlabelled)  # no label: falls back to qualname
    return log


class TestProfiledKernel:
    def test_dispatch_is_identical_to_unprofiled(self):
        plain, profiled = Simulator(), Simulator()
        log_a = schedule_workload(plain)
        log_b = schedule_workload(profiled)
        profiled.enable_profiling()
        plain.run_until(10.0)
        profiled.run_until(10.0)
        assert log_a == log_b
        assert plain.events_executed == profiled.events_executed == 7
        assert plain.now == profiled.now == 10.0

    def test_attribution_by_label_with_qualname_fallback(self):
        sim = Simulator()
        schedule_workload(sim)
        sim.enable_profiling()
        sim.run_until(10.0)
        raw = sim.profile
        assert raw["tick"][0] == 5
        assert raw["mid"][0] == 1
        # The unlabelled event lands under its handler's qualified name.
        (fallback_kind,) = [k for k in raw if "unlabelled" in k]
        assert raw[fallback_kind][0] == 1
        assert all(cum >= 0.0 for _, cum in raw.values())

    def test_profile_is_off_by_default(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None, label="x")
        sim.run_until(5.0)
        assert sim.profile is None

    def test_enable_is_idempotent(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None, label="x")
        sim.enable_profiling()
        sim.run_until(0.5)
        sim.enable_profiling()  # must not wipe accumulated data
        sim.run_until(5.0)
        assert sim.profile["x"][0] == 1

    def test_stop_is_honoured_in_profiled_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.enable_profiling()
        sim.run_until(10.0)
        assert fired == [1]
        assert sim.pending_events == 1

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append("no"), label="dead")
        sim.schedule(2.0, lambda: fired.append("yes"), label="live")
        ev.cancel()
        sim.enable_profiling()
        sim.run_until(10.0)
        assert fired == ["yes"]
        assert "dead" not in sim.profile


class TestBatchedEdgeAttribution:
    def test_batched_edges_count_per_label_like_per_event_edges(self):
        """The indexed fan-out batches signal edges, the brute one schedules
        each as an event: the profile must not tell them apart."""
        spec = ScenarioSpec(
            cfg=ScenarioConfig(node_count=10, duration_s=3.0, seed=3),
            mac="pcmac",
            observability=ComponentSpec("flight", interval_s=1.0),
        )
        calls = {}
        for indexed in (True, False):
            result = NetworkBuilder(spec, spatial_index=indexed).build().run()
            assert result.profile.total_events == result.events_executed
            calls[indexed] = {e.kind: e.calls for e in result.profile.entries}
        assert calls[True] == calls[False]
        assert calls[True]["phy.sig_start"] > 0 and calls[True]["phy.sig_end"] > 0
        assert not any("signal_" in kind for kind in calls[True])


class TestProfileReport:
    def test_from_raw_sorts_hottest_first(self):
        report = ProfileReport.from_raw(
            {"cold": [10, 0.001], "hot": [5, 0.5], "warm": [2, 0.01]}
        )
        assert [e.kind for e in report.entries] == ["hot", "warm", "cold"]
        assert report.total_events == 17
        assert report.attributed_s == pytest.approx(0.511)

    def test_per_call_and_rate_derivations(self):
        entry = ProfileEntry(kind="x", calls=4, cum_s=0.002)
        assert entry.per_call_us == pytest.approx(500.0)
        report = ProfileReport.from_raw({"x": [4, 0.002]})
        assert report.events_per_sec == pytest.approx(2000.0)

    def test_zero_calls_and_empty_report_do_not_divide_by_zero(self):
        assert ProfileEntry(kind="x", calls=0, cum_s=0.0).per_call_us == 0.0
        empty = ProfileReport.from_raw({})
        assert empty.events_per_sec == 0.0
        assert "total" in empty.table()

    def test_from_sim_none_when_disabled(self):
        assert ProfileReport.from_sim(Simulator()) is None

    def test_json_round_trip(self):
        report = ProfileReport.from_raw({"a": [3, 0.03], "b": [1, 0.5]})
        from dataclasses import asdict

        rebuilt = ProfileReport.from_payload(
            json.loads(json.dumps(asdict(report)))
        )
        assert rebuilt == report

    def test_table_renders_top_n(self):
        report = ProfileReport.from_raw(
            {f"kind{i}": [1, 0.01 * (i + 1)] for i in range(30)}
        )
        table = report.table(top=5)
        assert table.count("\n") == 6  # header + 5 rows + total
        assert "kind29" in table  # hottest survives the cut
        assert "kind0" not in table
