"""CLI smoke tests."""

from __future__ import annotations

import pathlib

import pytest

from repro.cli import main

EXAMPLE_SPEC = (
    pathlib.Path(__file__).resolve().parent.parent
    / "examples"
    / "grid_poisson.spec.json"
)

BATTERY_SPEC = EXAMPLE_SPEC.parent / "battery_lifetime.spec.json"


class TestCli:
    def test_ranges_command(self, capsys):
        assert main(["ranges"]) == 0
        out = capsys.readouterr().out
        assert "281.80" in out
        assert "decode 250.0 m" in out

    def test_quickrun_command(self, capsys):
        code = main([
            "quickrun", "--protocol", "basic", "--nodes", "6",
            "--duration", "4", "--load-kbps", "80",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "thr=" in out
        assert "fairness" in out

    def test_quickrun_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            main(["quickrun", "--protocol", "tdma"])

    def test_figure8_tiny(self, capsys):
        code = main([
            "figure8", "--scale", "quick", "--seeds", "1",
            "--loads", "80,160", "--nodes", "8", "--duration", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "basic (paper)" in out
        assert "Figure 8" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


#: Golden registry contents: ``repro list`` must show exactly these
#: components per slot.  A failure here means a component was added
#: (extend the table) or silently disappeared (a regression).
GOLDEN_COMPONENTS = {
    "mac": ["basic", "pcmac", "scheme1", "scheme2"],
    "placement": ["cluster", "explicit", "grid", "line", "uniform"],
    "mobility": ["static", "waypoint"],
    "routing": ["aodv", "static"],
    "traffic": ["cbr", "poisson"],
    "propagation": ["free_space", "log_distance", "two_ray"],
    "energy": ["null", "wavelan"],
    "observability": ["flight", "null", "probes", "trace"],
    "faults": ["churn", "null", "scripted"],
    "reception": ["null", "sinr"],
}


class TestListCommand:
    def parse(self, out: str) -> dict[str, list[str]]:
        slots: dict[str, list[str]] = {}
        current = None
        for line in out.splitlines():
            if line.endswith(":") and not line.startswith(" "):
                current = line[:-1]
                slots[current] = []
            elif line.startswith("  ") and current and "params:" not in line:
                slots[current].append(line.split()[0])
        return slots

    def test_golden_registry_listing(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert self.parse(out) == GOLDEN_COMPONENTS

    def test_param_schemas_shown(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "clusters:int=4" in out
        assert "exponent:float=2.7" in out


class TestScenarioFile:
    def test_quick_runs_checked_in_spec(self, capsys):
        """A scenario defined purely as data runs end-to-end from a file."""
        assert main(["quick", "--scenario", str(EXAMPLE_SPEC)]) == 0
        out = capsys.readouterr().out
        assert "placement=grid" in out
        assert "traffic=poisson" in out
        assert "key: " in out
        assert "thr=" in out

    def test_quickrun_alias_still_works(self, capsys):
        code = main([
            "quickrun", "--protocol", "basic", "--nodes", "6",
            "--duration", "3", "--load-kbps", "80",
        ])
        assert code == 0
        assert "thr=" in capsys.readouterr().out

    def test_energy_command_prints_per_node_table(self, capsys):
        """Golden shape of `repro energy`: header, per-node rows, deaths."""
        assert main(["energy", "--scenario", str(BATTERY_SPEC)]) == 0
        out = capsys.readouterr().out
        assert "energy model: wavelan(battery_j=30.0)" in out
        assert "key: " in out
        # Table header and the aggregate row.
        for column in ("tx J", "rx J", "idle J", "sleep J", "total J",
                       "radiated J", "left J", "died at"):
            assert column in out
        assert "total" in out
        # The 30 J batteries cannot survive the 40 s horizon at ≥1.15 W.
        assert "deaths: 6 node(s)" in out
        assert "full-stack energy per delivered bit:" in out

    def test_energy_command_without_accounting_explains(self, capsys, tmp_path):
        """A null-energy spec still runs and says what is missing."""
        from repro.config import ScenarioConfig
        from repro.scenariospec import ScenarioSpec

        spec = ScenarioSpec(cfg=ScenarioConfig(node_count=6, duration_s=2.0))
        path = tmp_path / "plain.spec.json"
        spec.save(path)
        assert main(["energy", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no energy accounting in this run" in out

    def test_energy_command_requires_scenario(self):
        with pytest.raises(SystemExit):
            main(["energy"])

    def test_trace_command_prints_records(self, capsys):
        """Golden shape of `repro trace`: counters line + record rows."""
        assert main(["trace", "--scenario", str(EXAMPLE_SPEC),
                     "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "categories: app.tx, app.rx" in out
        assert "counters: " in out
        assert "app.tx=" in out
        # Record rows render as "  <time>  n<node> <category> k=v ...".
        assert any(" app.tx " in ln or " mac.handshake " in ln
                   for ln in out.splitlines())

    def test_trace_command_exports_jsonl(self, capsys, tmp_path):
        """--out streams every record to disk and reports zero dropped."""
        import json

        out_path = tmp_path / "trace.jsonl"
        assert main(["trace", "--scenario", str(EXAMPLE_SPEC),
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "(dropped: 0)" in out
        lines = out_path.read_text().splitlines()
        assert lines
        rec = json.loads(lines[0])
        assert {"time", "category", "node"} <= rec.keys()

    def test_trace_rejects_empty_categories(self, capsys):
        assert main(["trace", "--scenario", str(EXAMPLE_SPEC),
                     "--categories", ""]) == 2

    def test_stats_command_prints_gauge_table(self, capsys):
        """Golden shape of `repro stats`: one summary row per gauge."""
        assert main(["stats", "--scenario", str(EXAMPLE_SPEC),
                     "--interval", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "observability: probes(interval_s=1.0)" in out
        assert "timeseries:" in out
        for gauge in ("ifq_depth", "cw", "tx_power_w", "radio_state",
                      "battery_j", "route_count", "rx_drops"):
            assert gauge in out

    def test_stats_profile_prints_kernel_attribution(self, capsys):
        assert main(["stats", "--scenario", str(EXAMPLE_SPEC),
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "observability: flight(" in out
        assert "event kind" in out
        assert "ev/s attributed" in out

    def test_stats_node_drilldown(self, capsys):
        assert main(["stats", "--scenario", str(EXAMPLE_SPEC),
                     "--gauges", "cw", "--node", "0"]) == 0
        out = capsys.readouterr().out
        assert "cw:" in out
        assert "trend" in out

    def test_campaign_live_streams_progress(self, capsys, tmp_path):
        """--live renders heartbeat lines and persists runtime stats."""
        from repro.campaign.store import ResultStore

        store_dir = tmp_path / "store"
        assert main([
            "campaign", "--protocols", "basic", "--loads", "80",
            "--seeds", "1", "--nodes", "6", "--duration", "4",
            "--live", "--store", str(store_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "done " in out  # the final heartbeat line
        assert "ev/s" in out
        store = ResultStore(store_dir)
        (key,) = store.keys()
        stats = store.runtime_stats(key)
        assert stats["events"] > 0
        assert stats["wall_s"] > 0

    def test_scenario_key_matches_campaign_addressing(self, capsys, tmp_path):
        """quick --scenario and a RunSpec of the same spec share a key."""
        from repro.campaign.spec import RunSpec
        from repro.scenariospec import ScenarioSpec

        spec = ScenarioSpec.load(EXAMPLE_SPEC)
        main(["quick", "--scenario", str(EXAMPLE_SPEC)])
        out = capsys.readouterr().out
        (key_line,) = [ln for ln in out.splitlines() if "key: " in ln]
        assert key_line.split("key: ")[1].strip() == RunSpec(scenario=spec).key()


class TestFleetCli:
    """`repro fleet serve|work|status|compact` end to end on a tmp store."""

    GRID = ["--protocols", "basic", "--loads", "80", "--seeds", "1",
            "--nodes", "6", "--duration", "4"]

    def test_serve_then_status_then_compact(self, capsys, tmp_path):
        from repro.fleet import ShardedResultStore

        store_dir = str(tmp_path / "store")
        assert main(["fleet", "serve", store_dir, *self.GRID,
                     "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "fleet serve: 1 cells" in out
        assert "done: 1 simulated" in out
        store = ShardedResultStore(store_dir)
        assert len(store) == 1

        assert main(["fleet", "status", store_dir]) == 0
        out = capsys.readouterr().out
        assert "fleet: 0 task(s) queued" in out
        assert "1 result(s)" in out
        assert "exited" in out  # the serve worker's last heartbeat

        assert main(["fleet", "compact", store_dir]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out
        assert set(ShardedResultStore(store_dir).keys()) == set(store.keys())

    def test_serve_resume_is_cached(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        assert main(["fleet", "serve", store_dir, *self.GRID,
                     "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main(["fleet", "serve", store_dir, *self.GRID,
                     "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "done: 0 simulated, 1 cached" in out

    def test_work_drains_an_enqueued_run(self, capsys, tmp_path):
        from repro.campaign.spec import Campaign
        from repro.config import ScenarioConfig
        from repro.campaign.store import ResultStore
        from repro.fleet import WorkQueue, enqueue_specs

        store = ResultStore(tmp_path / "store", shards=4)
        queue = WorkQueue(store.root / "fleet")
        campaign = Campaign.build(
            ScenarioConfig(node_count=6, duration_s=4.0),
            ["basic"], [80.0], [1],
        )
        enqueue_specs(campaign.specs(), store, queue)
        assert main(["fleet", "work", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "executed=1" in out
        assert queue.drained()

    def test_work_on_empty_queue_exits_cleanly(self, capsys, tmp_path):
        assert main(["fleet", "work", str(tmp_path / "store")]) == 0
        assert "executed=0" in capsys.readouterr().out

    def test_status_stop_round_trip(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        assert main(["fleet", "status", store_dir, "--stop"]) == 0
        assert "STOP requested" in capsys.readouterr().out
        assert main(["fleet", "status", store_dir, "--clear-stop"]) == 0
        assert "STOP requested" not in capsys.readouterr().out

    def test_status_creates_nothing(self, capsys, tmp_path):
        """A plain status on a store that never ran a fleet reports an
        empty fleet and leaves the directory tree exactly as it was."""
        from repro.campaign.store import ResultStore

        store_dir = tmp_path / "store"
        ResultStore(store_dir, shards=4)

        def tree():
            return sorted(str(p.relative_to(store_dir))
                          for p in store_dir.rglob("*"))

        before = tree()
        assert main(["fleet", "status", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "fleet: 0 task(s) queued" in out
        assert "0 result(s)" in out
        assert tree() == before
        assert not (store_dir / "fleet").exists()

    def test_status_on_missing_store_fails(self, capsys, tmp_path):
        missing = tmp_path / "nothing"
        assert main(["fleet", "status", str(missing)]) == 2
        assert "no result store" in capsys.readouterr().err
        assert not missing.exists()

    def test_compact_on_missing_store_fails(self, capsys, tmp_path):
        """Like status, compact rejects a path holding no store and
        creates nothing there."""
        missing = tmp_path / "nothing"
        assert main(["fleet", "compact", str(missing)]) == 2
        assert "no result store" in capsys.readouterr().err
        assert not missing.exists()
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["fleet", "compact", str(empty)]) == 2
        assert list(empty.iterdir()) == []

    def test_flat_store_is_read_only_until_compacted(self, capsys, tmp_path):
        """`fleet status` refuses a flat pre-shard store with exit 2 and
        leaves it byte-identical; `fleet compact` migrates it, after which
        status reads every result."""
        sharded = tmp_path / "sharded"
        assert main(["campaign", *self.GRID, "--store", str(sharded)]) == 0
        flat = tmp_path / "flat"
        flat.mkdir()
        lines = [p.read_text() for p in sorted(sharded.glob("shards/*.jsonl"))]
        (flat / "results.jsonl").write_text("".join(lines))
        capsys.readouterr()

        def tree():
            return {str(p.relative_to(flat)): p.read_bytes()
                    for p in sorted(flat.rglob("*"))}

        before = tree()
        assert main(["fleet", "status", str(flat)]) == 2
        assert f"repro fleet compact {flat}" in capsys.readouterr().err
        assert tree() == before

        assert main(["fleet", "compact", str(flat)]) == 0
        assert "migrated" in capsys.readouterr().out
        assert (flat / "results.jsonl.migrated").exists()
        assert main(["fleet", "status", str(flat)]) == 0
        assert "1 result(s)" in capsys.readouterr().out

    def test_campaign_store_compacts_then_resumes_cached(self, capsys, tmp_path):
        """`repro campaign --store` and `repro fleet` share one layout: the
        campaign's store compacts, and a rerun is all cache hits."""
        store_dir = str(tmp_path / "store")
        campaign = ["campaign", "--protocols", "basic,pcmac", "--loads", "80",
                    "--seeds", "1", "--nodes", "6", "--duration", "4",
                    "--store", store_dir]
        assert main(campaign) == 0
        capsys.readouterr()
        assert main(["fleet", "compact", store_dir]) == 0
        assert "compacted" in capsys.readouterr().out
        assert main(campaign) == 0
        out = capsys.readouterr().out
        assert out.count("[cached]") == 2
        assert "0 simulated, 2 cached" in out

    def test_fleet_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["fleet"])


@pytest.mark.parametrize(
    "name", ["energy_savings", "chaos_resilience", "capture_study"]
)
def test_study_store_flag_reports_a_flat_store(name, capsys, tmp_path, monkeypatch):
    """`repro study NAME` pointed at a flat pre-shard store prints the
    one-line error and exits 2, before simulating anything, leaving the
    store untouched and writing no snapshot."""
    monkeypatch.chdir(tmp_path)
    flat = tmp_path / "flat"
    flat.mkdir()
    (flat / "results.jsonl").write_text("{}\n")
    code = main(["study", name, "--store", str(flat)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"repro fleet compact {flat}" in err
    assert sorted(p.name for p in flat.iterdir()) == ["results.jsonl"]
    assert not (tmp_path / "studies" / f"{name}.json").exists()
