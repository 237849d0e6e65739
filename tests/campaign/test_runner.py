"""Campaign runner tests: cross-process determinism, caching, resume.

The determinism regression is the load-bearing test: a campaign executed on
a worker pool must produce results identical (wallclock aside) to the same
specs run serially in-process — each cell carries its own seed, so fan-out
must not change any simulated quantity.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest

from repro.campaign.runner import run_campaign, run_specs
from repro.campaign.spec import Campaign, RunSpec
from repro.campaign.store import ResultStore
from repro.config import ScenarioConfig, TrafficConfig
from repro.scenariospec import ScenarioSpec


def small_cfg(**overrides) -> ScenarioConfig:
    defaults = dict(
        node_count=6,
        duration_s=3.0,
        seed=1,
        traffic=TrafficConfig(flow_count=2, offered_load_bps=80e3),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def small_campaign() -> Campaign:
    return Campaign.build(small_cfg(), ["basic", "pcmac"], [50.0, 80.0], [1, 2])


def deterministic_fields(result) -> dict:
    """Every result field except the wallclock measurement."""
    fields = asdict(result)
    fields.pop("wallclock_s")
    return fields


class TestDeterminismAcrossProcesses:
    def test_pool_results_identical_to_serial(self):
        specs = small_campaign().specs()
        serial = run_specs(specs, jobs=1)
        pooled = run_specs(specs, jobs=4)
        assert serial.executed == pooled.executed == len(specs)
        assert set(serial.results) == set(pooled.results)
        for key in serial.results:
            assert deterministic_fields(serial.results[key]) == (
                deterministic_fields(pooled.results[key])
            )

    def test_single_spec_short_circuits_the_pool(self):
        spec = RunSpec(cfg=small_cfg(), protocol="basic")
        # jobs > 1 with one pending cell must not pay pool start-up.
        report = run_specs([spec], jobs=8)
        assert report.executed == 1
        assert spec.key() in report.results


class TestPooledDispatch:
    def test_replacement_is_submitted_before_the_finished_cell_is_stored(
        self, tmp_path, monkeypatch
    ):
        # Refill before record: by the i-th put the parent has handed out
        # min(n, jobs + i) cells, so no worker idles through a put.
        import multiprocessing.pool

        log: list[str] = []
        apply_async = multiprocessing.pool.Pool.apply_async
        put = ResultStore.put

        def logged_apply_async(self, *args, **kwargs):
            log.append("submit")
            return apply_async(self, *args, **kwargs)

        def logged_put(self, *args, **kwargs):
            log.append("put")
            return put(self, *args, **kwargs)

        monkeypatch.setattr(
            multiprocessing.pool.Pool, "apply_async", logged_apply_async
        )
        monkeypatch.setattr(ResultStore, "put", logged_put)
        jobs = 2
        specs = [
            RunSpec(cfg=small_cfg(seed=seed, duration_s=2.0), protocol="basic")
            for seed in range(1, 6)
        ]
        report = run_specs(specs, jobs=jobs, store=ResultStore(tmp_path / "s"))
        assert report.executed == len(specs)
        assert log.count("submit") == log.count("put") == len(specs)
        submitted = puts = 0
        for call in log:
            if call == "submit":
                submitted += 1
                continue
            puts += 1
            assert submitted >= min(len(specs), jobs + puts), log

    def test_each_pending_key_is_computed_once(self, tmp_path, monkeypatch):
        # The parent hashes each cell once and hands the key to the worker
        # and to the store's put; the worker hashes nothing.
        from repro.campaign import runner
        from repro.scenariospec import ScenarioSpec

        calls = []
        key = ScenarioSpec.key

        def counted_key(self):
            calls.append(self)
            return key(self)

        monkeypatch.setattr(ScenarioSpec, "key", counted_key)
        specs = [
            RunSpec(cfg=small_cfg(seed=seed, duration_s=2.0), protocol=proto)
            for seed in (1, 2)
            for proto in ("basic", "pcmac")
        ]
        store = ResultStore(tmp_path / "s")
        report = run_specs(specs + specs[:1], jobs=2, store=store)
        assert report.executed == len(specs)
        # One call per pending cell, plus one for the duplicate it dropped.
        assert len(calls) == len(specs) + 1
        assert all(store.get(spec.key()) is not None for spec in specs)

        calls.clear()
        status, got, _, _ = runner._execute_safe(
            (specs[0], "k" * 32, None)
        )
        assert (status, got, calls) == ("ok", "k" * 32, [])


class TestCachingAndResume:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        campaign = small_campaign()
        store = ResultStore(tmp_path / "store")
        first = run_campaign(campaign, jobs=2, store=store)
        assert first.executed == campaign.size
        assert first.cached == 0

        second = run_campaign(campaign, jobs=2, store=ResultStore(tmp_path / "store"))
        assert second.executed == 0
        assert second.cached == campaign.size
        for key in first.results:
            assert deterministic_fields(first.results[key]) == (
                deterministic_fields(second.results[key])
            )

    def test_interrupted_campaign_resumes_partial_store(self, tmp_path):
        campaign = small_campaign()
        specs = campaign.specs()
        store = ResultStore(tmp_path / "store")
        # Simulate an interruption: only half the cells completed.
        run_specs(specs[: len(specs) // 2], store=store)
        assert len(store) == len(specs) // 2

        report = run_campaign(campaign, store=ResultStore(tmp_path / "store"))
        assert report.cached == len(specs) // 2
        assert report.executed == len(specs) - len(specs) // 2
        assert set(report.results) == {s.key() for s in specs}

    def test_no_resume_recomputes_everything(self, tmp_path):
        campaign = small_campaign()
        spec = campaign.specs()[0]
        # A stale line, as a run under older simulator code left it.
        stale = run_specs([spec]).results[spec.key()]
        ResultStore(tmp_path / "store").put(
            spec, replace(stale, throughput_kbps=-1.0)
        )
        store = ResultStore(tmp_path / "store")
        again = run_campaign(campaign, store=store, resume=False)
        assert again.executed == campaign.size
        assert again.cached == 0
        # The store now holds the rerun's results, the stale cell included.
        reopened = ResultStore(tmp_path / "store")
        for key, result in again.results.items():
            assert deterministic_fields(reopened.get(key)) == (
                deterministic_fields(result)
            )

    def test_duplicate_specs_collapse(self):
        spec = RunSpec(cfg=small_cfg(), protocol="basic")
        report = run_specs([spec, spec, spec])
        assert report.executed == 1
        assert report.total == 1

    def test_progress_lines_and_report_accounting(self, tmp_path):
        campaign = small_campaign()
        store = ResultStore(tmp_path / "store")
        lines: list[str] = []
        run_campaign(campaign, store=store, progress=lines.append)
        assert len(lines) == campaign.size
        cached_lines: list[str] = []
        run_campaign(campaign, store=store, progress=cached_lines.append)
        assert len(cached_lines) == campaign.size
        assert all(line.startswith("[cached]") for line in cached_lines)

    def test_progress_lines_tell_cells_apart(self, tmp_path):
        """Two cells that differ only in the reception slot share protocol,
        load and seed; their content keys tell the lines apart."""
        specs = [
            RunSpec(scenario=ScenarioSpec(cfg=small_cfg(), reception=reception))
            for reception in ("null", "sinr")
        ]
        store = ResultStore(tmp_path / "store")
        for _ in range(2):  # simulated, then served from the store
            lines: list[str] = []
            run_specs(specs, store=store, progress=lines.append)
            assert len(lines) == 2 and lines[0] != lines[1]
            for line, spec in zip(lines, specs):
                assert line.split()[1] == spec.key()[:8]
        assert lines[0].startswith("[cached]")

    def test_failed_lines_tell_cells_apart(self):
        specs = [
            RunSpec(
                scenario=ScenarioSpec(
                    cfg=small_cfg(), reception=reception, flow_pairs=((0, 99),)
                )
            )
            for reception in ("null", "sinr")
        ]
        lines: list[str] = []
        report = run_specs(specs, progress=lines.append)
        assert len(report.errors) == 2
        assert all(line.startswith("[failed]") for line in lines)
        assert lines[0] != lines[1]

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            run_specs([], jobs=0)

    def test_in_spec_order(self):
        campaign = small_campaign()
        specs = campaign.specs()
        report = run_specs(specs, jobs=2)
        ordered = report.in_spec_order(specs)
        assert [r.seed for r in ordered] == [s.seed for s in specs]
        assert [r.protocol for r in ordered] == [s.protocol for s in specs]


class TestSweepFacade:
    def test_parallel_sweep_matches_serial_sweep(self):
        from repro.experiments.sweep import run_load_sweep

        kwargs = dict(seeds=(1, 2))
        serial = run_load_sweep(small_cfg(), ["basic"], [50.0, 80.0], **kwargs)
        pooled = run_load_sweep(
            small_cfg(), ["basic"], [50.0, 80.0], jobs=3, **kwargs
        )
        assert serial.throughput_series() == pooled.throughput_series()
        assert serial.delay_series() == pooled.delay_series()

    def test_sweep_through_store_hits_cache(self, tmp_path):
        from repro.experiments.sweep import run_load_sweep

        store = ResultStore(tmp_path / "store")
        first = run_load_sweep(
            small_cfg(), ["basic"], [50.0], seeds=(1,), store=store
        )
        lines: list[str] = []
        second = run_load_sweep(
            small_cfg(),
            ["basic"],
            [50.0],
            seeds=(1,),
            store=store,
            progress=lines.append,
        )
        assert all(line.startswith("[cached]") for line in lines)
        assert first.throughput_series() == second.throughput_series()
