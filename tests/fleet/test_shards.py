"""The sharded result store: exactly-once puts, compaction, migration,
adoption, and one class behind every entry point."""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro.analysis.export import load_store_results
from repro.campaign.spec import RunSpec
from repro.campaign.store import (
    CORRUPT_SUFFIX,
    FlatStoreError,
    ResultStore,
    result_to_dict,
)
from repro.config import ScenarioConfig, TrafficConfig
from repro.fleet.shards import (
    DEFAULT_SHARDS,
    MAX_SHARDS,
    ShardedResultStore,
    shard_index,
)
from repro.scenariospec import ComponentSpec, ScenarioSpec


def cell(seed: int = 1) -> RunSpec:
    cfg = ScenarioConfig(
        node_count=4,
        duration_s=2.0,
        seed=seed,
        traffic=TrafficConfig(flow_count=1, offered_load_bps=50e3),
    )
    return RunSpec(scenario=ScenarioSpec(cfg=cfg, mac=ComponentSpec("basic")))


def run_cell(seed: int = 1):
    spec = cell(seed)
    return spec, spec.scenario.run()


def shard_lines(store: ShardedResultStore) -> list[str]:
    lines: list[str] = []
    for path in sorted(store._result_files()):
        if path.exists():
            lines.extend(path.read_text().splitlines())
    return lines


def write_flat_store(root, cells) -> None:
    """A pre-shard store: format-1 meta and one flat ``results.jsonl``."""
    root.mkdir(parents=True)
    (root / "meta.json").write_text(
        json.dumps({"store_format": 1, "spec_schema": 1}, indent=2) + "\n"
    )
    with (root / "results.jsonl").open("w", encoding="utf-8") as fh:
        for spec, result in cells:
            record = {"key": spec.key(), "spec": {}, "result": result_to_dict(result)}
            fh.write(json.dumps(record, sort_keys=True) + "\n")


class TestShardIndex:
    def test_hex_prefix_distribution_is_stable(self):
        assert shard_index("00000000aa", 16) == 0
        assert shard_index("ffffffffaa", 16) == int("ffffffff", 16) % 16

    def test_synthetic_keys_fall_back_to_crc(self):
        idx = shard_index("not-hex-at-all", 8)
        assert 0 <= idx < 8

    def test_shard_count_bounds_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedResultStore(tmp_path / "s", shards=0)
        with pytest.raises(ValueError):
            ShardedResultStore(tmp_path / "s", shards=MAX_SHARDS + 1)


class TestShardedRoundTrip:
    def test_put_get_resume_across_instances(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=8)
        spec, result = run_cell()
        key = store.put(spec, result)
        assert store.get(key) == result
        reopened = ShardedResultStore(tmp_path / "store")
        assert reopened.get(key) == result
        assert reopened._shards == 8  # layout on disk wins

    def test_key_lands_in_its_hash_shard(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=8)
        spec, result = run_cell()
        key = store.put(spec, result)
        expected = store.root / "shards" / (
            f"results-{shard_index(key, 8):02x}.jsonl"
        )
        assert store._file_for(key) == expected
        assert key in expected.read_text()

    def test_cross_instance_refresh_sees_new_puts(self, tmp_path):
        writer = ShardedResultStore(tmp_path / "store", shards=4)
        reader = ShardedResultStore(tmp_path / "store")
        spec, result = run_cell()
        key = writer.put(spec, result)
        assert reader.get(key) is None
        reader.refresh()
        assert reader.get(key) == result


class TestExactlyOnce:
    def test_concurrent_instances_write_one_line(self, tmp_path):
        a = ShardedResultStore(tmp_path / "store", shards=4)
        b = ShardedResultStore(tmp_path / "store")
        spec, result = run_cell()
        a.put(spec, result)
        b.put(spec, result)  # b has not refreshed; the lock-and-recheck dedupes
        assert len(shard_lines(a)) == 1

    def test_error_never_overwrites_success(self, tmp_path):
        a = ShardedResultStore(tmp_path / "store", shards=4)
        b = ShardedResultStore(tmp_path / "store")
        spec, result = run_cell()
        a.put(spec, result)
        b.put_error(spec, {"kind": "Late", "message": "x", "attempts": 1})
        assert len(shard_lines(a)) == 1
        b.refresh()
        assert b.get(spec.key()) == result
        assert b.error(spec.key()) is None

    def test_success_supersedes_a_prior_error(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=4)
        spec, result = run_cell()
        store.put_error(spec, {"kind": "Flaky", "message": "x", "attempts": 1})
        store.put(spec, result)
        assert store.get(spec.key()) == result
        assert store.error(spec.key()) is None


class TestCompaction:
    def test_compact_folds_to_one_line_per_key(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=4)
        specs = []
        for seed in (1, 2, 3):
            spec, result = run_cell(seed)
            store.put_error(
                spec, {"kind": "Flaky", "message": "x", "attempts": 1}
            )
            store.put(spec, result)
            specs.append((spec, result))
        before = {spec.key(): store.get(spec.key()) for spec, _ in specs}
        stats = store.compact()
        assert stats.lines_before == 6
        assert stats.lines_after == 3
        assert stats.folded == 3
        assert len(shard_lines(store)) == 3
        # Bit-identity: the folded store serves the same results.
        assert {k: store.get(k) for k in before} == before
        reopened = ShardedResultStore(tmp_path / "store")
        assert {k: reopened.get(k) for k in before} == before

    def test_compact_preserves_terminal_errors(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=4)
        spec = cell(9)
        store.put_error(spec, {"kind": "Dead", "message": "x", "attempts": 3})
        store.compact()
        assert store.error(spec.key())["kind"] == "Dead"
        assert ShardedResultStore(tmp_path / "store").error(spec.key())

    def test_other_readers_survive_the_inode_swap(self, tmp_path):
        writer = ShardedResultStore(tmp_path / "store", shards=2)
        reader = ShardedResultStore(tmp_path / "store")
        keys = []
        for seed in (1, 2):
            spec, result = run_cell(seed)
            writer.put(spec, result)
            keys.append(spec.key())
        reader.refresh()
        writer.compact()
        reader.refresh()  # must notice the replaced files, not crash
        assert sorted(reader.keys()) == sorted(keys)


def tree_bytes(root) -> dict[str, bytes]:
    """Every file under ``root`` with its bytes (directories as None)."""
    return {
        str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
        for p in sorted(root.rglob("*"))
    }


class TestLegacyMigration:
    """A flat pre-shard store migrates only through ``migrate_legacy``
    (``repro fleet compact``); any other open refuses it untouched."""

    def test_flat_store_migrates_into_shards(self, tmp_path):
        cells = [run_cell(seed) for seed in (1, 2, 3)]
        write_flat_store(tmp_path / "store", cells)
        expected = {spec.key(): result for spec, result in cells}
        assert ShardedResultStore.migrate_legacy(tmp_path / "store", shards=4)
        sharded = ShardedResultStore(tmp_path / "store")
        assert sharded.shards == 4
        assert {k: sharded.get(k) for k in expected} == expected
        assert not (tmp_path / "store" / "results.jsonl").exists()
        assert (tmp_path / "store" / "results.jsonl.migrated").exists()

    def test_migration_happens_once(self, tmp_path):
        spec, result = run_cell()
        write_flat_store(tmp_path / "store", [(spec, result)])
        assert ShardedResultStore.migrate_legacy(tmp_path / "store", shards=4)
        assert not ShardedResultStore.migrate_legacy(tmp_path / "store")
        again = ShardedResultStore(tmp_path / "store")
        assert again.get(spec.key()) == result
        assert len(shard_lines(again)) == 1

    def test_open_refuses_a_flat_store_and_writes_nothing(self, tmp_path):
        spec, result = run_cell()
        root = tmp_path / "store"
        write_flat_store(root, [(spec, result)])
        before = tree_bytes(root)
        with pytest.raises(FlatStoreError, match="repro fleet compact"):
            ResultStore(root, shards=4)
        assert tree_bytes(root) == before
        assert ResultStore.exists(root)

    def test_failed_meta_rewrite_keeps_the_old_meta(self, tmp_path, monkeypatch):
        """A crash while the format-1 meta is being replaced (here: its
        fsync fails after the new file was opened and written) leaves the
        previous ``meta.json`` byte-identical and the flat file unmigrated;
        the next migration completes the upgrade."""
        spec, result = run_cell()
        root = tmp_path / "store"
        write_flat_store(root, [(spec, result)])
        before = (root / "meta.json").read_bytes()

        def failing_fsync(fd):
            raise OSError("simulated crash mid-write")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", failing_fsync)
            with pytest.raises(OSError, match="simulated crash"):
                ResultStore.migrate_legacy(root, shards=4)
        assert (root / "meta.json").read_bytes() == before
        assert (root / "results.jsonl").exists()

        assert ResultStore.migrate_legacy(root, shards=4)
        store = ResultStore(root)
        assert store.get(spec.key()) == result
        assert json.loads((root / "meta.json").read_text())["shards"] == 4


class TestShardCountAtOpen:
    def test_shards_argument_sets_a_new_stores_count(self, tmp_path):
        store = ResultStore(tmp_path / "store", shards=4)
        assert store.shards == 4

    def test_recorded_count_wins(self, tmp_path):
        ResultStore(tmp_path / "store", shards=4)
        again = ResultStore(tmp_path / "store", shards=DEFAULT_SHARDS)
        assert again.shards == 4

    def test_default_shard_count_applied(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        meta = json.loads((store.root / "meta.json").read_text())
        assert meta["shards"] == DEFAULT_SHARDS


class TestOneStoreClass:
    """A fleet-written store reads whole through every entry point, and
    opening it never rewrites its ``meta.json``."""

    @pytest.fixture
    def fleet_store(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=4)
        expected = {}
        for seed in (1, 2, 3):
            spec, result = run_cell(seed)
            expected[store.put(spec, result)] = result
        return store.root, expected

    def test_fleet_name_is_the_store_class(self):
        assert ShardedResultStore is ResultStore

    def test_result_store_reads_a_fleet_store(self, fleet_store):
        root, expected = fleet_store
        meta = (root / "meta.json").read_bytes()
        store = ResultStore(root)
        assert {k: store.get(k) for k in store.keys()} == expected
        assert (root / "meta.json").read_bytes() == meta
        assert ResultStore(root).shards == 4

    def test_export_reads_a_fleet_store(self, fleet_store):
        root, expected = fleet_store
        meta = (root / "meta.json").read_bytes()
        assert sorted(load_store_results(root), key=lambda r: r.seed) == sorted(
            expected.values(), key=lambda r: r.seed
        )
        assert (root / "meta.json").read_bytes() == meta
        assert ResultStore(root).shards == 4


class TestShardQuarantine:
    def test_corrupt_shard_line_moves_to_sidecar(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=2)
        spec, result = run_cell()
        key = store.put(spec, result)
        shard = store._file_for(key)
        with shard.open("a", encoding="utf-8") as fh:
            fh.write("garbage line\n")
        with pytest.warns(RuntimeWarning, match="quarantined 1 corrupt"):
            reloaded = ShardedResultStore(tmp_path / "store")
        assert reloaded.get(key) == result
        sidecar = shard.with_name(shard.name + CORRUPT_SUFFIX)
        assert sidecar.read_text().splitlines() == ["garbage line"]
        # Clean after the rewrite: a further load warns about nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ShardedResultStore(tmp_path / "store")
