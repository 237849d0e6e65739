"""ResultStore corruption quarantine and error-line semantics.

The store used to silently drop unparseable JSONL lines — a torn write
from a crashed campaign would vanish without a trace.  Now bad lines move
to a ``.corrupt`` sidecar with a warning, the main file is rewritten
atomically, and structured error lines coexist with results (success
always outranking error for the same key).
"""

from __future__ import annotations

import json
import threading
import warnings

import pytest

from repro.campaign.spec import RunSpec
from repro.campaign.store import CORRUPT_SUFFIX, ResultStore, result_to_dict
from repro.config import ScenarioConfig
from repro.scenariospec import ComponentSpec, ScenarioSpec


def cell(seed: int = 1) -> RunSpec:
    cfg = ScenarioConfig(node_count=6, duration_s=2.0, seed=seed)
    return RunSpec(scenario=ScenarioSpec(cfg=cfg, mac=ComponentSpec("basic")))


def populated_store(tmp_path, seeds=(1, 2)):
    store = ResultStore(tmp_path / "store")
    for seed in seeds:
        spec = cell(seed)
        store.put(spec, spec.scenario.run())
    return store


def shard_file(store):
    """The shard file holding the store's first key."""
    return store._file_for(next(store.keys()))


def sidecar_of(store):
    path = shard_file(store)
    return path.with_name(path.name + CORRUPT_SUFFIX)


class TestQuarantine:
    def test_corrupt_lines_move_to_sidecar(self, tmp_path):
        store = populated_store(tmp_path)
        with shard_file(store).open("a", encoding="utf-8") as fh:
            fh.write('{"key": "torn-off-mid-wri\n')
            fh.write("not json at all\n")

        with pytest.warns(RuntimeWarning, match="quarantined 2 corrupt"):
            reloaded = ResultStore(tmp_path / "store")

        assert len(reloaded) == 2
        sidecar = sidecar_of(store)
        assert len(sidecar.read_text().splitlines()) == 2
        # The main file is clean now: a third load warns about nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = ResultStore(tmp_path / "store")
        assert len(again) == 2

    def test_results_survive_the_rewrite_intact(self, tmp_path):
        store = populated_store(tmp_path)
        originals = {k: store.get(k) for k in store.keys()}
        with shard_file(store).open("a", encoding="utf-8") as fh:
            fh.write("garbage\n")
        with pytest.warns(RuntimeWarning):
            reloaded = ResultStore(tmp_path / "store")
        for key, result in originals.items():
            assert reloaded.get(key) == result

    def test_undecodable_bytes_are_quarantined(self, tmp_path):
        store = populated_store(tmp_path)
        with shard_file(store).open("ab") as fh:
            fh.write(b"\xff\xfe mangled by the filesystem\n")
        with pytest.warns(RuntimeWarning, match="quarantined 1 corrupt"):
            reloaded = ResultStore(tmp_path / "store")
        assert len(reloaded) == 2
        assert len(sidecar_of(store).read_text().splitlines()) == 1

    def test_put_during_a_quarantine_is_not_lost(self, tmp_path, monkeypatch):
        """A put from another writer that lands while a reader quarantines
        the shard waits for the shard lock, so the rewrite cannot drop it."""
        writer = ResultStore(tmp_path / "store", shards=1)
        first, late = cell(1), cell(2)
        writer.put(first, first.scenario.run())
        late_result = late.scenario.run()
        with writer._file_for(first.key()).open("a", encoding="utf-8") as fh:
            fh.write("garbage\n")
        parseable = ResultStore._parseable
        puts: list[threading.Thread] = []

        def parse_while_a_writer_puts(line):
            if not puts:
                puts.append(
                    threading.Thread(target=writer.put, args=(late, late_result))
                )
                puts[0].start()
                puts[0].join(timeout=0.2)  # waits on the shard lock
            return parseable(line)

        monkeypatch.setattr(
            ResultStore, "_parseable", staticmethod(parse_while_a_writer_puts)
        )
        with pytest.warns(RuntimeWarning, match="quarantined 1 corrupt"):
            ResultStore(tmp_path / "store")
        puts[0].join(timeout=30)
        assert not puts[0].is_alive()
        assert writer.get(late.key()) == late_result
        assert ResultStore(tmp_path / "store").get(late.key()) == late_result

    def test_lines_appended_before_the_lock_are_indexed(self, tmp_path, monkeypatch):
        """A line another writer appends between the reader's first read
        and its quarantine is kept on disk and in the reader's index."""
        store = ResultStore(tmp_path / "store", shards=1)
        first, late = cell(1), cell(2)
        store.put(first, first.scenario.run())
        late_result = late.scenario.run()
        shard = store._file_for(first.key())
        with shard.open("a", encoding="utf-8") as fh:
            fh.write("garbage\n")
        late_line = json.dumps(
            {"key": late.key(), "spec": {}, "result": result_to_dict(late_result)}
        )
        lock = ResultStore._lock

        def lock_after_an_append(path):
            with shard.open("a", encoding="utf-8") as fh:
                fh.write(late_line + "\n")
            return lock(path)

        monkeypatch.setattr(ResultStore, "_lock", staticmethod(lock_after_an_append))
        with pytest.warns(RuntimeWarning, match="quarantined 1 corrupt"):
            reader = ResultStore(tmp_path / "store")
        assert reader.get(late.key()) == late_result
        assert late.key() in shard.read_text()


class TestErrorLines:
    def test_put_error_stays_out_of_the_index(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = cell()
        key = store.put_error(spec, {"kind": "ValueError", "message": "x"})
        assert key == spec.key()
        assert store.get(key) is None
        assert key not in store
        assert store.error(key)["kind"] == "ValueError"
        assert store.errors() == {key: store.error(key)}

    def test_error_lines_survive_reload(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put_error(cell(), {"kind": "ValueError", "message": "x"})
        reloaded = ResultStore(tmp_path / "store")
        assert reloaded.error(cell().key()) is not None
        assert len(reloaded) == 0

    def test_success_outranks_error_in_either_order(self, tmp_path):
        spec = cell()
        result = spec.scenario.run()

        # error then success (the retry-eventually-worked order)...
        store = ResultStore(tmp_path / "a")
        store.put_error(spec, {"kind": "ValueError", "message": "x"})
        store.put(spec, result)
        assert store.get(spec.key()) == result
        assert store.error(spec.key()) is None
        reloaded = ResultStore(tmp_path / "a")
        assert reloaded.get(spec.key()) == result
        assert reloaded.error(spec.key()) is None

        # ...and success then error (a later campaign failed the cell):
        # the deterministic result still wins on reload.
        store_b = ResultStore(tmp_path / "b")
        store_b.put(spec, result)
        with store_b._file_for(spec.key()).open("a", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {
                        "key": spec.key(),
                        "spec": {},
                        "error": {"kind": "ValueError", "message": "x"},
                    }
                )
                + "\n"
            )
        reloaded_b = ResultStore(tmp_path / "b")
        assert reloaded_b.get(spec.key()) == result
        assert reloaded_b.error(spec.key()) is None


class TestSidecarDedupe:
    """A sidecar that sees the same torn line twice records it once, and a
    load that adds nothing new to the sidecar stays silent."""

    def test_repeat_corruption_is_not_duplicated(self, tmp_path):
        store = populated_store(tmp_path)
        with shard_file(store).open("a", encoding="utf-8") as fh:
            fh.write("same garbage\n")
        with pytest.warns(RuntimeWarning, match="quarantined 1 corrupt"):
            ResultStore(tmp_path / "store")
        # The identical bad line lands again (a crash-looping writer).
        with shard_file(store).open("a", encoding="utf-8") as fh:
            fh.write("same garbage\n")
        # It is removed from the main file but NOT re-counted: the
        # sidecar already holds it, so the load warns about nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = ResultStore(tmp_path / "store")
        assert len(reloaded) == 2
        sidecar = sidecar_of(store)
        assert sidecar.read_text().splitlines() == ["same garbage"]

    def test_growing_sidecar_reports_the_total(self, tmp_path):
        store = populated_store(tmp_path)
        with shard_file(store).open("a", encoding="utf-8") as fh:
            fh.write("first garbage\n")
        with pytest.warns(RuntimeWarning, match="sidecar now holds 1"):
            ResultStore(tmp_path / "store")
        with shard_file(store).open("a", encoding="utf-8") as fh:
            fh.write("second garbage\n")
        with pytest.warns(RuntimeWarning, match="sidecar now holds 2"):
            ResultStore(tmp_path / "store")
        sidecar = sidecar_of(store)
        assert sidecar.read_text().splitlines() == [
            "first garbage",
            "second garbage",
        ]
