"""On-disk result store, content-addressed by :meth:`RunSpec.key`.

Layout of a store directory::

    <root>/
        meta.json                    # store format, spec schema, shard count
        shards/
            results-00.jsonl         # keys whose hash lands in shard 0x00
            results-00.jsonl.lock    # per-shard flock taken by writers
            ...

The key space is split by content-hash prefix, so any number of processes
(one campaign, or a fleet of workers) can append to one store without
serialising on, or tearing, a single file.  The shard count is fixed when
the store is created and recorded in ``meta.json``; the recorded count
wins over the constructor's argument.

Each result line is ``{"key", "spec", "result"}`` (plus an optional
``"runtime"`` — machine-local execution stats recorded when the campaign
ran with telemetry) where ``spec`` is an audit record (protocol / load /
seed plus the full serialized :class:`~repro.scenariospec.ScenarioSpec`
under ``"scenario"`` — re-runnable via ``ScenarioSpec.from_dict``, though
addressing is always by ``key``) and ``result`` the serialised
:class:`~repro.experiments.scenario.ExperimentResult`.  A run that failed
permanently (worker crash after every retry) is recorded as a ``{"key",
"spec", "error"}`` line instead — the error is inspectable via
:meth:`ResultStore.error` but the key stays *absent* from the result index,
so a resumed campaign re-runs it.  Appending after every finished run makes
interruption safe: a killed campaign keeps every completed cell, and the
next invocation against the same store resumes from there.

Properties the campaign runner and the fleet rely on:

* **Durable before visible.**  A line is flushed and fsynced (and, on file
  creation, the shard directory too) *before* the in-memory index is
  updated, so a crash mid-put leaves either a complete line on disk or
  nothing — never an indexed-but-unwritten cell.  ``meta.json`` is
  replaced atomically (tmp + fsync + rename).
* **One line per result.**  ``put`` takes the shard lock, ingests any
  lines other writers appended meanwhile, and skips the append when the
  key already holds the same result (wall time aside) — so two workers
  that both finish the same run (a steal race) record it once.  A
  *different* result for the key is appended and wins on reload: a
  ``--no-resume`` rerun after a simulator fix refreshes the store.
  ``put_error`` yields to an existing success: an error line is never
  written over a completed result.
* **Lock-free reads.**  :meth:`ResultStore.refresh` ingests lines appended
  by other processes since the last read (tracked by per-file byte
  offsets; a file that shrank or changed inode — compaction or quarantine
  by another process — triggers a full, idempotent reload).  A trailing
  line without a newline is an append in flight and is held back until it
  completes.
* **Quarantine.**  Unparseable lines (a torn tail from an interrupted
  write, or bytes mangled by a filesystem fault) are moved on load to a
  ``shards/results-XX.jsonl.corrupt`` sidecar, the shard is atomically
  rewritten without them, and a warning reports the counts — nothing is
  silently dropped.  Lines already in the sidecar are not appended twice,
  and a sidecar that merely persists across loads does not re-warn.  When
  a key appears more than once, the last success wins (else the last
  error).
* **Crash-safe compaction.**  :meth:`ResultStore.compact` folds each shard
  to one line per key — exactly the in-memory index semantics — and swaps
  it in by tmp + fsync + rename, so a crash mid-compaction leaves the old
  shard intact.
* **Legacy adoption.**  A directory holding a flat ``results.jsonl``
  (the pre-shard layout) is migrated into shards only by
  :meth:`ResultStore.migrate_legacy` (``repro fleet compact``); the
  original is kept as ``results.jsonl.migrated``.  Opening a flat store
  any other way raises :class:`FlatStoreError` before writing anything,
  so reading an old store never changes it.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.campaign.locks import FileLock, atomic_write_json, read_json
from repro.campaign.spec import SPEC_SCHEMA_VERSION, RunSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.scenario import ExperimentResult

#: Bump when the on-disk layout itself changes shape.
STORE_FORMAT = 2

META_FILE = "meta.json"
SHARD_DIR = "shards"
#: The pre-shard single-file layout, read only by the one-time migration.
LEGACY_RESULTS_FILE = "results.jsonl"
#: Sidecar receiving lines the loader could not parse (never deleted).
CORRUPT_SUFFIX = ".corrupt"
#: Default shard count — 256 keys/shard at 4k runs, and small enough that
#: an empty store costs nothing (shard files appear on first write).
DEFAULT_SHARDS = 16
MAX_SHARDS = 4096


class FlatStoreError(RuntimeError):
    """The directory holds a pre-shard ``results.jsonl`` not yet migrated."""

    def __init__(self, root: Path) -> None:
        super().__init__(
            f"{root} holds a flat pre-shard {LEGACY_RESULTS_FILE}; migrate "
            f"it into shards with `repro fleet compact {root}` first"
        )


def shard_index(key: str, shards: int) -> int:
    """Map a content key to its shard ordinal, uniformly.

    Keys are SHA-256 hex, so the leading 32 bits are already uniform; the
    CRC fallback covers tests/tools that address synthetic keys.
    """
    try:
        prefix = int(key[:8], 16)
    except ValueError:
        prefix = zlib.crc32(key.encode("utf-8"))
    return prefix % shards


def _shard_file(root: Path, key: str, shards: int) -> Path:
    """The shard file under ``root`` that lines for ``key`` go to."""
    return root / SHARD_DIR / f"results-{shard_index(key, shards):02x}.jsonl"


def _prepare_layout(root: Path, shards: int) -> int:
    """Create the shard directory and ``meta.json``; return the shard count.

    The count recorded in ``meta.json`` wins over ``shards``.
    """
    if not 1 <= shards <= MAX_SHARDS:
        raise ValueError(f"shards must be in [1, {MAX_SHARDS}], got {shards!r}")
    (root / SHARD_DIR).mkdir(parents=True, exist_ok=True)
    meta_path = root / META_FILE
    recorded = read_json(meta_path) or {}
    count = recorded.get("shards")
    count = count if isinstance(count, int) and count >= 1 else int(shards)
    meta = {
        "store_format": STORE_FORMAT,
        "spec_schema": SPEC_SCHEMA_VERSION,
        "shards": count,
    }
    if recorded != meta:
        # New, pre-shard, unreadable, or created under an older spec
        # schema (whose keys no longer match anyway): describe what gets
        # appended from now on.  The replace is atomic, so a crash leaves
        # the old document, never a torn one.
        atomic_write_json(meta_path, meta)
    return count


@dataclass
class CompactionStats:
    """What one :meth:`ResultStore.compact` pass did."""

    #: Shard files examined (only ones that exist on disk).
    shards: int = 0
    #: JSONL lines before folding, summed over shards.
    lines_before: int = 0
    #: JSONL lines after folding (== distinct keys kept).
    lines_after: int = 0
    #: Unparseable lines moved to ``.corrupt`` sidecars during the pass.
    quarantined: int = 0

    @property
    def folded(self) -> int:
        """Duplicate/superseded lines removed by the pass."""
        return self.lines_before - self.lines_after - self.quarantined


def result_to_dict(result: "ExperimentResult") -> dict:
    """Serialise an :class:`ExperimentResult` to a JSON-able dict."""
    return asdict(result)


def result_from_dict(data: dict) -> "ExperimentResult":
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_dict` output."""
    from repro.energy.report import EnergyReport, NodeEnergy
    from repro.experiments.scenario import ExperimentResult, FlowSummary
    from repro.obs.probes import TimeSeries
    from repro.obs.profile import ProfileReport

    payload = dict(data)
    payload["flows"] = tuple(
        FlowSummary(**flow) for flow in payload.get("flows", ())
    )
    payload["drops"] = {str(k): int(v) for k, v in payload["drops"].items()}
    energy = payload.get("energy")
    if energy is not None:
        payload["energy"] = EnergyReport(
            model=energy["model"],
            nodes=tuple(NodeEnergy(**node) for node in energy["nodes"]),
        )
    else:
        # Pre-energy store lines lack the key entirely.
        payload["energy"] = None
    # Observability payloads: absent on pre-obs lines, null on null-obs runs.
    timeseries = payload.get("timeseries")
    payload["timeseries"] = (
        TimeSeries.from_payload(timeseries) if timeseries is not None else None
    )
    profile = payload.get("profile")
    payload["profile"] = (
        ProfileReport.from_payload(profile) if profile is not None else None
    )
    resilience = payload.get("resilience")
    if resilience is not None:
        from repro.faults.resilience import ResilienceReport

        payload["resilience"] = ResilienceReport.from_payload(resilience)
    else:
        # Pre-faults store lines lack the key; null-faults runs store null.
        payload["resilience"] = None
    return ExperimentResult(**payload)


def _same_result(a: dict, b: dict) -> bool:
    """True when two :func:`result_to_dict` payloads differ at most in
    ``wallclock_s``, compared by their JSON text (so NaNs match)."""

    def text(payload: dict) -> str:
        return json.dumps({**payload, "wallclock_s": None}, sort_keys=True)

    return text(a) == text(b)


class ResultStore:
    """Key-prefix-sharded JSONL store of finished campaign cells.

    The in-memory index mirrors the shard files; ``put`` appends one
    durable line *then* updates the index, so a crash loses at most the
    cell being written and never leaves the index ahead of the disk.
    Writers take the key's shard lock; readers take none, and ``refresh``
    ingests lines other processes appended since the last read.
    """

    def __init__(
        self, root: str | os.PathLike, *, shards: int = DEFAULT_SHARDS
    ) -> None:
        self.root = Path(root)
        if (self.root / LEGACY_RESULTS_FILE).exists():
            raise FlatStoreError(self.root)
        self._index: dict[str, "ExperimentResult"] = {}
        self._specs: dict[str, dict] = {}
        self._runtimes: dict[str, dict] = {}
        self._errors: dict[str, dict] = {}
        #: path → (inode, byte offset) of the last ingested position.
        self._offsets: dict[Path, tuple[int, int]] = {}
        self._shards = _prepare_layout(self.root, shards)
        for path in self._result_files():
            self._read_file(path, tail_is_torn=True)

    # ------------------------------------------------------------- layout

    @staticmethod
    def exists(root: str | os.PathLike) -> bool:
        """Whether ``root`` holds a store (sharded, or flat awaiting
        adoption), checked without creating anything."""
        root = Path(root)
        return (root / META_FILE).exists() or (root / LEGACY_RESULTS_FILE).exists()

    @property
    def shards(self) -> int:
        """The store's shard count (fixed at creation)."""
        return self._shards

    def _result_files(self) -> list[Path]:
        """Every shard file on disk, in shard order."""
        return sorted((self.root / SHARD_DIR).glob("results-*.jsonl"))

    def _file_for(self, key: str) -> Path:
        """The shard file lines for ``key`` are appended to."""
        return _shard_file(self.root, key, self._shards)

    @staticmethod
    def _lock(path: Path) -> FileLock:
        """The writers' lock guarding ``path``."""
        return FileLock(path.with_name(path.name + ".lock"))

    @classmethod
    def migrate_legacy(
        cls, root: str | os.PathLike, *, shards: int = DEFAULT_SHARDS
    ) -> bool:
        """Fold a flat ``results.jsonl`` under ``root`` into shards, once,
        under a lock; True when this call migrated it.

        Raw lines are distributed verbatim (the per-line format is
        identical), unparseable ones go to the root sidecar, and the flat
        file is renamed ``results.jsonl.migrated`` so a second caller
        sees nothing to do.  ``repro fleet compact`` is the one caller:
        every other open of a flat store raises :class:`FlatStoreError`.
        """
        root = Path(root)
        legacy = root / LEGACY_RESULTS_FILE
        if not legacy.exists():
            return False
        count = _prepare_layout(root, shards)
        with cls._lock(root / SHARD_DIR / ".migrate"):
            if not legacy.exists():  # another process won the race
                return False
            buckets: dict[Path, list[str]] = {}
            bad: list[str] = []
            for line in cls._lines(legacy):
                try:
                    key = json.loads(line)["key"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    bad.append(line)
                    continue
                buckets.setdefault(_shard_file(root, key, count), []).append(line)
            for path, lines in buckets.items():
                cls._write_lines(path, lines, "a")
            if bad:
                cls._write_lines(
                    legacy.with_name(legacy.name + CORRUPT_SUFFIX), bad, "a"
                )
            cls._dirsync(root / SHARD_DIR)
            legacy.replace(legacy.with_name(legacy.name + ".migrated"))
            cls._dirsync(root)
        return True

    # --------------------------------------------------------------- read

    def refresh(self) -> None:
        """Ingest lines appended by other processes since the last read.

        Cheap when nothing changed (one ``stat`` per shard).  A file that
        shrank or changed inode — rewritten by another process's compaction
        or quarantine — is fully reloaded, which is safe because ingesting
        a file's lines in order is idempotent.  A trailing line with no
        newline is an append in flight: it is held back, not quarantined.
        """
        for path in self._result_files():
            self._read_file(path, tail_is_torn=False)

    def refresh_key(self, key: str) -> None:
        """Like :meth:`refresh`, but only for the shard holding ``key``.

        The cheap single-key staleness check fleet workers use on the
        cache-hit path — one ``stat`` instead of one per shard.
        """
        self._read_file(self._file_for(key), tail_is_torn=False)

    def _read_file(
        self, path: Path, *, tail_is_torn: bool, locked: bool = False
    ) -> None:
        """Ingest ``path`` from its last-read offset.

        ``tail_is_torn`` selects how a trailing newline-less fragment is
        treated: on initial load it is a torn write from a crash (parse it,
        quarantine on failure); on refresh it may be another writer's
        in-flight append (hold it back until the newline lands).
        ``locked`` says the caller already holds the shard lock, which a
        quarantine needs.
        """
        if not path.exists():
            self._offsets.pop(path, None)
            return
        st = path.stat()
        ino, offset = self._offsets.get(path, (None, 0))
        if ino is not None and (st.st_ino != ino or st.st_size < offset):
            offset = 0  # rewritten behind our back: full (idempotent) reload
        if st.st_size == offset and st.st_ino == ino:
            return
        with path.open("rb") as fh:
            fh.seek(offset)
            data = fh.read()
        consumed = len(data)
        text = data.decode("utf-8", errors="replace")
        if text and not text.endswith("\n") and not tail_is_torn:
            cut = text.rfind("\n") + 1
            held_back = text[cut:]
            consumed -= len(held_back.encode("utf-8", errors="replace"))
            text = text[:cut]
        bad: list[str] = []
        for line in text.splitlines():
            line = line.strip()
            if line and not self._ingest_line(line):
                bad.append(line)
        self._offsets[path] = (st.st_ino, offset + consumed)
        if bad:
            with nullcontext() if locked else self._lock(path):
                self._quarantine(path)

    def _ingest_line(self, line: str) -> bool:
        """Index one JSONL line; False when it does not parse."""
        try:
            record = json.loads(line)
            key = record["key"]
            if "error" in record:
                # A permanently failed run: remember why, but keep
                # the key out of the result index so resume retries.
                # A success for the same (deterministic) key always
                # outranks an error, whichever was written later.
                if key not in self._index:
                    self._errors[key] = record["error"]
                self._specs.setdefault(key, record.get("spec", {}))
                return True
            result = result_from_dict(record["result"])
        except (json.JSONDecodeError, KeyError, TypeError):
            return False
        self._index[key] = result
        self._errors.pop(key, None)
        self._specs[key] = record.get("spec", {})
        runtime = record.get("runtime")
        if runtime is not None:
            self._runtimes[key] = runtime
        return True

    def _quarantine(self, path: Path) -> None:
        """Move unparseable lines to the sidecar; rewrite the file clean.

        Runs under the shard lock, so no writer appends between the read
        and the rename.  The rewrite is atomic (tmp + fsync + rename) so a
        crash mid-cleanup leaves either the old file or the clean one,
        never a hybrid.  Lines the sidecar already holds are not appended
        twice, and no warning is emitted unless the sidecar actually grew —
        so reloading a store whose corruption was already quarantined
        stays silent.
        """
        good: list[str] = []
        bad: list[str] = []
        for line in self._lines(path):
            (good if self._parseable(line) else bad).append(line)
        sidecar = path.with_name(path.name + CORRUPT_SUFFIX)
        already = set(self._lines(sidecar)) if sidecar.exists() else set()
        fresh = [line for line in bad if line not in already]
        if fresh:
            self._write_lines(sidecar, fresh, "a")
        self._replace_lines(path, good)
        # Re-ingest the clean file (idempotent): it may hold lines other
        # writers appended after this reader's last offset.
        self._offsets.pop(path, None)
        self._read_file(path, tail_is_torn=False, locked=True)
        if fresh:
            warnings.warn(
                f"result store {path}: quarantined {len(fresh)} corrupt "
                f"line(s) to {sidecar.name} (kept {len(good)} good line(s), "
                f"sidecar now holds {len(already) + len(fresh)})",
                RuntimeWarning,
                stacklevel=4,
            )

    @staticmethod
    def _parseable(line: str) -> bool:
        """True when ``line`` is a loadable store record."""
        try:
            record = json.loads(line)
            record["key"]
            if "error" not in record:
                result_from_dict(record["result"])
        except (json.JSONDecodeError, KeyError, TypeError):
            return False
        return True

    # --------------------------------------------------------------- disk

    @staticmethod
    def _lines(path: Path) -> list[str]:
        """The non-blank lines of ``path``, stripped.

        Undecodable bytes read as U+FFFD, so a mangled line fails to parse
        and is quarantined instead of making the whole shard unreadable.
        """
        text = path.read_text(encoding="utf-8", errors="replace")
        return [line.strip() for line in text.splitlines() if line.strip()]

    @staticmethod
    def _write_lines(path: Path, lines: list[str], mode: str) -> None:
        """Write ``lines`` to ``path`` (``mode`` ``"a"`` appends), fsynced."""
        with path.open(mode, encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def _replace_lines(self, path: Path, lines: list[str]) -> None:
        """Atomically replace ``path`` with ``lines`` (tmp + fsync + rename)."""
        tmp = path.with_name(path.name + ".tmp")
        self._write_lines(tmp, lines, "w")
        tmp.replace(path)
        self._dirsync(path.parent)

    @staticmethod
    def _dirsync(directory: Path) -> None:
        """fsync a directory so a just-created/renamed entry is durable."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fsync on dirs unsupported
            pass
        finally:
            os.close(fd)

    def _append(self, path: Path, record: dict) -> None:
        """Durably append one JSONL record (write, flush, fsync).

        The containing directory is fsynced when the file is created, so
        the new directory entry survives a crash too.  Callers update the
        in-memory index only *after* this returns — disk first, index
        second — which is what makes a mid-put crash recoverable.
        """
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        created = not path.exists()
        self._write_lines(path, [line], "a")
        if created:
            self._dirsync(path.parent)

    # ----------------------------------------------------------------- access

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def get(self, key: str) -> "ExperimentResult | None":
        """The stored result for ``key``, or None."""
        return self._index.get(key)

    def keys(self) -> Iterator[str]:
        """All stored cell keys."""
        return iter(self._index)

    def results(self) -> list["ExperimentResult"]:
        """Every stored result (load order; duplicates resolved last-wins)."""
        return list(self._index.values())

    def spec_summary(self, key: str) -> dict:
        """The audit summary recorded with ``key`` (may be empty)."""
        return self._specs.get(key, {})

    def runtime_stats(self, key: str) -> dict:
        """Per-run runtime stats (wall time, events/sec, peak RSS) for
        ``key`` — empty for cells recorded without telemetry."""
        return self._runtimes.get(key, {})

    def error(self, key: str) -> dict | None:
        """The recorded permanent failure for ``key``, or None.

        Errored keys are *not* in the result index (``get`` returns None,
        ``in`` is False), so a resumed campaign re-runs them; the error
        record survives for post-mortems until a success supersedes it.
        """
        return self._errors.get(key)

    def errors(self) -> dict[str, dict]:
        """Every recorded permanent failure, keyed by cell key."""
        return dict(self._errors)

    # ----------------------------------------------------------------- writes

    @staticmethod
    def _spec_summary(spec: RunSpec) -> dict:
        return {
            "protocol": spec.protocol,
            "load_kbps": spec.load_kbps,
            "seed": spec.seed,
            "node_count": spec.cfg.node_count,
            "duration_s": spec.cfg.duration_s,
            # The full serialized scenario (the hash pre-image), so a
            # store entry is auditable and re-runnable by *what* ran:
            # feed it back through ScenarioSpec.from_dict.
            "scenario": spec.scenario.to_dict(),
        }

    def put(
        self,
        spec: RunSpec,
        result: "ExperimentResult",
        *,
        runtime: dict | None = None,
        key: str | None = None,
    ) -> str:
        """Record one finished cell; returns its key.

        Under the shard lock the store first ingests concurrent appends.
        If the key already holds the same result (``wallclock_s`` aside),
        the call is a no-op — the second finisher of a stolen run does not
        duplicate the line.  Any other result is appended and replaces the
        stored one (last success wins on reload too), so recomputing a
        cell refreshes it.

        ``runtime`` is an optional machine-local stats dict (see
        :func:`repro.obs.telemetry.runtime_stats`) persisted alongside the
        cell but excluded from the result — it describes *this* execution,
        not the scenario.

        ``key`` is ``spec.key()`` when the caller already holds it (a
        campaign computes each cell's key once); None computes it here.
        """
        if key is None:
            key = spec.key()
        path = self._file_for(key)
        record = {
            "key": key,
            "spec": self._spec_summary(spec),
            "result": result_to_dict(result),
        }
        if runtime is not None:
            record["runtime"] = runtime
        with self._lock(path):
            self._read_file(path, tail_is_torn=False, locked=True)
            stored = self._index.get(key)
            if stored is not None and _same_result(
                result_to_dict(stored), record["result"]
            ):
                return key
            self._append(path, record)
        self._index[key] = result
        self._errors.pop(key, None)
        self._specs[key] = record["spec"]
        if runtime is not None:
            self._runtimes[key] = runtime
        return key

    def put_error(
        self, spec: RunSpec, error: dict, *, key: str | None = None
    ) -> str:
        """Record one permanently failed cell — unless a success exists.

        ``error`` is a structured failure description (see
        :func:`repro.campaign.runner.error_record` — kind, message,
        traceback, attempts).  The key stays absent from the result index
        so a later ``--resume`` re-runs the cell.  A completed result
        always outranks an error for the same (deterministic) key, so a
        late error from a presumed-dead worker never shadows the thief's
        success.  ``key`` is ``spec.key()`` when the caller holds it, as
        in :meth:`put`.
        """
        if key is None:
            key = spec.key()
        path = self._file_for(key)
        with self._lock(path):
            self._read_file(path, tail_is_torn=False, locked=True)
            if key in self._index:
                return key
            summary = self._spec_summary(spec)
            self._append(path, {"key": key, "spec": summary, "error": error})
        self._errors[key] = error
        self._specs.setdefault(key, summary)
        return key

    # ------------------------------------------------------------- compaction

    def compact(self) -> CompactionStats:
        """Fold every shard to one line per key; crash-safe, lock-guarded.

        Keeps, per key, the **last success** line (its runtime included)
        or — when no success exists — the **last error** line: exactly
        what the in-memory index derives from the full history, so reads
        before and after compaction are bit-identical.  Each shard is
        rewritten to a tmp file, fsynced, then renamed over the original;
        a crash at any point leaves a complete shard (old or new) behind.
        """
        stats = CompactionStats()
        for path in self._result_files():
            with self._lock(path):
                self._compact_shard(path, stats)
        return stats

    def _compact_shard(self, path: Path, stats: CompactionStats) -> None:
        successes: dict[str, str] = {}
        errors: dict[str, str] = {}
        order: list[str] = []
        bad: list[str] = []
        lines = self._lines(path)
        for line in lines:
            try:
                record = json.loads(line)
                key = record["key"]
            except (json.JSONDecodeError, KeyError, TypeError):
                bad.append(line)
                continue
            if key not in successes and key not in errors:
                order.append(key)
            if "error" in record:
                errors[key] = line
            else:
                successes[key] = line
        kept = [successes.get(key) or errors[key] for key in order]
        self._replace_lines(path, kept)
        if bad:
            self._write_lines(path.with_name(path.name + CORRUPT_SUFFIX), bad, "a")
        # Re-ingest the folded shard (idempotent): this both picks up any
        # lines other writers appended since our last refresh and leaves
        # the offset at the new file's end.
        self._offsets.pop(path, None)
        self._read_file(path, tail_is_torn=False, locked=True)
        stats.shards += 1
        stats.lines_before += len(lines)
        stats.lines_after += len(kept)
        stats.quarantined += len(bad)
