"""Filesystem mutual-exclusion and atomic-write primitives.

Everything a campaign or a fleet shares — the result store, the work
queue, the lease files — lives on a plain filesystem so any number of
processes (same machine or a shared mount) can cooperate without a broker.
That requires exactly two primitives, both here:

* :class:`FileLock` — an advisory exclusive lock (``flock`` where
  available, an atomic ``mkdir`` spin lock elsewhere) held around every
  read-modify-write of shared state.  Locks are scoped to a path, acquired
  with a timeout, and always released on context exit — *including* when
  the holder dies, because ``flock`` is dropped by the kernel when the fd
  closes.  The ``mkdir`` fallback cannot promise that, which is why lease
  expiry (not lock cleanup) is the fleet's real liveness mechanism.
* :func:`atomic_write_json` / :func:`read_json` — whole-file JSON state
  (lease files, queue tasks, heartbeats) written via tmp + fsync + rename
  so readers never observe a torn document.
"""

from __future__ import annotations

import errno
import json
import os
import time
from pathlib import Path

try:  # POSIX: kernel-managed advisory locks, auto-released on close/death.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None


class LockTimeout(TimeoutError):
    """Raised when a :class:`FileLock` cannot be acquired in time."""


class FileLock:
    """Advisory exclusive lock on a path (context manager).

    On POSIX this is ``flock(LOCK_EX)`` on a dedicated lock file — safe
    across processes and (on most NFS implementations) across machines,
    and released by the kernel if the holder is SIGKILLed.  Elsewhere it
    degrades to an atomic-``mkdir`` spin lock with a staleness bound.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        timeout_s: float = 30.0,
        poll_s: float = 0.01,
    ) -> None:
        self.path = Path(path)
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self._fd: int | None = None
        self._dir: Path | None = None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def acquire(self) -> None:
        """Block (with timeout) until the lock is exclusively held."""
        deadline = time.monotonic() + self.timeout_s
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    self._fd = fd
                    return
                except OSError as err:
                    if err.errno not in (errno.EAGAIN, errno.EACCES):
                        os.close(fd)
                        raise
                    if time.monotonic() > deadline:
                        os.close(fd)
                        raise LockTimeout(
                            f"could not lock {self.path} within "
                            f"{self.timeout_s}s"
                        ) from None
                    time.sleep(self.poll_s)
        else:  # pragma: no cover - exercised only on non-POSIX hosts
            lock_dir = self.path.with_name(self.path.name + ".d")
            while True:
                try:
                    os.mkdir(lock_dir)
                    self._dir = lock_dir
                    return
                except FileExistsError:
                    if time.monotonic() > deadline:
                        raise LockTimeout(
                            f"could not lock {self.path} within "
                            f"{self.timeout_s}s"
                        ) from None
                    time.sleep(self.poll_s)

    def release(self) -> None:
        """Drop the lock (idempotent)."""
        if self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None
        if self._dir is not None:  # pragma: no cover - non-POSIX fallback
            try:
                os.rmdir(self._dir)
            except OSError:
                pass
            self._dir = None


def atomic_write_json(path: str | os.PathLike, payload: dict) -> None:
    """Durably replace ``path`` with ``payload`` as JSON (tmp+fsync+rename).

    Readers observe either the previous document or the new one, never a
    torn hybrid — the property every lease/heartbeat read relies on.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(target)


def read_json(path: str | os.PathLike) -> dict | None:
    """Load a JSON document, or None when missing/unreadable/torn.

    Tolerating unreadable files (rather than raising) lets scanners keep
    walking a directory another process is concurrently mutating.
    """
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None
