"""Expiring leases: the fleet's ownership and liveness primitive.

A lease is the *only* thing that makes a run "owned".  A worker that
claims a run writes a lease file naming itself, a unique token, and an
expiry timestamp; while it runs, it renews the lease between simulation
slices.  A worker that dies, hangs, or is SIGKILLed simply stops renewing
— no cleanup required — and once the expiry passes, any other worker may
**steal** the run: the claim path replaces the lapsed lease with its own
and records the takeover (prior owner, reason) in the task's audit trail.

Correctness rests on two rules, both enforced under the per-key
:class:`~repro.campaign.locks.FileLock`:

* a live (unexpired) lease is never replaced — at most one worker owns a
  run at any wall-clock instant;
* every mutation by the owner (renew / complete / release) re-reads the
  lease file and verifies the **token**, so a worker whose lease was
  stolen while it kept running discovers the loss (:class:`LeaseLost`)
  and abandons its now-redundant result instead of double-reporting.

Wall-clock time is the shared clock (the fleet spans processes and
machines), injected as a callable for testability.
"""

from __future__ import annotations

import os
import socket
import uuid
from dataclasses import dataclass


class LeaseLost(RuntimeError):
    """The caller's lease was stolen or completed by another worker."""


def worker_identity() -> str:
    """A human-meaningful unique worker id: ``host:pid-suffix``."""
    return f"{socket.gethostname()}:{os.getpid()}-{uuid.uuid4().hex[:6]}"


@dataclass(frozen=True)
class Lease:
    """One worker's time-bounded exclusive claim on one run."""

    #: Content key of the claimed run.
    key: str
    #: Claiming worker's identity (``worker_identity()``).
    owner: str
    #: Unpredictable per-claim token; ownership checks compare this, not
    #: the owner name, so a restarted worker reusing a name cannot be
    #: confused with its dead predecessor.
    token: str
    #: 1-based claim ordinal for this run (steals and retries increment).
    attempt: int
    #: Wall-clock acquisition time [s since epoch].
    acquired_at: float
    #: Wall-clock expiry [s since epoch]; renewal pushes this forward.
    expires_at: float

    @classmethod
    def acquire(
        cls, key: str, owner: str, *, attempt: int, now: float, ttl_s: float
    ) -> "Lease":
        """A fresh lease on ``key`` for ``owner``, expiring ``ttl_s`` out."""
        return cls(
            key=key,
            owner=owner,
            token=uuid.uuid4().hex,
            attempt=attempt,
            acquired_at=now,
            expires_at=now + ttl_s,
        )

    def renewed(self, *, now: float, ttl_s: float) -> "Lease":
        """This lease with its expiry pushed ``ttl_s`` past ``now``."""
        return Lease(
            key=self.key,
            owner=self.owner,
            token=self.token,
            attempt=self.attempt,
            acquired_at=self.acquired_at,
            expires_at=now + ttl_s,
        )

    def expired(self, now: float) -> bool:
        """True once the expiry has passed — the run is stealable."""
        return now >= self.expires_at

    def remaining_s(self, now: float) -> float:
        """Seconds of validity left (0 when expired)."""
        return max(0.0, self.expires_at - now)

    def to_dict(self) -> dict:
        """JSON-able representation (the lease-file document)."""
        return {
            "key": self.key,
            "owner": self.owner,
            "token": self.token,
            "attempt": self.attempt,
            "acquired_at": self.acquired_at,
            "expires_at": self.expires_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Lease":
        """Rebuild a lease from :meth:`to_dict` output."""
        return cls(
            key=str(data["key"]),
            owner=str(data["owner"]),
            token=str(data["token"]),
            attempt=int(data["attempt"]),
            acquired_at=float(data["acquired_at"]),
            expires_at=float(data["expires_at"]),
        )
