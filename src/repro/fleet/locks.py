"""The fleet's filesystem primitives, defined in :mod:`repro.campaign.locks`."""

from repro.campaign.locks import FileLock, LockTimeout, atomic_write_json, read_json

__all__ = ["FileLock", "LockTimeout", "atomic_write_json", "read_json"]
