"""Pluggable storage backends for :class:`~repro.misp.store.MispStore`.

See :mod:`repro.misp.storage.base` for the backend protocol and the
determinism contract every implementation honours.
"""

from .base import (
    MAX_BOUND_VARS,
    VAR_BUDGET,
    BackendInfo,
    PersistBatch,
    StorageBackend,
    chunk_size,
    chunks,
    shard_of,
)
from .sharded import ShardedSQLiteBackend, shard_path
from .sqlite import SQLiteBackend, detect_shard_count

__all__ = [
    "MAX_BOUND_VARS",
    "VAR_BUDGET",
    "BackendInfo",
    "PersistBatch",
    "SQLiteBackend",
    "ShardedSQLiteBackend",
    "StorageBackend",
    "chunk_size",
    "chunks",
    "detect_shard_count",
    "shard_of",
    "shard_path",
]
