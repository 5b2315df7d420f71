"""The SQLite engine behind :class:`~repro.misp.store.MispStore`.

:class:`SQLiteBackend` runs a store at any shard count: one file at one
shard, a catalog plus ``<path>.shard-NN`` files at N.  See
:mod:`repro.misp.storage.sqlite` for the two layouts and
:mod:`repro.misp.storage.base` for the determinism contract.
"""

from .base import (
    MAX_BOUND_VARS,
    VAR_BUDGET,
    PersistBatch,
    chunk_size,
    chunks,
    shard_of,
)
from .sqlite import SQLiteBackend, detect_shard_count, shard_path

__all__ = [
    "MAX_BOUND_VARS",
    "VAR_BUDGET",
    "PersistBatch",
    "SQLiteBackend",
    "chunk_size",
    "chunks",
    "detect_shard_count",
    "shard_of",
    "shard_path",
]
