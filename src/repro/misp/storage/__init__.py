"""The SQLite engine behind :class:`~repro.misp.store.MispStore`.

:class:`SQLiteBackend` keeps a store in one SQLite file (or one
``:memory:`` database).  See :mod:`repro.misp.storage.sqlite` for the
layout and :mod:`repro.misp.storage.base` for the shared helpers.
"""

from .base import (
    MAX_BOUND_VARS,
    VAR_BUDGET,
    PersistBatch,
    chunk_size,
    chunks,
)
from .sqlite import SQLiteBackend

__all__ = [
    "MAX_BOUND_VARS",
    "VAR_BUDGET",
    "PersistBatch",
    "SQLiteBackend",
    "chunk_size",
    "chunks",
]
