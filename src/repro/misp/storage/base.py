"""Shared helpers of the MISP store's SQLite engine.

:class:`~repro.misp.store.MispStore` is a thin facade: it turns
:class:`~repro.misp.model.MispEvent` objects into plain rows
(:class:`PersistBatch`), emits metrics, and hands every byte of persistence
to :class:`~repro.misp.storage.sqlite.SQLiteBackend`, which runs one shard
or N shards keyed by :func:`shard_of` plus a catalog for the audit log,
sync ledger, provenance, counters and (at N shards) the value index.

Determinism contract (docs/PERFORMANCE.md): for the same operation sequence,
every shard count must produce identical audit sequences, correlation edge
sets, sync watermarks/digests and provenance rows.  Ordered reads are fully
specified (``timestamp DESC, uuid`` for event listings; insertion order for
value probes and correlation rows) so no layout leans on accidental scan
order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

#: SQLite's conservative bound-variable ceiling (``SQLITE_MAX_VARIABLE_NUMBER``
#: is 999 on older builds; newer ones allow 32766).  Every chunked ``IN (...)``
#: query derives its chunk size from this budget instead of hard-coding one,
#: so a query that binds two placeholders per item — or reserves slots for
#: fixed parameters — can never overflow the limit.
MAX_BOUND_VARS = 999

#: Working budget: stay under the ceiling with headroom for dialect quirks.
VAR_BUDGET = 960


def chunk_size(reserved: int = 0, per_item: int = 1) -> int:
    """Largest per-query item count that keeps bound variables in budget.

    ``reserved`` counts fixed parameters bound alongside the ``IN`` list
    (e.g. the ``entity`` in a sync-digest probe); ``per_item`` is how many
    placeholders each item expands to (2 when a uuid appears in two ``IN``
    lists of the same query).
    """
    return max(1, (VAR_BUDGET - reserved) // per_item)


def chunks(items: Sequence, size: int) -> Iterable[Sequence]:
    """Yield ``items`` in slices of at most ``size``."""
    for start in range(0, len(items), size):
        yield items[start:start + size]


def shard_of(event_uuid: str, shard_count: int) -> int:
    """Deterministic, stable shard placement for one event uuid.

    Uses a sha256 prefix rather than ``hash()`` so placement is identical
    across processes, python versions and ``PYTHONHASHSEED`` values — the
    same discipline the retry-jitter and worker-pool RNGs follow.
    """
    if shard_count <= 1:
        return 0
    digest = hashlib.sha256(event_uuid.encode("utf-8")).hexdigest()
    return int(digest[:8], 16) % shard_count


@dataclass
class PersistBatch:
    """One ``save_events`` cycle reduced to plain rows.

    The facade builds these from :class:`~repro.misp.model.MispEvent`
    objects; the engine only ever sees tuples, so it stays import-light.

    Row shapes (matching the classic schema column order):

    - ``audit_rows``: ``(event_uuid, action, detail, logged_at)``
    - ``event_rows``: ``(uuid, info, date, org, threat_level_id, analysis,
      distribution, published, timestamp, blob)``
    - ``attribute_rows``: ``(uuid, event_uuid, type, category, value,
      to_ids, correlatable, timestamp)``
    - ``tag_rows``: ``(event_uuid, name)``
    """

    uuids: List[str]
    audit_rows: List[Tuple]
    event_rows: List[Tuple]
    attribute_rows: List[Tuple]
    tag_rows: List[Tuple]
    #: How many of ``uuids`` did not exist before this batch (counter delta).
    new_events: int = 0
