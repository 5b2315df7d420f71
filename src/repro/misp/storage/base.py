"""Storage backend protocol and shared helpers for the MISP store.

:class:`~repro.misp.store.MispStore` is a thin facade: it turns
:class:`~repro.misp.model.MispEvent` objects into plain rows, emits metrics,
and delegates every byte of persistence to a :class:`StorageBackend`.  Two
implementations exist:

- :class:`~repro.misp.storage.sqlite.SQLiteBackend` — the classic single-file
  (or ``:memory:``) SQLite store;
- :class:`~repro.misp.storage.sharded.ShardedSQLiteBackend` — N SQLite shards
  keyed by :func:`shard_of` plus a global catalog for the audit log, sync
  ledger, provenance, counters and the value index.

Determinism contract (docs/PERFORMANCE.md): for the same operation sequence,
every backend — and every shard count — must produce identical audit
sequences, correlation edge sets, sync watermarks/digests and provenance
rows.  Ordered reads are fully specified (``timestamp DESC, uuid`` for event
listings; insertion order for value probes and correlation rows) so no
backend leans on accidental scan order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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
    objects; backends only ever see tuples, so they stay import-light and
    trivially comparable across implementations.

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


@dataclass
class BackendInfo:
    """Static facts the facade exposes as gauges."""

    kind: str
    shard_count: int = 1
    #: Filesystem paths backing the store (empty for ``:memory:`` stores).
    paths: List[str] = field(default_factory=list)


class StorageBackend:
    """Interface every MISP storage backend implements.

    This is a plain base class rather than ``typing.Protocol`` so the
    conformance suite can instantiate it for interface checks on python
    3.9.  All methods raise :class:`NotImplementedError` by default.

    Transaction discipline: :meth:`persist_batch`, :meth:`add_provenance`,
    :meth:`save_correlations`, :meth:`set_sync_watermark` and
    :meth:`set_sync_digests` are each atomic per call (one transaction in
    SQLite terms; sharded backends commit their shards serially in shard
    order, catalog last).  Read methods never observe a half-applied batch.
    """

    #: Python→storage round trips issued so far.  The facade re-exports
    #: this as ``MispStore.sql_statements`` for the SQL-budget benches.
    sql_statements: int = 0

    # -- lifecycle ----------------------------------------------------------

    def info(self) -> BackendInfo:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- events -------------------------------------------------------------

    def existing_events(self, uuids: Sequence[str]) -> Set[str]:
        """Which of ``uuids`` are already stored."""
        raise NotImplementedError

    def persist_batch(self, batch: PersistBatch) -> Dict[int, int]:
        """Apply one save cycle atomically; returns events-per-shard."""
        raise NotImplementedError

    def has_event(self, uuid: str) -> bool:
        raise NotImplementedError

    def get_event_blob(self, uuid: str) -> Optional[str]:
        raise NotImplementedError

    def get_event_blobs(self, uuids: Sequence[str]
                        ) -> Dict[str, Optional[str]]:
        """Batch blob fetch preserving request order; absent uuids → None."""
        raise NotImplementedError

    def events_with_tag(self, tag: str, uuids: Sequence[str]) -> Set[str]:
        raise NotImplementedError

    def delete_event(self, uuid: str,
                     logged_at: Optional[int] = None) -> bool:
        """Delete an event; ``logged_at`` stamps the audit row (falls back
        to the deleted event's own timestamp, then 0)."""
        raise NotImplementedError

    def list_event_blobs(self, limit: Optional[int] = None,
                         published_only: bool = False,
                         since_ts: Optional[int] = None) -> List[str]:
        """Blobs ordered by ``timestamp DESC, uuid`` (fully deterministic).

        ``since_ts`` keeps only events whose integer epoch timestamp is
        ``>= since_ts`` — a storage-side prefilter for time-windowed reads.
        """
        raise NotImplementedError

    def event_count(self) -> int:
        """O(1): maintained counter, not ``COUNT(*)``."""
        raise NotImplementedError

    def attribute_count(self) -> int:
        """O(1): maintained counter, not ``COUNT(*)``."""
        raise NotImplementedError

    # -- audit --------------------------------------------------------------

    def event_history(self, uuid: str) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def audit_count(self) -> int:
        raise NotImplementedError

    def max_audit_seq(self) -> int:
        raise NotImplementedError

    def changes_since(self, after_seq: int,
                      until_seq: Optional[int] = None
                      ) -> List[Tuple[int, str, str, int]]:
        """Raw audit rows ``(seq, event_uuid, action, logged_at)`` in
        ``(after_seq, until_seq]``, ordered by seq ascending.

        The store's one change feed: ``deleted`` actions are kept, so
        consumers (rollups, the sharing gateway) can retire state for
        purged events.
        """
        raise NotImplementedError

    # -- rollup cursors -------------------------------------------------------
    #
    # Named, persisted positions into the audit-seq change feed plus an
    # opaque state blob — the durable half of ``core.deltas``.  Kept in a
    # dedicated ``rollup_state`` table (NOT ``sync_state``) so federation
    # fingerprints, which fold sync watermarks, are unaffected by how far
    # local view maintenance has read.

    def get_rollup(self, name: str) -> Optional[Tuple[int, str]]:
        """``(position, state)`` for one named rollup, or None."""
        raise NotImplementedError

    def set_rollup(self, name: str, position: int, state: str = "",
                   logged_at: int = 0) -> None:
        raise NotImplementedError

    def rollup_names(self) -> List[str]:
        raise NotImplementedError

    # -- provenance ---------------------------------------------------------

    def add_provenance(self, rows: Sequence[Tuple]) -> int:
        """``rows``: ``(trace_id, event_uuid, kind, actor, org, detail,
        cycle, logged_at)`` tuples."""
        raise NotImplementedError

    def provenance_for_event(self, event_uuid: str) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def provenance_for_trace(self, trace_id: str) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def provenance_count(self) -> int:
        raise NotImplementedError

    def latest_traced_event(self) -> Optional[str]:
        raise NotImplementedError

    # -- delta-sync ledger ---------------------------------------------------

    def get_sync_watermark(self, entity: str) -> int:
        raise NotImplementedError

    def set_sync_watermark(self, entity: str, watermark: int,
                           logged_at: int = 0) -> None:
        raise NotImplementedError

    def sync_watermarks(self) -> Dict[str, int]:
        raise NotImplementedError

    def get_sync_digests(self, entity: str,
                         uuids: Sequence[str]) -> Dict[str, str]:
        raise NotImplementedError

    def set_sync_digests(self, entity: str,
                         digests: Mapping[str, str]) -> None:
        raise NotImplementedError

    def sync_digest_count(self, entity: Optional[str] = None) -> int:
        raise NotImplementedError

    def sync_digest_rows(self) -> List[Tuple[str, str, str]]:
        """Every ledger row as ``(entity, event_uuid, digest)``, sorted."""
        raise NotImplementedError

    # -- search -------------------------------------------------------------

    def search_value(self, value: str) -> List[Tuple[str, str]]:
        """(event_uuid, attribute_uuid) pairs in attribute insertion order."""
        raise NotImplementedError

    def search_event_blobs(self, info_substring: Optional[str] = None,
                           tag: Optional[str] = None,
                           attribute_type: Optional[str] = None,
                           value: Optional[str] = None) -> List[str]:
        """Filtered blobs ordered by ``timestamp DESC, uuid``."""
        raise NotImplementedError

    def correlatable_attributes(self, value: str,
                                exclude_event: Optional[str] = None
                                ) -> List[Tuple[str, str]]:
        raise NotImplementedError

    def correlatable_attributes_many(
            self, values: Sequence[str]
    ) -> Dict[str, List[Tuple[str, str]]]:
        raise NotImplementedError

    # -- correlations --------------------------------------------------------

    def save_correlations(
            self, edges: Sequence[Tuple[str, str, str, str, str]]) -> int:
        """Persist edges (idempotent); returns how many were new."""
        raise NotImplementedError

    def correlations_for_event(self, event_uuid: str) -> List[Dict[str, str]]:
        raise NotImplementedError

    def correlations_for_events(
            self, uuids: Sequence[str]) -> Dict[str, List[Dict[str, str]]]:
        raise NotImplementedError

    def correlation_count(self) -> int:
        """O(1): maintained counter, not ``COUNT(*)``."""
        raise NotImplementedError
