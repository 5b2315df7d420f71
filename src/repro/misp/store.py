"""Relational store for MISP events, backed by one SQLite engine.

The paper's operational module keeps "a relational database to store locally
information about IoCs and the monitored infrastructure" (§III-B1).  Events
are stored both relationally (events/attributes/tags rows for querying and
correlation) and as their canonical MISP JSON blob (for lossless export).

:class:`MispStore` is a facade: it converts
:class:`~repro.misp.model.MispEvent` objects to and from plain rows, emits
metrics, applies fault-injection seams, and delegates all persistence to
:class:`~repro.misp.storage.sqlite.SQLiteBackend`.  At one shard (the
default, and the on-disk format of every pre-sharding store) a store is a
single file; ``shards=N`` hash-shards the event rows over N files beside a
catalog (docs/PERFORMANCE.md).  Per-event reads are index searches at any
shard count; correlation rows are found through the endpoint-event
indexes, which opening a store creates if it lacks them.
``MispStore(":memory:")`` keeps either layout in memory.  The conformance
suite (tests/test_storage_backends.py) asserts byte-identical audit
history, correlation graphs, sync ledgers and lineage at any shard count.
``MispStore(path)`` re-opens an existing store with whatever layout it was
created with (recorded in its ``store_meta`` table).

Persistence is batch-aware: :meth:`MispStore.save_events` writes a whole
collection cycle — audit rows, event rows, attribute rows, tag rows — in a
single transaction, and :meth:`correlatable_attributes_many` resolves every
correlatable value of a batch with chunked ``IN (...)`` queries sized by the
shared bound-variable budget.  ``sql_statements`` counts Python→storage
round trips so benchmarks can prove the batched path issues fewer of them.

The audit log doubles as the store's one change feed
(:meth:`MispStore.changes_since`), which the rollups and the sharing
gateway both consume.  The store also persists the gateway's delta-sync
ledger (``sync_state``/``sync_digests``): a per-entity audit-seq watermark
plus the content digest last successfully shared with each entity, so a
sync cycle touches only events that are new or changed since that entity's
last successful sync (docs/SHARING.md).
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..clock import Clock
from ..errors import StorageError
from ..obs import MetricsRegistry, NULL_REGISTRY
from .export import canonical_json
from .model import MispEvent
from .storage import PersistBatch, SQLiteBackend, detect_shard_count

#: Batch-size histogram buckets: one cycle's cIoC count lands here.
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500)


@dataclass(frozen=True)
class StoreChange:
    """One audit-log row viewed as a change-feed entry.

    ``seq`` is the store's monotonic cursor; ``action`` is one of
    ``created`` / ``updated`` / ``enriched`` / ``deleted``.  The feed keeps
    ``deleted`` rows so incremental consumers can retire state for purged
    events instead of silently never hearing about them;
    :func:`~repro.core.deltas.collapse_changes` folds a window of rows into
    live upserts (with their last seq) and deletes.
    """

    seq: int
    event_uuid: str
    action: str
    logged_at: int


class MispStore:
    """Relational persistence for events, attributes, tags and correlations.

    ``clock`` (optional) stamps audit rows for destructive operations; when
    absent, deletes fall back to the deleted event's own timestamp.

    ``shards`` is the number of hash shards (``>= 1``); ``None`` means
    "whatever the file at ``path`` was created with, else 1".  A count that
    differs from the one recorded in an existing store raises
    :class:`~repro.errors.StorageError`.
    """

    def __init__(self, path: str = ":memory:",
                 metrics: Optional[MetricsRegistry] = None,
                 clock: Optional[Clock] = None,
                 fault_injector=None,
                 shards: Optional[int] = None) -> None:
        self._clock = clock
        #: Optional :class:`~repro.resilience.FaultInjector` consulted at
        #: the top of every :meth:`save_events` (component ``store``, key
        #: ``save_events``), before the transaction starts.
        self.fault_injector = fault_injector
        if shards is None:
            shards = detect_shard_count(path) or 1
        #: The :class:`~repro.misp.storage.sqlite.SQLiteBackend` doing the
        #: actual persistence.
        self.backend = SQLiteBackend(path, shards=shards)
        #: JSON blob → MispEvent decodes performed so far.  The idle-cost
        #: bench asserts quiet cycles keep this flat (0 per quiet cycle).
        self._payloads_deserialized = 0
        metrics = metrics or NULL_REGISTRY
        self._m_events = metrics.counter(
            "caop_misp_events_stored_total",
            "Event rows written, labelled by audit action")
        self._m_attributes = metrics.counter(
            "caop_misp_attributes_stored_total", "Attribute rows written")
        self._m_correlations = metrics.counter(
            "caop_misp_correlations_total", "Correlation edges persisted")
        self._m_batch_size = metrics.histogram(
            "caop_store_batch_size", "Events persisted per save_events call",
            buckets=BATCH_SIZE_BUCKETS)
        self._m_enrich_batch_size = metrics.histogram(
            "caop_enrich_batch_size",
            "Events written back per apply_enrichments call",
            buckets=BATCH_SIZE_BUCKETS)
        self._m_shard_batch_size = metrics.histogram(
            "caop_store_shard_batch_size",
            "Events persisted per shard per save_events call",
            buckets=BATCH_SIZE_BUCKETS)
        metrics.gauge(
            "caop_store_shards",
            "Shard count of the MISP store backend").set(self.shard_count)

    def close(self) -> None:
        """Release the underlying resources."""
        self.backend.close()

    @property
    def sql_statements(self) -> int:
        """Python→storage round trips issued so far (read-only)."""
        return self.backend.sql_statements

    @property
    def payloads_deserialized(self) -> int:
        """JSON payload → event decodes performed so far (read-only).

        The second currency of the idle-cost budget alongside
        ``sql_statements``: a steady-state cycle that touches no events
        must not move this number.
        """
        return self._payloads_deserialized

    def _decode(self, blob: str) -> MispEvent:
        self._payloads_deserialized += 1
        return MispEvent.from_dict(json.loads(blob))

    @property
    def shard_count(self) -> int:
        """How many shards back this store (1 for a single-file store)."""
        return self.backend.shard_count

    def query_plan(self, sql: str, params: Sequence = ()) -> str:
        """``EXPLAIN QUERY PLAN`` output (the catalog's, when sharded)."""
        return self.backend.query_plan(sql, params)

    # -- events ----------------------------------------------------------------

    def save_event(self, event: MispEvent, replace: bool = True) -> None:
        """Insert or update an event with all its attributes and tags.

        Every save (and delete) is recorded in the audit log, MISP-style.
        """
        self.save_events([event], replace=replace)

    def save_events(self, events: Sequence[MispEvent],
                    replace: bool = True) -> None:
        """Persist a batch of events in one transaction.

        The batched write is behaviourally identical to saving each event in
        turn — same audit rows, same replace semantics — but issues a
        bounded number of SQL statements instead of O(events × attributes).
        """
        events = list(events)
        if not events:
            return
        if self.fault_injector is not None:
            self.fault_injector.check("store", "save_events")
        uuids = [event.uuid for event in events]
        if len(set(uuids)) != len(uuids):
            # Intra-batch uuid collisions need per-event replace semantics
            # (each later save replaces the earlier one's attribute rows);
            # fall back to the serial path for this rare shape.
            for event in events:
                self._save_events_batch([event], replace=replace)
            return
        self._save_events_batch(events, replace=replace)

    def apply_enrichments(self, events: Sequence[MispEvent]) -> None:
        """Write one enrichment cycle back in a single transaction.

        ``events`` are fully-built eIoCs (score/breakdown attributes, galaxy
        tags and the enriched tag already applied in memory).  The whole
        batch lands through one set of ``executemany`` statements — the
        replacement for the ~6 per-event round trips the serial
        ``add_attribute``/``tag_event`` write-back used to issue — and each
        event gets one ``enriched`` audit row instead of one ``updated`` row
        per intermediate save.
        """
        events = list(events)
        if not events:
            return
        if self.fault_injector is not None:
            self.fault_injector.check("store", "apply_enrichments")
        uuids = [event.uuid for event in events]
        if len(set(uuids)) != len(uuids):
            raise StorageError(
                "apply_enrichments batch contains duplicate event uuids")
        self._save_events_batch(events, replace=True, action="enriched")
        self._m_enrich_batch_size.observe(len(events))

    def _save_events_batch(self, events: List[MispEvent],
                           replace: bool,
                           action: Optional[str] = None) -> None:
        uuids = [event.uuid for event in events]
        existing = self.backend.existing_events(uuids)
        if not replace:
            for uuid in uuids:
                if uuid in existing:
                    raise StorageError(f"event {uuid} already stored")

        audit_rows: List[Tuple] = []
        event_rows: List[Tuple] = []
        attribute_rows: List[Tuple] = []
        tag_rows: List[Tuple] = []
        created = updated = 0
        for event in events:
            attributes = event.all_attributes()
            exists = event.uuid in existing
            if exists:
                updated += 1
            else:
                created += 1
            audit_rows.append((
                event.uuid,
                action or ("updated" if exists else "created"),
                f"{len(attributes)} attributes",
                int(event.timestamp.timestamp()),
            ))
            event_rows.append((
                event.uuid, event.info, event.date.isoformat(), event.org,
                event.threat_level_id, event.analysis, event.distribution,
                int(event.published), int(event.timestamp.timestamp()),
                canonical_json(event),
            ))
            for attribute in attributes:
                attribute_rows.append((
                    attribute.uuid, event.uuid, attribute.type,
                    attribute.category, attribute.value,
                    int(attribute.to_ids), int(attribute.correlatable),
                    int(attribute.timestamp.timestamp()),
                ))
            for tag in event.tags:
                tag_rows.append((event.uuid, tag.name))

        per_shard = self.backend.persist_batch(PersistBatch(
            uuids=uuids, audit_rows=audit_rows, event_rows=event_rows,
            attribute_rows=attribute_rows, tag_rows=tag_rows,
            new_events=created))
        if action is not None:
            self._m_events.inc(len(events), action=action)
        else:
            if created:
                self._m_events.inc(created, action="created")
            if updated:
                self._m_events.inc(updated, action="updated")
        self._m_attributes.inc(len(attribute_rows))
        self._m_batch_size.observe(len(events))
        for shard, count in sorted(per_shard.items()):
            self._m_shard_batch_size.observe(count, shard=str(shard))

    def has_event(self, uuid: str) -> bool:
        """Whether an event uuid is stored."""
        return self.backend.has_event(uuid)

    def existing_events(self, uuids: Sequence[str]) -> Set[str]:
        """Which of the given uuids are stored (chunked batch probe)."""
        return self.backend.existing_events(uuids)

    def get_event(self, uuid: str) -> Optional[MispEvent]:
        """Fetch one event by uuid."""
        blob = self.backend.get_event_blob(uuid)
        if blob is None:
            return None
        return self._decode(blob)

    def get_events(self, uuids: Sequence[str]) -> Dict[str, Optional[MispEvent]]:
        """Batch-fetch events with chunked ``IN (...)`` queries.

        Returns ``uuid -> event`` for every requested uuid, preserving the
        request order; uuids with no stored event map to ``None``.  N lookups
        cost ``ceil(N / chunk)`` round trips instead of N.
        """
        blobs = self.backend.get_event_blobs(uuids)
        return {uuid: self._decode(blob) if blob is not None else None
                for uuid, blob in blobs.items()}

    def event_digests(self, uuids: Sequence[str]
                      ) -> Dict[str, Optional[Tuple[int, str]]]:
        """``uuid -> (epoch timestamp, content digest)`` without decoding.

        The digest is the sha256 of the stored blob, which holds the
        event's :func:`~repro.misp.export.canonical_json` bytes, so it
        equals :func:`~repro.sharing.sync.event_digest` of the decoded
        event.  One chunked ``SELECT`` per shard, request order kept,
        absent uuids map to ``None``; ``payloads_deserialized`` does not
        move.  The anti-entropy receiver probes an offer with it.
        """
        return {uuid: None if row is None else
                (row[0], hashlib.sha256(row[1].encode()).hexdigest())
                for uuid, row in self.backend.get_event_stamps(uuids).items()}

    def events_with_tag(self, tag: str, uuids: Sequence[str]) -> Set[str]:
        """Which of the given event uuids carry a tag (one chunked query)."""
        return self.backend.events_with_tag(tag, uuids)

    def delete_event(self, uuid: str) -> bool:
        """Delete an event (cascades to attributes)."""
        logged_at = int(self._clock.now().timestamp()) \
            if self._clock is not None else None
        return self.backend.delete_event(uuid, logged_at=logged_at)

    def event_history(self, uuid: str) -> List[Dict[str, Any]]:
        """The audit trail of one event, oldest first."""
        return self.backend.event_history(uuid)

    def audit_count(self) -> int:
        """Total audit-log rows."""
        return self.backend.audit_count()

    # -- provenance (lineage) -----------------------------------------------------

    def add_provenance(self, rows: Sequence[Any]) -> int:
        """Append lineage rows in one batch transaction.

        ``rows`` are :class:`~repro.obs.provenance.ProvenanceEvent`-shaped
        objects (attribute access; no import needed here).  Insertion order
        is preserved by the autoincrement ``seq``, so callers that buffer
        in deterministic order persist in deterministic order.
        """
        return self.backend.add_provenance(
            [(r.trace_id, r.event_uuid, r.kind, r.actor, r.org,
              r.detail, int(r.cycle), int(r.logged_at)) for r in rows])

    def provenance_for_event(self, event_uuid: str) -> List[Dict[str, Any]]:
        """One event's lineage rows, oldest first."""
        return self.backend.provenance_for_event(event_uuid)

    def provenance_for_events(self, event_uuids: Sequence[str]
                              ) -> Dict[str, List[Dict[str, Any]]]:
        """Many events' lineage rows (oldest first) in chunked queries.

        Returns ``uuid -> rows`` for every requested uuid (empty list when
        an event has no lineage).
        """
        return self.backend.provenance_for_events(event_uuids)

    def provenance_for_trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """Every lineage row carrying one trace id, oldest first."""
        return self.backend.provenance_for_trace(trace_id)

    def provenance_count(self) -> int:
        """Total lineage rows."""
        return self.backend.provenance_count()

    def latest_traced_event(self) -> Optional[str]:
        """The event uuid of the newest lineage row (demo/CLI convenience)."""
        return self.backend.latest_traced_event()

    # -- delta-sync ledger --------------------------------------------------------

    def max_audit_seq(self) -> int:
        """The highest audit-log sequence number written so far (0 if none).

        The audit sequence is the store's monotonic change cursor: every
        save/enrich/delete lands one row, so "what changed since seq S" is a
        complete delta regardless of whether the edit bumped the event's own
        timestamp.  The sharing gateway closes each cycle's feed window here.
        """
        return self.backend.max_audit_seq()

    def changes_since(self, after_seq: int,
                      until_seq: Optional[int] = None) -> List[StoreChange]:
        """The store's change feed: audit rows in ``(after_seq, until_seq]``.

        Returns :class:`StoreChange` entries ordered by ``seq`` ascending,
        ``deleted`` actions included.  One cheap query (no ``IN`` lists, no
        payloads) that costs nothing when nothing changed.  Incremental
        rollups poll it with a persisted
        :class:`~repro.core.deltas.DeltaCursor`; the sharing gateway reads
        it once per cycle from its lowest entity watermark up to the
        cycle's :meth:`max_audit_seq`.
        """
        return [StoreChange(*row)
                for row in self.backend.changes_since(after_seq, until_seq)]

    # -- rollup cursors -------------------------------------------------------

    def get_rollup(self, name: str) -> Optional[Tuple[int, str]]:
        """``(position, state)`` of one persisted rollup cursor, or None."""
        return self.backend.get_rollup(name)

    def set_rollup(self, name: str, position: int, state: str = "",
                   rows: Optional[Mapping[str, Optional[str]]] = None
                   ) -> None:
        """Persist a rollup cursor (stamped on the store clock).

        ``rows`` maps the rollup's changed keys to their new JSON values
        (``None`` deletes the key's row); they are written in the same
        transaction as the position.  Lives in the ``rollup_state`` and
        ``rollup_rows`` tables, deliberately outside the sync ledger:
        federation fingerprints fold ``sync_watermarks()``, and how far
        local view maintenance has read must not perturb them.
        """
        logged_at = int(self._clock.now().timestamp()) \
            if self._clock is not None else 0
        self.backend.set_rollup(name, position, state, logged_at=logged_at,
                                rows=rows)

    def rollup_rows(self, name: str) -> List[Tuple[str, str]]:
        """``(key, JSON value)`` checkpoint rows of one rollup, by key."""
        return self.backend.rollup_rows(name)

    def rollup_names(self) -> List[str]:
        """Names of every persisted rollup cursor, sorted."""
        return self.backend.rollup_names()

    def get_sync_watermark(self, entity: str) -> int:
        """The audit-seq watermark of one sync entity (0 when never synced)."""
        return self.backend.get_sync_watermark(entity)

    def set_sync_watermark(self, entity: str, watermark: int) -> None:
        """Persist an entity's watermark (stamped on the store clock)."""
        logged_at = int(self._clock.now().timestamp()) \
            if self._clock is not None else 0
        self.backend.set_sync_watermark(entity, watermark,
                                        logged_at=logged_at)

    def sync_watermarks(self) -> Dict[str, int]:
        """Every persisted entity watermark (entity -> audit seq)."""
        return self.backend.sync_watermarks()

    def get_sync_digests(self, entity: str,
                         uuids: Sequence[str]) -> Dict[str, str]:
        """Last successfully-synced content digests for one entity.

        Returns ``event_uuid -> digest`` for the requested uuids that have a
        ledger row (chunked ``IN (...)`` lookups); absent uuids are simply
        missing from the result.
        """
        return self.backend.get_sync_digests(entity, uuids)

    def set_sync_digests(self, entity: str,
                         digests: Mapping[str, str]) -> None:
        """Record one cycle's synced digests in a single ``executemany``."""
        self.backend.set_sync_digests(entity, digests)

    def sync_digest_count(self, entity: Optional[str] = None) -> int:
        """Ledger rows, optionally for one entity."""
        return self.backend.sync_digest_count(entity)

    def sync_digest_rows(self) -> List[Tuple[str, str, str]]:
        """Every ledger row as ``(entity, event_uuid, digest)``, sorted.

        The full-state view federation fingerprints fold in, so two stores
        agree only when their sync ledgers agree too.
        """
        return self.backend.sync_digest_rows()

    def event_count(self) -> int:
        """Number of stored events (O(1): maintained counter)."""
        return self.backend.event_count()

    def attribute_count(self) -> int:
        """Number of stored attributes (O(1): maintained counter)."""
        return self.backend.attribute_count()

    def list_events(self, limit: Optional[int] = None,
                    published_only: bool = False,
                    since: Optional[dt.datetime] = None) -> List[MispEvent]:
        """Stored events, newest first (``timestamp DESC, uuid``).

        ``since`` pushes a time-window lower bound into the storage query:
        only events with ``timestamp >= since`` are fetched and decoded.
        Stored timestamps are integer epoch seconds (the MISP JSON wire
        format), so the integer prefilter is exact for integer-second
        cutoffs and callers with sub-second cutoffs re-filter in python.
        """
        since_ts = int(since.timestamp()) if since is not None else None
        return [self._decode(blob)
                for blob in self.backend.list_event_blobs(
                    limit=limit, published_only=published_only,
                    since_ts=since_ts)]

    # -- search -------------------------------------------------------------------

    def search_value(self, value: str) -> List[Tuple[str, str]]:
        """Exact value search: returns (event_uuid, attribute_uuid) pairs."""
        return self.backend.search_value(value)

    def search_events(self, info_substring: Optional[str] = None,
                      tag: Optional[str] = None,
                      attribute_type: Optional[str] = None,
                      value: Optional[str] = None) -> List[MispEvent]:
        """Filtered event search across the relational tables."""
        return [self._decode(blob)
                for blob in self.backend.search_event_blobs(
                    info_substring=info_substring, tag=tag,
                    attribute_type=attribute_type, value=value)]

    def correlatable_attributes(self, value: str,
                                exclude_event: Optional[str] = None
                                ) -> List[Tuple[str, str]]:
        """(event_uuid, attribute_uuid) of correlatable rows matching value."""
        return self.backend.correlatable_attributes(
            value, exclude_event=exclude_event)

    def correlatable_attributes_many(
            self, values: Sequence[str]
    ) -> Dict[str, List[Tuple[str, str]]]:
        """Resolve many correlatable values with chunked ``IN`` queries.

        Returns ``value -> [(event_uuid, attribute_uuid), ...]`` (insertion
        order per value, matching :meth:`correlatable_attributes`); values
        with no match map to an empty list.
        """
        return self.backend.correlatable_attributes_many(values)

    # -- correlations --------------------------------------------------------------

    def save_correlation(self, source_attribute: str, target_attribute: str,
                         source_event: str, target_event: str, value: str) -> None:
        """Persist one correlation edge (idempotent)."""
        self.save_correlations([
            (source_attribute, target_attribute, source_event, target_event,
             value)])

    def save_correlations(
            self, edges: Sequence[Tuple[str, str, str, str, str]]) -> int:
        """Persist a batch of correlation edges in one transaction.

        Each edge is ``(source_attribute, target_attribute, source_event,
        target_event, value)``; duplicates are ignored.  Returns the number
        of edges actually inserted.
        """
        inserted = self.backend.save_correlations(edges)
        if inserted > 0:
            self._m_correlations.inc(inserted)
        return inserted

    def correlations_for_event(self, event_uuid: str) -> List[Dict[str, str]]:
        """Correlation rows touching one event."""
        return self.backend.correlations_for_event(event_uuid)

    def correlations_for_events(
            self, uuids: Sequence[str]) -> Dict[str, List[Dict[str, str]]]:
        """Correlation rows touching each of many events, batched.

        Returns ``uuid -> rows`` for every requested uuid (empty list when
        an event has no correlations); a row linking two requested events
        appears under both.  Row order per event matches
        :meth:`correlations_for_event` (insertion order).
        """
        return self.backend.correlations_for_events(uuids)

    def correlation_count(self) -> int:
        """Total stored correlation edges (O(1): maintained counter)."""
        return self.backend.correlation_count()
