"""Relational store for MISP events: one SQLite file, or one ``:memory:``
database.

The paper's operational module keeps "a relational database to store locally
information about IoCs and the monitored infrastructure" (§III-B1).  Events
are stored both relationally (events/attributes/tags rows for querying and
correlation) and as their canonical MISP JSON blob (for lossless export).

:class:`MispStore` converts :class:`~repro.misp.model.MispEvent` objects to
and from rows, emits metrics, applies fault-injection seams and runs its own
SQL on one :class:`CountingConnection` (docs/PERFORMANCE.md, "One-file
storage").  Every table lives on that connection:

- the event tables (``events``, ``attributes``, ``event_tags``,
  ``correlations``).  Value probes (value search, correlation candidates)
  read ``attributes`` through the composite ``(value, type)`` index, and
  ``correlations`` is indexed by both endpoint events, so a read of an
  event's rows searches two indexes instead of walking the table; opening
  a store creates the indexes if it lacks them;
- the ``audit_log`` (the store's monotonic change feed), ``provenance``,
  ``sync_state``/``sync_digests``, ``rollup_state``/``rollup_rows``, the
  O(1) ``counters`` and ``store_meta``.

Every write method is one transaction, so readers never see half a batch.
``store_meta`` records the layout as ``shards = 1``.  Earlier releases could
hash-shard a store over a catalog plus ``<path>.shard-NN`` files; opening a
file whose ``store_meta`` records more than one shard raises
:class:`~repro.errors.StorageError` before any table is created.  The
conformance suite (tests/test_storage_backends.py) asserts that a file
store and an in-memory one leave byte-identical audit history, correlation
graphs, sync ledgers and lineage.

Persistence is batch-aware, and every event write goes through one
routine: :meth:`MispStore.save_events` (a collection cycle, a peer's events,
an edit) and :meth:`MispStore.apply_enrichments` (the eIoC write-back) each
write a whole batch — audit rows, event rows, attribute rows, tag rows — in
a single transaction that writes only the rows differing from the stored
ones and keeps the correlation graph current, one edge per pair of equal
correlatable values in different events (MISP's "basic automated
correlation", §III-B1).  As in MISP, an attribute uuid has one owner for
life: a write that would give it a second one raises
:class:`~repro.errors.ValidationError` and writes nothing.  Its reads are
chunked ``IN (...)`` queries sized by the :data:`MAX_BOUND_VARS` budget, so
no query can exceed SQLite's bound-variable limit however many uuids a
cycle carries.
``sql_statements`` counts Python→SQLite round trips so benchmarks can prove
the batched path issues fewer of them.  Ordered reads are fully specified
(``timestamp DESC, uuid`` for event listings; insertion order for value
probes and correlation rows) so no answer leans on accidental scan order.

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
import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..clock import Clock
from ..errors import StorageError, ValidationError
from ..obs import MetricsRegistry, NULL_REGISTRY
from .export import canonical_json
from .model import MispEvent

#: Batch-size histogram buckets: one cycle's cIoC count lands here.
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500)

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


def blob_digest(blob: str) -> str:
    """The content digest of a stored event blob: its sha256, in hex.

    A blob holds the event's :func:`~repro.misp.export.canonical_json`
    bytes, so this equals :func:`~repro.sharing.sync.event_digest` of the
    decoded event.
    """
    return hashlib.sha256(blob.encode()).hexdigest()


#: ``uuid -> (digest, event)``: events a caller holds in memory, each with
#: the :func:`blob_digest` of the text it was written or published as.
Handed = Mapping[str, Tuple[str, MispEvent]]

_EVENT_COLS = ("uuid, info, date, org, threat_level_id, analysis,"
               " distribution, published, timestamp, blob")

_ATTRIBUTE_COLS = ("uuid, event_uuid, type, category, value, to_ids,"
                   " correlatable, timestamp")


def _event_rows(event: MispEvent
                ) -> Tuple[Tuple, List[Tuple], List[Tuple[str, str]]]:
    """One event's ``events`` row (blob last), ``attributes`` rows and
    ``event_tags`` rows, in the column order of the tables."""
    event_row = (
        event.uuid, event.info, event.date.isoformat(), event.org,
        event.threat_level_id, event.analysis, event.distribution,
        int(event.published), int(event.timestamp.timestamp()),
        canonical_json(event),
    )
    attribute_rows = [
        (attribute.uuid, event.uuid, attribute.type, attribute.category,
         attribute.value, int(attribute.to_ids), int(attribute.correlatable),
         int(attribute.timestamp.timestamp()))
        for attribute in event.all_attributes()]
    tag_rows = [(event.uuid, tag.name) for tag in event.tags]
    return event_row, attribute_rows, tag_rows


#: Every table and index of a store.
SCHEMA = """
CREATE TABLE IF NOT EXISTS events (
    uuid TEXT PRIMARY KEY,
    info TEXT NOT NULL,
    date TEXT NOT NULL,
    org TEXT NOT NULL,
    threat_level_id INTEGER NOT NULL,
    analysis INTEGER NOT NULL,
    distribution INTEGER NOT NULL,
    published INTEGER NOT NULL,
    timestamp INTEGER NOT NULL,
    blob TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS attributes (
    uuid TEXT PRIMARY KEY,
    event_uuid TEXT NOT NULL REFERENCES events(uuid) ON DELETE CASCADE,
    type TEXT NOT NULL,
    category TEXT NOT NULL,
    value TEXT NOT NULL,
    to_ids INTEGER NOT NULL,
    correlatable INTEGER NOT NULL,
    timestamp INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_attributes_value_type
    ON attributes(value, type);
CREATE INDEX IF NOT EXISTS idx_attributes_event ON attributes(event_uuid);
CREATE TABLE IF NOT EXISTS event_tags (
    event_uuid TEXT NOT NULL REFERENCES events(uuid) ON DELETE CASCADE,
    name TEXT NOT NULL,
    UNIQUE(event_uuid, name)
);
CREATE TABLE IF NOT EXISTS correlations (
    source_attribute TEXT NOT NULL,
    target_attribute TEXT NOT NULL,
    source_event TEXT NOT NULL,
    target_event TEXT NOT NULL,
    value TEXT NOT NULL,
    UNIQUE(source_attribute, target_attribute)
);
CREATE INDEX IF NOT EXISTS idx_correlations_source_event
    ON correlations(source_event);
CREATE INDEX IF NOT EXISTS idx_correlations_target_event
    ON correlations(target_event);
CREATE TABLE IF NOT EXISTS audit_log (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    event_uuid TEXT NOT NULL,
    action TEXT NOT NULL,
    detail TEXT NOT NULL DEFAULT '',
    logged_at INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_audit_event ON audit_log(event_uuid);
CREATE TABLE IF NOT EXISTS sync_state (
    entity TEXT PRIMARY KEY,
    watermark INTEGER NOT NULL,
    updated_at INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS sync_digests (
    entity TEXT NOT NULL,
    event_uuid TEXT NOT NULL,
    digest TEXT NOT NULL,
    PRIMARY KEY (entity, event_uuid)
);
CREATE TABLE IF NOT EXISTS provenance (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    trace_id TEXT NOT NULL,
    event_uuid TEXT NOT NULL,
    kind TEXT NOT NULL,
    actor TEXT NOT NULL DEFAULT '',
    org TEXT NOT NULL DEFAULT '',
    detail TEXT NOT NULL DEFAULT '',
    cycle INTEGER NOT NULL DEFAULT 0,
    logged_at INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_provenance_trace ON provenance(trace_id);
CREATE INDEX IF NOT EXISTS idx_provenance_event ON provenance(event_uuid);
CREATE TABLE IF NOT EXISTS counters (
    name TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS rollup_state (
    name TEXT PRIMARY KEY,
    position INTEGER NOT NULL,
    state TEXT NOT NULL DEFAULT '',
    updated_at INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS rollup_rows (
    name TEXT NOT NULL,
    key TEXT NOT NULL,
    value TEXT NOT NULL,
    PRIMARY KEY (name, key)
);
CREATE TABLE IF NOT EXISTS store_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

_PROVENANCE_COLS = ("seq, trace_id, event_uuid, kind, actor, org,"
                    " detail, cycle, logged_at")

_CORRELATION_COLS = ("source_attribute, target_attribute, source_event,"
                     " target_event, value")


def _provenance_row(raw: Sequence[Any]) -> Dict[str, Any]:
    """Dict-shape one provenance row."""
    return {"seq": raw[0], "trace_id": raw[1], "event_uuid": raw[2],
            "kind": raw[3], "actor": raw[4], "org": raw[5],
            "detail": raw[6], "cycle": raw[7], "logged_at": raw[8]}


def _correlation_row(raw: Sequence[str]) -> Dict[str, str]:
    """Dict-shape one ``correlations`` row."""
    return {"source_attribute": raw[0], "target_attribute": raw[1],
            "source_event": raw[2], "target_event": raw[3], "value": raw[4]}


def _marks(chunk: Sequence) -> str:
    """``?,?,…`` placeholders for one ``IN (...)`` chunk."""
    return ",".join("?" * len(chunk))


class CountingConnection:
    """A SQLite connection that counts Python→SQLite round trips.

    The counter feeds ``MispStore.sql_statements`` so the SQL-budget benches
    can prove a path's statement count.  ``check_same_thread=False`` keeps
    a store usable from a thread other than the one that opened it; no
    code in the package touches one store from two threads at once.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.raw = sqlite3.connect(path, check_same_thread=False)
        self.statements = 0
        self.raw.execute("PRAGMA foreign_keys = ON")
        if path != ":memory:":
            # WAL lets readers proceed while a batch commit is in flight;
            # NORMAL fsyncs at checkpoints instead of every commit.
            self.raw.execute("PRAGMA journal_mode = WAL")
            self.raw.execute("PRAGMA synchronous = NORMAL")
            # Every write of the store lands in this one WAL: a cycle over
            # a large store writes about 2,900 pages, which SQLite's
            # default 1,000-page threshold would checkpoint three times.
            # 10 MB of page cache holds more of a cycle's index pages
            # (docs/PERFORMANCE.md, "One-file storage").
            self.raw.execute("PRAGMA wal_autocheckpoint = 10000")
            self.raw.execute("PRAGMA cache_size = -10000")

    def execute(self, sql: str, params: Sequence = ()) -> sqlite3.Cursor:
        self.statements += 1
        return self.raw.execute(sql, params)

    def executemany(self, sql: str, rows: Sequence[Sequence]
                    ) -> sqlite3.Cursor:
        self.statements += 1
        return self.raw.executemany(sql, rows)

    def executescript(self, script: str) -> None:
        self.raw.executescript(script)

    def commit(self) -> None:
        self.raw.commit()

    def rollback(self) -> None:
        self.raw.rollback()

    def close(self) -> None:
        self.raw.close()

    @property
    def total_changes(self) -> int:
        return self.raw.total_changes

    def query_plan(self, sql: str, params: Sequence = ()) -> str:
        """``EXPLAIN QUERY PLAN`` rendered as one string (for tests)."""
        rows = self.raw.execute(f"EXPLAIN QUERY PLAN {sql}", params).fetchall()
        return "\n".join(str(row[-1]) for row in rows)


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

    ``path`` names the file; ``path=":memory:"`` keeps the store in a
    private in-memory database.  ``clock`` (optional) stamps audit rows for
    destructive operations; when absent, deletes fall back to the deleted
    event's own timestamp.

    A file that an earlier release hash-sharded over N files raises
    :class:`~repro.errors.StorageError` instead of opening.
    """

    def __init__(self, path: str = ":memory:",
                 metrics: Optional[MetricsRegistry] = None,
                 clock: Optional[Clock] = None,
                 fault_injector=None) -> None:
        self._clock = clock
        #: Optional :class:`~repro.resilience.FaultInjector` consulted at
        #: the top of every :meth:`save_events` (component ``store``, key
        #: ``save_events``), before the transaction starts.
        self.fault_injector = fault_injector
        self._conn = CountingConnection(path)
        shards = self._recorded_shards()
        if shards is not None and shards != 1:
            self._conn.close()
            raise StorageError(
                f"store at {path!r} is hash-sharded over {shards} files;"
                " only one-file stores can be opened")
        self._conn.executescript(SCHEMA)
        if shards is None:
            self._conn.execute(
                "INSERT INTO store_meta (key, value) VALUES ('shards', '1')")
            self._conn.commit()
        self._seed_counters()
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
            "caop_store_batch_size", "Events persisted per event write",
            buckets=BATCH_SIZE_BUCKETS)
        self._m_enrich_batch_size = metrics.histogram(
            "caop_enrich_batch_size",
            "Events written back per apply_enrichments call",
            buckets=BATCH_SIZE_BUCKETS)

    def _recorded_shards(self) -> Optional[int]:
        """The shard count ``store_meta`` records; None for a new store.

        Reads only: a store must be checked before its schema is created.
        """
        if self._conn.execute(
                "SELECT 1 FROM sqlite_master WHERE type = 'table'"
                " AND name = 'store_meta'").fetchone() is None:
            return None
        row = self._conn.execute(
            "SELECT value FROM store_meta WHERE key = 'shards'").fetchone()
        return int(row[0]) if row is not None else None

    def _seed_counters(self) -> None:
        """Seed missing counter rows (migration path for pre-counter stores).

        Each counter counts the rows of the table it is named after.  Only
        a counter whose row is missing is counted, so opening a store that
        has its counters costs one statement here.
        """
        present = {row[0] for row in self._conn.execute(
            "SELECT name FROM counters").fetchall()}
        missing = [(table, int(self._conn.execute(
            f"SELECT COUNT(*) FROM {table}").fetchone()[0]))
            for table in ("events", "attributes", "correlations")
            if table not in present]
        if missing:
            self._conn.executemany(
                "INSERT INTO counters (name, value) VALUES (?,?)", missing)
            self._conn.commit()

    def _bump(self, name: str, delta: int) -> None:
        """Adjust one maintained counter inside the caller's transaction."""
        if delta:
            self._conn.execute(
                "UPDATE counters SET value = value + ? WHERE name = ?",
                (int(delta), name))

    def _counter(self, name: str) -> int:
        row = self._conn.execute(
            "SELECT value FROM counters WHERE name = ?", (name,)).fetchone()
        return int(row[0]) if row is not None else 0

    @contextmanager
    def _transaction(self) -> Iterator[None]:
        """Roll back on error, else commit."""
        try:
            yield
        except BaseException:
            self._conn.rollback()
            raise
        self._conn.commit()

    def _stamp(self, default: Optional[int]) -> Optional[int]:
        """The store clock's epoch seconds; ``default`` without a clock."""
        return int(self._clock.now().timestamp()) \
            if self._clock is not None else default

    def close(self) -> None:
        """Release the underlying resources."""
        self._conn.close()

    @property
    def sql_statements(self) -> int:
        """Python→storage round trips issued so far (read-only)."""
        return self._conn.statements

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

    def _decode_all(self, query: str, params: Sequence) -> List[MispEvent]:
        """Decode the blob in the first column of every row, in order."""
        rows = self._conn.execute(query, params).fetchall()
        return [self._decode(row[0]) for row in rows]

    def query_plan(self, sql: str, params: Sequence = ()) -> str:
        """``EXPLAIN QUERY PLAN`` output for one statement."""
        return self._conn.query_plan(sql, params)

    # -- events ----------------------------------------------------------------

    def save_event(self, event: MispEvent) -> None:
        """Insert or update an event with all its attributes and tags.

        Every save (and delete) is recorded in the audit log, MISP-style.
        """
        self.save_events([event])

    def save_events(self, events: Sequence[MispEvent]) -> Dict[str, str]:
        """Persist a batch of events in one transaction.

        Each event is audited as ``created``, or ``updated`` when its uuid
        is stored, and written by :meth:`_write`.  The stored rows, audit
        rows and correlation edges are those saving each event in turn
        leaves.  Returns ``uuid -> blob`` as stored (the last one for a
        uuid saved twice), so a caller can digest what it stored without
        re-encoding.  Raises :class:`~repro.errors.ValidationError`, and
        writes nothing, when the batch would give an attribute uuid a
        second owner.
        """
        events = list(events)
        if not events:
            return {}
        if self.fault_injector is not None:
            self.fault_injector.check("store", "save_events")
        return self._write(events, enriched=False)

    def apply_enrichments(self, events: Sequence[MispEvent]
                          ) -> Dict[str, str]:
        """Write one enrichment cycle back in a single transaction.

        ``events`` are fully-built eIoCs (score/breakdown attributes, galaxy
        tags and the enriched tag already applied in memory), written by
        :meth:`_write` with one ``enriched`` audit row each, so an eIoC
        costs its new attribute and tag rows, not a rewrite of every row.
        A batch may not repeat a uuid.  Returns ``uuid -> blob`` as stored,
        and refuses a second owner of an attribute uuid, like
        :meth:`save_events`.
        """
        events = list(events)
        if not events:
            return {}
        if self.fault_injector is not None:
            self.fault_injector.check("store", "apply_enrichments")
        uuids = [event.uuid for event in events]
        if len(set(uuids)) != len(uuids):
            raise StorageError(
                "apply_enrichments batch contains duplicate event uuids")
        blobs = self._write(events, enriched=True)
        self._m_enrich_batch_size.observe(len(events))
        return blobs

    def _write(self, events: List[MispEvent], enriched: bool
               ) -> Dict[str, str]:
        """Write a batch in one transaction: only the rows that differ from
        the stored ones, with the correlation edges kept current.

        A batch that repeats an event uuid is written event by event, so
        each later version finds the one before it stored; any other batch
        is written whole (:meth:`_write_part`).  Every audit row is
        ``enriched``, or ``created``/``updated``.
        ``caop_misp_attributes_stored_total`` counts the attribute rows
        written.

        An attribute uuid has one owner.  A write that would give it a
        second one raises :class:`~repro.errors.ValidationError`, and the
        transaction writes nothing: one event listing the uuid twice, two
        batch events listing it, or a new row of a uuid that an event
        outside the batch holds (the ``attributes`` primary key refuses its
        plain ``INSERT``).  A uuid that one batch event drops and another
        adds is legal, because the deletes run first.
        """
        uuids = [event.uuid for event in events]
        parts = [events] if len(set(uuids)) == len(uuids) \
            else [[event] for event in events]
        blobs: Dict[str, str] = {}
        audit_rows: List[Tuple] = []
        written = inserted = 0
        with self._transaction():
            for part in parts:
                rows, part_written, part_inserted = self._write_part(
                    part, enriched, blobs)
                audit_rows += rows
                written += part_written
                inserted += part_inserted
        for action in ("created", "updated", "enriched"):
            count = sum(1 for row in audit_rows if row[1] == action)
            if count:
                self._m_events.inc(count, action=action)
        self._m_attributes.inc(written)
        if inserted:
            self._m_correlations.inc(inserted)
        for part in parts:
            self._m_batch_size.observe(len(part))
        return blobs

    def _write_part(self, events: List[MispEvent], enriched: bool,
                    blobs: Dict[str, str]) -> Tuple[List[Tuple], int, int]:
        """Write events with distinct uuids inside :meth:`_write`'s
        transaction; returns their audit rows, the attribute rows written
        and the edges inserted, and puts each stored blob in ``blobs``.

        The events' stored tag and attribute rows are read first, in
        chunked ``IN (...)`` reads that decode nothing.  Then the write
        deletes the attribute rows dropped from their event, replaces the
        changed ones, inserts the new ones, inserts and deletes tag rows,
        ``UPDATE``s each stored event row (a ``REPLACE`` would cascade the
        attribute and tag rows away), inserts an event not stored yet and
        writes one audit row per event.

        The graph holds one edge per pair of correlatable rows with equal
        values in different events.  The write deletes the edges of each
        correlatable row it drops or changes in value or correlatable flag,
        then links each correlatable row it changed that way or added
        (:meth:`_relink`).
        """
        built = [_event_rows(event) for event in events]
        listed = [row[0] for _event_row, attribute_rows, _tags in built
                  for row in attribute_rows]
        if len(set(listed)) != len(listed):
            raise ValidationError("the write lists an attribute uuid twice")
        stored_rows, stored_tags = self._stored_rows(
            [event.uuid for event in events])

        new_events: List[Tuple] = []
        updates: List[Tuple] = []
        audit_rows: List[Tuple] = []
        added: List[Tuple] = []
        changed: List[Tuple] = []
        dropped: List[Tuple[str]] = []
        tags_added: List[Tuple[str, str]] = []
        tags_dropped: List[Tuple[str, str]] = []
        unlink: List[Tuple[str, str]] = []
        link: List[List[Tuple]] = []
        for event, (event_row, attribute_rows, tag_rows) in zip(events, built):
            blobs[event.uuid] = event_row[-1]
            stored = event.uuid in stored_tags
            action = "enriched" if enriched else (
                "updated" if stored else "created")
            audit_rows.append((event.uuid, action,
                               f"{len(attribute_rows)} attributes",
                               event_row[8]))
            if stored:
                # UPDATE binds the columns after the uuid, then the uuid.
                updates.append((*event_row[1:], event.uuid))
            else:
                new_events.append(event_row)
            before_rows = stored_rows.get(event.uuid, {})
            kept = {row[0] for row in attribute_rows}
            for uuid, before in before_rows.items():
                if uuid not in kept:
                    dropped.append((uuid,))
                    if before[6]:
                        unlink.append((event.uuid, uuid))
            linked: List[Tuple] = []
            for row in attribute_rows:
                before = before_rows.get(row[0])
                if before is None:
                    added.append(row)
                elif before == row:
                    continue
                else:
                    changed.append(row)
                    # Columns 4 and 6: value and correlatable.
                    if (before[4], before[6]) == (row[4], row[6]):
                        continue
                    if before[6]:
                        unlink.append((event.uuid, row[0]))
                if row[6]:
                    linked.append(row)
            link.append(linked)
            held_tags = stored_tags.get(event.uuid, set())
            names = {name for _uuid, name in tag_rows}
            tags_added.extend(row for row in tag_rows
                              if row[1] not in held_tags)
            tags_dropped.extend((event.uuid, name)
                                for name in sorted(held_tags - names))

        conn = self._conn
        if new_events:
            conn.executemany(
                f"INSERT INTO events ({_EVENT_COLS})"
                " VALUES (?,?,?,?,?,?,?,?,?,?)", new_events)
        if updates:
            conn.executemany(
                "UPDATE events SET info = ?, date = ?, org = ?,"
                " threat_level_id = ?, analysis = ?, distribution = ?,"
                " published = ?, timestamp = ?, blob = ?"
                " WHERE uuid = ?", updates)
        # Deletes first: a dropped row's uuid may come back on another
        # event of the batch.
        if dropped:
            conn.executemany(
                "DELETE FROM attributes WHERE uuid = ?", dropped)
        if changed:
            conn.executemany(
                f"INSERT OR REPLACE INTO attributes ({_ATTRIBUTE_COLS})"
                " VALUES (?,?,?,?,?,?,?,?)", changed)
        if added:
            try:
                conn.executemany(
                    f"INSERT INTO attributes ({_ATTRIBUTE_COLS})"
                    " VALUES (?,?,?,?,?,?,?,?)", added)
            except sqlite3.IntegrityError as exc:
                raise ValidationError(
                    "an attribute uuid of the write belongs to another"
                    f" event: {exc}") from exc
        if tags_dropped:
            conn.executemany(
                "DELETE FROM event_tags WHERE event_uuid = ?"
                " AND name = ?", tags_dropped)
        if tags_added:
            conn.executemany(
                "INSERT OR IGNORE INTO event_tags (event_uuid, name)"
                " VALUES (?,?)", tags_added)
        conn.executemany(
            "INSERT INTO audit_log (event_uuid, action, detail,"
            " logged_at) VALUES (?,?,?,?)", audit_rows)
        removed, inserted = self._relink(events, unlink, link)
        self._bump("events", len(new_events))
        self._bump("attributes", len(added) - len(dropped))
        self._bump("correlations", inserted - removed)
        return audit_rows, len(added) + len(changed), inserted

    def _relink(self, events: List[MispEvent],
                unlink: Sequence[Tuple[str, str]],
                link: Sequence[Sequence[Tuple]]) -> Tuple[int, int]:
        """Keep the correlation graph current inside :meth:`_write`'s
        transaction; returns ``(edges deleted, edges inserted)``.

        ``unlink`` names ``(event, attribute)`` rows whose edges go: the
        two endpoint-event indexes find them.  ``link[i]`` holds the
        attribute rows of ``events[i]`` to link, each against every stored
        correlatable row with its value in another event, found by one
        chunked probe.  A pair of two rows being linked gets one edge, from
        the later batch member's side: event *i* links rows stored before
        it and rows of batch members *j < i*, and a later member's row only
        when that row is not being linked (it was linked when stored).
        """
        conn = self._conn
        removed = inserted = 0
        if unlink:
            before = conn.total_changes
            conn.executemany(
                "DELETE FROM correlations"
                " WHERE (source_event = ? AND source_attribute = ?)"
                " OR (target_event = ? AND target_attribute = ?)",
                [(event, uuid, event, uuid) for event, uuid in unlink])
            removed = conn.total_changes - before
        values = [row[4] for rows in link for row in rows]
        if not values:
            return removed, inserted
        matches = self.correlatable_attributes_many(values)
        order = {event.uuid: index for index, event in enumerate(events)}
        linking = {row[0] for rows in link for row in rows}
        edges: List[Tuple[str, str, str, str, str]] = []
        for index, rows in enumerate(link):
            for uuid, event_uuid, _type, _category, value, *_rest in rows:
                for other_event, other in matches[value]:
                    if other_event == event_uuid or (
                            other in linking and order[other_event] >= index):
                        continue
                    edges.append((uuid, other, event_uuid, other_event, value))
        if edges:
            before = conn.total_changes
            conn.executemany(
                "INSERT OR IGNORE INTO correlations VALUES (?,?,?,?,?)",
                edges)
            inserted = conn.total_changes - before
        return removed, inserted

    def _stored_rows(self, uuids: Sequence[str]
                     ) -> Tuple[Dict[str, Dict[str, Tuple]],
                                Dict[str, Set[str]]]:
        """The stored ``attributes`` rows (``event -> attribute uuid ->
        row``) and tag names (``event -> names``) of some events.

        Chunked ``IN (...)`` reads, no decode.  Only stored events have an
        entry in the tag map, an empty set when they carry no tag; the tag
        read is the existence probe, so only stored events' attribute rows
        are read.
        """
        rows: Dict[str, Dict[str, Tuple]] = {}
        tags: Dict[str, Set[str]] = {}
        for chunk in chunks(list(uuids), chunk_size()):
            for uuid, name in self._conn.execute(
                    "SELECT events.uuid, event_tags.name FROM events"
                    " LEFT JOIN event_tags"
                    " ON event_tags.event_uuid = events.uuid"
                    f" WHERE events.uuid IN ({_marks(chunk)})",
                    chunk).fetchall():
                names = tags.setdefault(uuid, set())
                if name is not None:
                    names.add(name)
        for chunk in chunks(list(tags), chunk_size()):
            for row in self._conn.execute(
                    f"SELECT {_ATTRIBUTE_COLS} FROM attributes"
                    f" WHERE event_uuid IN ({_marks(chunk)})",
                    chunk).fetchall():
                rows.setdefault(row[1], {})[row[0]] = tuple(row)
        return rows, tags

    def has_event(self, uuid: str) -> bool:
        """Whether an event uuid is stored."""
        row = self._conn.execute(
            "SELECT 1 FROM events WHERE uuid = ?", (uuid,)).fetchone()
        return row is not None

    def get_event(self, uuid: str) -> Optional[MispEvent]:
        """Fetch one event by uuid."""
        row = self._conn.execute(
            "SELECT blob FROM events WHERE uuid = ?", (uuid,)).fetchone()
        return self._decode(row[0]) if row is not None else None

    def get_events(self, uuids: Sequence[str],
                   handed: Optional[Handed] = None
                   ) -> Dict[str, Optional[MispEvent]]:
        """Batch-fetch events with chunked ``IN (...)`` queries.

        Returns ``uuid -> event`` for every requested uuid, preserving the
        request order; uuids with no stored event map to ``None``.  N lookups
        cost ``ceil(N / chunk)`` round trips instead of N.

        ``handed`` events stand in for their stored rows: one is returned
        as is while the stored blob's :func:`blob_digest` equals the digest
        it is handed with, that is while it is the decode of the stored
        blob.  Only the other rows are decoded.  The store keeps no object
        cache; a caller passes what it holds.
        """
        blobs: Dict[str, Optional[str]] = {uuid: None for uuid in uuids}
        for chunk in chunks(list(blobs), chunk_size()):
            rows = self._conn.execute(
                f"SELECT uuid, blob FROM events WHERE uuid IN"
                f" ({_marks(chunk)})", chunk).fetchall()
            blobs.update(rows)
        handed = handed or {}
        events: Dict[str, Optional[MispEvent]] = {}
        for uuid, blob in blobs.items():
            entry = handed.get(uuid)
            if blob is None:
                events[uuid] = None
            elif entry is not None and entry[0] == blob_digest(blob):
                events[uuid] = entry[1]
            else:
                events[uuid] = self._decode(blob)
        return events

    def event_digests(self, uuids: Sequence[str]
                      ) -> Dict[str, Optional[Tuple[int, str]]]:
        """``uuid -> (epoch timestamp, content digest)`` without decoding.

        The digest is the sha256 of the stored blob, which holds the
        event's :func:`~repro.misp.export.canonical_json` bytes, so it
        equals :func:`~repro.sharing.sync.event_digest` of the decoded
        event.  Chunked ``SELECT`` statements, request order kept,
        absent uuids map to ``None``; ``payloads_deserialized`` does not
        move.  The anti-entropy receiver probes an offer with it.
        """
        result: Dict[str, Optional[Tuple[int, str]]] = {
            uuid: None for uuid in uuids}
        for chunk in chunks(list(result), chunk_size()):
            rows = self._conn.execute(
                f"SELECT uuid, timestamp, blob FROM events WHERE uuid IN"
                f" ({_marks(chunk)})", chunk).fetchall()
            result.update((uuid, (int(ts), blob_digest(blob)))
                          for uuid, ts, blob in rows)
        return result

    def release_fields(self, uuids: Sequence[str]
                       ) -> Dict[str, Optional[Tuple[int, int, str,
                                                     Tuple[str, ...]]]]:
        """``uuid -> (distribution, epoch timestamp, content digest, tag
        names)`` without decoding.

        What a release decision reads of an event, from its columns and
        tag rows: the digest is :meth:`event_digests`' sha256 of the stored
        blob, and the tag names come sorted.  Chunked ``SELECT`` statements
        shaped like :meth:`event_digests`; ``payloads_deserialized`` does
        not move.  The anti-entropy offer index is built from it.
        """
        result: Dict[str, Optional[Tuple[int, int, str, Tuple[str, ...]]]] = {
            uuid: None for uuid in uuids}
        for chunk in chunks(list(result), chunk_size()):
            rows = self._conn.execute(
                "SELECT uuid, distribution, timestamp, blob,"
                " (SELECT json_group_array(name) FROM event_tags"
                "  WHERE event_uuid = events.uuid)"
                f" FROM events WHERE uuid IN ({_marks(chunk)})",
                chunk).fetchall()
            result.update(
                (uuid, (int(distribution), int(ts), blob_digest(blob),
                        tuple(sorted(json.loads(names)))))
                for uuid, distribution, ts, blob, names in rows)
        return result

    def events_with_tag(self, tag: str, uuids: Sequence[str]) -> Set[str]:
        """Which of the given event uuids carry a tag (one chunked query)."""
        found: Set[str] = set()
        for chunk in chunks(list(dict.fromkeys(uuids)),
                            chunk_size(reserved=1)):
            rows = self._conn.execute(
                "SELECT DISTINCT event_uuid FROM event_tags"
                f" WHERE name = ? AND event_uuid IN ({_marks(chunk)})",
                [tag, *chunk]).fetchall()
            found.update(row[0] for row in rows)
        return found

    def delete_event(self, uuid: str) -> bool:
        """Delete an event with its attributes, tags and correlation edges
        in one transaction."""
        logged_at = self._stamp(None)
        conn = self._conn
        with self._transaction():
            row = conn.execute(
                "SELECT timestamp FROM events WHERE uuid = ?",
                (uuid,)).fetchone()
            if row is None:
                return False
            attributes = conn.execute(
                "DELETE FROM attributes WHERE event_uuid = ?",
                (uuid,)).rowcount
            edges = conn.execute(
                "DELETE FROM correlations"
                " WHERE source_event = ? OR target_event = ?",
                (uuid, uuid)).rowcount
            conn.execute("DELETE FROM events WHERE uuid = ?", (uuid,))
            conn.execute(
                "INSERT INTO audit_log (event_uuid, action, detail,"
                " logged_at) VALUES (?,?,?,?)",
                (uuid, "deleted", "",
                 int(row[0]) if logged_at is None else logged_at))
            self._bump("events", -1)
            self._bump("attributes", -attributes)
            self._bump("correlations", -edges)
        return True

    def event_history(self, uuid: str) -> List[Dict[str, Any]]:
        """The audit trail of one event, oldest first."""
        rows = self._conn.execute(
            "SELECT seq, action, detail, logged_at FROM audit_log"
            " WHERE event_uuid = ? ORDER BY seq", (uuid,)).fetchall()
        return [{"seq": r[0], "action": r[1], "detail": r[2],
                 "logged_at": r[3]} for r in rows]

    def audit_count(self) -> int:
        """Total audit-log rows."""
        return self._conn.execute(
            "SELECT COUNT(*) FROM audit_log").fetchone()[0]

    # -- provenance (lineage) -----------------------------------------------------

    def add_provenance(self, rows: Sequence[Any]) -> int:
        """Append lineage rows in one batch transaction.

        ``rows`` are :class:`~repro.obs.provenance.ProvenanceEvent`-shaped
        objects (attribute access; no import needed here).  Insertion order
        is preserved by the autoincrement ``seq``, so callers that buffer
        in deterministic order persist in deterministic order.
        """
        values = [(r.trace_id, r.event_uuid, r.kind, r.actor, r.org,
                   r.detail, int(r.cycle), int(r.logged_at)) for r in rows]
        if not values:
            return 0
        with self._transaction():
            self._conn.executemany(
                "INSERT INTO provenance (trace_id, event_uuid, kind, actor,"
                " org, detail, cycle, logged_at) VALUES (?,?,?,?,?,?,?,?)",
                values)
        return len(values)

    def provenance_for_event(self, event_uuid: str) -> List[Dict[str, Any]]:
        """One event's lineage rows, oldest first."""
        rows = self._conn.execute(
            f"SELECT {_PROVENANCE_COLS} FROM provenance"
            " WHERE event_uuid = ? ORDER BY seq", (event_uuid,)).fetchall()
        return [_provenance_row(row) for row in rows]

    def provenance_for_events(self, event_uuids: Sequence[str]
                              ) -> Dict[str, List[Dict[str, Any]]]:
        """Many events' lineage rows (oldest first) in chunked queries.

        Returns ``uuid -> rows`` for every requested uuid (empty list when
        an event has no lineage).
        """
        result: Dict[str, List[Dict[str, Any]]] = {
            uuid: [] for uuid in event_uuids}
        for chunk in chunks(list(result), chunk_size()):
            rows = self._conn.execute(
                f"SELECT {_PROVENANCE_COLS} FROM provenance WHERE event_uuid"
                f" IN ({_marks(chunk)}) ORDER BY seq", chunk).fetchall()
            for row in rows:
                result[row[2]].append(_provenance_row(row))
        return result

    def provenance_for_trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """Every lineage row carrying one trace id, oldest first."""
        rows = self._conn.execute(
            f"SELECT {_PROVENANCE_COLS} FROM provenance"
            " WHERE trace_id = ? ORDER BY seq", (trace_id,)).fetchall()
        return [_provenance_row(row) for row in rows]

    def provenance_count(self) -> int:
        """Total lineage rows."""
        return self._conn.execute(
            "SELECT COUNT(*) FROM provenance").fetchone()[0]

    def latest_traced_event(self) -> Optional[str]:
        """The event uuid of the newest lineage row (demo/CLI convenience)."""
        row = self._conn.execute(
            "SELECT event_uuid FROM provenance"
            " ORDER BY seq DESC LIMIT 1").fetchone()
        return row[0] if row is not None else None

    # -- delta-sync ledger --------------------------------------------------------

    def max_audit_seq(self) -> int:
        """The highest audit-log sequence number written so far (0 if none).

        The audit sequence is the store's monotonic change cursor: every
        save/enrich/delete lands one row, so "what changed since seq S" is a
        complete delta regardless of whether the edit bumped the event's own
        timestamp.  The sharing gateway closes each cycle's feed window here.
        """
        row = self._conn.execute(
            "SELECT MAX(seq) FROM audit_log").fetchone()
        return int(row[0]) if row and row[0] is not None else 0

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
        query = ("SELECT seq, event_uuid, action, logged_at FROM audit_log"
                 " WHERE seq > ?")
        params: List[Any] = [int(after_seq)]
        if until_seq is not None:
            query += " AND seq <= ?"
            params.append(int(until_seq))
        query += " ORDER BY seq"
        rows = self._conn.execute(query, params).fetchall()
        return [StoreChange(int(r[0]), r[1], r[2], int(r[3])) for r in rows]

    # -- rollup cursors -------------------------------------------------------

    def get_rollup(self, name: str) -> Optional[Tuple[int, str]]:
        """``(position, state)`` of one persisted rollup cursor, or None."""
        row = self._conn.execute(
            "SELECT position, state FROM rollup_state WHERE name = ?",
            (name,)).fetchone()
        return (int(row[0]), row[1]) if row is not None else None

    def set_rollup(self, name: str, position: int, state: str = "",
                   rows: Optional[Mapping[str, Optional[str]]] = None
                   ) -> None:
        """Persist a rollup cursor (stamped on the store clock).

        ``rows`` maps the rollup's changed keys to their new JSON values
        (``None`` deletes the key's row); they are written in the same
        transaction as the position, in at most three statements however
        many rows.  Lives in the ``rollup_state`` and ``rollup_rows``
        tables, deliberately outside the sync ledger: federation
        fingerprints fold ``sync_watermarks()``, and how far local view
        maintenance has read must not perturb them.
        """
        logged_at = self._stamp(0)
        rows = rows or {}
        upserts = [(name, key, value) for key, value in rows.items()
                   if value is not None]
        dropped = [(name, key) for key, value in rows.items()
                   if value is None]
        with self._transaction():
            if upserts:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO rollup_rows (name, key, value)"
                    " VALUES (?,?,?)", upserts)
            if dropped:
                self._conn.executemany(
                    "DELETE FROM rollup_rows WHERE name = ? AND key = ?",
                    dropped)
            self._conn.execute(
                "INSERT OR REPLACE INTO rollup_state (name, position,"
                " state, updated_at) VALUES (?,?,?,?)",
                (name, int(position), state, logged_at))

    def rollup_rows(self, name: str) -> List[Tuple[str, str]]:
        """``(key, JSON value)`` checkpoint rows of one rollup, by key."""
        return self._conn.execute(
            "SELECT key, value FROM rollup_rows WHERE name = ? ORDER BY key",
            (name,)).fetchall()

    def rollup_names(self) -> List[str]:
        """Names of every persisted rollup cursor, sorted."""
        rows = self._conn.execute(
            "SELECT name FROM rollup_state ORDER BY name").fetchall()
        return [row[0] for row in rows]

    def get_sync_watermark(self, entity: str) -> int:
        """The audit-seq watermark of one sync entity (0 when never synced)."""
        row = self._conn.execute(
            "SELECT watermark FROM sync_state WHERE entity = ?",
            (entity,)).fetchone()
        return int(row[0]) if row is not None else 0

    def set_sync_watermark(self, entity: str, watermark: int) -> None:
        """Persist an entity's watermark (stamped on the store clock)."""
        logged_at = self._stamp(0)
        with self._transaction():
            self._conn.execute(
                "INSERT OR REPLACE INTO sync_state (entity, watermark,"
                " updated_at) VALUES (?,?,?)",
                (entity, int(watermark), logged_at))

    def sync_watermarks(self) -> Dict[str, int]:
        """Every persisted entity watermark (entity -> audit seq)."""
        rows = self._conn.execute(
            "SELECT entity, watermark FROM sync_state ORDER BY entity"
        ).fetchall()
        return {row[0]: int(row[1]) for row in rows}

    def get_sync_digests(self, entity: str,
                         uuids: Sequence[str]) -> Dict[str, str]:
        """Last successfully-synced content digests for one entity.

        Returns ``event_uuid -> digest`` for the requested uuids that have a
        ledger row (chunked ``IN (...)`` lookups); absent uuids are simply
        missing from the result.
        """
        found: Dict[str, str] = {}
        for chunk in chunks(list(dict.fromkeys(uuids)),
                            chunk_size(reserved=1)):
            rows = self._conn.execute(
                "SELECT event_uuid, digest FROM sync_digests"
                f" WHERE entity = ? AND event_uuid IN ({_marks(chunk)})",
                [entity, *chunk]).fetchall()
            found.update(rows)
        return found

    def set_sync_digests(self, entity: str,
                         digests: Mapping[str, str]) -> None:
        """Record one cycle's synced digests in a single ``executemany``."""
        if not digests:
            return
        with self._transaction():
            self._conn.executemany(
                "INSERT OR REPLACE INTO sync_digests"
                " (entity, event_uuid, digest) VALUES (?,?,?)",
                [(entity, uuid, digest)
                 for uuid, digest in digests.items()])

    def sync_digest_count(self, entity: Optional[str] = None) -> int:
        """Ledger rows, optionally for one entity."""
        if entity is None:
            return self._conn.execute(
                "SELECT COUNT(*) FROM sync_digests").fetchone()[0]
        return self._conn.execute(
            "SELECT COUNT(*) FROM sync_digests WHERE entity = ?",
            (entity,)).fetchone()[0]

    def sync_digest_rows(self) -> List[Tuple[str, str, str]]:
        """Every ledger row as ``(entity, event_uuid, digest)``, sorted.

        The full-state view federation fingerprints fold in, so two stores
        agree only when their sync ledgers agree too.
        """
        rows = self._conn.execute(
            "SELECT entity, event_uuid, digest FROM sync_digests"
            " ORDER BY entity, event_uuid").fetchall()
        return [(row[0], row[1], row[2]) for row in rows]

    def event_count(self) -> int:
        """Number of stored events (O(1): maintained counter)."""
        return self._counter("events")

    def attribute_count(self) -> int:
        """Number of stored attributes (O(1): maintained counter)."""
        return self._counter("attributes")

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
        query = "SELECT blob FROM events"
        params: List[Any] = []
        clauses: List[str] = []
        if published_only:
            clauses.append("published = 1")
        if since is not None:
            clauses.append("timestamp >= ?")
            params.append(int(since.timestamp()))
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY timestamp DESC, uuid"
        if limit is not None:
            query += " LIMIT ?"
            params.append(int(limit))
        return self._decode_all(query, params)

    # -- search -------------------------------------------------------------------

    def search_value(self, value: str) -> List[Tuple[str, str]]:
        """Exact value search: returns (event_uuid, attribute_uuid) pairs."""
        rows = self._conn.execute(
            "SELECT event_uuid, uuid FROM attributes"
            " WHERE value = ? ORDER BY rowid", (value,)).fetchall()
        return [(r[0], r[1]) for r in rows]

    def search_events(self, info_substring: Optional[str] = None,
                      tag: Optional[str] = None,
                      attribute_type: Optional[str] = None,
                      value: Optional[str] = None) -> List[MispEvent]:
        """Filtered event search across the relational tables."""
        query = "SELECT DISTINCT e.blob, e.timestamp, e.uuid FROM events e"
        clauses: List[str] = []
        params: List[Any] = []
        if tag is not None:
            query += " JOIN event_tags t ON t.event_uuid = e.uuid"
            clauses.append("t.name = ?")
            params.append(tag)
        if attribute_type is not None or value is not None:
            query += " JOIN attributes a ON a.event_uuid = e.uuid"
            if attribute_type is not None:
                clauses.append("a.type = ?")
                params.append(attribute_type)
            if value is not None:
                clauses.append("a.value = ?")
                params.append(value)
        if info_substring is not None:
            clauses.append("e.info LIKE ?")
            params.append(f"%{info_substring}%")
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        return self._decode_all(
            query + " ORDER BY e.timestamp DESC, e.uuid", params)

    def correlatable_attributes_many(
            self, values: Sequence[str]
    ) -> Dict[str, List[Tuple[str, str]]]:
        """Resolve many correlatable values with chunked ``IN`` queries.

        Returns ``value -> [(event_uuid, attribute_uuid), ...]`` for the
        rows that may correlate (``correlatable = 1``), in insertion order
        per value; values with no match map to an empty list.
        """
        result: Dict[str, List[Tuple[str, str]]] = {
            value: [] for value in values}
        for chunk in chunks(list(result), chunk_size()):
            rows = self._conn.execute(
                "SELECT value, event_uuid, uuid FROM attributes"
                f" WHERE correlatable = 1 AND value IN ({_marks(chunk)})"
                " ORDER BY rowid", chunk).fetchall()
            for value, event_uuid, attribute_uuid in rows:
                result[value].append((event_uuid, attribute_uuid))
        return result

    # -- correlations --------------------------------------------------------------

    def correlations_for_event(self, event_uuid: str) -> List[Dict[str, str]]:
        """Correlation rows touching one event."""
        # The two endpoint indexes find the event's rows (a MULTI-INDEX OR
        # plan), so the read's cost follows the event's own edges.
        rows = self._conn.execute(
            f"SELECT {_CORRELATION_COLS} FROM correlations"
            " WHERE source_event = ? OR target_event = ? ORDER BY rowid",
            (event_uuid, event_uuid)).fetchall()
        return [_correlation_row(r) for r in rows]

    def correlations_for_events(
            self, uuids: Sequence[str]) -> Dict[str, List[Dict[str, str]]]:
        """Correlation rows touching each of many events, batched.

        Returns ``uuid -> rows`` for every requested uuid (empty list when
        an event has no correlations); a row linking two requested events
        appears under both.  Row order per event matches
        :meth:`correlations_for_event` (insertion order).
        """
        result: Dict[str, List[Dict[str, str]]] = {uuid: [] for uuid in uuids}
        # Each uuid binds twice (source IN + target IN), so the chunk size
        # halves to stay inside the bound-variable budget.
        for chunk in chunks(list(result), chunk_size(per_item=2)):
            members = set(chunk)
            marks = _marks(chunk)
            rows = self._conn.execute(
                f"SELECT {_CORRELATION_COLS} FROM correlations"
                f" WHERE source_event IN ({marks})"
                f" OR target_event IN ({marks}) ORDER BY rowid",
                [*chunk, *chunk]).fetchall()
            for r in rows:
                row = _correlation_row(r)
                # Attach only to this chunk's members: a row whose two sides
                # land in different chunks is returned by both queries.
                for side in {r[2], r[3]}:
                    if side in members:
                        result[side].append(row)
        return result

    def correlation_count(self) -> int:
        """Total stored correlation edges (O(1): maintained counter)."""
        return self._counter("correlations")
