"""The MISP store's SQLite engine: one file, or one ``:memory:`` database.

:class:`SQLiteBackend` keeps every table on one connection:

- the event tables (``events``, ``attributes``, ``event_tags``,
  ``correlations``).  Value probes (value search, correlation candidates)
  read ``attributes`` through the composite ``(value, type)`` index, and
  ``correlations`` is indexed by both endpoint events, so a read of an
  event's rows searches two indexes instead of walking the table;
- the ``audit_log`` (the store's monotonic change feed), ``provenance``,
  ``sync_state``/``sync_digests``, ``rollup_state``/``rollup_rows``, the
  O(1) ``counters`` and ``store_meta``.

Every write method is one transaction, so readers never see half a batch.
``store_meta`` records the layout as ``shards = 1``.  Earlier releases could
hash-shard a store over a catalog plus ``<path>.shard-NN`` files; opening a
file whose ``store_meta`` records more than one shard raises
:class:`~repro.errors.StorageError` before any table is created.

Chunked queries derive their chunk size from the shared
:data:`~repro.misp.storage.base.MAX_BOUND_VARS` budget, so no query can
exceed SQLite's bound-variable limit however many uuids a cycle carries.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ...errors import StorageError
from .base import PersistBatch, chunk_size, chunks

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


def provenance_row(raw: Sequence[Any]) -> Dict[str, Any]:
    """Dict-shape one provenance row."""
    return {"seq": raw[0], "trace_id": raw[1], "event_uuid": raw[2],
            "kind": raw[3], "actor": raw[4], "org": raw[5],
            "detail": raw[6], "cycle": raw[7], "logged_at": raw[8]}


def correlation_row(raw: Sequence[str]) -> Dict[str, str]:
    """Dict-shape one ``correlations`` row."""
    return {"source_attribute": raw[0], "target_attribute": raw[1],
            "source_event": raw[2], "target_event": raw[3], "value": raw[4]}


def _marks(chunk: Sequence) -> str:
    """``?,?,…`` placeholders for one ``IN (...)`` chunk."""
    return ",".join("?" * len(chunk))


class CountingConnection:
    """A SQLite connection that counts Python→SQLite round trips.

    The counter feeds ``MispStore.sql_statements`` so the SQL-budget benches
    can prove a path's statement count.  ``check_same_thread=False`` because
    the sharing fan-out hands remote stores to worker threads (serialized
    behind the gateway's transport lock).
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


def recorded_shards(conn: CountingConnection) -> Optional[int]:
    """The shard count ``store_meta`` records; None for a new store.

    Reads only: a store must be checked before its schema is created.
    """
    if conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table'"
            " AND name = 'store_meta'").fetchone() is None:
        return None
    row = conn.execute(
        "SELECT value FROM store_meta WHERE key = 'shards'").fetchone()
    return int(row[0]) if row is not None else None


def init_counters(conn: CountingConnection,
                  seeds: Mapping[str, Callable[[], int]]) -> None:
    """Seed missing counter rows (migration path for pre-counter stores).

    ``seeds`` maps each counter to a function that counts it from scratch;
    only a counter whose row is missing is counted, so opening a store
    that has its counters costs one statement here.
    """
    present = {row[0] for row in conn.execute(
        "SELECT name FROM counters").fetchall()}
    missing = [(name, int(count())) for name, count in seeds.items()
               if name not in present]
    if missing:
        conn.executemany(
            "INSERT INTO counters (name, value) VALUES (?,?)", missing)
        conn.commit()


def bump_counter(conn: CountingConnection, name: str, delta: int) -> None:
    """Adjust one maintained counter inside the caller's transaction."""
    if delta:
        conn.execute(
            "UPDATE counters SET value = value + ? WHERE name = ?",
            (int(delta), name))


def read_counter(conn: CountingConnection, name: str) -> int:
    row = conn.execute(
        "SELECT value FROM counters WHERE name = ?", (name,)).fetchone()
    return int(row[0]) if row is not None else 0


class SQLiteBackend:
    """The store's one engine: every table in one SQLite database.

    ``path`` names the file; ``path=":memory:"`` keeps the store in a
    private in-memory database.  Refuses a file whose ``store_meta``
    records more than one shard (an earlier release's hash-sharded layout).
    Every write method is atomic per call.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self._conn = CountingConnection(path)
        shards = recorded_shards(self._conn)
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
        init_counters(self._conn, {
            "events": lambda: self._count("events"),
            "attributes": lambda: self._count("attributes"),
            "correlations": lambda: self._count("correlations"),
        })

    def _count(self, table: str) -> int:
        return self._conn.execute(
            f"SELECT COUNT(*) FROM {table}").fetchone()[0]

    @contextmanager
    def _transaction(self) -> Iterator[None]:
        """Roll back on error, else commit."""
        try:
            yield
        except BaseException:
            self._conn.rollback()
            raise
        self._conn.commit()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    @property
    def sql_statements(self) -> int:
        """Python→SQLite round trips issued so far."""
        return self._conn.statements

    def query_plan(self, sql: str, params: Sequence = ()) -> str:
        """The planner's choice for one statement."""
        return self._conn.query_plan(sql, params)

    # -- events -------------------------------------------------------------

    def existing_events(self, uuids: Sequence[str]) -> Set[str]:
        """Which of ``uuids`` are already stored."""
        existing: Set[str] = set()
        for chunk in chunks(list(uuids), chunk_size()):
            rows = self._conn.execute(
                f"SELECT uuid FROM events WHERE uuid IN ({_marks(chunk)})",
                chunk).fetchall()
            existing.update(row[0] for row in rows)
        return existing

    def persist_batch(self, batch: PersistBatch) -> None:
        """Apply one save cycle atomically."""
        conn = self._conn
        deletes = [(uuid,) for uuid in batch.uuids]
        with self._transaction():
            # Delete replaced attribute rows before the events upsert, whose
            # REPLACE would cascade them away uncounted.
            before = conn.total_changes
            conn.executemany(
                "DELETE FROM attributes WHERE event_uuid = ?", deletes)
            replaced = conn.total_changes - before
            conn.executemany(
                "INSERT OR REPLACE INTO events "
                "(uuid, info, date, org, threat_level_id, analysis,"
                " distribution, published, timestamp, blob)"
                " VALUES (?,?,?,?,?,?,?,?,?,?)", batch.event_rows)
            conn.executemany(
                "DELETE FROM event_tags WHERE event_uuid = ?", deletes)
            conn.executemany(
                "INSERT OR REPLACE INTO attributes "
                "(uuid, event_uuid, type, category, value, to_ids,"
                " correlatable, timestamp) VALUES (?,?,?,?,?,?,?,?)",
                batch.attribute_rows)
            if batch.tag_rows:
                conn.executemany(
                    "INSERT OR IGNORE INTO event_tags (event_uuid, name)"
                    " VALUES (?,?)", batch.tag_rows)
            conn.executemany(
                "INSERT INTO audit_log (event_uuid, action, detail,"
                " logged_at) VALUES (?,?,?,?)", batch.audit_rows)
            bump_counter(conn, "events", batch.new_events)
            bump_counter(conn, "attributes",
                         len(batch.attribute_rows) - replaced)

    def has_event(self, uuid: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM events WHERE uuid = ?", (uuid,)).fetchone()
        return row is not None

    def get_event_blob(self, uuid: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT blob FROM events WHERE uuid = ?", (uuid,)).fetchone()
        return row[0] if row is not None else None

    def get_event_blobs(self, uuids: Sequence[str]
                        ) -> Dict[str, Optional[str]]:
        """Batch blob fetch preserving request order; absent uuids → None."""
        result: Dict[str, Optional[str]] = {uuid: None for uuid in uuids}
        for chunk in chunks(list(result), chunk_size()):
            rows = self._conn.execute(
                f"SELECT uuid, blob FROM events WHERE uuid IN"
                f" ({_marks(chunk)})", chunk).fetchall()
            result.update(rows)
        return result

    def get_event_stamps(self, uuids: Sequence[str]
                         ) -> Dict[str, Optional[Tuple[int, str]]]:
        """Batch ``uuid → (timestamp, blob)`` fetch, like
        :meth:`get_event_blobs`; absent uuids → None."""
        result: Dict[str, Optional[Tuple[int, str]]] = {
            uuid: None for uuid in uuids}
        for chunk in chunks(list(result), chunk_size()):
            rows = self._conn.execute(
                f"SELECT uuid, timestamp, blob FROM events WHERE uuid IN"
                f" ({_marks(chunk)})", chunk).fetchall()
            result.update((uuid, (int(ts), blob)) for uuid, ts, blob in rows)
        return result

    def events_with_tag(self, tag: str, uuids: Sequence[str]) -> Set[str]:
        found: Set[str] = set()
        for chunk in chunks(list(dict.fromkeys(uuids)),
                            chunk_size(reserved=1)):
            rows = self._conn.execute(
                "SELECT DISTINCT event_uuid FROM event_tags"
                f" WHERE name = ? AND event_uuid IN ({_marks(chunk)})",
                [tag, *chunk]).fetchall()
            found.update(row[0] for row in rows)
        return found

    def delete_event(self, uuid: str,
                     logged_at: Optional[int] = None) -> bool:
        """Delete an event with its attributes and correlation edges;
        ``logged_at`` stamps the audit row (falls back to the deleted
        event's own timestamp)."""
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
            bump_counter(conn, "events", -1)
            bump_counter(conn, "attributes", -attributes)
            bump_counter(conn, "correlations", -edges)
        return True

    def _blobs(self, query: str, params: Sequence) -> List[str]:
        """The first column of every row, in query order."""
        return [row[0] for row in self._conn.execute(query, params)]

    def list_event_blobs(self, limit: Optional[int] = None,
                         published_only: bool = False,
                         since_ts: Optional[int] = None) -> List[str]:
        """Blobs ordered by ``timestamp DESC, uuid``.

        ``since_ts`` keeps only events whose integer epoch timestamp is
        ``>= since_ts`` — a storage-side prefilter for time-windowed reads.
        """
        query = "SELECT blob FROM events"
        params: List[Any] = []
        clauses: List[str] = []
        if published_only:
            clauses.append("published = 1")
        if since_ts is not None:
            clauses.append("timestamp >= ?")
            params.append(int(since_ts))
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY timestamp DESC, uuid"
        if limit is not None:
            query += " LIMIT ?"
            params.append(int(limit))
        return self._blobs(query, params)

    def event_count(self) -> int:
        """O(1): maintained counter, not ``COUNT(*)``."""
        return read_counter(self._conn, "events")

    def attribute_count(self) -> int:
        """O(1): maintained counter, not ``COUNT(*)``."""
        return read_counter(self._conn, "attributes")

    # -- audit --------------------------------------------------------------

    def event_history(self, uuid: str) -> List[Dict[str, Any]]:
        rows = self._conn.execute(
            "SELECT seq, action, detail, logged_at FROM audit_log"
            " WHERE event_uuid = ? ORDER BY seq", (uuid,)).fetchall()
        return [{"seq": r[0], "action": r[1], "detail": r[2],
                 "logged_at": r[3]} for r in rows]

    def audit_count(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM audit_log").fetchone()[0]

    def max_audit_seq(self) -> int:
        row = self._conn.execute(
            "SELECT MAX(seq) FROM audit_log").fetchone()
        return int(row[0]) if row and row[0] is not None else 0

    def changes_since(self, after_seq: int,
                      until_seq: Optional[int] = None
                      ) -> List[Tuple[int, str, str, int]]:
        """Raw audit rows ``(seq, event_uuid, action, logged_at)`` in
        ``(after_seq, until_seq]``, ordered by seq ascending (``deleted``
        actions kept)."""
        query = ("SELECT seq, event_uuid, action, logged_at FROM audit_log"
                 " WHERE seq > ?")
        params: List[Any] = [int(after_seq)]
        if until_seq is not None:
            query += " AND seq <= ?"
            params.append(int(until_seq))
        query += " ORDER BY seq"
        rows = self._conn.execute(query, params).fetchall()
        return [(int(r[0]), r[1], r[2], int(r[3])) for r in rows]

    # -- rollup cursors -------------------------------------------------------

    def get_rollup(self, name: str) -> Optional[Tuple[int, str]]:
        row = self._conn.execute(
            "SELECT position, state FROM rollup_state WHERE name = ?",
            (name,)).fetchone()
        return (int(row[0]), row[1]) if row is not None else None

    def set_rollup(self, name: str, position: int, state: str = "",
                   logged_at: int = 0,
                   rows: Optional[Mapping[str, Optional[str]]] = None
                   ) -> None:
        """Cursor row plus changed ``rollup_rows`` (``None`` deletes) in
        one transaction; at most three statements however many rows."""
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
                (name, int(position), state, int(logged_at)))

    def rollup_rows(self, name: str) -> List[Tuple[str, str]]:
        """``(key, value)`` rows of one rollup, ordered by key."""
        return self._conn.execute(
            "SELECT key, value FROM rollup_rows WHERE name = ? ORDER BY key",
            (name,)).fetchall()

    def rollup_names(self) -> List[str]:
        rows = self._conn.execute(
            "SELECT name FROM rollup_state ORDER BY name").fetchall()
        return [row[0] for row in rows]

    # -- provenance ---------------------------------------------------------

    def add_provenance(self, rows: Sequence[Tuple]) -> int:
        """``rows``: ``(trace_id, event_uuid, kind, actor, org, detail,
        cycle, logged_at)`` tuples."""
        rows = list(rows)
        if not rows:
            return 0
        with self._transaction():
            self._conn.executemany(
                "INSERT INTO provenance (trace_id, event_uuid, kind, actor,"
                " org, detail, cycle, logged_at) VALUES (?,?,?,?,?,?,?,?)",
                rows)
        return len(rows)

    def provenance_for_event(self, event_uuid: str) -> List[Dict[str, Any]]:
        rows = self._conn.execute(
            f"SELECT {_PROVENANCE_COLS} FROM provenance"
            " WHERE event_uuid = ? ORDER BY seq", (event_uuid,)).fetchall()
        return [provenance_row(row) for row in rows]

    def provenance_for_events(self, event_uuids: Sequence[str]
                              ) -> Dict[str, List[Dict[str, Any]]]:
        """``event_uuid → rows`` (oldest first) in chunked queries."""
        result: Dict[str, List[Dict[str, Any]]] = {
            uuid: [] for uuid in event_uuids}
        for chunk in chunks(list(result), chunk_size()):
            rows = self._conn.execute(
                f"SELECT {_PROVENANCE_COLS} FROM provenance WHERE event_uuid"
                f" IN ({_marks(chunk)}) ORDER BY seq", chunk).fetchall()
            for row in rows:
                result[row[2]].append(provenance_row(row))
        return result

    def provenance_for_trace(self, trace_id: str) -> List[Dict[str, Any]]:
        rows = self._conn.execute(
            f"SELECT {_PROVENANCE_COLS} FROM provenance"
            " WHERE trace_id = ? ORDER BY seq", (trace_id,)).fetchall()
        return [provenance_row(row) for row in rows]

    def provenance_count(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM provenance").fetchone()[0]

    def latest_traced_event(self) -> Optional[str]:
        row = self._conn.execute(
            "SELECT event_uuid FROM provenance"
            " ORDER BY seq DESC LIMIT 1").fetchone()
        return row[0] if row is not None else None

    # -- delta-sync ledger ---------------------------------------------------

    def get_sync_watermark(self, entity: str) -> int:
        row = self._conn.execute(
            "SELECT watermark FROM sync_state WHERE entity = ?",
            (entity,)).fetchone()
        return int(row[0]) if row is not None else 0

    def set_sync_watermark(self, entity: str, watermark: int,
                           logged_at: int = 0) -> None:
        with self._transaction():
            self._conn.execute(
                "INSERT OR REPLACE INTO sync_state (entity, watermark,"
                " updated_at) VALUES (?,?,?)",
                (entity, int(watermark), int(logged_at)))

    def sync_watermarks(self) -> Dict[str, int]:
        rows = self._conn.execute(
            "SELECT entity, watermark FROM sync_state ORDER BY entity"
        ).fetchall()
        return {row[0]: int(row[1]) for row in rows}

    def get_sync_digests(self, entity: str,
                         uuids: Sequence[str]) -> Dict[str, str]:
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
        if not digests:
            return
        with self._transaction():
            self._conn.executemany(
                "INSERT OR REPLACE INTO sync_digests"
                " (entity, event_uuid, digest) VALUES (?,?,?)",
                [(entity, uuid, digest)
                 for uuid, digest in digests.items()])

    def sync_digest_count(self, entity: Optional[str] = None) -> int:
        if entity is None:
            return self._conn.execute(
                "SELECT COUNT(*) FROM sync_digests").fetchone()[0]
        return self._conn.execute(
            "SELECT COUNT(*) FROM sync_digests WHERE entity = ?",
            (entity,)).fetchone()[0]

    def sync_digest_rows(self) -> List[Tuple[str, str, str]]:
        """Every ledger row as ``(entity, event_uuid, digest)``, sorted."""
        rows = self._conn.execute(
            "SELECT entity, event_uuid, digest FROM sync_digests"
            " ORDER BY entity, event_uuid").fetchall()
        return [(row[0], row[1], row[2]) for row in rows]

    # -- search -------------------------------------------------------------

    def search_value(self, value: str) -> List[Tuple[str, str]]:
        """(event_uuid, attribute_uuid) pairs in attribute insertion order."""
        rows = self._conn.execute(
            "SELECT event_uuid, uuid FROM attributes"
            " WHERE value = ? ORDER BY rowid", (value,)).fetchall()
        return [(r[0], r[1]) for r in rows]

    def search_event_blobs(self, info_substring: Optional[str] = None,
                           tag: Optional[str] = None,
                           attribute_type: Optional[str] = None,
                           value: Optional[str] = None) -> List[str]:
        """Filtered blobs ordered by ``timestamp DESC, uuid``."""
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
        return self._blobs(query + " ORDER BY e.timestamp DESC, e.uuid",
                           params)

    def correlatable_attributes(self, value: str,
                                exclude_event: Optional[str] = None
                                ) -> List[Tuple[str, str]]:
        query = ("SELECT event_uuid, uuid FROM attributes"
                 " WHERE value = ? AND correlatable = 1")
        params: List[Any] = [value]
        if exclude_event is not None:
            query += " AND event_uuid != ?"
            params.append(exclude_event)
        query += " ORDER BY rowid"
        return [(r[0], r[1])
                for r in self._conn.execute(query, params).fetchall()]

    def correlatable_attributes_many(
            self, values: Sequence[str]
    ) -> Dict[str, List[Tuple[str, str]]]:
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

    # -- correlations --------------------------------------------------------

    def save_correlations(
            self, edges: Sequence[Tuple[str, str, str, str, str]]) -> int:
        """Persist edges (idempotent); returns how many were new."""
        edges = list(edges)
        if not edges:
            return 0
        conn = self._conn
        with self._transaction():
            before = conn.total_changes
            conn.executemany(
                "INSERT OR IGNORE INTO correlations VALUES (?,?,?,?,?)",
                edges)
            inserted = conn.total_changes - before
            bump_counter(conn, "correlations", inserted)
        return inserted

    def correlations_for_event(self, event_uuid: str) -> List[Dict[str, str]]:
        # The two endpoint indexes find the event's rows (a MULTI-INDEX OR
        # plan), so the read's cost follows the event's own edges.
        rows = self._conn.execute(
            f"SELECT {_CORRELATION_COLS} FROM correlations"
            " WHERE source_event = ? OR target_event = ? ORDER BY rowid",
            (event_uuid, event_uuid)).fetchall()
        return [correlation_row(r) for r in rows]

    def correlations_for_events(
            self, uuids: Sequence[str]) -> Dict[str, List[Dict[str, str]]]:
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
                row = correlation_row(r)
                # Attach only to this chunk's members: a row whose two sides
                # land in different chunks is returned by both queries.
                for side in {r[2], r[3]}:
                    if side in members:
                        result[side].append(row)
        return result

    def correlation_count(self) -> int:
        """O(1): maintained counter, not ``COUNT(*)``."""
        return read_counter(self._conn, "correlations")
