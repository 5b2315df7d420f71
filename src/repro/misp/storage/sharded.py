"""Hash-sharded SQLite storage backend.

Events are placed on one of N shard databases by
:func:`~repro.misp.storage.base.shard_of` (a sha256 prefix of the event
uuid), so per-event work — blob reads, tag probes and above all
correlation-row scans, which SQLite resolves by walking the whole
``correlations`` table — touches ``1/N`` of the corpus.  A *catalog*
database keeps everything that must stay globally ordered or globally
searchable:

- ``audit_log`` — the monotonic change cursor.  Audit rows for a batch are
  inserted in batch order on the coordinating thread, so the AUTOINCREMENT
  ``seq`` assignment is identical to the single-file store's;
- ``provenance``, ``sync_state``, ``sync_digests``, ``counters``,
  ``store_meta`` — same discipline;
- ``value_index`` — the cross-shard ``value → (shard, event, attribute)``
  map that answers value search and batched correlation probes without
  touching any shard.  Rows for a batch's events are deleted and re-inserted
  in batch order, which reproduces the single-file backend's attribute
  ``rowid`` ordering exactly.

Write protocol (the determinism contract of docs/PERFORMANCE.md): per-shard
row groups are staged and committed serially — shards in ascending shard
order, catalog last — so any shard count produces the same durable state
and the same audit sequences.  Correlation edges are written to *both* endpoint shards (one
copy when both ends hash to the same shard); the catalog counter tracks
logical edges, so counts match the single-file store byte for byte.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ...errors import StorageError
from .base import (
    BackendInfo,
    PersistBatch,
    StorageBackend,
    chunk_size,
    chunks,
    shard_of,
)
from .sqlite import (
    CATALOG_SCHEMA,
    CountingConnection,
    SHARD_SCHEMA,
    CatalogOps,
    bump_counter,
    init_counters,
    init_meta,
)

#: Extra catalog table unique to the sharded layout.
_VALUE_INDEX_SCHEMA = """
CREATE TABLE IF NOT EXISTS value_index (
    event_uuid TEXT NOT NULL,
    attribute_uuid TEXT NOT NULL,
    value TEXT NOT NULL,
    type TEXT NOT NULL,
    correlatable INTEGER NOT NULL,
    shard INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_value_index_value_type
    ON value_index(value, type);
CREATE INDEX IF NOT EXISTS idx_value_index_value_corr
    ON value_index(value, correlatable);
CREATE INDEX IF NOT EXISTS idx_value_index_event ON value_index(event_uuid);
"""


def shard_path(path: str, shard: int) -> str:
    """Filesystem path of one shard database."""
    return f"{path}.shard-{shard:02d}"


class ShardedSQLiteBackend(CatalogOps, StorageBackend):
    """N-shard SQLite store with a global catalog database.

    ``path`` names the catalog; shards live beside it as
    ``<path>.shard-NN``.  ``path=":memory:"`` gives every shard its own
    private in-memory database (useful for benches; not shared between
    backends).
    """

    def __init__(self, path: str = ":memory:", shards: int = 4) -> None:
        if shards < 2:
            raise StorageError(
                "ShardedSQLiteBackend needs >= 2 shards;"
                " use SQLiteBackend for a single shard")
        self._path = path
        self._shards = int(shards)
        self._cat = CountingConnection(path)
        self._cat.executescript(CATALOG_SCHEMA)
        self._cat.executescript(_VALUE_INDEX_SCHEMA)
        init_meta(self._cat, shards=self._shards)
        self._conns: List[CountingConnection] = []
        for shard in range(self._shards):
            conn = CountingConnection(
                ":memory:" if path == ":memory:" else shard_path(path, shard))
            conn.executescript(SHARD_SCHEMA)
            self._conns.append(conn)
        init_counters(self._cat, {
            "events": sum(
                c.execute("SELECT COUNT(*) FROM events").fetchone()[0]
                for c in self._conns),
            "attributes": self._cat.execute(
                "SELECT COUNT(*) FROM value_index").fetchone()[0],
            "correlations": self._count_logical_correlations(),
        })

    def _count_logical_correlations(self) -> int:
        # Mirrored rows mean a raw sum double-counts cross-shard edges; an
        # edge's primary copy is the one on its *source* event's shard.
        total = 0
        for shard, conn in enumerate(self._conns):
            rows = conn.execute(
                "SELECT source_event FROM correlations").fetchall()
            total += sum(
                1 for (source_event,) in rows
                if shard_of(source_event, self._shards) == shard)
        return total

    def _shard_for(self, event_uuid: str) -> int:
        return shard_of(event_uuid, self._shards)

    def _group_by_shard(self, uuids: Sequence[str]) -> Dict[int, List[str]]:
        grouped: Dict[int, List[str]] = {}
        for uuid in uuids:
            grouped.setdefault(self._shard_for(uuid), []).append(uuid)
        return grouped

    # -- lifecycle ----------------------------------------------------------

    def info(self) -> BackendInfo:
        paths: List[str] = []
        if self._path != ":memory:":
            paths = [self._path] + [
                shard_path(self._path, s) for s in range(self._shards)]
        return BackendInfo(
            kind="sharded-sqlite", shard_count=self._shards, paths=paths)

    def close(self) -> None:
        for conn in self._conns:
            conn.close()
        self._cat.close()

    @property
    def sql_statements(self) -> int:  # type: ignore[override]
        return self._cat.statements + sum(
            conn.statements for conn in self._conns)

    def query_plan(self, sql: str, params: Sequence = ()) -> str:
        """The *catalog* planner's choice (value probes run there)."""
        return self._cat.query_plan(sql, params)

    # -- events -------------------------------------------------------------

    def existing_events(self, uuids: Sequence[str]) -> Set[str]:
        existing: Set[str] = set()
        for shard, members in sorted(self._group_by_shard(uuids).items()):
            conn = self._conns[shard]
            for chunk in chunks(members, chunk_size()):
                placeholders = ",".join("?" * len(chunk))
                rows = conn.execute(
                    f"SELECT uuid FROM events WHERE uuid IN ({placeholders})",
                    chunk).fetchall()
                existing.update(row[0] for row in rows)
        return existing

    def persist_batch(self, batch: PersistBatch) -> Dict[int, int]:
        # Split every row group by its event's shard, preserving batch order
        # inside each group (matches single-file rowid order per shard).
        shard_events: Dict[int, List[Tuple]] = {}
        shard_attrs: Dict[int, List[Tuple]] = {}
        shard_tags: Dict[int, List[Tuple]] = {}
        shard_uuids: Dict[int, List[str]] = {}
        for uuid in batch.uuids:
            shard_uuids.setdefault(self._shard_for(uuid), []).append(uuid)
        for row in batch.event_rows:
            shard_events.setdefault(self._shard_for(row[0]), []).append(row)
        for row in batch.attribute_rows:
            shard_attrs.setdefault(self._shard_for(row[1]), []).append(row)
        for row in batch.tag_rows:
            shard_tags.setdefault(self._shard_for(row[0]), []).append(row)

        touched = sorted(shard_uuids)
        try:
            for shard in touched:
                conn = self._conns[shard]
                deletes = [(uuid,) for uuid in shard_uuids[shard]]
                conn.executemany(
                    "INSERT OR REPLACE INTO events "
                    "(uuid, info, date, org, threat_level_id, analysis,"
                    " distribution, published, timestamp, blob)"
                    " VALUES (?,?,?,?,?,?,?,?,?,?)",
                    shard_events.get(shard, []))
                conn.executemany(
                    "DELETE FROM attributes WHERE event_uuid = ?", deletes)
                conn.executemany(
                    "DELETE FROM event_tags WHERE event_uuid = ?", deletes)
                conn.executemany(
                    "INSERT OR REPLACE INTO attributes "
                    "(uuid, event_uuid, type, category, value, to_ids,"
                    " correlatable, timestamp) VALUES (?,?,?,?,?,?,?,?)",
                    shard_attrs.get(shard, []))
                tags = shard_tags.get(shard, [])
                if tags:
                    conn.executemany(
                        "INSERT OR IGNORE INTO event_tags (event_uuid, name)"
                        " VALUES (?,?)", tags)
            # Catalog rows follow batch order exactly, so audit seqs and
            # value_index rowids match the single-file store's.
            cat = self._cat
            cat.executemany(
                "INSERT INTO audit_log (event_uuid, action, detail,"
                " logged_at) VALUES (?,?,?,?)", batch.audit_rows)
            before = cat.total_changes
            cat.executemany(
                "DELETE FROM value_index WHERE event_uuid = ?",
                [(uuid,) for uuid in batch.uuids])
            deleted_attributes = cat.total_changes - before
            cat.executemany(
                "INSERT INTO value_index (event_uuid, attribute_uuid,"
                " value, type, correlatable, shard) VALUES (?,?,?,?,?,?)",
                [(row[1], row[0], row[4], row[2], row[6],
                  self._shard_for(row[1])) for row in batch.attribute_rows])
            bump_counter(cat, "events", batch.new_events)
            bump_counter(cat, "attributes",
                         len(batch.attribute_rows) - deleted_attributes)
        except BaseException:
            for shard in touched:
                self._conns[shard].rollback()
            self._cat.rollback()
            raise
        # Serial commits in deterministic order: shards ascending, catalog
        # last, so readers never observe catalog state ahead of shard state.
        for shard in touched:
            self._conns[shard].commit()
        self._cat.commit()
        return {shard: len(shard_uuids[shard]) for shard in touched}

    def has_event(self, uuid: str) -> bool:
        conn = self._conns[self._shard_for(uuid)]
        row = conn.execute(
            "SELECT 1 FROM events WHERE uuid = ?", (uuid,)).fetchone()
        return row is not None

    def get_event_blob(self, uuid: str) -> Optional[str]:
        conn = self._conns[self._shard_for(uuid)]
        row = conn.execute(
            "SELECT blob FROM events WHERE uuid = ?", (uuid,)).fetchone()
        return row[0] if row is not None else None

    def get_event_blobs(self, uuids: Sequence[str]
                        ) -> Dict[str, Optional[str]]:
        result: Dict[str, Optional[str]] = {uuid: None for uuid in uuids}
        for shard, members in sorted(self._group_by_shard(
                list(result)).items()):
            conn = self._conns[shard]
            for chunk in chunks(members, chunk_size()):
                placeholders = ",".join("?" * len(chunk))
                rows = conn.execute(
                    f"SELECT uuid, blob FROM events WHERE uuid IN"
                    f" ({placeholders})", chunk).fetchall()
                for uuid, blob in rows:
                    result[uuid] = blob
        return result

    def events_with_tag(self, tag: str, uuids: Sequence[str]) -> Set[str]:
        unique = list(dict.fromkeys(uuids))
        found: Set[str] = set()
        for shard, members in sorted(self._group_by_shard(unique).items()):
            conn = self._conns[shard]
            for chunk in chunks(members, chunk_size(reserved=1)):
                placeholders = ",".join("?" * len(chunk))
                rows = conn.execute(
                    "SELECT DISTINCT event_uuid FROM event_tags"
                    f" WHERE name = ? AND event_uuid IN ({placeholders})",
                    [tag, *chunk]).fetchall()
                found.update(row[0] for row in rows)
        return found

    def delete_event(self, uuid: str,
                     logged_at: Optional[int] = None) -> bool:
        shard = self._shard_for(uuid)
        conn = self._conns[shard]
        cat = self._cat
        try:
            row = conn.execute(
                "SELECT timestamp FROM events WHERE uuid = ?",
                (uuid,)).fetchone()
            attributes = cat.execute(
                "SELECT COUNT(*) FROM value_index WHERE event_uuid = ?",
                (uuid,)).fetchone()[0]
            cursor = conn.execute(
                "DELETE FROM events WHERE uuid = ?", (uuid,))
            deleted = cursor.rowcount > 0
            if deleted:
                if logged_at is None:
                    logged_at = int(row[0]) if row is not None else 0
                cat.execute(
                    "INSERT INTO audit_log (event_uuid, action, detail,"
                    " logged_at) VALUES (?,?,?,?)",
                    (uuid, "deleted", "", logged_at))
                cat.execute(
                    "DELETE FROM value_index WHERE event_uuid = ?", (uuid,))
                bump_counter(cat, "events", -1)
                bump_counter(cat, "attributes", -attributes)
        except BaseException:
            conn.rollback()
            cat.rollback()
            raise
        conn.commit()
        cat.commit()
        return deleted

    def list_event_blobs(self, limit: Optional[int] = None,
                         published_only: bool = False,
                         since_ts: Optional[int] = None) -> List[str]:
        # Each shard pre-sorts (and pre-limits) its slice; the merge re-sorts
        # the union on the same fully-specified key, so the result is
        # identical to the single-file backend's.
        query = "SELECT blob, timestamp, uuid FROM events"
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
        merged: List[Tuple[int, str, str]] = []
        for conn in self._conns:
            for blob, timestamp, uuid in conn.execute(
                    query, params).fetchall():
                merged.append((-int(timestamp), uuid, blob))
        merged.sort(key=lambda row: (row[0], row[1]))
        blobs = [row[2] for row in merged]
        return blobs[:int(limit)] if limit is not None else blobs

    # -- search -------------------------------------------------------------

    def search_value(self, value: str) -> List[Tuple[str, str]]:
        rows = self._cat.execute(
            "SELECT event_uuid, attribute_uuid FROM value_index"
            " WHERE value = ? ORDER BY rowid", (value,)).fetchall()
        return [(r[0], r[1]) for r in rows]

    def search_event_blobs(self, info_substring: Optional[str] = None,
                           tag: Optional[str] = None,
                           attribute_type: Optional[str] = None,
                           value: Optional[str] = None) -> List[str]:
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
        merged: List[Tuple[int, str, str]] = []
        for conn in self._conns:
            for blob, timestamp, uuid in conn.execute(
                    query, params).fetchall():
                merged.append((-int(timestamp), uuid, blob))
        merged.sort(key=lambda row: (row[0], row[1]))
        return [row[2] for row in merged]

    def correlatable_attributes(self, value: str,
                                exclude_event: Optional[str] = None
                                ) -> List[Tuple[str, str]]:
        query = ("SELECT event_uuid, attribute_uuid FROM value_index"
                 " WHERE value = ? AND correlatable = 1")
        params: List[Any] = [value]
        if exclude_event is not None:
            query += " AND event_uuid != ?"
            params.append(exclude_event)
        query += " ORDER BY rowid"
        return [(r[0], r[1])
                for r in self._cat.execute(query, params).fetchall()]

    def correlatable_attributes_many(
            self, values: Sequence[str]
    ) -> Dict[str, List[Tuple[str, str]]]:
        result: Dict[str, List[Tuple[str, str]]] = {
            value: [] for value in values}
        unique = list(result)
        for chunk in chunks(unique, chunk_size()):
            placeholders = ",".join("?" * len(chunk))
            rows = self._cat.execute(
                "SELECT value, event_uuid, attribute_uuid FROM value_index"
                f" WHERE correlatable = 1 AND value IN ({placeholders})"
                " ORDER BY rowid", chunk).fetchall()
            for value, event_uuid, attribute_uuid in rows:
                result[value].append((event_uuid, attribute_uuid))
        return result

    # -- correlations --------------------------------------------------------

    def save_correlations(
            self, edges: Sequence[Tuple[str, str, str, str, str]]) -> int:
        edges = list(edges)
        if not edges:
            return 0
        # Build per-shard row lists in original edge order; a cross-shard
        # edge contributes its primary copy (source shard) and its mirror
        # (target shard) at the same position, so per-shard rowid order
        # matches the single-file store's per-event row order.
        shard_rows: Dict[int, List[Tuple]] = {}
        src_keys: Dict[int, List[Tuple[str, str]]] = {}
        for edge in edges:
            src_shard = self._shard_for(edge[2])
            tgt_shard = self._shard_for(edge[3])
            shard_rows.setdefault(src_shard, []).append(edge)
            src_keys.setdefault(src_shard, []).append((edge[0], edge[1]))
            if tgt_shard != src_shard:
                shard_rows.setdefault(tgt_shard, []).append(edge)
        # Count *logical* inserts by probing which primary keys already
        # exist on each edge's source shard (the mapping attribute→event→
        # shard is fixed, so a key's primary copy always lives there).
        inserted = 0
        seen: Set[Tuple[str, str]] = set()
        for shard, keys in sorted(src_keys.items()):
            conn = self._conns[shard]
            existing: Set[Tuple[str, str]] = set()
            unique_sources = list(dict.fromkeys(key[0] for key in keys))
            for chunk in chunks(unique_sources, chunk_size()):
                placeholders = ",".join("?" * len(chunk))
                rows = conn.execute(
                    "SELECT source_attribute, target_attribute"
                    " FROM correlations WHERE source_attribute IN"
                    f" ({placeholders})", chunk).fetchall()
                existing.update((r[0], r[1]) for r in rows)
            for key in keys:
                if key not in existing and key not in seen:
                    inserted += 1
                    seen.add(key)
        touched = sorted(shard_rows)
        try:
            for shard in touched:
                self._conns[shard].executemany(
                    "INSERT OR IGNORE INTO correlations VALUES (?,?,?,?,?)",
                    shard_rows[shard])
            bump_counter(self._cat, "correlations", inserted)
        except BaseException:
            for shard in touched:
                self._conns[shard].rollback()
            self._cat.rollback()
            raise
        for shard in touched:
            self._conns[shard].commit()
        self._cat.commit()
        return inserted

    def correlations_for_event(self, event_uuid: str) -> List[Dict[str, str]]:
        # The whole point of sharding: this scan walks one shard's
        # correlation rows (every edge touching an event is mirrored onto
        # that event's shard), i.e. ~1/N of the corpus.
        conn = self._conns[self._shard_for(event_uuid)]
        rows = conn.execute(
            "SELECT source_attribute, target_attribute, source_event,"
            " target_event, value FROM correlations"
            " WHERE source_event = ? OR target_event = ?"
            " ORDER BY rowid",
            (event_uuid, event_uuid)).fetchall()
        return [
            {
                "source_attribute": r[0], "target_attribute": r[1],
                "source_event": r[2], "target_event": r[3], "value": r[4],
            }
            for r in rows
        ]

    def correlations_for_events(
            self, uuids: Sequence[str]) -> Dict[str, List[Dict[str, str]]]:
        result: Dict[str, List[Dict[str, str]]] = {uuid: [] for uuid in uuids}
        for shard, members in sorted(self._group_by_shard(
                list(result)).items()):
            conn = self._conns[shard]
            for chunk in chunks(members, chunk_size(per_item=2)):
                chunk_set = set(chunk)
                placeholders = ",".join("?" * len(chunk))
                rows = conn.execute(
                    "SELECT source_attribute, target_attribute,"
                    " source_event, target_event, value FROM correlations"
                    f" WHERE source_event IN ({placeholders})"
                    f" OR target_event IN ({placeholders})"
                    " ORDER BY rowid", [*chunk, *chunk]).fetchall()
                for r in rows:
                    row = {
                        "source_attribute": r[0], "target_attribute": r[1],
                        "source_event": r[2], "target_event": r[3],
                        "value": r[4],
                    }
                    # Attach only to this shard's chunk members: a mirrored
                    # row also surfaces on the other endpoint's shard scan.
                    for side in {r[2], r[3]}:
                        if side in chunk_set and \
                                self._shard_for(side) == shard:
                            result[side].append(row)
        return result
