"""Conformance suite for the MISP store's SQLite engine.

One set of behavioural tests runs against a store file on disk and a store
in memory, plus an equivalence test asserting that the two produce
byte-identical audit history, correlation graphs, sync ledgers and lineage
for the same operation sequence, and engine tests pinning the on-disk
layout, the refusal of a hash-sharded store, and the statement cost of
opening and probing a store.  Correlation reads go through the
endpoint-event indexes and must answer, row for row and in order, as the
forced full-table scan (``correlations NOT INDEXED``) does.
"""

import datetime as dt
import json
import math
import re
import sqlite3
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.deltas import collapse_changes
from repro.errors import StorageError
from repro.misp import MispAttribute, MispEvent, MispStore
from repro.misp.storage import MAX_BOUND_VARS, VAR_BUDGET, chunk_size
from repro.misp.storage.sqlite import CountingConnection
from repro.sharing.sync import event_digest

TS = dt.datetime(2026, 1, 1, tzinfo=dt.timezone.utc)


def make_event(info="event", values=("a.example",), published=False,
               timestamp=TS):
    event = MispEvent(info=info, published=published, timestamp=timestamp)
    for value in values:
        event.add_attribute(
            MispAttribute(type="domain", value=value, timestamp=timestamp))
    return event


def make_corpus(count=40, pool_size=12, attrs=3):
    """A deterministic-shape corpus with overlapping correlatable values."""
    pool = [f"d{k}.example" for k in range(pool_size)]
    corpus = []
    for i in range(count):
        corpus.append(make_event(
            info=f"event {i}",
            values=[pool[(i * attrs + j) % pool_size] for j in range(attrs)],
            published=(i % 2 == 0)))
    return corpus, pool


def copies_of(corpus):
    """Fresh MispEvent objects with the same uuids/content as ``corpus``."""
    return [MispEvent.from_dict(event.to_dict()) for event in corpus]


def correlate(store, pool):
    """Build correlation edges the way ``_correlate_batch`` does."""
    probe = store.correlatable_attributes_many(pool)
    edges = []
    for value in pool:
        hits = probe[value]
        for a in hits:
            for b in hits:
                if a[0] != b[0] and a[1] < b[1]:
                    edges.append((a[1], b[1], a[0], b[0], value))
    return store.save_correlations(edges)


#: The two endpoint-event indexes ``correlations`` carries.
CORRELATION_INDEXES = ("idx_correlations_source_event",
                       "idx_correlations_target_event")
#: A full walk of the table in a query plan (SQLite before 3.36 printed
#: ``SCAN TABLE correlations``).
WALK = re.compile(r"\bSCAN (TABLE )?correlations\b")


def forced_scan(sql):
    """The same statement with the indexes off: the seed's full-table walk."""
    return sql.replace("FROM correlations", "FROM correlations NOT INDEXED")


@contextmanager
def statement_log(store, rewrite=None):
    """Log ``(sql, params)`` for every statement ``store`` runs;
    ``rewrite`` maps each SQL text before it runs."""
    log = []
    conn = store.backend._conn
    run = conn.execute

    def execute(sql, params=()):
        if rewrite is not None:
            sql = rewrite(sql)
        log.append((sql, params))
        return run(sql, params)

    conn.execute = execute
    try:
        yield log
    finally:
        del conn.execute


def correlation_reads(store, uuids):
    """Every answer of the two correlation reads, order included."""
    return (list(store.correlations_for_events(uuids).items()),
            [store.correlations_for_event(uuid)
             for uuid in dict.fromkeys(uuids)])


def correlation_indexes(store):
    """Which of the correlation indexes exist."""
    return {row[0] for row in store.backend._conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'index'"
        " AND tbl_name = 'correlations'")} & set(CORRELATION_INDEXES)


BACKENDS = ["sqlite", "memory"]


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    if request.param == "sqlite":
        built = MispStore(str(tmp_path / "store.db"))
    else:
        built = MispStore(":memory:")
    yield built
    built.close()


class TestConformanceCrud:
    def test_save_get_roundtrip(self, store):
        event = make_event(values=("x.example", "y.example"))
        store.save_event(event)
        loaded = store.get_event(event.uuid)
        assert loaded is not None
        assert loaded.to_dict() == event.to_dict()
        assert store.get_event("missing") is None
        statements, decoded = store.sql_statements, store.payloads_deserialized
        assert store.event_digests([event.uuid, "ghost"]) == {
            event.uuid: (int(TS.timestamp()), event_digest(loaded)),
            "ghost": None}
        assert store.sql_statements - statements == 1
        assert store.payloads_deserialized == decoded

    def test_replace_semantics(self, store):
        event = make_event()
        store.save_event(event)
        event.info = "updated"
        store.save_event(event)
        assert store.get_event(event.uuid).info == "updated"
        assert store.event_count() == 1
        with pytest.raises(StorageError):
            store.save_event(event, replace=False)

    def test_delete_and_audit_trail(self, store):
        event = make_event(values=("a.example", "b.example"))
        store.save_event(event)
        assert store.delete_event(event.uuid)
        assert not store.delete_event(event.uuid)
        assert not store.has_event(event.uuid)
        actions = [row["action"] for row in store.event_history(event.uuid)]
        assert actions == ["created", "deleted"]

    def test_existing_events_probe(self, store):
        events = [make_event(info=f"e{i}") for i in range(5)]
        store.save_events(events[:3])
        known = store.existing_events([e.uuid for e in events] + ["ghost"])
        assert known == {e.uuid for e in events[:3]}

    def test_list_events_order_and_limit(self, store):
        stamps = [TS + dt.timedelta(hours=h) for h in (2, 0, 1, 2)]
        events = [make_event(info=f"e{i}", timestamp=stamp,
                             published=(i != 1))
                  for i, stamp in enumerate(stamps)]
        store.save_events(events)
        listed = [e.uuid for e in store.list_events()]
        expected = sorted(
            events, key=lambda e: (-int(e.timestamp.timestamp()), e.uuid))
        assert listed == [e.uuid for e in expected]
        assert [e.uuid for e in store.list_events(limit=2)] == listed[:2]
        published = [e.uuid for e in store.list_events(published_only=True)]
        assert published == [e.uuid for e in expected if e.published]

    def test_tags_and_search(self, store):
        event = make_event(values=("tagged.example",))
        event.add_tag("tlp:green")
        other = make_event(info="other", values=("other.example",))
        store.save_events([event, other])
        uuids = [event.uuid, other.uuid]
        assert store.events_with_tag("tlp:green", uuids) == {event.uuid}
        assert [e.uuid for e in store.search_events(tag="tlp:green")] == \
            [event.uuid]
        assert [e.uuid for e in store.search_events(value="other.example")] \
            == [other.uuid]
        assert [e.uuid for e in store.search_events(info_substring="other")] \
            == [other.uuid]
        assert store.search_value("tagged.example") == \
            [(event.uuid, event.attributes[0].uuid)]

    def test_correlations_roundtrip(self, store):
        one = make_event(info="one", values=("shared.example",))
        two = make_event(info="two", values=("shared.example",))
        store.save_events([one, two])
        inserted = correlate(store, ["shared.example"])
        assert inserted == 1
        # Idempotent: replaying the same probe inserts nothing new.
        assert correlate(store, ["shared.example"]) == 0
        rows_one = store.correlations_for_event(one.uuid)
        rows_two = store.correlations_for_event(two.uuid)
        assert rows_one == rows_two
        assert len(rows_one) == 1
        batched = store.correlations_for_events([one.uuid, two.uuid])
        assert batched[one.uuid] == rows_one
        assert batched[two.uuid] == rows_two
        assert store.correlation_count() == 1

    def test_sync_ledger(self, store):
        event = make_event()
        store.save_event(event)
        assert store.get_sync_watermark("partner") == 0
        store.set_sync_watermark("partner", 5)
        store.set_sync_watermark("alpha", 3)
        assert store.sync_watermarks() == {"alpha": 3, "partner": 5}
        store.set_sync_digests("partner", {event.uuid: "digest-1"})
        assert store.get_sync_digests("partner", [event.uuid, "ghost"]) == \
            {event.uuid: "digest-1"}
        assert store.sync_digest_count() == 1
        assert store.sync_digest_count("partner") == 1
        assert store.sync_digest_count("alpha") == 0

    def test_events_changed_since(self, store):
        # The changed events after a position, by last seq: the one change
        # feed folded with collapse_changes.
        events = [make_event(info=f"e{i}") for i in range(3)]
        store.save_events(events)
        store.save_event(events[1])
        store.delete_event(events[2].uuid)

        def live(after_seq, until_seq=None):
            batch = collapse_changes(store.changes_since(after_seq, until_seq))
            return [(uuid, batch.last_seqs[uuid]) for uuid in batch.upserts]

        assert live(0) == [(events[0].uuid, 1), (events[1].uuid, 4)]
        assert live(1) == [(events[1].uuid, 4)]
        # The window ends before the re-save (seq 4) and the delete (seq 5).
        assert live(0, until_seq=3) == \
            [(events[0].uuid, 1), (events[1].uuid, 2), (events[2].uuid, 3)]

    def test_provenance(self, store):
        class Row:
            def __init__(self, trace_id, event_uuid, kind):
                self.trace_id = trace_id
                self.event_uuid = event_uuid
                self.kind = kind
                self.actor = "collector"
                self.org = "CAOP"
                self.detail = ""
                self.cycle = 1
                self.logged_at = 100

        assert store.add_provenance([]) == 0
        assert store.add_provenance(
            [Row("t1", "e1", "collected"), Row("t1", "e2", "composed"),
             Row("t2", "e2", "enriched")]) == 3
        assert store.provenance_count() == 3
        assert [r["kind"] for r in store.provenance_for_trace("t1")] == \
            ["collected", "composed"]
        assert [r["seq"] for r in store.provenance_for_event("e2")] == [2, 3]
        assert store.provenance_for_events(["e2", "ghost", "e1"]) == {
            "e2": store.provenance_for_event("e2"), "ghost": [],
            "e1": store.provenance_for_event("e1")}
        assert store.latest_traced_event() == "e2"


class TestCounters:
    """The O(1)-counter satellite: counts survive save/delete/replay."""

    def test_counts_track_saves_and_deletes(self, store):
        corpus, pool = make_corpus(count=10)
        store.save_events(corpus)
        assert store.event_count() == 10
        assert store.attribute_count() == 30
        correlate(store, pool)
        assert store.correlation_count() > 0
        before_corr = store.correlation_count()
        # Replacing an event with fewer attributes shrinks the count.
        smaller = MispEvent.from_dict(corpus[0].to_dict())
        smaller.attributes = smaller.attributes[:1]
        store.save_event(smaller)
        assert store.event_count() == 10
        assert store.attribute_count() == 28
        store.delete_event(corpus[1].uuid)
        assert store.event_count() == 9
        assert store.attribute_count() == 25
        # The delete took the event's edges with it; replaying the same
        # correlation probe changes nothing.
        remaining = store.correlation_count()
        assert remaining < before_corr
        correlate(store, pool)
        assert store.correlation_count() == remaining

    def test_counts_match_full_scan(self, store):
        corpus, pool = make_corpus(count=15)
        store.save_events(corpus)
        correlate(store, pool)
        gone = corpus[0].uuid
        assert store.correlations_for_event(gone)
        store.delete_event(gone)
        survivors = store.list_events()
        assert store.event_count() == len(survivors)
        assert store.attribute_count() == sum(
            len(e.all_attributes()) for e in survivors)
        # The delete took the event's correlation edges with it.
        rows = store.correlations_for_events(
            [e.uuid for e in survivors] + [gone])
        edges = {(row["source_attribute"], row["target_attribute"])
                 for found in rows.values() for row in found}
        assert store.correlation_count() == len(edges) > 0
        assert rows[gone] == []
        assert all(gone not in (row["source_event"], row["target_event"])
                   for found in rows.values() for row in found)


class TestChunkBudget:
    """The 999-bound-variable satellite: >1000-uuid batch operations."""

    def test_chunk_size_respects_budget(self):
        assert chunk_size() <= VAR_BUDGET <= MAX_BOUND_VARS
        assert chunk_size(per_item=2) * 2 <= MAX_BOUND_VARS
        assert chunk_size(reserved=1) + 1 <= MAX_BOUND_VARS
        assert chunk_size(reserved=VAR_BUDGET + 5) == 1

    def test_large_uuid_batches(self, store):
        corpus = [make_event(info=f"e{i}", values=(f"v{i}.example",))
                  for i in range(1100)]
        store.save_events(corpus)
        uuids = [e.uuid for e in corpus] + ["ghost"]
        fetched = store.get_events(uuids)
        assert len(fetched) == 1101
        assert fetched["ghost"] is None
        assert all(fetched[e.uuid] is not None for e in corpus)
        assert store.existing_events(uuids) == set(uuids[:-1])
        statements, decoded = store.sql_statements, store.payloads_deserialized
        stamps = store.event_digests(uuids)
        assert store.sql_statements - statements == \
            math.ceil(len(uuids) / chunk_size())
        assert store.payloads_deserialized == decoded
        assert list(stamps) == uuids
        assert stamps["ghost"] is None
        assert all(stamps[e.uuid] == (int(TS.timestamp()),
                                      event_digest(fetched[e.uuid]))
                   for e in corpus)
        assert store.events_with_tag("tlp:green", uuids) == set()
        batched = store.correlations_for_events(uuids)
        assert len(batched) == 1101
        store.set_sync_digests(
            "partner", {e.uuid: f"digest-{i}" for i, e in enumerate(corpus)})
        digests = store.get_sync_digests("partner", uuids)
        assert len(digests) == 1100
        values = [f"v{i}.example" for i in range(1100)]
        probe = store.correlatable_attributes_many(values)
        assert all(len(probe[value]) == 1 for value in values)


class TestQueryPlan:
    """The index satellite: value probes must hit the (value, type) index."""

    VALUE_QUERIES = [
        "SELECT event_uuid, uuid FROM attributes WHERE value = ?",
        "SELECT event_uuid, uuid FROM attributes"
        " WHERE value = ? AND type = ?",
    ]

    def test_value_probe_uses_index(self, store):
        store.save_events([make_event()])
        for query in self.VALUE_QUERIES:
            params = ("a.example",) if query.count("?") == 1 \
                else ("a.example", "domain")
            plan = store.query_plan(query, params)
            assert "USING INDEX" in plan and "value" in plan, plan
            assert "SCAN" not in plan.split("USING INDEX")[0], plan

    def test_correlation_reads_use_endpoint_indexes(self):
        # The SQL the two reads really run: both endpoint indexes, no walk
        # of the table.
        built = MispStore(":memory:")
        try:
            corpus, pool = make_corpus(count=12)
            built.save_events(corpus)
            correlate(built, pool)
            uuids = [event.uuid for event in corpus]
            with statement_log(built) as log:
                correlation_reads(built, uuids)
            reads = [(sql, params) for sql, params in log
                     if "FROM correlations" in sql]
            # One batched statement, then one per event.
            assert len(reads) == 1 + len(uuids)
            for sql, params in reads:
                plan = built.query_plan(sql, params)
                assert not WALK.search(plan), plan
                assert all(name in plan for name in CORRELATION_INDEXES), plan
                # The reference the property test compares against walks
                # the table, as every read did before the indexes.
                assert WALK.search(built.query_plan(forced_scan(sql), params))
        finally:
            built.close()


#: Uuids of one batched-read chunk (each binds twice).
_CHUNK = chunk_size(per_item=2)
#: A request holding all of these spans two chunks.
_CROWDED = [f"event-{k:05d}" for k in range(_CHUNK + 20)]
#: Events outside the crowded run.
_OTHERS = [f"other-{k}" for k in range(16)]
#: Edge endpoints: the first crowded events, the crowded events around the
#: chunk border, and the others.
_HOT = _CROWDED[:4] + _CROWDED[_CHUNK - 4:_CHUNK + 4] + _OTHERS


@st.composite
def correlation_cases(draw):
    """Edges saved in batches plus one read request.

    Edges join two hot events (possibly the same pair through several
    attribute pairs, possibly repeated); the request mixes hot events,
    duplicates and unknown uuids, and may hold every crowded event, so
    one request spans two chunks.
    """
    ends = st.integers(0, len(_HOT) - 1)
    pairs = draw(st.lists(
        st.tuples(ends, st.integers(0, 2), ends, st.integers(0, 2)),
        max_size=50))
    edges = [(f"{_HOT[i]}/{a}", f"{_HOT[j]}/{b}", _HOT[i], _HOT[j],
              f"value-{i}-{j}") for i, a, j, b in pairs]
    cut = draw(st.integers(0, len(edges)))
    # A second batch repeats some edges of the first: the inserts ignore
    # them and their rows keep their first position.
    batches = [edges[:cut], edges[draw(st.integers(0, cut)):]]
    picks = st.one_of(st.sampled_from(_HOT),
                      st.sampled_from(["ghost", "ghost-2", _CROWDED[-1]]))
    head = draw(st.lists(picks, max_size=12))
    tail = draw(st.lists(picks, max_size=6))
    crowd = _CROWDED if draw(st.booleans()) else []
    return batches, head + crowd + tail


def _edge(source, target, value):
    return (f"{source}/0", f"{target}/0", source, target, value)


#: Every kind at once: a row whose endpoints fall in the two chunks, a
#: row whose endpoints sit at both ends of the request, a row joining a
#: crowded event, and a duplicate and an unknown uuid.
_EVERY_KIND = (
    [[_edge(_CROWDED[0], _CROWDED[_CHUNK], "border"),
      _edge(_OTHERS[0], _OTHERS[2], "ends"),
      _edge(_OTHERS[2], _CROWDED[1], "mixed")], []],
    [_OTHERS[2], "ghost", _OTHERS[2], *_CROWDED, _OTHERS[0]])


@settings(max_examples=40, deadline=None)
@given(case=correlation_cases())
@example(case=_EVERY_KIND)
def test_indexed_reads_answer_as_the_forced_scan(case):
    batches, request = case
    built = MispStore(":memory:")
    try:
        for batch in batches:
            built.save_correlations(batch)
        indexed = correlation_reads(built, request)
        with statement_log(built, rewrite=forced_scan) as log:
            scanned = correlation_reads(built, request)
        assert all("NOT INDEXED" in sql for sql, _params in log)
        assert indexed == scanned
    finally:
        built.close()


#: One corpus template shared by every equivalence run, so both stores see
#: the same uuids and the fingerprints are comparable byte for byte.
_SCENARIO_CORPUS, _SCENARIO_POOL = make_corpus(count=40)


def run_scenario(store):
    """A mixed workload covering every mutating path; returns the corpus."""
    corpus, pool = _SCENARIO_CORPUS, _SCENARIO_POOL
    events = copies_of(corpus)
    store.save_events(events[:25])
    store.save_events(events[25:])
    correlate(store, pool)
    # Touch update, enrichment, delete and ledger paths.
    events[3].info = "updated info"
    store.save_event(events[3])
    store.apply_enrichments([events[4]])
    store.delete_event(events[5].uuid)
    store.set_sync_watermark("partner-0", store.max_audit_seq())
    store.set_sync_digests(
        "partner-0", {events[0].uuid: "d0", events[1].uuid: "d1"})

    class Row:
        def __init__(self, trace_id, event_uuid, kind):
            self.trace_id = trace_id
            self.event_uuid = event_uuid
            self.kind = kind
            self.actor = "collector"
            self.org = "CAOP"
            self.detail = ""
            self.cycle = 1
            self.logged_at = 100

    store.add_provenance(
        [Row(f"trace-{i}", event.uuid, "collected")
         for i, event in enumerate(events[:6])])
    return corpus, pool


def state_fingerprint(store, corpus, pool):
    """Every observable surface of the store, JSON-canonicalised."""
    uuids = [event.uuid for event in corpus]
    return json.dumps({
        "counts": [store.event_count(), store.attribute_count(),
                   store.correlation_count(), store.audit_count(),
                   store.provenance_count(), store.sync_digest_count()],
        "history": {uuid: store.event_history(uuid) for uuid in uuids},
        "events": {uuid: (event.to_dict() if event else None)
                   for uuid, event in store.get_events(uuids).items()},
        "correlations": store.correlations_for_events(uuids),
        "per_event_corr": {uuid: store.correlations_for_event(uuid)
                           for uuid in uuids[:10]},
        "feed": [(change.seq, change.event_uuid, change.action,
                  change.logged_at) for change in store.changes_since(0)],
        "max_seq": store.max_audit_seq(),
        "watermarks": store.sync_watermarks(),
        "digests": store.get_sync_digests("partner-0", uuids),
        "listing": [event.uuid for event in store.list_events()],
        "published": [event.uuid
                      for event in store.list_events(published_only=True)],
        "search_value": {value: store.search_value(value) for value in pool},
        "probe": store.correlatable_attributes_many(pool),
        "lineage": [store.provenance_for_trace(f"trace-{i}")
                    for i in range(6)],
    }, sort_keys=True)


class TestCrossBackendEquivalence:
    """The determinism tentpole: file and memory, byte-identical state."""

    def test_memory_and_file_agree(self, tmp_path):
        fingerprints = {}
        for label, path in [("memory", ":memory:"),
                            ("file", str(tmp_path / "store.db"))]:
            built = MispStore(path)
            corpus, pool = run_scenario(built)
            fingerprints[label] = state_fingerprint(built, corpus, pool)
            built.close()
        assert fingerprints["file"] == fingerprints["memory"]


class TestOnDiskLayout:
    def test_shard_count_mismatch_refused(self, tmp_path):
        # The catalog file of a store an earlier release hash-sharded over
        # four files: refused before any table is created in it.
        path = tmp_path / "store.db"
        raw = sqlite3.connect(str(path))
        raw.executescript(
            "CREATE TABLE store_meta (key TEXT PRIMARY KEY,"
            " value TEXT NOT NULL);"
            "INSERT INTO store_meta VALUES ('shards', '4');"
            "CREATE TABLE value_index (event_uuid TEXT NOT NULL);")
        raw.close()
        with pytest.raises(StorageError, match="4 files"):
            MispStore(str(path))
        assert table_names(path) == {"store_meta", "value_index"}

    def test_single_file_reopen_preserves_counters(self, tmp_path):
        path = str(tmp_path / "store.db")
        built = MispStore(path)
        corpus, pool = run_scenario(built)
        counts = (built.event_count(), built.attribute_count(),
                  built.correlation_count())
        built.close()
        # The layout stamp is the one every one-file store has carried.
        raw = sqlite3.connect(path)
        assert raw.execute("SELECT key, value FROM store_meta").fetchall() \
            == [("shards", "1")]
        raw.close()
        reopened = MispStore(path)
        assert (reopened.event_count(), reopened.attribute_count(),
                reopened.correlation_count()) == counts
        reopened.close()

    def test_pre_counter_store_migrates(self, tmp_path):
        # A store created before the counters table existed (simulated by
        # dropping the rows) re-seeds its counters from COUNT(*) on open.
        path = str(tmp_path / "store.db")
        built = MispStore(path)
        built.save_events([make_event(info=f"e{i}",
                                      values=(f"v{i}.a", f"v{i}.b"))
                           for i in range(4)])
        built.close()
        raw = sqlite3.connect(path)
        raw.execute("DELETE FROM counters")
        raw.commit()
        raw.close()
        reopened = MispStore(path)
        assert reopened.event_count() == 4
        assert reopened.attribute_count() == 8
        reopened.close()

    def test_reopen_restores_correlation_indexes(self, tmp_path):
        # A store written before the endpoint indexes existed gains both
        # the next time it is opened, and answers as it did.
        path = str(tmp_path / "store.db")
        built = MispStore(path)
        corpus, _pool = run_scenario(built)
        uuids = [event.uuid for event in corpus]
        answers = correlation_reads(built, uuids)
        conn = built.backend._conn
        for name in CORRELATION_INDEXES:
            conn.execute(f"DROP INDEX {name}")
        conn.commit()
        assert correlation_indexes(built) == set()
        built.close()
        reopened = MispStore(path)
        try:
            assert reopened.sql_statements <= 4
            assert correlation_indexes(reopened) == set(CORRELATION_INDEXES)
            assert correlation_reads(reopened, uuids) == answers
        finally:
            reopened.close()


def table_names(path):
    raw = sqlite3.connect(str(path))
    try:
        return {row[0] for row in raw.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
    finally:
        raw.close()


class TestEngine:
    """One engine, one file: layout and statement costs."""

    def test_has_event_costs_one_statement(self):
        built = MispStore(":memory:")
        try:
            event = make_event()
            built.save_event(event)
            for uuid, expected in ((event.uuid, True), ("ghost", False)):
                before = built.sql_statements
                assert built.has_event(uuid) is expected
                assert built.sql_statements - before == 1
        finally:
            built.close()

    def test_close_closes_each_connection_once(self, monkeypatch):
        closed = []
        original = CountingConnection.close

        def spy(conn):
            closed.append(conn)
            original(conn)

        monkeypatch.setattr(CountingConnection, "close", spy)
        MispStore(":memory:").close()
        assert len(closed) == 1

    def test_layouts_on_disk(self, tmp_path):
        single = tmp_path / "single.db"
        MispStore(str(single)).close()
        assert {"events", "attributes", "correlations", "audit_log",
                "store_meta"} <= table_names(single)
        assert "value_index" not in table_names(single)
        assert [p.name for p in tmp_path.iterdir()
                if p.name.startswith("single.db")
                and not p.name.endswith(("-wal", "-shm"))] == ["single.db"]

    def test_reopen_seeds_counters_lazily(self, tmp_path):
        # A store that has its counter rows opens without counting any
        # table; one that lost them reseeds them from the tables.
        path = str(tmp_path / "store.db")
        built = MispStore(path)
        run_scenario(built)
        counts = (built.event_count(), built.attribute_count(),
                  built.correlation_count())
        built.close()
        for lost_counters in (False, True):
            if lost_counters:
                raw = sqlite3.connect(path)
                raw.execute("DELETE FROM counters")
                raw.commit()
                raw.close()
            reopened = MispStore(path)
            try:
                if not lost_counters:
                    assert reopened.sql_statements <= 4
                assert (reopened.event_count(), reopened.attribute_count(),
                        reopened.correlation_count()) == counts
            finally:
                reopened.close()
