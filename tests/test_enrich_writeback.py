"""Every event write writes only the difference, and keeps the graph.

``MispStore.save_events`` and ``MispStore.apply_enrichments`` share one write
that reads the batch's stored attribute and tag rows and writes only the
rows that differ.  :func:`rewrite` keeps the full rewrite it replaced
(delete and re-insert every attribute and tag row of each event), and the
differential tests below hold the two to the same stored rows, audit rows,
event and attribute counters and returned blobs, and to the same refusals
of a second owner of an attribute uuid.  The same transaction keeps the
correlation graph current: :func:`graph` compares the stored edges with
the one edge per pair of equal correlatable values in different events
that the attribute rows call for, after every write path.
"""

import datetime as dt
import json
import sqlite3
from collections import defaultdict
from itertools import combinations
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import PAPER_NOW
from repro.core import SightingProcessor
from repro.dashboard.views import CorrelationGraphView
from repro.errors import ValidationError
from repro.infra import INFRASTRUCTURE_TAG
from repro.misp import MispAttribute, MispEvent, MispInstance, MispStore
from repro.misp.model import MispObject
from repro.misp.store import VAR_BUDGET
from repro.workloads import rce_use_case


def rewrite(store: MispStore, events: List[MispEvent],
            action: Optional[str] = "enriched") -> Dict[str, str]:
    """Reference: the full rewrite the difference write replaced.

    ``action`` is every event's audit action; ``None`` audits each as
    ``created`` or ``updated`` and writes a batch that repeats a uuid
    event by event, as ``save_events`` does.  The whole batch is one
    transaction.  Each event's attribute rows are deleted and inserted
    again with a plain ``INSERT``, so the ``attributes`` primary key
    refuses a second owner of an attribute uuid: the reference then
    raises :class:`ValidationError` and writes nothing.  The attribute
    counter moves by the change in the table's row count.
    """
    uuids = [event.uuid for event in events]
    parts = [[event] for event in events] \
        if action is None and len(set(uuids)) != len(uuids) else [events]
    blobs: Dict[str, str] = {}
    try:
        with store._transaction():
            for part in parts:
                blobs.update(rewrite_part(store, part, action))
    except sqlite3.IntegrityError as exc:
        raise ValidationError(str(exc)) from exc
    return blobs


def rewrite_part(store: MispStore, events: List[MispEvent],
                 action: Optional[str]) -> Dict[str, str]:
    """One part of :func:`rewrite`, events with distinct uuids, inside its
    transaction."""
    uuids = [event.uuid for event in events]
    conn = store._conn
    existing = {row[0] for row in conn.raw.execute(
        f"SELECT uuid FROM events WHERE uuid IN ({','.join('?' * len(uuids))})",
        uuids)}
    audit_rows, event_rows, attribute_rows, tag_rows = [], [], [], []
    for event in events:
        attributes = event.all_attributes()
        audit_rows.append((
            event.uuid,
            action or ("updated" if event.uuid in existing else "created"),
            f"{len(attributes)} attributes",
            int(event.timestamp.timestamp())))
        event_rows.append((
            event.uuid, event.info, event.date.isoformat(), event.org,
            event.threat_level_id, event.analysis, event.distribution,
            int(event.published), int(event.timestamp.timestamp()),
            json.dumps(event.to_dict(), sort_keys=True)))
        attribute_rows.extend((
            attribute.uuid, event.uuid, attribute.type,
            attribute.category, attribute.value, int(attribute.to_ids),
            int(attribute.correlatable),
            int(attribute.timestamp.timestamp()))
            for attribute in attributes)
        tag_rows.extend((event.uuid, tag.name) for tag in event.tags)
    deletes = [(uuid,) for uuid in uuids]

    def attribute_table_size():
        return conn.raw.execute("SELECT COUNT(*) FROM attributes").fetchone()[0]

    before = attribute_table_size()
    conn.executemany("DELETE FROM attributes WHERE event_uuid = ?", deletes)
    conn.executemany(
        "INSERT OR REPLACE INTO events (uuid, info, date, org,"
        " threat_level_id, analysis, distribution, published, timestamp,"
        " blob) VALUES (?,?,?,?,?,?,?,?,?,?)", event_rows)
    conn.executemany("DELETE FROM event_tags WHERE event_uuid = ?", deletes)
    conn.executemany(
        "INSERT INTO attributes (uuid, event_uuid, type, category,"
        " value, to_ids, correlatable, timestamp)"
        " VALUES (?,?,?,?,?,?,?,?)", attribute_rows)
    if tag_rows:
        conn.executemany(
            "INSERT OR IGNORE INTO event_tags (event_uuid, name)"
            " VALUES (?,?)", tag_rows)
    conn.executemany(
        "INSERT INTO audit_log (event_uuid, action, detail, logged_at)"
        " VALUES (?,?,?,?)", audit_rows)
    store._bump("events", len(set(uuids) - existing))
    store._bump("attributes", attribute_table_size() - before)
    return {row[0]: row[-1] for row in event_rows}


def graph(store: MispStore):
    """``(stored, expected)`` edges as sorted ``((attribute, event),
    (attribute, event), value)`` triples, endpoints ordered by uuid.

    Expected: one edge per pair of correlatable attribute rows with equal
    values in different events, and no other.
    """
    raw = store._conn.raw
    stored = sorted(
        (*sorted([(source, source_event), (target, target_event)]), value)
        for source, target, source_event, target_event, value in raw.execute(
            "SELECT source_attribute, target_attribute, source_event,"
            " target_event, value FROM correlations"))
    by_value = defaultdict(list)
    for uuid, event_uuid, value in sorted(raw.execute(
            "SELECT uuid, event_uuid, value FROM attributes"
            " WHERE correlatable = 1")):
        by_value[value].append((uuid, event_uuid))
    expected = sorted((a, b, value) for value, rows in by_value.items()
                      for a, b in combinations(rows, 2) if a[1] != b[1])
    return stored, expected


def assert_consistent(store: MispStore) -> None:
    """The graph is the one the rows call for, and every counter counts
    its table."""
    stored, expected = graph(store)
    assert stored == expected
    raw = store._conn.raw
    assert [store.event_count(), store.attribute_count(),
            store.correlation_count()] == [
        raw.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
        for table in ("events", "attributes", "correlations")]


def table_state(store: MispStore) -> Dict[str, list]:
    """Every row a write can touch but the edges, which the reference does
    not keep; audit rows in seq order."""
    raw = store._conn.raw

    def rows(sql):
        return [tuple(row) for row in raw.execute(sql).fetchall()]

    return {
        "events": sorted(rows("SELECT * FROM events")),
        "attributes": sorted(rows("SELECT * FROM attributes")),
        "event_tags": sorted(rows("SELECT * FROM event_tags")),
        "audit_log": rows("SELECT * FROM audit_log ORDER BY seq"),
        "counters": sorted(rows(
            "SELECT * FROM counters WHERE name != 'correlations'")),
    }


def copy_of(event: MispEvent) -> MispEvent:
    return MispEvent.from_dict(event.to_dict())


def stamp(seconds: int) -> dt.datetime:
    return PAPER_NOW + dt.timedelta(seconds=seconds)


VALUES = ["a.example", "b.example", "c.example", "198.51.100.7"]
TAGS = ["tlp:green", "caop:cioc", "caop:eioc", 'caop:category="phishing"']

attribute_fields = st.tuples(
    st.sampled_from(["domain", "ip-dst", "text"]),
    st.sampled_from(VALUES), st.booleans(), st.integers(0, 3))


def build_event(index: int, top, objects, tags) -> MispEvent:
    event = MispEvent(info=f"event {index}", uuid=f"event-{index:04d}",
                      timestamp=stamp(index))
    serial = 0

    def attribute(fields) -> MispAttribute:
        nonlocal serial
        serial += 1
        kind, value, to_ids, offset = fields
        return MispAttribute(type=kind, value=value, to_ids=to_ids,
                             timestamp=stamp(offset),
                             uuid=f"attr-{index:04d}-{serial:02d}")

    for fields in top:
        event.add_attribute(attribute(fields))
    for number, members in enumerate(objects):
        obj = MispObject(name="domain-ip", uuid=f"obj-{index:04d}-{number}")
        for relation, fields in enumerate(members):
            obj.add_attribute(attribute(fields), f"rel-{relation}")
        event.objects.append(obj)
    for tag in tags:
        event.add_tag(tag)
    return event


events_strategy = st.lists(
    st.tuples(st.lists(attribute_fields, max_size=3),
              st.lists(st.lists(attribute_fields, min_size=1, max_size=2),
                       max_size=2),
              st.lists(st.sampled_from(TAGS), unique=True, max_size=3)),
    min_size=1, max_size=5)

CHANGES = ("append", "append_to_object", "drop", "value", "to_ids",
           "timestamp", "add_tag", "drop_tag", "fields", "move", "unchanged")


def change(event: MispEvent, kind: str, data, donor: MispEvent) -> None:
    """Apply one drawn change to an event copy, in place."""
    attributes = event.all_attributes()
    if kind == "append":
        event.add_attribute(MispAttribute(
            type="float", value="3.2100", to_ids=False, timestamp=stamp(9),
            uuid=f"{event.uuid}-score-{len(attributes)}"))
    elif kind == "append_to_object" and event.objects:
        event.objects[0].add_attribute(MispAttribute(
            type="domain", value=data.draw(st.sampled_from(VALUES)),
            timestamp=stamp(8),
            uuid=f"{event.uuid}-added-{len(attributes)}"), "added")
    elif kind == "drop" and attributes:
        victim = data.draw(st.sampled_from(attributes))
        event.attributes = [a for a in event.attributes if a is not victim]
        for obj in event.objects:
            obj.attributes = [a for a in obj.attributes if a is not victim]
    elif kind == "value" and attributes:
        data.draw(st.sampled_from(attributes)).value = data.draw(
            st.sampled_from(VALUES))
    elif kind == "to_ids" and attributes:
        target = data.draw(st.sampled_from(attributes))
        target.to_ids = not target.to_ids
    elif kind == "timestamp" and attributes:
        data.draw(st.sampled_from(attributes)).timestamp = stamp(
            data.draw(st.integers(4, 7)))
    elif kind == "add_tag":
        event.add_tag(data.draw(st.sampled_from(TAGS)))
    elif kind == "drop_tag" and event.tags:
        event.tags = event.tags[1:]
    elif kind == "fields":
        event.info += " (revised)"
        event.threat_level_id = 1
        event.published = not event.published
        event.timestamp = stamp(20)
    elif kind == "move" and donor is not event and donor.attributes:
        # The donor's attribute uuid moves to this event; the donor's own
        # copy, if it is in the batch, drops it.
        moved = donor.attributes[0]
        event.add_attribute(MispAttribute(
            type=moved.type, value=moved.value, to_ids=moved.to_ids,
            timestamp=moved.timestamp, uuid=moved.uuid))
        donor.attributes = donor.attributes[1:]


def chunked_reads(store: MispStore, write) -> Dict[str, List[int]]:
    """Run ``write()``; the bound-parameter count of each ``SELECT`` it
    issued, by statement (its text up to the ``IN`` list)."""
    reads: Dict[str, List[int]] = {}
    execute = store._conn.execute

    def spy(sql, params=()):
        if sql.startswith("SELECT"):
            reads.setdefault(sql.split(" IN (")[0], []).append(len(params))
        return execute(sql, params)

    store._conn.execute = spy
    try:
        write()
    finally:
        del store._conn.execute
    return reads


def two_stores(events: List[MispEvent]):
    stores = [MispStore(), MispStore()]
    for store in stores:
        store.save_events([copy_of(event) for event in events])
    return stores


def outcome(write, batch: List[MispEvent]):
    """``write``'s answer to a copy of ``batch``, or ``"refused"``."""
    try:
        return write([copy_of(event) for event in batch])
    except ValidationError:
        return "refused"


def assert_same_write(batch: List[MispEvent], stored: List[MispEvent],
                      enriched: bool = True):
    """Write ``batch`` over ``stored`` through ``apply_enrichments`` (or
    ``save_events``) and through the reference; the two must agree, and a
    refused write must leave the store as it was."""
    diff, reference = two_stores(stored)
    before = table_state(diff), graph(diff)
    blobs = outcome(diff.apply_enrichments if enriched else diff.save_events,
                    batch)
    assert blobs == outcome(
        lambda events: rewrite(reference, events,
                               "enriched" if enriched else None), batch)
    if blobs == "refused":
        assert (table_state(diff), graph(diff)) == before
    assert table_state(diff) == table_state(reference)
    assert_consistent(diff)
    return diff


class TestDifferentialWriteBack:
    @given(events_strategy, st.data())
    @settings(max_examples=80, deadline=None)
    def test_difference_write_matches_full_rewrite(self, drawn, data):
        stored = [build_event(index, *fields)
                  for index, fields in enumerate(drawn)]
        versions = [copy_of(event) for event in stored]
        for event in versions:
            for kind in data.draw(st.lists(st.sampled_from(CHANGES),
                                           max_size=3)):
                change(event, kind, data, data.draw(st.sampled_from(versions)))
        # Some stored events stay out of the batch (an attribute moved
        # from one of them is refused), and one batch member is not stored
        # yet.
        batch = [event for event in versions if data.draw(st.booleans())]
        if data.draw(st.booleans()):
            batch.append(build_event(len(stored), [("domain", VALUES[0],
                                                    True, 1)], [], TAGS[:1]))
        if not batch:
            batch = versions[:1]
        enriched = data.draw(st.booleans())
        if not enriched and data.draw(st.booleans()):
            # save_events writes a batch that repeats a uuid event by event.
            again = copy_of(data.draw(st.sampled_from(batch)))
            change(again, data.draw(st.sampled_from(CHANGES)), data, again)
            batch.append(again)
        assert_same_write(batch, stored, enriched)

    def test_unchanged_event_rewrites_nothing_but_its_audit_row(self):
        event = build_event(0, [("domain", "a.example", True, 0)], [],
                            ["tlp:green"])
        store = assert_same_write([event], [event])
        assert [row["action"] for row in store.event_history(event.uuid)] \
            == ["created", "enriched"]

    def test_batch_over_the_variable_budget_spans_two_chunks(self):
        count = VAR_BUDGET + 40
        stored = [build_event(index, [("domain", VALUES[index % 4], True, 0),
                                      ("text", "notes", False, 1)],
                              [], ["caop:cioc"])
                  for index in range(count)]
        batch = []
        for index, event in enumerate(stored):
            version = copy_of(event)
            version.add_attribute(MispAttribute(
                type="float", value="2.5000", to_ids=False,
                timestamp=stamp(5), uuid=f"{event.uuid}-score"))
            version.add_tag("caop:eioc")
            if index % 7 == 0:
                version.attributes = version.attributes[1:]
                version.tags = []
            batch.append(version)
        store = MispStore()
        store.save_events([copy_of(event) for event in stored])
        reads = chunked_reads(store, lambda: store.apply_enrichments(
            [copy_of(event) for event in batch]))
        # The tag rows and the attribute rows of the 1,000 events take two
        # IN chunks each.  The write adds no correlatable value, so it
        # reads nothing else.
        assert sorted(reads.values()) == \
            [[VAR_BUDGET, count - VAR_BUDGET]] * 2
        assert_same_write(batch, stored)

    def test_resave_over_the_variable_budget_spans_two_chunks(self):
        # Events 2k and 2k+1 share a value.  The re-save changes each
        # event's shared value to the next event's own value: every pair
        # edge goes, and one edge links each event to the next.
        count = VAR_BUDGET + 40
        stored = [build_event(index,
                              [("domain", f"pair-{index // 2}.example",
                                True, 0),
                               ("domain", f"own-{index}.example", True, 0)],
                              [], [])
                  for index in range(count)]
        store = MispStore()
        reads = chunked_reads(store, lambda: store.save_events(
            [copy_of(event) for event in stored]))
        # No event is stored, so only the tag rows (the existence probe)
        # and the correlation probe are read.
        assert len(reads) == 2
        assert all(len(sizes) >= 2 for sizes in reads.values()), reads
        assert store.correlation_count() == count // 2
        versions = [copy_of(event) for event in stored]
        for index, version in enumerate(versions):
            version.attributes[0].value = f"own-{(index + 1) % count}.example"
        reads = chunked_reads(store, lambda: store.save_events(versions))
        # The attribute rows, the tag rows and the probe of the 1,000
        # changed values are read, each in two chunks.
        assert sorted(reads.values()) == \
            [[VAR_BUDGET, count - VAR_BUDGET]] * 3
        assert store.correlation_count() == count
        assert_consistent(store)

    def test_relink_names_rows_new_or_changed_in_value(self):
        partner = build_event(1, [("domain", value, True, 0) for value in (
            "a.example", "b.example", "d.example", "e.example")], [], [])
        event = build_event(0, [("domain", "a.example", True, 0),
                                ("domain", "b.example", True, 0),
                                ("domain", "c.example", True, 0)], [], [])
        store = MispStore()
        store.save_events([copy_of(partner), copy_of(event)])
        raw = store._conn.raw
        kept = raw.execute("SELECT rowid, * FROM correlations"
                           " WHERE value = 'a.example'").fetchall()
        version = copy_of(event)
        version.attributes[0].timestamp = stamp(3)      # same value
        version.attributes[1].value = "d.example"       # new value
        version.add_attribute(MispAttribute(
            type="domain", value="e.example", uuid="attr-new"))
        store.apply_enrichments([version])
        # The row whose value stayed keeps its edge, rowid and all.
        assert raw.execute("SELECT rowid, * FROM correlations"
                           " WHERE value = 'a.example'").fetchall() == kept
        assert [(row["source_attribute"], row["value"])
                for row in store.correlations_for_event(event.uuid)] == [
            ("attr-0000-01", "a.example"), ("attr-0000-02", "d.example"),
            ("attr-new", "e.example")]
        assert_consistent(store)

    def test_attributes_metric_counts_rows_written(self):
        from repro.obs import MetricsRegistry
        metrics = MetricsRegistry()
        store = MispStore(metrics=metrics)
        event = build_event(0, [("domain", "a.example", True, 0),
                                ("text", "notes", False, 0)], [], [])
        store.save_events([copy_of(event)])
        counter = metrics.counter("caop_misp_attributes_stored_total")
        before = counter.total()
        version = copy_of(event)
        version.add_attribute(MispAttribute(
            type="float", value="1.0000", to_ids=False, uuid="attr-score"))
        store.apply_enrichments([version])
        assert counter.total() - before == 1
        # A re-save counts only the row it changed too.
        version.attributes[0].value = "b.example"
        before = counter.total()
        store.save_events([copy_of(version)])
        assert counter.total() - before == 1


def reversed_pairs(store: MispStore) -> List[tuple]:
    """Correlation rows whose pair is also stored the other way round."""
    rows = store._conn.raw.execute(
        "SELECT source_attribute, target_attribute FROM correlations"
    ).fetchall()
    pairs = {tuple(row) for row in rows}
    return sorted(pair for pair in pairs if pair[::-1] in pairs)


class TestWriteBackCorrelation:
    def test_enriching_an_earlier_event_adds_no_reversed_edge(self):
        misp = MispInstance(org="TestOrg")
        a = MispEvent(info="a")
        a.add_attribute(MispAttribute(type="domain", value="evil.example"))
        misp.add_event(a, publish_feed=False)
        b = MispEvent(info="b")
        b.add_attribute(MispAttribute(type="domain", value="evil.example"))
        misp.add_event(b, publish_feed=False)
        assert misp.store.correlation_count() == 1
        misp.apply_enrichments([a])
        assert misp.store.correlation_count() == 1
        assert reversed_pairs(misp.store) == []

    def test_sighting_rescore_links_eioc_and_evidence_once(self):
        scenario = rce_use_case()
        scenario.heuristics.process_pending()
        processor = SightingProcessor(scenario.misp, scenario.heuristics,
                                      clock=scenario.clock)
        outcome = processor.report(scenario.cioc.uuid, "CVE-2017-9805",
                                   "Node 4")
        assert outcome.new_score == pytest.approx(2.9101, abs=1e-4)
        store = scenario.misp.store
        evidence = [event.uuid for event in store.list_events()
                    if event.has_tag(INFRASTRUCTURE_TAG)]
        assert len(evidence) == 1
        links = [row for row in store.correlations_for_event(
            scenario.cioc.uuid)
            if {row["source_event"], row["target_event"]}
            == {scenario.cioc.uuid, evidence[0]}]
        assert len(links) == 1
        assert reversed_pairs(store) == []

    def test_batch_order_rule_keeps_edges_to_a_later_members_stored_row(self):
        # Event b is later in the batch, but its matching row was stored
        # before: a's added row must link it, as a serial write-back would.
        misp = MispInstance(org="TestOrg")
        a = MispEvent(info="a")
        a.add_attribute(MispAttribute(type="text", value="notes",
                                      to_ids=False))
        b = MispEvent(info="b")
        b.add_attribute(MispAttribute(type="domain", value="evil.example"))
        misp.add_events([a, b], publish_feed=False)
        a.add_attribute(MispAttribute(type="domain", value="evil.example"))
        b.add_tag("caop:eioc")
        misp.apply_enrichments([a, b])
        rows = misp.store.correlations_for_event(a.uuid)
        assert [(row["source_event"], row["target_event"]) for row in rows] \
            == [(a.uuid, b.uuid)]


def domain_event(info: str, *values: str) -> MispEvent:
    event = MispEvent(info=info, timestamp=stamp(0))
    for value in values:
        event.add_attribute(MispAttribute(type="domain", value=value,
                                          timestamp=stamp(0)))
    return event


def refused_batch(owner: str, x: MispEvent) -> List[MispEvent]:
    """A batch that gives an attribute uuid a second owner: a stored event
    ``x``, another batch event, or the same event."""
    y = domain_event("y", "x.example", "y.example")
    if owner == "stored":
        y.attributes[0].uuid = x.attributes[0].uuid
        return [y]
    if owner == "batch":
        z = domain_event("z", "z.example")
        z.attributes[0].uuid = y.attributes[1].uuid
        return [y, z]
    y.attributes[1].uuid = y.attributes[0].uuid
    return [y]


def assert_blobs_list_their_rows(store: MispStore) -> None:
    """Each stored event's blob lists exactly the attribute uuids of its
    rows, each once."""
    raw = store._conn.raw
    rows = defaultdict(list)
    for uuid, event_uuid in raw.execute(
            "SELECT uuid, event_uuid FROM attributes"):
        rows[event_uuid].append(uuid)
    for uuid, blob in raw.execute("SELECT uuid, blob FROM events"):
        listed = [attribute.uuid for attribute in
                  MispEvent.from_dict(json.loads(blob)).all_attributes()]
        assert sorted(listed) == sorted(rows[uuid]), uuid


def view_state(view: CorrelationGraphView):
    """A graph view's nodes (with their info) and unordered edges."""
    graph = view.graph()
    return (sorted(graph.nodes(data="info")),
            sorted(tuple(sorted(edge)) for edge in graph.edges()))


WRITES = ("add_events", "receive_event", "apply_enrichments",
          "add_attribute", "tag_event", "publish_event", "delete_event")
EDITS = ("append", "drop", "value", "to_ids", "move")


class TestEveryWriteKeepsTheGraph:
    """Every write path leaves one edge per pair of equal correlatable
    values in different events, and counters that count their tables."""

    @pytest.mark.parametrize("edit", ["drop", "change"])
    def test_resave_that_drops_or_changes_a_value_unlinks_it(self, edit):
        misp = MispInstance(org="TestOrg")
        a = domain_event("a", "x.example")
        b = domain_event("b", "x.example")
        misp.add_events([a, b], publish_feed=False)
        assert misp.store.correlation_count() == 1
        version = copy_of(b)
        if edit == "drop":
            version.attributes = [MispAttribute(type="domain",
                                                value="y.example")]
        else:
            version.attributes[0].value = "y.example"
        misp.add_events([version], publish_feed=False)
        assert misp.store.correlations_for_event(b.uuid) == []
        assert misp.store.correlations_for_event(a.uuid) == []
        assert_consistent(misp.store)

    def test_second_owner_of_a_uuid_is_refused(self):
        for owner in ("stored", "batch", "same-event"):
            for path in ("save_events", "apply_enrichments"):
                store = MispStore()
                partner = domain_event("w", "x.example")
                x = domain_event("x", "x.example")
                store.save_events([partner, x])
                batch = refused_batch(owner, x)
                before = table_state(store), graph(store)
                with pytest.raises(ValidationError):
                    getattr(store, path)([copy_of(event) for event in batch])
                assert (table_state(store), graph(store)) == before
                assert not store.has_event(batch[0].uuid)
                # The full rewrite refuses the same batch.
                assert_same_write(batch, [partner, x],
                                  enriched=path == "apply_enrichments")
                # A newer version of the holder itself is still written.
                version = copy_of(x)
                version.attributes[0].value = "v.example"
                version.timestamp = stamp(1)
                getattr(store, path)([version])
                assert store.correlations_for_event(x.uuid) == []
                assert_consistent(store)

    def test_a_uuid_one_batch_event_drops_and_another_adds_is_legal(self):
        store = MispStore()
        partner = domain_event("w", "x.example")
        x = domain_event("x", "x.example", "kept.example")
        store.save_events([partner, x])
        view = CorrelationGraphView(store)
        view.refresh()
        dropped = copy_of(x)
        moved = dropped.attributes.pop(0)
        y = domain_event("y")
        y.add_attribute(moved)
        store.save_events([copy_of(y), copy_of(dropped)])
        assert_same_write([y, dropped], [partner, x], enriched=False)
        assert store.correlations_for_event(x.uuid) == []
        assert [row["source_attribute"]
                for row in store.correlations_for_event(y.uuid)] == [moved.uuid]
        assert store.attribute_count() == 3
        assert_consistent(store)
        assert_blobs_list_their_rows(store)
        assert view_state(view) == view_state(
            CorrelationGraphView(store, name="fresh:graph"))

    def test_a_refused_batch_that_repeats_an_event_writes_nothing(self):
        # The batch is written event by event; the last one is refused, so
        # the first two versions go too.
        store = MispStore()
        x = domain_event("x", "x.example")
        store.save_events([copy_of(x)])
        before = table_state(store), graph(store)
        first, second = copy_of(x), copy_of(x)
        first.attributes[0].value = "first.example"
        second.attributes[0].value = "second.example"
        y = domain_event("y", "y.example")
        y.attributes[0].uuid = x.attributes[0].uuid
        with pytest.raises(ValidationError):
            store.save_events([first, second, y])
        assert (table_state(store), graph(store)) == before
        assert_same_write([first, second, y], [x], enriched=False)

    @pytest.mark.parametrize("path", ["add_event", "add_attribute",
                                      "receive_event"])
    def test_rewriting_an_earlier_event_adds_no_reversed_edge(self, path):
        misp = MispInstance(org="TestOrg")
        a = domain_event("a", "evil.example")
        misp.add_event(a, publish_feed=False)
        misp.add_event(domain_event("b", "evil.example"), publish_feed=False)
        version = copy_of(a)
        version.timestamp = stamp(1)
        if path == "add_event":
            misp.add_event(version, publish_feed=False)
        elif path == "add_attribute":
            misp.add_attribute(a.uuid, MispAttribute(
                type="domain", value="other.example"), publish_feed=False)
        else:
            misp.receive_event(version)
        assert misp.store.correlation_count() == 1
        assert reversed_pairs(misp.store) == []
        assert_consistent(misp.store)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_every_write_keeps_one_edge_per_pair(self, data):
        misp = MispInstance(org="TestOrg")
        store = misp.store
        raw = store._conn.raw
        serial = iter(range(1, 1_000_000))
        # Maintained from the change feed, it must follow every edge a
        # write deletes, as a rescan does.
        view = CorrelationGraphView(store)
        #: The attribute uuids the current write's versions took from
        #: another event.
        moved: List[str] = []

        def attribute() -> MispAttribute:
            kind, value, to_ids, offset = data.draw(attribute_fields)
            return MispAttribute(type=kind, value=value, to_ids=to_ids,
                                 timestamp=stamp(offset),
                                 uuid=f"attr-{next(serial)}")

        def stored_uuids() -> List[str]:
            return [row[0] for row in raw.execute(
                "SELECT uuid FROM events ORDER BY uuid")]

        def version() -> MispEvent:
            """A new event, or a stored one with drawn edits."""
            uuids = stored_uuids()
            if not uuids or data.draw(st.booleans()):
                number = next(serial)
                event = MispEvent(info=f"event {number}",
                                  uuid=f"event-{number}",
                                  timestamp=stamp(number))
                for _ in range(data.draw(st.integers(1, 3))):
                    event.add_attribute(attribute())
                return event
            event = store.get_event(data.draw(st.sampled_from(uuids)))
            event.timestamp = stamp(next(serial))
            for edit in data.draw(st.lists(st.sampled_from(EDITS),
                                           min_size=1, max_size=3)):
                attributes = event.all_attributes()
                if edit == "append":
                    event.add_attribute(attribute())
                elif edit == "drop" and event.attributes:
                    event.attributes.pop(data.draw(
                        st.integers(0, len(event.attributes) - 1)))
                elif edit == "value" and attributes:
                    data.draw(st.sampled_from(attributes)).value = \
                        data.draw(st.sampled_from(VALUES))
                elif edit == "to_ids" and attributes:
                    target = data.draw(st.sampled_from(attributes))
                    target.to_ids = not target.to_ids
                elif edit == "move":
                    # Carry the uuid of another event's attribute row.
                    rows = raw.execute(
                        "SELECT uuid, type, value, to_ids FROM attributes"
                        " WHERE event_uuid != ? ORDER BY uuid",
                        (event.uuid,)).fetchall()
                    if rows:
                        uuid, kind, value, to_ids = data.draw(
                            st.sampled_from(rows))
                        moved.append(uuid)
                        event.add_attribute(MispAttribute(
                            type=kind, value=value, to_ids=bool(to_ids),
                            timestamp=stamp(0), uuid=uuid))
            return event

        def batch() -> List[MispEvent]:
            return [version() for _ in range(data.draw(st.integers(1, 3)))]

        def write(kind: str, uuids: List[str]) -> None:
            if kind == "add_events":
                misp.add_events(batch(), publish_feed=False)
            elif kind == "receive_event":
                misp.receive_event(version())
            elif kind == "apply_enrichments":
                eiocs = {event.uuid: event for event in batch()}
                for event in eiocs.values():
                    event.add_attribute(MispAttribute(
                        type="float", value="2.5000", to_ids=False,
                        timestamp=stamp(9), uuid=f"score-{next(serial)}"))
                    event.add_tag("caop:eioc")
                misp.apply_enrichments(list(eiocs.values()))
            elif kind == "add_attribute":
                misp.add_attribute(data.draw(st.sampled_from(uuids)),
                                   attribute(), publish_feed=False)
            elif kind == "tag_event":
                misp.tag_event(data.draw(st.sampled_from(uuids)),
                               data.draw(st.sampled_from(TAGS)))
            elif kind == "publish_event":
                misp.publish_event(data.draw(st.sampled_from(uuids)))
            else:
                store.delete_event(data.draw(st.sampled_from(uuids)))

        for _ in range(data.draw(st.integers(1, 8))):
            kind = data.draw(st.sampled_from(WRITES))
            uuids = stored_uuids()
            if not uuids and kind not in ("add_events", "receive_event",
                                          "apply_enrichments"):
                continue
            moved.clear()
            before = table_state(store), graph(store)
            try:
                write(kind, uuids)
                refused = False
            except ValidationError:
                refused = True
            # Only a moved uuid can give a row a second owner; a received
            # event is written alone, so its moved uuid always does.  A
            # refused write leaves the store as it was.
            assert not refused or moved
            if kind == "receive_event":
                assert refused == bool(moved)
            if refused:
                assert (table_state(store), graph(store)) == before
            assert_consistent(store)
            assert_blobs_list_their_rows(store)
            assert view_state(view) == view_state(
                CorrelationGraphView(store, name="fresh:graph"))
