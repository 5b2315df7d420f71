"""The enrichment write-back writes only the difference.

``MispStore.apply_enrichments`` reads the batch's stored attribute and tag
rows and writes only the rows that differ.  :func:`rewrite_enrichments`
keeps the full rewrite it replaced (delete and re-insert every attribute
and tag row of each event), and the differential tests below hold the two
to the same stored rows, audit rows, counters and returned blobs.  The
correlation tests check that the write-back links only what it added, so
an eIoC already linked to a later event gets no second, reversed edge.
"""

import datetime as dt
import json
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import PAPER_NOW
from repro.core import SightingProcessor
from repro.infra import INFRASTRUCTURE_TAG
from repro.misp import MispAttribute, MispEvent, MispInstance, MispStore
from repro.misp.model import MispObject
from repro.misp.store import VAR_BUDGET
from repro.workloads import rce_use_case


def rewrite_enrichments(store: MispStore,
                        events: List[MispEvent]) -> Dict[str, str]:
    """Reference: the full rewrite the difference write-back replaced."""
    conn = store._conn
    uuids = [event.uuid for event in events]
    existing = store.existing_events(uuids)
    audit_rows, event_rows, attribute_rows, tag_rows = [], [], [], []
    for event in events:
        attributes = event.all_attributes()
        audit_rows.append((event.uuid, "enriched",
                           f"{len(attributes)} attributes",
                           int(event.timestamp.timestamp())))
        event_rows.append((
            event.uuid, event.info, event.date.isoformat(), event.org,
            event.threat_level_id, event.analysis, event.distribution,
            int(event.published), int(event.timestamp.timestamp()),
            json.dumps(event.to_dict(), sort_keys=True)))
        for attribute in attributes:
            attribute_rows.append((
                attribute.uuid, event.uuid, attribute.type,
                attribute.category, attribute.value, int(attribute.to_ids),
                int(attribute.correlatable),
                int(attribute.timestamp.timestamp())))
        tag_rows.extend((event.uuid, tag.name) for tag in event.tags)
    deletes = [(uuid,) for uuid in uuids]
    with store._transaction():
        before = conn.total_changes
        conn.executemany("DELETE FROM attributes WHERE event_uuid = ?",
                         deletes)
        replaced = conn.total_changes - before
        conn.executemany(
            "INSERT OR REPLACE INTO events (uuid, info, date, org,"
            " threat_level_id, analysis, distribution, published, timestamp,"
            " blob) VALUES (?,?,?,?,?,?,?,?,?,?)", event_rows)
        conn.executemany("DELETE FROM event_tags WHERE event_uuid = ?",
                         deletes)
        conn.executemany(
            "INSERT OR REPLACE INTO attributes (uuid, event_uuid, type,"
            " category, value, to_ids, correlatable, timestamp)"
            " VALUES (?,?,?,?,?,?,?,?)", attribute_rows)
        if tag_rows:
            conn.executemany(
                "INSERT OR IGNORE INTO event_tags (event_uuid, name)"
                " VALUES (?,?)", tag_rows)
        conn.executemany(
            "INSERT INTO audit_log (event_uuid, action, detail, logged_at)"
            " VALUES (?,?,?,?)", audit_rows)
        store._bump("events", len(set(uuids) - existing))
        store._bump("attributes", len(attribute_rows) - replaced)
    return {row[0]: row[-1] for row in event_rows}


def table_state(store: MispStore) -> Dict[str, list]:
    """Every row the write-back can touch; audit rows in seq order."""
    raw = store._conn.raw

    def rows(sql):
        return [tuple(row) for row in raw.execute(sql).fetchall()]

    return {
        "events": sorted(rows("SELECT * FROM events")),
        "attributes": sorted(rows("SELECT * FROM attributes")),
        "event_tags": sorted(rows("SELECT * FROM event_tags")),
        "audit_log": rows("SELECT * FROM audit_log ORDER BY seq"),
        "counters": sorted(rows("SELECT * FROM counters")),
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


def two_stores(events: List[MispEvent]):
    stores = [MispStore(), MispStore()]
    for store in stores:
        store.save_events([copy_of(event) for event in events])
    return stores


def assert_same_write(batch: List[MispEvent], stored: List[MispEvent]):
    diff, reference = two_stores(stored)
    blobs = diff.apply_enrichments([copy_of(event) for event in batch])
    expected = rewrite_enrichments(
        reference, [copy_of(event) for event in batch])
    assert blobs == expected
    assert table_state(diff) == table_state(reference)
    assert diff.attribute_count() == reference.attribute_count()
    assert diff.event_count() == reference.event_count()
    return diff


class TestDifferentialWriteBack:
    @given(events_strategy, st.data())
    @settings(max_examples=60, deadline=None)
    def test_difference_write_matches_full_rewrite(self, drawn, data):
        stored = [build_event(index, *fields)
                  for index, fields in enumerate(drawn)]
        versions = [copy_of(event) for event in stored]
        for event in versions:
            for kind in data.draw(st.lists(st.sampled_from(CHANGES),
                                           max_size=3)):
                change(event, kind, data, data.draw(st.sampled_from(versions)))
        # Some stored events stay out of the batch (a moved attribute may
        # leave one of them), and one batch member is not stored yet.
        batch = [event for event in versions if data.draw(st.booleans())]
        if data.draw(st.booleans()):
            batch.append(build_event(len(stored), [("domain", VALUES[0],
                                                    True, 1)], [], TAGS[:1]))
        if not batch:
            batch = versions[:1]
        assert_same_write(batch, stored)

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
        batch.append(build_event(count, [("domain", "new.example", True, 0)],
                                 [], []))
        reads = []
        store = MispStore()
        store.save_events([copy_of(event) for event in stored])
        execute = store._conn.execute

        def spy(sql, params=()):
            if sql.startswith("SELECT"):
                reads.append(len(params))
            return execute(sql, params)

        store._conn.execute = spy
        store.apply_enrichments([copy_of(event) for event in batch])
        # Two reads (attribute rows, tag rows) per IN chunk.
        assert sorted(reads) == [count + 1 - VAR_BUDGET] * 2 \
            + [VAR_BUDGET] * 2
        assert_same_write(batch, stored)

    def test_relink_names_rows_new_or_changed_in_value(self):
        event = build_event(0, [("domain", "a.example", True, 0),
                                ("domain", "b.example", True, 0),
                                ("domain", "c.example", True, 0)], [], [])
        store = MispStore()
        store.save_events([copy_of(event)])
        version = copy_of(event)
        version.attributes[0].timestamp = stamp(3)      # same value
        version.attributes[1].value = "d.example"       # new value
        version.add_attribute(MispAttribute(
            type="domain", value="e.example", uuid="attr-new"))
        relink = set()
        store.apply_enrichments([version], relink=relink)
        assert relink == {version.attributes[1].uuid, "attr-new"}

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
