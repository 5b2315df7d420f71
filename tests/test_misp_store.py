"""Tests for the SQLite-backed MISP store."""

import datetime as dt

import pytest

from repro.clock import PAPER_NOW, SimulatedClock
from repro.misp import Distribution, MispAttribute, MispEvent, MispStore


@pytest.fixture
def store():
    return MispStore()


def make_event(info="event", values=("a.example",), published=False):
    event = MispEvent(info=info, published=published)
    for value in values:
        event.add_attribute(MispAttribute(type="domain", value=value))
    return event


class TestCrud:
    def test_save_and_get(self, store):
        event = make_event()
        store.save_event(event)
        loaded = store.get_event(event.uuid)
        assert loaded is not None
        assert loaded.info == "event"
        assert loaded.attributes[0].value == "a.example"

    def test_get_missing_returns_none(self, store):
        assert store.get_event("nope") is None

    def test_has_event(self, store):
        event = make_event()
        assert not store.has_event(event.uuid)
        store.save_event(event)
        assert store.has_event(event.uuid)

    def test_replace_updates(self, store):
        event = make_event()
        store.save_event(event)
        event.info = "updated"
        store.save_event(event)
        assert store.get_event(event.uuid).info == "updated"
        assert store.event_count() == 1

    def test_delete(self, store):
        event = make_event()
        store.save_event(event)
        assert store.delete_event(event.uuid)
        assert not store.has_event(event.uuid)
        assert not store.delete_event(event.uuid)

    def test_delete_cascades_to_attributes(self, store):
        event = make_event(values=("a.example", "b.example"))
        store.save_event(event)
        assert store.attribute_count() == 2
        store.delete_event(event.uuid)
        assert store.attribute_count() == 0

    def test_counts(self, store):
        store.save_event(make_event(values=("a.example", "b.example")))
        store.save_event(make_event(info="two", values=("c.example",)))
        assert store.event_count() == 2
        assert store.attribute_count() == 3


class TestSearch:
    def test_search_value(self, store):
        event = make_event()
        store.save_event(event)
        hits = store.search_value("a.example")
        assert hits and hits[0][0] == event.uuid

    def test_search_events_by_info(self, store):
        store.save_event(make_event(info="apache struts incident"))
        store.save_event(make_event(info="other"))
        hits = store.search_events(info_substring="struts")
        assert len(hits) == 1

    def test_search_events_by_tag(self, store):
        event = make_event()
        event.add_tag("tlp:red")
        store.save_event(event)
        store.save_event(make_event(info="untagged"))
        assert len(store.search_events(tag="tlp:red")) == 1
        assert store.search_events(tag="missing") == []

    def test_search_events_by_type_and_value(self, store):
        store.save_event(make_event(values=("x.example",)))
        hits = store.search_events(attribute_type="domain", value="x.example")
        assert len(hits) == 1
        assert store.search_events(attribute_type="url", value="x.example") == []

    def test_list_events_published_only(self, store):
        store.save_event(make_event(published=True))
        store.save_event(make_event(info="draft"))
        assert len(store.list_events(published_only=True)) == 1
        assert len(store.list_events()) == 2

    def test_list_events_limit(self, store):
        for i in range(5):
            store.save_event(make_event(info=f"e{i}"))
        assert len(store.list_events(limit=3)) == 3

    def test_list_events_limit_is_bound_not_interpolated(self, store):
        # The limit travels as a bound parameter; non-integer input fails
        # fast in int() instead of reaching the SQL text.
        store.save_event(make_event())
        assert len(store.list_events(limit="1")) == 1
        with pytest.raises((TypeError, ValueError)):
            store.list_events(limit="1; DROP TABLE events")
        assert store.event_count() == 1

    def test_list_events_limit_with_published_only(self, store):
        for i in range(4):
            store.save_event(make_event(info=f"p{i}", published=True))
        store.save_event(make_event(info="draft"))
        assert len(store.list_events(limit=2, published_only=True)) == 2

    def test_non_correlatable_types_ignored(self, store):
        event = MispEvent(info="x")
        event.add_attribute(MispAttribute(type="text", value="freeform"))
        store.save_event(event)
        assert store.correlatable_attributes_many(["freeform"]) == {
            "freeform": []}


class TestCorrelations:
    def test_save_and_query(self, store):
        first, second = make_event(info="first"), make_event(info="second")
        store.save_events([first, second])
        assert store.correlation_count() == 1
        found = store.correlations_for_event(second.uuid)
        assert found[0]["target_event"] == first.uuid
        assert store.correlations_for_event(first.uuid)  # symmetric query

    def test_duplicate_correlations_ignored(self, store):
        events = [make_event(info="first"), make_event(info="second")]
        store.save_events(events)
        store.save_events(events)
        assert store.correlation_count() == 1


class TestAuditLog:
    def test_create_update_delete_trail(self, store):
        event = make_event()
        store.save_event(event)
        event.info = "edited"
        store.save_event(event)
        store.delete_event(event.uuid)
        actions = [h["action"] for h in store.event_history(event.uuid)]
        assert actions == ["created", "updated", "deleted"]

    def test_detail_records_attribute_count(self, store):
        event = make_event(values=("a.example", "b.example"))
        store.save_event(event)
        history = store.event_history(event.uuid)
        assert history[0]["detail"] == "2 attributes"

    def test_audit_count(self, store):
        store.save_event(make_event())
        store.save_event(make_event(info="two"))
        assert store.audit_count() == 2

    def test_history_of_unknown_event_is_empty(self, store):
        assert store.event_history("nope") == []

    def test_delete_records_event_timestamp_not_zero(self, store):
        event = make_event()
        store.save_event(event)
        store.delete_event(event.uuid)
        history = store.event_history(event.uuid)
        assert [h["action"] for h in history] == ["created", "deleted"]
        assert history[-1]["logged_at"] == int(event.timestamp.timestamp())
        assert history[-1]["logged_at"] > 0

    def test_delete_uses_supplied_clock(self):
        clock = SimulatedClock(PAPER_NOW)
        store = MispStore(clock=clock)
        event = make_event()
        store.save_event(event)
        clock.advance(dt.timedelta(hours=3))
        store.delete_event(event.uuid)
        history = store.event_history(event.uuid)
        expected = int((PAPER_NOW + dt.timedelta(hours=3)).timestamp())
        assert history[-1]["logged_at"] == expected

    def test_event_history_ordering_survives_full_lifecycle(self):
        clock = SimulatedClock(PAPER_NOW)
        store = MispStore(clock=clock)
        event = make_event()
        store.save_event(event)
        event.info = "edited"
        store.save_event(event)
        clock.advance(dt.timedelta(minutes=5))
        store.delete_event(event.uuid)
        history = store.event_history(event.uuid)
        assert [h["action"] for h in history] == [
            "created", "updated", "deleted"]
        seqs = [h["seq"] for h in history]
        assert seqs == sorted(seqs)
        stamps = [h["logged_at"] for h in history]
        assert stamps == sorted(stamps)
        assert stamps[-1] > stamps[0]
