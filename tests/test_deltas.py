"""Change feed, persisted cursors and materialized rollups (PR 9).

Three layers under test:

- the storage conformance surface: ``changes_since`` (the raw audit feed,
  deletes included) and the ``rollup_state`` cursor table behave
  identically on a SQLite store on disk and in memory, and cursor
  persistence never perturbs federation fingerprints;
- ``core.deltas``: collapse semantics, consume-then-advance cursors,
  rollup refresh, and the RollupGroup single-read fast path;
- checkpoints: a persistent rollup writes only the rows its deltas
  touched, so a checkpoint's cost does not grow with the store;
- the platform: incremental views equal their full-rescan reference
  (updates and deletes included), quiet cycles are flagged ``idle`` at a
  one-SQL-statement / zero-deserialization budget, a close→reopen
  platform resumes its rollups from checkpoints instead of rescanning,
  and a whole-state blob written before per-key rows is rebuilt from the
  feed.
"""

import datetime as dt
import json

import pytest

from repro import ContextAwareOSINTPlatform, PlatformConfig
from repro.core.deltas import (
    DeltaCursor,
    RollupGroup,
    StoreRollup,
    collapse_changes,
    load_delta_events,
)
from repro.core.ioc import TAG_EIOC, THREAT_SCORE_COMMENT
from repro.core.report import IntelReportBuilder, IntelSummaryRollup
from repro.dashboard.geo import GeoSummaryView
from repro.dashboard.views import CorrelationGraphView, KeywordSummaryView
from repro.federation.fingerprint import store_fingerprint
from repro.ids import content_uuid
from repro.misp import MispAttribute, MispEvent, MispInstance, MispStore

TS = dt.datetime(2026, 1, 1, tzinfo=dt.timezone.utc)


def make_event(info="event", values=("a.example",), published=True,
               timestamp=TS):
    event = MispEvent(info=info, published=published, timestamp=timestamp)
    for value in values:
        event.add_attribute(
            MispAttribute(type="domain", value=value, timestamp=timestamp))
    return event


def scored_event(info="eioc", score=4.0, category="malware-domains",
                 timestamp=TS):
    event = make_event(info=info, timestamp=timestamp)
    event.add_attribute(MispAttribute(
        type="float", value=str(score), comment=THREAT_SCORE_COMMENT,
        timestamp=timestamp))
    event.add_tag(TAG_EIOC)
    event.add_tag(f'caop:category="{category}"')
    return event


BACKENDS = ["sqlite", "memory"]


def store_files(directory):
    """The store files in ``directory``, leaving out SQLite's WAL files."""
    return sorted(path.name for path in directory.iterdir()
                  if not path.name.endswith(("-wal", "-shm")))


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    if request.param == "sqlite":
        built = MispStore(str(tmp_path / "store.db"))
    else:
        built = MispStore(":memory:")
    yield built
    built.close()


class TestChangeFeedConformance:
    """``changes_since`` semantics are identical on every layout."""

    def test_feed_keeps_deletes_in_seq_order(self, store):
        a, b = make_event(info="a"), make_event(info="b")
        store.save_events([a, b])
        a.info = "a2"
        store.save_event(a)
        store.delete_event(b.uuid)
        changes = store.changes_since(0)
        assert [c.seq for c in changes] == sorted(c.seq for c in changes)
        assert [(c.event_uuid, c.action) for c in changes] == [
            (a.uuid, "created"), (b.uuid, "created"),
            (a.uuid, "updated"), (b.uuid, "deleted")]
        # Collapsing the window retires the deleted event, keeps the other.
        batch = collapse_changes(changes)
        assert batch.upserts == [a.uuid] and batch.deleted == [b.uuid]

    def test_after_until_and_limit_window_the_feed(self, store):
        events = [make_event(info=f"e{i}") for i in range(5)]
        store.save_events(events)
        full = store.changes_since(0)
        assert len(full) == 5
        mid = full[2].seq
        assert store.changes_since(mid) == full[3:]
        assert store.changes_since(0, until_seq=mid) == full[:3]
        assert store.changes_since(full[-1].seq) == []

    def test_feed_matches_max_audit_seq(self, store):
        store.save_events([make_event(info=f"e{i}") for i in range(3)])
        changes = store.changes_since(0)
        assert changes[-1].seq == store.max_audit_seq()


class TestRollupStateConformance:
    """The ``rollup_state`` cursor table behaves alike everywhere."""

    def test_get_set_roundtrip_and_names(self, store):
        assert store.get_rollup("rollup:x") is None
        assert store.rollup_names() == []
        store.set_rollup("rollup:x", 7, '{"a": 1}')
        store.set_rollup("rollup:a", 3)
        assert store.get_rollup("rollup:x") == (7, '{"a": 1}')
        assert store.get_rollup("rollup:a") == (3, "")
        store.set_rollup("rollup:x", 9, "")
        assert store.get_rollup("rollup:x") == (9, "")
        assert store.rollup_names() == ["rollup:a", "rollup:x"]

    def test_cursors_never_perturb_store_fingerprints(self, store):
        """rollup_state lives outside the sync ledger on purpose: how far
        local view maintenance has read must not change what federation
        convergence proofs see."""
        store.save_events([make_event(info=f"e{i}") for i in range(3)])
        before = store_fingerprint(store)
        store.set_rollup("rollup:anything", store.max_audit_seq(), '{"s": 1}')
        assert store_fingerprint(store) == before


@pytest.mark.parametrize("store_shards", [1, 4])
def test_rollup_state_survives_reopen(tmp_path, store_shards):
    # The store a platform builds for ``store_path``; ``store_shards`` is
    # ignored, so at 4 (as the ``large_store`` workload passes it) it is
    # the same one file.
    path = str(tmp_path / "store.sqlite")
    store = ContextAwareOSINTPlatform.build_default(PlatformConfig(
        store_path=path, store_shards=store_shards, **QUIET)).misp.store
    store.save_events([make_event(info=f"e{i}") for i in range(4)])
    top = store.max_audit_seq()
    store.set_rollup("rollup:r", top, '{"n": 4}')
    store.close()
    assert store_files(tmp_path) == ["store.sqlite"]
    reopened = MispStore(path)
    assert reopened.get_rollup("rollup:r") == (top, '{"n": 4}')
    assert reopened.changes_since(top) == []
    reopened.close()


class TestCollapseChanges:
    def test_last_action_per_event_wins(self):
        store = MispStore(":memory:")
        event = make_event()
        store.save_event(event)
        event.info = "v2"
        store.save_event(event)
        batch = collapse_changes(store.changes_since(0))
        assert batch.upserts == [event.uuid]
        assert batch.deleted == []
        assert batch.last_seq == store.max_audit_seq()
        assert bool(batch)

    def test_delete_wins_and_recreate_wins_back(self):
        store = MispStore(":memory:")
        gone, back = make_event(info="gone"), make_event(info="back")
        store.save_events([gone, back])
        store.delete_event(gone.uuid)
        store.delete_event(back.uuid)
        store.save_event(make_event(info="back again", timestamp=TS))
        changes = store.changes_since(0)
        batch = collapse_changes(changes)
        assert gone.uuid in batch.deleted
        assert set(batch.upserts).isdisjoint(batch.deleted)
        assert set(batch.last_seqs) == set(batch.upserts)

    def test_ordering_is_last_seq_then_uuid(self):
        store = MispStore(":memory:")
        events = [make_event(info=f"e{i}") for i in range(4)]
        store.save_events(events)
        events[0].info = "bump"
        store.save_event(events[0])
        batch = collapse_changes(store.changes_since(0))
        # events[0] was touched last, so it must sort after the others.
        assert batch.upserts[-1] == events[0].uuid
        assert not collapse_changes([])


class TestLoadDeltaEvents:
    def test_vanished_upsert_is_reported_deleted(self):
        store = MispStore(":memory:")
        kept, racer = make_event(info="kept"), make_event(info="racer")
        store.save_events([kept, racer])
        batch = collapse_changes(store.changes_since(0))
        # The event vanishes after the feed window closed (compaction racing
        # a slow consumer): the loader reports it deleted *now*.
        store.delete_event(racer.uuid)
        events, deleted = load_delta_events(store, batch)
        assert [event.uuid for event in events] == [kept.uuid]
        assert deleted == [racer.uuid]


class TestDeltaCursor:
    def test_read_does_not_advance(self):
        store = MispStore(":memory:")
        store.save_event(make_event())
        cursor = DeltaCursor(store, "rollup:c")
        assert len(cursor.read()) == 1
        assert cursor.position == 0
        assert len(cursor.read()) == 1

    def test_advance_is_forward_only(self):
        store = MispStore(":memory:")
        cursor = DeltaCursor(store, "rollup:c")
        cursor.advance(5)
        cursor.advance(3)
        assert cursor.position == 5

    def test_save_only_when_persistent_and_moved(self):
        store = MispStore(":memory:")
        transient = DeltaCursor(store, "rollup:t", persistent=False)
        transient.advance(4)
        assert transient.save() is False
        assert store.get_rollup("rollup:t") is None

        durable = DeltaCursor(store, "rollup:d", persistent=True)
        assert durable.save() is False          # nothing moved yet
        durable.advance(4)
        assert durable.save('{"x": 1}') is True
        assert durable.save('{"x": 1}') is False  # clean: no rewrite
        assert durable.save('{"x": 2}') is True   # state changed: rewrite
        assert store.get_rollup("rollup:d") == (4, '{"x": 2}')

    def test_persistent_cursor_restores_position_and_state(self):
        store = MispStore(":memory:")
        store.set_rollup("rollup:d", 9, '{"x": 3}')
        cursor = DeltaCursor(store, "rollup:d", persistent=True)
        assert cursor.position == 9
        assert cursor.saved_state == '{"x": 3}'


class CountingRollup(StoreRollup):
    """Minimal rollup: tracks which uuids it saw upserted / deleted.

    Checkpoint rows are keyed ``<list>:<index>`` (zero-padded, so key
    order is list order) and hold the uuid at that position.
    """

    def __init__(self, store, name, persistent=False):
        self.seen = []
        self.retired = []
        super().__init__(store, name, persistent=persistent)

    def apply_delta(self, events, deleted):
        for kind, uuids in (("retired", deleted),
                            ("seen", [event.uuid for event in events])):
            entries = getattr(self, kind)
            for uuid in uuids:
                self.touch(f"{kind}:{len(entries):08d}")
                entries.append(uuid)

    def row(self, key):
        kind, index = key.split(":")
        return getattr(self, kind)[int(index)]

    def restore_row(self, key, value):
        getattr(self, key.split(":")[0]).append(value)


class TestStoreRollupAndGroup:
    def test_refresh_consumes_then_goes_quiet(self):
        store = MispStore(":memory:")
        store.save_events([make_event(info=f"e{i}") for i in range(3)])
        rollup = CountingRollup(store, "rollup:count")
        assert rollup.refresh() == 3
        assert len(rollup.seen) == 3
        assert rollup.position == store.max_audit_seq()
        assert rollup.refresh() == 0

    def test_deletes_flow_through_refresh(self):
        store = MispStore(":memory:")
        event = make_event()
        store.save_event(event)
        rollup = CountingRollup(store, "rollup:count")
        rollup.refresh()
        store.delete_event(event.uuid)
        assert rollup.refresh() == 1
        assert rollup.retired == [event.uuid]

    def test_aligned_group_shares_one_feed_read(self):
        store = MispStore(":memory:")
        group = RollupGroup(store)
        a = group.add(CountingRollup(store, "rollup:a"))
        b = group.add(CountingRollup(store, "rollup:b"))
        store.save_events([make_event(info=f"e{i}") for i in range(2)])
        assert group.refresh() == 2
        assert a.seen == b.seen and len(a.seen) == 2
        # Aligned + quiet: the whole group costs exactly one statement.
        before = store.sql_statements
        assert group.refresh() == 0
        assert store.sql_statements - before == 1

    def test_misaligned_members_realign(self):
        store = MispStore(":memory:")
        group = RollupGroup(store)
        early = group.add(CountingRollup(store, "rollup:early"))
        store.save_event(make_event(info="first"))
        early.refresh()
        late = group.add(CountingRollup(store, "rollup:late"))
        store.save_event(make_event(info="second"))
        assert group.refresh() == 2  # the late member had 2 rows to eat
        assert len(early.seen) == 2 and len(late.seen) == 2
        assert early.position == late.position == store.max_audit_seq()

    def test_persistent_rollup_checkpoints_and_resumes(self):
        store = MispStore(":memory:")
        store.save_events([make_event(info=f"e{i}") for i in range(3)])
        rollup = CountingRollup(store, "rollup:p", persistent=True)
        rollup.refresh()
        assert rollup.save() is True
        resumed = CountingRollup(store, "rollup:p", persistent=True)
        assert resumed.seen == rollup.seen
        assert resumed.position == store.max_audit_seq()
        assert resumed.refresh() == 0

    def test_payload_counter_stays_flat_on_quiet_refresh(self):
        store = MispStore(":memory:")
        store.save_events([make_event(info=f"e{i}") for i in range(3)])
        rollup = CountingRollup(store, "rollup:count")
        rollup.refresh()
        decoded = store.payloads_deserialized
        assert decoded >= 3
        rollup.refresh()
        assert store.payloads_deserialized == decoded


class TestIncrementalViewEquivalence:
    """Incrementally maintained views == from-scratch rebuilds, through
    updates and deletes."""

    def _correlated_store(self):
        store = MispStore(":memory:")
        pool = [f"d{k}.example" for k in range(4)]
        events = [make_event(info=f"event {i}",
                             values=(pool[i % 4], pool[(i + 1) % 4]))
                  for i in range(8)]
        store.save_events(events)
        assert store.correlation_count() > 0
        return store, events

    def test_graph_view_tracks_updates_and_deletes(self):
        store, events = self._correlated_store()
        view = CorrelationGraphView(store, name="rollup:g")
        view.refresh()
        events[0].info = "renamed"
        store.save_event(events[0])
        store.delete_event(events[3].uuid)
        fresh = CorrelationGraphView(store, name="fresh:g")
        assert view.render() == fresh.render()
        assert view.components() == fresh.components()
        assert view.hubs() == fresh.hubs()

    def test_keyword_view_tracks_updates_and_deletes(self):
        store = MispStore(":memory:")
        noisy = make_event(info="ransomware phishing campaign")
        quiet = make_event(info="benign change window")
        store.save_events([noisy, quiet])
        view = KeywordSummaryView(store, name="rollup:k")
        view.refresh()
        noisy.info = "ddos botnet flood"
        store.save_event(noisy)
        store.delete_event(quiet.uuid)
        fresh = KeywordSummaryView(store, name="fresh:k")
        assert view.frequencies() == fresh.frequencies()
        assert view.render() == fresh.render()

    def test_incremental_report_equals_windowed_scan(self):
        store = MispStore(":memory:")
        clock_now = TS + dt.timedelta(days=3)
        from repro.clock import SimulatedClock
        clock = SimulatedClock(start=clock_now)
        store.save_events([
            scored_event(info="hot", score=4.5, timestamp=TS),
            scored_event(info="old", score=2.0,
                         timestamp=TS - dt.timedelta(days=40)),
            make_event(info="unscored"),
        ])
        incremental = IntelReportBuilder(store, clock=clock, incremental=True)
        baseline = IntelReportBuilder(store, clock=clock)
        assert (incremental.build().to_markdown()
                == baseline.build().to_markdown())
        # ... and again after a delete lands in the feed.
        store.delete_event(store.list_events()[-1].uuid)
        assert (incremental.build().to_markdown()
                == baseline.build().to_markdown())


QUIET = dict(feed_entries=0, sensor_steps_per_cycle=0)


class TestPlatformIdleCycles:
    def test_quiet_cycle_is_idle_and_nearly_free(self):
        platform = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(seed=7, **QUIET))
        store = platform.misp.store
        statements = store.sql_statements
        decoded = store.payloads_deserialized
        report = platform.run_cycle()
        assert report.idle
        assert report.deltas_consumed == 0
        assert not report.compacted
        assert store.sql_statements - statements == 1
        assert store.payloads_deserialized - decoded == 0
        assert platform.metrics.counter(
            "caop_cycle_idle_total").total() == 1

    def test_busy_cycle_is_not_idle(self):
        platform = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(seed=7, feed_entries=30))
        report = platform.run_cycle()
        assert not report.idle
        assert report.deltas_consumed > 0
        assert platform.metrics.counter(
            "caop_cycle_idle_total").total() == 0
        for stage in ("compact", "rollup"):
            assert stage in report.timings

    def test_compaction_cycle_is_not_idle(self):
        platform = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(seed=7, compaction_every_cycles=1, **QUIET))
        report = platform.run_cycle()
        assert report.compacted
        assert not report.idle


@pytest.mark.parametrize("store_shards", [1, 4])
class TestCloseReopenResume:
    """Satellite: cursors are persisted, not rebuilt by rescan.

    ``store_shards`` is ignored: at 4 the platform keeps the same one file.
    """

    def test_reopened_platform_resumes_without_rescan(self, tmp_path,
                                                      store_shards):
        path = str(tmp_path / "store.sqlite")
        platform = ContextAwareOSINTPlatform.build_default(PlatformConfig(
            seed=11, feed_entries=25, store_path=path,
            store_shards=store_shards))
        platform.run_cycle()
        platform.run_cycle()
        renders = (platform.graph_view.render(),
                   platform.keyword_view.render(),
                   platform.geo_view.render())
        assert platform.checkpoint() > 0
        top = platform.misp.store.max_audit_seq()
        platform.misp.store.close()
        assert store_files(tmp_path) == ["store.sqlite"]

        reopened = ContextAwareOSINTPlatform.build_default(PlatformConfig(
            seed=11, store_path=path, store_shards=store_shards, **QUIET))
        store = reopened.misp.store
        # Cursors restored from rollup_state, already at the feed's head.
        for name in store.rollup_names():
            assert store.get_rollup(name)[0] == top
        statements = store.sql_statements
        decoded = store.payloads_deserialized
        report = reopened.run_cycle()
        assert report.idle
        assert report.deltas_consumed == 0
        assert store.sql_statements - statements == 1
        assert store.payloads_deserialized - decoded == 0
        # The resumed views answer identically to the pre-close platform,
        # and the resumed report rollup matches a full rescan on the
        # reopened clock (the report embeds "now", so it can't be compared
        # across two differently-aged platforms directly).
        assert (reopened.graph_view.render(),
                reopened.keyword_view.render(),
                reopened.geo_view.render()) == renders
        rescan = IntelReportBuilder(
            store, clock=reopened.clock, decay=reopened.decay)
        assert (reopened.report_builder.build().to_markdown()
                == rescan.build().to_markdown())


def checkpoint_event(prefix, index, info):
    """A scored event whose value is shared by groups of four events."""
    event = scored_event(info=f"{info} {prefix}{index}")
    event.uuid = content_uuid("checkpoint", prefix, str(index))
    event.attributes[0].value = f"{prefix}-{index // 4}.example"
    for number, attribute in enumerate(event.attributes):
        attribute.uuid = content_uuid("checkpoint-attr", event.uuid,
                                      str(number))
    return event


class TestCheckpointRows:
    def checkpoint_after_changes(self, size, changed=10):
        """What the checkpoint after the same ``changed`` updates and
        ``changed`` new events writes over a ``size``-event store."""
        misp = MispInstance(store=MispStore(":memory:"))
        store = misp.store
        misp.add_events([checkpoint_event("old", index,
                                          "archived ransomware in spain")
                         for index in range(size)], publish_feed=False)
        group = RollupGroup(store)
        group.add(CorrelationGraphView(store, persistent=True))
        group.add(KeywordSummaryView(store, persistent=True))
        group.add(GeoSummaryView().store_rollup(store, persistent=True))
        group.add(IntelSummaryRollup(store, persistent=True))
        group.refresh()
        assert group.save_all() == 4        # the first one writes every key
        misp.add_events(
            [checkpoint_event("old", index, "phishing lure in china")
             for index in range(changed)]
            + [checkpoint_event("new", index, "botnet seen in brazil")
               for index in range(changed)], publish_feed=False)
        group.refresh()
        written = []
        set_rollup = store.set_rollup

        def recording(name, position, state="", rows=None):
            written.append((name, state, dict(rows or {})))
            set_rollup(name, position, state, rows=rows)

        store.set_rollup = recording
        statements = store.sql_statements
        assert group.save_all() == 4
        cost = store.sql_statements - statements
        assert group.save_all() == 0        # nothing touched since
        return sorted(written), cost

    def test_checkpoint_cost_does_not_grow_with_the_store(self):
        small = self.checkpoint_after_changes(200)
        large = self.checkpoint_after_changes(2000)
        assert small == large
        written, statements = small
        assert statements == 2 * len(written)    # rows + position each
        for _name, state, rows in written:
            assert state == "" and 0 < len(rows) <= 40

    def test_deletes_drop_rows(self):
        store = MispStore(":memory:")
        events = [scored_event(info=f"ransomware {index}")
                  for index in range(3)]
        store.save_events(events)
        rollup = IntelSummaryRollup(store, persistent=True)
        rollup.refresh()
        rollup.save()
        store.delete_event(events[0].uuid)
        rollup.refresh()
        rollup.save()
        assert [key for key, _value in store.rollup_rows(rollup.name)] \
            == sorted(event.uuid for event in events[1:])
        resumed = IntelSummaryRollup(store, persistent=True)
        assert resumed.summaries == rollup.summaries


def whole_state_blobs(platform):
    """The whole-state blobs the previous checkpoint format wrote."""
    graph_view = platform.graph_view
    geo = platform.geo_view.store_rollup(platform.misp.store)
    return {
        graph_view.name: {
            "nodes": {uuid: (info if uuid in graph_view._live else None)
                      for uuid, info in graph_view._graph.nodes(data="info")},
            "edges": sorted(sorted((a, b)) + [value] for a, b, value
                            in graph_view._graph.edges(data="value"))},
        platform.keyword_view.name: {
            "contrib": platform.keyword_view._contrib},
        geo.name: {"events": {
            uuid: [[hit.location, hit.region, hit.latitude, hit.longitude]
                   for hit in hits]
            for uuid, hits in geo._event_hits.items()}},
        platform.report_builder.rollup.name: {
            "events": platform.report_builder.rollup.summaries},
    }


def renders(platform):
    return (platform.graph_view.render(), platform.keyword_view.render(),
            platform.geo_view.render())


def test_whole_state_blob_is_rebuilt_from_the_feed(tmp_path):
    path = str(tmp_path / "store.sqlite")
    platform = ContextAwareOSINTPlatform.build_default(PlatformConfig(
        seed=11, feed_entries=25, store_path=path))
    platform.run_cycle()
    platform.run_cycle()
    store = platform.misp.store
    top = store.max_audit_seq()
    blobs = whole_state_blobs(platform)
    for name, state in blobs.items():
        store.set_rollup(name, top, json.dumps(state, sort_keys=True))
    store.close()

    config = PlatformConfig(seed=11, store_path=path, **QUIET)
    reopened = ContextAwareOSINTPlatform.build_default(config)
    store = reopened.misp.store
    # Every rollup restarts from position 0 and refolds the whole feed.
    report = reopened.run_cycle()
    assert report.deltas_consumed == len(store.changes_since(0))
    fresh_geo = GeoSummaryView()
    fresh_geo.store_rollup(store, name="fresh:geo").refresh()
    assert renders(reopened) == (
        CorrelationGraphView(store, name="fresh:graph").render(),
        KeywordSummaryView(store, name="fresh:keywords").render(),
        fresh_geo.render())
    rescan = IntelReportBuilder(store, clock=reopened.clock,
                                decay=reopened.decay)
    assert (reopened.report_builder.build().to_markdown()
            == rescan.build().to_markdown())
    # The next checkpoint replaces each blob with rows ...
    assert reopened.checkpoint() == 4
    for name in blobs:
        assert store.get_rollup(name) == (top, "")
        assert store.rollup_rows(name)
    expected = renders(reopened)
    store.close()
    # ... which the next reopen resumes from without a rescan.
    again = ContextAwareOSINTPlatform.build_default(config)
    assert again.run_cycle().deltas_consumed == 0
    assert renders(again) == expected
    again.misp.store.close()
