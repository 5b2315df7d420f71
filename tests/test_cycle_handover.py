"""A cycle never reads back what it just wrote.

The MISP instance publishes each stored blob's text on the zmq feed, the
heuristic component builds its cIoCs from that feed, and the platform hands
the eIoCs the enrich stage stored on to the share plan and the rollups.
An in-memory event stands in for its stored row only while the stored
blob's sha256 equals the digest of the text it was written or published
as.  These tests change the store behind each seam and check that the
stored version wins, as it did when every seam read the store.
"""

import datetime as dt
import json

from repro import ContextAwareOSINTPlatform, PlatformConfig
from repro.clock import PAPER_NOW, SimulatedClock
from repro.core import TAG_EIOC, HeuristicComponent, collapse_changes
from repro.core.report import IntelSummaryRollup, summarize_event
from repro.dashboard.geo import GeoSummaryView
from repro.dashboard.views import CorrelationGraphView, KeywordSummaryView
from repro.infra import paper_inventory
from repro.misp import MispAttribute, MispEvent, MispInstance
from repro.misp.store import blob_digest
from repro.obs import MetricsRegistry
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.sharing import ExternalEntity


def cioc(info, cve="CVE-2017-9805", domain=None):
    event = MispEvent(info=info)
    event.add_attribute(MispAttribute(
        type="vulnerability", value=cve, comment="apache struts on debian"))
    if domain is not None:
        event.add_attribute(MispAttribute(type="domain", value=domain))
    event.add_tag("caop:cioc")
    return event


def stored_blob(store, uuid):
    return store._conn.raw.execute(
        "SELECT blob FROM events WHERE uuid = ?", (uuid,)).fetchone()[0]


def rig(clock=None, metrics=None):
    misp = MispInstance(org="TestOrg", metrics=metrics)
    component = HeuristicComponent(
        misp, inventory=paper_inventory(),
        clock=clock or SimulatedClock(PAPER_NOW), metrics=metrics)
    return misp, component


class TestFeedFrames:
    def test_frames_of_a_batch_with_a_repeated_uuid(self):
        misp = MispInstance(org="TestOrg")
        subscription = misp.broker.subscribe("zmq.*")
        first = cioc("first", domain="one.example")
        second = cioc("second", domain="two.example")
        revised = MispEvent.from_dict(first.to_dict())
        revised.info = "first, revised"
        revised.add_attribute(MispAttribute(type="domain",
                                            value="three.example"))
        batch = [first, second, revised, second]
        misp.add_events(batch)
        frames = [message.payload for message in subscription.drain()]
        # Each version's own text, byte for byte the frame an encoder of
        # the event's dict writes.
        assert frames == [json.dumps(event.to_dict(), sort_keys=True,
                                     default=str) for event in batch]
        assert frames[0] != frames[2]
        assert frames[2] == stored_blob(misp.store, first.uuid)
        assert frames[3] == stored_blob(misp.store, second.uuid)


class TestFeedConsumer:
    def test_fresh_feed_scores_as_a_store_read_would_without_decoding(self):
        fed_misp, fed = rig()
        read_misp, reader = rig()
        events = [cioc("one", domain="one.example"),
                  cioc("two", cve="CVE-2017-5638")]
        for misp in (fed_misp, read_misp):
            misp.add_events([MispEvent.from_dict(event.to_dict())
                             for event in events])
        decoded = fed_misp.store.payloads_deserialized
        fed_results = fed.process_pending()
        assert fed_misp.store.payloads_deserialized == decoded
        # The parent's path: drain only the uuids, read the events back.
        uuids = [json.loads(text)["Event"]["uuid"]
                 for _topic, text in reader._subscriber.drain_text()]
        read_results = reader.enrich_many(uuids)
        assert [r.eioc for r in fed_results] == [r.eioc for r in read_results]
        assert [r.digest for r in fed_results] \
            == [r.digest for r in read_results]
        for result in fed_results:
            assert stored_blob(fed_misp.store, result.event_uuid) \
                == stored_blob(read_misp.store, result.event_uuid)

    def test_cioc_resaved_since_publication_is_scored_from_the_store(self):
        misp, component = rig()
        event = cioc("as published")
        misp.add_event(event)
        changed = MispEvent.from_dict(event.to_dict())
        changed.info = "re-saved"
        changed.attributes[0].value = "CVE-2017-5638"
        misp.store.save_event(changed)
        decoded = misp.store.payloads_deserialized
        results = component.process_pending()
        assert misp.store.payloads_deserialized - decoded == 1
        assert [r.eioc.info for r in results] == ["re-saved"]
        assert results[0].eioc.attributes[0].value == "CVE-2017-5638"

    def test_cioc_deleted_since_publication_is_skipped_as_missing(self):
        metrics = MetricsRegistry()
        misp, component = rig(metrics=metrics)
        kept, gone = cioc("kept"), cioc("gone")
        misp.add_events([kept, gone])
        misp.store.delete_event(gone.uuid)
        results = component.process_pending()
        assert [r.event_uuid for r in results] == [kept.uuid]
        assert component.skipped == 1
        assert metrics.counter("caop_enrich_skipped_total").value(
            reason="missing") == 1

    def test_handed_eioc_equals_the_decode_of_its_blob(self):
        clock = SimulatedClock(PAPER_NOW + dt.timedelta(microseconds=250000))
        misp, component = rig(clock=clock)
        misp.add_event(cioc("sub-second"))
        (result,) = component.process_pending()
        blob = stored_blob(misp.store, result.event_uuid)
        assert result.digest == blob_digest(blob)
        assert result.eioc == MispEvent.from_dict(json.loads(blob))


def small_platform(**config):
    platform = ContextAwareOSINTPlatform.build_default(PlatformConfig(
        seed=13, feed_entries=12, **config))
    platform.gateway.register(ExternalEntity(name="partner",
                                             transport="stix-download"))
    return platform


def count_decodes(platform, owner, name, counts):
    method = getattr(owner, name)
    store = platform.misp.store

    def counted(*args, **kwargs):
        before = store.payloads_deserialized
        result = method(*args, **kwargs)
        counts.append(store.payloads_deserialized - before)
        return result
    setattr(owner, name, counted)


def assert_rollups_match_a_fresh_refresh(platform):
    """Every platform rollup equals one refreshed from seq 0."""
    store = platform.misp.store
    assert CorrelationGraphView(store, name="fresh:graph").render() \
        == platform.graph_view.render()
    assert KeywordSummaryView(store, name="fresh:keywords").render() \
        == platform.keyword_view.render()
    fresh_geo = GeoSummaryView()
    fresh_geo.store_rollup(store, name="fresh:geo").refresh()
    assert fresh_geo.render() == platform.geo_view.render()
    fresh_report = IntelSummaryRollup(store, name="fresh:report")
    fresh_report.refresh()
    assert fresh_report.summaries == platform.report_builder.rollup.summaries


class TestCycleHandOver:
    def test_share_plan_and_rollups_decode_only_what_was_not_handed(self):
        platform = small_platform()
        platform.run_cycle()
        store = platform.misp.store
        counts = {"sync_cycle": [], "refresh": []}
        count_decodes(platform, platform.gateway, "sync_cycle",
                      counts["sync_cycle"])
        count_decodes(platform, platform.rollups, "refresh",
                      counts["refresh"])
        position = store.max_audit_seq()
        report = platform.run_cycle()
        assert report.eiocs_created > 0
        changes = store.changes_since(position)
        last_action = {change.event_uuid: change.action
                       for change in changes}
        others = [uuid for uuid in collapse_changes(changes).upserts
                  if last_action[uuid] != "enriched"]
        assert others  # the infrastructure event
        assert counts == {"sync_cycle": [len(others)],
                          "refresh": [len(others)]}
        assert_rollups_match_a_fresh_refresh(platform)

    def test_eioc_resaved_by_the_share_transport_reaches_rollups_as_stored(
            self, monkeypatch):
        platform = small_platform()
        store = platform.misp.store
        gateway = platform.gateway
        push = gateway._transport_push
        revised = []

        def resaving_push(event, entity, payload, trace=None):
            if not revised and event.has_tag(TAG_EIOC):
                copy = MispEvent.from_dict(event.to_dict())
                copy.info = "revised by a transport"
                store.save_event(copy)
                revised.append(copy.uuid)
            return push(event, entity, payload, trace=trace)

        monkeypatch.setattr(gateway, "_transport_push", resaving_push)
        report = platform.run_cycle()
        assert report.shares_sent > 0 and revised
        summary = platform.report_builder.rollup.summaries[revised[0]]
        assert summary["info"] == "revised by a transport"
        assert summary == summarize_event(store.get_event(revised[0]))
        assert_rollups_match_a_fresh_refresh(platform)

    def test_eioc_resaved_before_the_share_stage_is_shared_as_stored(
            self, monkeypatch):
        platform = small_platform()
        store = platform.misp.store
        generate = platform.rioc_generator.generate
        revised = []

        def resaving_generate(eioc):
            if not revised:
                copy = MispEvent.from_dict(eioc.to_dict())
                copy.info = "revised before sharing"
                store.save_event(copy)
                revised.append(copy.uuid)
            return generate(eioc)

        monkeypatch.setattr(platform.rioc_generator, "generate",
                            resaving_generate)
        push = platform.gateway._transport_push
        shared = {}

        def recording_push(event, entity, payload, trace=None):
            shared[event.uuid] = event
            return push(event, entity, payload, trace=trace)

        monkeypatch.setattr(platform.gateway, "_transport_push",
                            recording_push)
        platform.run_cycle()
        assert revised and revised[0] in shared
        assert shared[revised[0]].info == "revised before sharing"
        assert shared[revised[0]] == store.get_event(revised[0])

    def test_store_fault_at_apply_enrichments_hands_nothing_on(self):
        injector = FaultInjector(FaultPlan(rules=[
            FaultRule(component="store", key="apply_enrichments",
                      calls=(1,), reason="store down"),
        ], seed=1))
        platform = small_platform(fault_injector=injector)
        store = platform.misp.store
        counts = []
        count_decodes(platform, platform.rollups, "refresh", counts)
        for number in range(1, 5):
            position = store.max_audit_seq()
            report = platform.run_cycle()
            upserts = collapse_changes(store.changes_since(position)).upserts
            if number == 2:
                # The write-back failed: nothing was handed on, so the
                # rollups decode every change of the cycle.
                assert "enrich" in report.stage_errors
                assert report.eiocs_created == 0
                assert counts[-1] == len(upserts)
            else:
                assert not report.stage_errors
                assert counts[-1] < len(upserts)
            assert_rollups_match_a_fresh_refresh(platform)
        # Later cycles stored matching values; no pair is linked twice.
        rows = store._conn.raw.execute(
            "SELECT source_attribute, target_attribute FROM correlations"
        ).fetchall()
        pairs = {tuple(row) for row in rows}
        assert pairs and not any(pair[::-1] in pairs for pair in pairs)
