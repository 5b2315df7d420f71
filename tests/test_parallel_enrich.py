"""Parallel enrichment: determinism, context cache, batched write-back."""

import json
from unittest import mock

import pytest

from repro.clock import FixedClock, PAPER_NOW, SimulatedClock
from repro.core import (
    EnrichmentContextCache,
    HeuristicComponent,
    TAG_CIOC,
    TAG_EIOC,
    THREAT_SCORE_COMMENT,
    threat_score_of,
)
from repro.errors import StorageError
from repro.ids import IdGenerator
from repro.infra import INFRASTRUCTURE_TAG, paper_inventory
from repro.misp import MispAttribute, MispEvent, MispInstance

WORKER_COUNTS = (1, 4, 8)
WORKLOAD_EVENTS = 12


def build_workload(misp, seed=42, events=WORKLOAD_EVENTS):
    """Store a deterministic mixed batch of cIoCs (same uuids per seed)."""
    ids = IdGenerator(seed=seed)
    uuids = []
    for index in range(events):
        event = MispEvent(info=f"osint report {index} about apache",
                          uuid=ids.uuid())
        if index % 3 == 0:
            event.add_attribute(MispAttribute(
                type="vulnerability", value=f"CVE-2017-98{index:02d}",
                comment="struts RCE on debian", uuid=ids.uuid()))
        if index % 3 == 1:
            event.add_attribute(MispAttribute(
                type="domain", value=f"evil{index}.example",
                comment="C2 operated by Sofacy", uuid=ids.uuid()))
        if index % 3 == 2:
            event.add_attribute(MispAttribute(
                type="ip-dst", value=f"203.0.113.{index}",
                uuid=ids.uuid()))
            event.add_attribute(MispAttribute(
                type="domain", value="shared.example", uuid=ids.uuid()))
        event.add_tag(TAG_CIOC)
        misp.add_event(event)
        uuids.append(event.uuid)
    return uuids


def enriched_state(workers, seed=42):
    """Run the workload through a component with N workers; export state."""
    misp = MispInstance(org="TestOrg")
    clock = SimulatedClock(PAPER_NOW)
    component = HeuristicComponent(
        misp, inventory=paper_inventory(), clock=clock, workers=workers)
    build_workload(misp, seed=seed)
    results = component.process_pending()
    exports = [
        json.dumps(misp.store.get_event(r.event_uuid).to_dict(),
                   sort_keys=True)
        for r in results
    ]
    scores = [r.score.score for r in results]
    return results, exports, scores


class TestWorkerCountDeterminism:
    def test_exports_byte_identical_across_worker_counts(self):
        baseline_results, baseline_exports, baseline_scores = enriched_state(1)
        assert baseline_results  # the workload must actually enrich
        for workers in WORKER_COUNTS[1:]:
            results, exports, scores = enriched_state(workers)
            assert exports == baseline_exports
            assert scores == baseline_scores

    def test_results_come_back_in_drain_order(self):
        misp = MispInstance(org="TestOrg")
        component = HeuristicComponent(
            misp, inventory=paper_inventory(),
            clock=SimulatedClock(PAPER_NOW), workers=8)
        uuids = build_workload(misp)
        results = component.process_pending()
        enriched = [r.event_uuid for r in results]
        assert enriched == [u for u in uuids if u in set(enriched)]

    def test_pool_gauge_reflects_bounded_workers(self, misp, inventory, clock):
        from repro.obs import MetricsRegistry
        metrics = MetricsRegistry()
        component = HeuristicComponent(
            misp, inventory=inventory, clock=clock, metrics=metrics,
            workers=8)
        build_workload(misp, events=3)
        component.process_pending()
        # Three eligible events bound the pool below the configured 8.
        assert metrics.gauge("caop_enrich_pool_workers").value() == 3

    def test_rejects_non_positive_workers(self, misp):
        with pytest.raises(ValueError):
            HeuristicComponent(misp, workers=0)

    def test_galaxy_tags_survive_the_batched_path(self):
        _results, exports, _scores = enriched_state(4)
        tagged = [blob for blob in exports if "misp-galaxy:threat-actor" in blob]
        assert tagged  # the Sofacy comments must produce galaxy tags

    def test_duplicate_drain_entries_enrich_once(self, misp, inventory, clock):
        component = HeuristicComponent(
            misp, inventory=inventory, clock=clock, workers=4)
        event = MispEvent(info="osint report")
        event.add_attribute(MispAttribute(type="domain", value="evil.example"))
        misp.add_event(event)
        results = component.enrich_many([event.uuid, event.uuid])
        assert len(results) == 1
        assert component.skipped == 1
        stored = misp.store.get_event(event.uuid)
        score_attrs = [a for a in stored.all_attributes()
                       if a.comment == THREAT_SCORE_COMMENT]
        assert len(score_attrs) == 1


class TestSqlBudget:
    def test_statements_per_event_bounded(self, misp, inventory, clock):
        component = HeuristicComponent(
            misp, inventory=inventory, clock=clock, workers=4)
        build_workload(misp)
        baseline = misp.store.sql_statements
        results = component.process_pending()
        spent = misp.store.sql_statements - baseline
        assert results
        assert spent <= 2 * len(results)


class TestContextCache:
    def test_prefetch_answers_without_further_store_reads(self, misp):
        uuids = build_workload(misp)
        cache = EnrichmentContextCache(misp.store)
        cache.prefetch(uuids)
        baseline = misp.store.sql_statements
        for uuid in uuids:
            assert cache.get_event(uuid) is not None
            cache.correlations_for(uuid)
        assert misp.store.sql_statements == baseline
        assert cache.misses == 0

    def test_invalidate_drops_event_and_linked_snapshots(self, misp):
        a = MispEvent(info="a")
        a.add_attribute(MispAttribute(type="domain", value="evil.example"))
        misp.add_event(a)
        b = MispEvent(info="b")
        b.add_attribute(MispAttribute(type="domain", value="evil.example"))
        misp.add_event(b)  # correlates with a
        cache = EnrichmentContextCache(misp.store)
        cache.prefetch([a.uuid, b.uuid])
        assert cache.correlations_for(a.uuid)
        cache.invalidate(b.uuid)
        # b is gone, and a's correlation snapshot (which mentions b) too.
        baseline = cache.misses
        cache.correlations_for(a.uuid)
        assert cache.misses == baseline + 1

        # A batch drops each event, its snapshot (even an empty one) and
        # every snapshot that links to one of them, in one pass, whichever
        # side of the correlation row it sits on; the rest stay cached.
        c, d, e, f = (MispEvent(info=info) for info in "cdef")
        c.add_attribute(MispAttribute(type="domain", value="other.example"))
        d.add_attribute(MispAttribute(type="domain", value="other.example"))
        e.add_attribute(MispAttribute(type="domain", value="lone.example"))
        f.add_attribute(MispAttribute(type="domain", value="alone.example"))
        for event in (c, d, e, f):
            misp.add_event(event)  # d correlates with the earlier c
        cache.prefetch([a.uuid, c.uuid, d.uuid, e.uuid, f.uuid])
        cache.invalidate_many([c.uuid, e.uuid])
        baseline = cache.misses
        for uuid in (a.uuid, f.uuid):
            cache.get_event(uuid)
            cache.correlations_for(uuid)
        assert cache.misses == baseline
        for uuid in (c.uuid, e.uuid):
            cache.get_event(uuid)
            cache.correlations_for(uuid)
        cache.correlations_for(d.uuid)
        assert cache.misses == baseline + 5

    def test_batch_commit_invalidates_a_shared_cache_once(
            self, misp, inventory, clock):
        component = HeuristicComponent(misp, inventory=inventory, clock=clock)
        uuids = build_workload(misp)
        cache = EnrichmentContextCache(misp.store)
        with mock.patch.object(cache, "invalidate_many",
                               wraps=cache.invalidate_many) as invalidate:
            results = component.enrich_many(uuids, cache=cache)
        assert invalidate.call_count == 1
        enriched = [result.event_uuid for result in results]
        assert enriched
        baseline = cache.misses
        for uuid in enriched:
            cache.get_event(uuid)
        assert cache.misses == baseline + len(enriched)

    def test_reenrichment_sees_fresh_correlations(self, misp, inventory, clock):
        # Enrich, then land an infrastructure sighting of the same value,
        # strip the enrichment, and enrich again: the second pass must see
        # the new correlation (no stale cache snapshot) and lift the
        # source-diversity feature.
        component = HeuristicComponent(
            misp, inventory=inventory, clock=clock, workers=4)
        cioc = MispEvent(info="osint report")
        cioc.add_attribute(MispAttribute(type="domain", value="evil.example"))
        misp.add_event(cioc)
        first = component.process_pending()[0]
        labels = {f.feature: f.attribute_label for f in first.score.features}
        assert labels["source_type"] == "osint_only"

        infra = MispEvent(info="internal sighting")
        infra.add_attribute(MispAttribute(type="domain", value="evil.example"))
        infra.add_tag(INFRASTRUCTURE_TAG)
        misp.add_event(infra, publish_feed=False)

        stored = misp.store.get_event(cioc.uuid)
        stored.attributes = [a for a in stored.attributes
                             if a.comment != THREAT_SCORE_COMMENT]
        stored.tags = [t for t in stored.tags if t.name != TAG_EIOC]
        misp.store.save_event(stored)

        second = component.enrich(cioc.uuid)
        labels = {f.feature: f.attribute_label for f in second.score.features}
        assert labels["source_type"] == "osint_and_infrastructure"

    def test_cve_lookups_memoized(self, misp, cve_db):
        cache = EnrichmentContextCache(misp.store, cve_db=cve_db)
        view = cache.cve_view()
        first = view.get("CVE-2017-9805")
        assert first is not None
        hits = cache.hits
        assert view.get("cve-2017-9805") is first  # case-folded, cached
        assert cache.hits == hits + 1


class TestStoreBatchApi:
    def test_get_events_preserves_order_and_marks_missing(self, misp):
        uuids = build_workload(misp, events=5)
        fetched = misp.store.get_events(uuids + ["no-such-uuid"])
        assert list(fetched) == uuids + ["no-such-uuid"]
        assert fetched["no-such-uuid"] is None
        assert all(fetched[u].uuid == u for u in uuids)

    def test_events_with_tag_filters_to_requested(self, misp):
        tagged = MispEvent(info="infra")
        tagged.add_tag(INFRASTRUCTURE_TAG)
        misp.add_event(tagged, publish_feed=False)
        plain = MispEvent(info="plain")
        misp.add_event(plain, publish_feed=False)
        found = misp.store.events_with_tag(
            INFRASTRUCTURE_TAG, [tagged.uuid, plain.uuid])
        assert found == {tagged.uuid}

    def test_correlations_for_events_matches_single_lookup(self, misp):
        a = MispEvent(info="a")
        a.add_attribute(MispAttribute(type="domain", value="evil.example"))
        misp.add_event(a)
        b = MispEvent(info="b")
        b.add_attribute(MispAttribute(type="domain", value="evil.example"))
        misp.add_event(b)
        batched = misp.store.correlations_for_events([a.uuid, b.uuid])
        assert batched[a.uuid] == misp.store.correlations_for_event(a.uuid)
        assert batched[b.uuid] == misp.store.correlations_for_event(b.uuid)

    def test_apply_enrichments_rejects_duplicate_uuids(self, misp):
        event = MispEvent(info="x")
        misp.add_event(event, publish_feed=False)
        stored = misp.store.get_event(event.uuid)
        with pytest.raises(StorageError):
            misp.store.apply_enrichments([stored, stored])

    def test_apply_enrichments_observes_batch_size(self):
        from repro.obs import MetricsRegistry
        metrics = MetricsRegistry()
        misp = MispInstance(org="TestOrg", metrics=metrics)
        component = HeuristicComponent(
            misp, inventory=paper_inventory(),
            clock=SimulatedClock(PAPER_NOW), metrics=metrics, workers=4)
        build_workload(misp, events=4)
        results = component.process_pending()
        histogram = metrics.histogram("caop_enrich_batch_size")
        assert histogram.count() == 1
        assert histogram.sum() == len(results)


class TestFixedClock:
    def test_fixed_clock_never_advances(self):
        frozen = FixedClock(PAPER_NOW)
        assert frozen.now() == frozen.now() == PAPER_NOW

    def test_ticking_platform_clock_stays_deterministic(self):
        # Even with a ticking clock, snapshots are taken in drain order on
        # the coordinating thread, so worker count cannot change timestamps.
        import datetime as dt

        def run(workers):
            misp = MispInstance(org="TestOrg")
            clock = SimulatedClock(PAPER_NOW, tick=dt.timedelta(seconds=1))
            component = HeuristicComponent(
                misp, inventory=paper_inventory(), clock=clock,
                workers=workers)
            build_workload(misp, events=6)
            return [
                json.dumps(misp.store.get_event(r.event_uuid).to_dict(),
                           sort_keys=True)
                for r in component.process_pending()
            ]

        assert run(1) == run(8)
