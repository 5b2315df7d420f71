"""Tests for the batch/parallel ingest path (PR: collect→store scaling).

Covers: deterministic concurrent fetching (same results for any worker
count, exact transport stats under threading), ordered ``fetch_many``
results, batched event persistence parity with the serial path, and batched
correlation parity — including the peer-sync routes.
"""

import threading

import pytest

from repro.clock import SimulatedClock
from repro.core import OsintDataCollector, PlatformConfig
from repro.errors import FeedError
from repro.feeds import (
    FeedDescriptor,
    FeedFetcher,
    FeedFormat,
    IndicatorPool,
    SimulatedTransport,
    standard_feed_set,
)
from repro.ids import IdGenerator
from repro.misp import MispAttribute, MispEvent, MispInstance
from repro.obs import MetricsRegistry
from repro.parallel import pool_width


def build_collector(workers: int, failure_rate: float = 0.0,
                    max_retries: int = 2, misp=None):
    """A deterministic multi-feed collector with a configurable pool."""
    clock = SimulatedClock()
    pool = IndicatorPool(seed=21, size=300)
    transport = SimulatedTransport(clock=clock, seed=21,
                                   failure_rate=failure_rate)
    descriptors = []
    for generator, name in standard_feed_set(pool, entries=20, seed=21,
                                             overlap=0.6):
        descriptor = generator.descriptor(name)
        transport.register_generator(descriptor, generator)
        descriptors.append(descriptor)
    fetcher = FeedFetcher(transport, clock=clock, max_retries=max_retries,
                          workers=workers)
    collector = OsintDataCollector(fetcher, descriptors, misp=misp,
                                   clock=clock)
    return collector, transport


def make_events(count: int, values_per_event: int = 3, value_pool: int = 10,
                seed: int = 5):
    ids = IdGenerator(seed=seed)
    events = []
    for index in range(count):
        event = MispEvent(info=f"event {index}", uuid=ids.uuid())
        for offset in range(values_per_event):
            value = f"v{(index * values_per_event + offset) % value_pool}.example"
            event.add_attribute(MispAttribute(
                type="domain", value=value, uuid=ids.uuid()))
        events.append(event)
    return events


class TestConcurrentFetchDeterminism:
    @pytest.mark.parametrize("workers", [2, 4, 8, None])
    def test_same_ciocs_and_report_as_serial(self, workers):
        serial, _ = build_collector(workers=1)
        parallel, _ = build_collector(workers=workers)
        serial_ciocs, serial_report = serial.collect()
        parallel_ciocs, parallel_report = parallel.collect()

        def fingerprint(ciocs):
            # Event uuids come from an unseeded IdGenerator, so compare the
            # composed content, not identifiers.
            return [
                (cioc.info,
                 sorted(a.value for a in cioc.all_attributes()),
                 sorted(tag.name for tag in cioc.tags))
                for cioc in ciocs
            ]

        assert fingerprint(parallel_ciocs) == fingerprint(serial_ciocs)
        assert parallel_report == serial_report

    def test_transport_stats_exact_under_threading(self):
        # With failure injection the retry/failure pattern is drawn from
        # per-request RNGs, so the counters must match exactly no matter
        # how the pool threads interleave.
        serial, serial_transport = build_collector(
            workers=1, failure_rate=0.3, max_retries=2)
        parallel, parallel_transport = build_collector(
            workers=8, failure_rate=0.3, max_retries=2)
        _, serial_report = serial.collect()
        _, parallel_report = parallel.collect()
        assert parallel_transport.stats.requests == \
            serial_transport.stats.requests
        assert parallel_transport.stats.failures == \
            serial_transport.stats.failures
        assert parallel_transport.stats.retries == \
            serial_transport.stats.retries
        assert parallel_transport.stats.total_latency_seconds == \
            pytest.approx(serial_transport.stats.total_latency_seconds)
        assert parallel_report == serial_report
        # The injected failures actually exercised the retry machinery.
        assert serial_transport.stats.retries > 0

    def test_repeated_parallel_cycles_are_stable(self):
        first, _ = build_collector(workers=4)
        second, _ = build_collector(workers=4)
        assert first.collect()[1] == second.collect()[1]


class TestFetchMany:
    def setup_rig(self, workers=4):
        clock = SimulatedClock()
        transport = SimulatedTransport(clock=clock)
        good = FeedDescriptor(name="good", url="https://feeds.example/good",
                              format=FeedFormat.PLAINTEXT,
                              category="malware-domains")
        bad = FeedDescriptor(name="bad", url="https://feeds.example/missing",
                             format=FeedFormat.PLAINTEXT,
                             category="malware-domains")
        transport.register(good.url, lambda _now: "x.example\n")
        fetcher = FeedFetcher(transport, clock=clock, max_retries=0,
                              workers=workers)
        return fetcher, good, bad

    def test_results_in_descriptor_order(self):
        fetcher, good, bad = self.setup_rig()
        results = fetcher.fetch_many([bad, good, bad, good])
        assert [d.name for d, _doc, _err in results] == \
            ["bad", "good", "bad", "good"]
        assert [doc is not None for _d, doc, _err in results] == \
            [False, True, False, True]
        assert all(isinstance(err, FeedError)
                   for _d, doc, err in results if doc is None)

    def test_empty_descriptor_list(self):
        fetcher, _good, _bad = self.setup_rig()
        assert fetcher.fetch_many([]) == []

    def test_fetch_all_raises_when_asked_parallel(self):
        fetcher, good, bad = self.setup_rig()
        with pytest.raises(FeedError):
            fetcher.fetch_all([good, bad], skip_failed=False)

    def test_invalid_workers_rejected(self):
        clock = SimulatedClock()
        with pytest.raises(FeedError):
            FeedFetcher(SimulatedTransport(clock=clock), workers=0)

    def test_pool_gauge_records_workers(self):
        metrics = MetricsRegistry()
        clock = SimulatedClock()
        transport = SimulatedTransport(clock=clock)
        good = FeedDescriptor(name="good", url="https://feeds.example/good",
                              format=FeedFormat.PLAINTEXT,
                              category="malware-domains")
        transport.register(good.url, lambda _now: "x.example\n")
        fetcher = FeedFetcher(transport, clock=clock, workers=8,
                              metrics=metrics)
        fetcher.fetch_many([good, good, good])
        # Bounded by the number of feeds, not the configured maximum.
        assert metrics.gauge("caop_fetch_pool_workers").value() == 3


class TestEveryDueFeedInFlight:
    def test_default_pool_fetches_every_feed_at_once(self):
        # Every body waits until all twelve fetches are in flight, which
        # only a pool of one worker per due feed can reach.
        barrier = threading.Barrier(12, timeout=5)
        metrics = MetricsRegistry()
        clock = SimulatedClock()
        transport = SimulatedTransport(clock=clock, seed=21)
        descriptors = []
        for generator, name in standard_feed_set(
                IndicatorPool(seed=21, size=100), entries=5, seed=21):
            descriptor = generator.descriptor(name)

            def body(now, generator=generator):
                barrier.wait()
                return generator.body(now)

            transport.register(descriptor.url, body)
            descriptors.append(descriptor)
        assert len(descriptors) == 12
        fetcher = FeedFetcher(transport, clock=clock, metrics=metrics,
                              workers=PlatformConfig().fetch_workers)
        results = fetcher.fetch_many(descriptors)
        assert [(d.name, error) for d, _doc, error in results] == \
            [(d.name, None) for d in descriptors]
        assert all(doc.body for _d, doc, _error in results)
        assert metrics.gauge("caop_fetch_pool_workers").value() == 12

    def test_an_integer_caps_the_pool(self):
        assert [pool_width(workers, 12) for workers in (None, 1, 4, 20)] \
            == [12, 1, 4, 12]
        assert pool_width(None, 0) == 1


class TestBatchedPersistence:
    def test_save_events_matches_serial_saves(self):
        events = make_events(8)
        serial = MispInstance(org="serial")
        for event in events:
            serial.store.save_event(event)
        batched = MispInstance(org="batched")
        batched.store.save_events(events)
        serial_blobs = sorted(e.to_dict()["Event"]["uuid"]
                              for e in serial.store.list_events())
        batched_blobs = sorted(e.to_dict()["Event"]["uuid"]
                               for e in batched.store.list_events())
        assert batched_blobs == serial_blobs
        assert batched.store.attribute_count() == \
            serial.store.attribute_count()
        assert batched.store.audit_count() == serial.store.audit_count()

    def test_batch_audit_actions_created_then_updated(self):
        events = make_events(3)
        misp = MispInstance()
        misp.store.save_events(events)
        misp.store.save_events(events)
        for event in events:
            actions = [h["action"] for h in misp.store.event_history(event.uuid)]
            assert actions == ["created", "updated"]

    def test_intra_batch_duplicate_uuid_keeps_last_version(self):
        first, second = make_events(2)
        second.uuid = first.uuid
        misp = MispInstance()
        misp.store.save_events([first, second])
        stored = misp.store.get_event(first.uuid)
        assert stored.info == second.info
        # Replacement dropped the first version's attribute rows.
        assert misp.store.attribute_count() == len(second.all_attributes())
        actions = [h["action"] for h in misp.store.event_history(first.uuid)]
        assert actions == ["created", "updated"]

    def test_empty_batch_is_a_noop(self):
        misp = MispInstance()
        misp.store.save_events([])
        misp.add_events([])
        assert misp.store.event_count() == 0

    def test_batch_size_histogram_observed(self):
        metrics = MetricsRegistry()
        misp = MispInstance(metrics=metrics)
        misp.add_events(make_events(4), publish_feed=False)
        histogram = metrics.histogram("caop_store_batch_size")
        assert histogram.count() == 1
        assert histogram.sum() == 4

    def test_add_events_publishes_each_on_zmq(self):
        misp = MispInstance()
        events = make_events(3)
        misp.add_events(events)
        assert misp.zmq.sent == 3


class TestBatchedCorrelation:
    def test_batch_graph_matches_serial_graph(self):
        events = make_events(10, values_per_event=4, value_pool=6)
        serial = MispInstance(org="serial")
        for event in events:
            serial.add_event(event, publish_feed=False)
        batched = MispInstance(org="batched")
        batched.add_events(events, publish_feed=False)
        assert batched.store.correlation_count() == \
            serial.store.correlation_count()

        def edge_set(instance):
            edges = set()
            for event in events:
                for row in instance.store.correlations_for_event(event.uuid):
                    edges.add(tuple(sorted(row.items())))
            return edges

        assert edge_set(batched) == edge_set(serial)
        assert serial.store.correlation_count() > 0

    def test_batch_correlates_against_pre_existing_events(self):
        misp = MispInstance()
        existing = MispEvent(info="old")
        existing.add_attribute(MispAttribute(type="domain", value="shared.example"))
        misp.add_event(existing, publish_feed=False)
        incoming = MispEvent(info="new")
        incoming.add_attribute(MispAttribute(type="domain", value="shared.example"))
        misp.add_events([incoming], publish_feed=False)
        targets = {row["target_event"]
                   for row in misp.correlations(incoming.uuid)}
        assert existing.uuid in targets

    def test_batch_does_not_self_correlate(self):
        misp = MispInstance()
        event = MispEvent(info="solo")
        event.add_attribute(MispAttribute(type="domain", value="a.example"))
        event.add_attribute(MispAttribute(type="domain", value="a.example"))
        misp.add_events([event], publish_feed=False)
        assert misp.store.correlation_count() == 0

    def test_receive_events_batched(self):
        misp = MispInstance()
        events = make_events(3, values_per_event=2, value_pool=2)
        digests = misp.receive_events(events)
        assert misp.store.event_count() == 3
        # The digest of each stored blob, without decoding or re-encoding.
        assert digests == {uuid: stamp[1] for uuid, stamp in
                           misp.store.event_digests(digests).items()}
        assert list(digests) == [event.uuid for event in events]
        # No zmq publish on the peer-facing path.
        assert misp.zmq.sent == 0
