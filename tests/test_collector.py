"""Tests for the OSINT Data Collector pipeline."""

import dataclasses
import hashlib
import json

import pytest

from repro.clock import SimulatedClock
from repro.core import (
    Normalizer,
    OsintDataCollector,
    is_cioc,
    tags_to_category,
)
from repro.feeds import (
    FeedDescriptor,
    FeedFetcher,
    FeedFormat,
    GeneratorConfig,
    IndicatorPool,
    MalwareDomainFeed,
    SimulatedTransport,
    standard_feed_set,
)
from repro.misp import MispInstance
from repro.misp.export import canonical_json
from repro.nlp import ThreatTagger
from repro.workloads import single_feed_collector


class TestSingleFeed:
    def test_plaintext_feed_produces_ciocs(self, misp):
        collector = single_feed_collector(
            "# list\nevil-a.example\nevil-b.example\n", misp=misp)
        ciocs, report = collector.collect()
        assert report.feeds_fetched == 1
        assert report.records_parsed == 2
        assert report.ciocs_created == 2
        for cioc in ciocs:
            assert is_cioc(cioc)
            assert tags_to_category(cioc) == "malware-domains"
            assert misp.store.has_event(cioc.uuid)

    def test_second_cycle_is_fully_deduplicated(self, misp):
        collector = single_feed_collector("evil.example\n", misp=misp)
        first, _ = collector.collect()
        second, report = collector.collect()
        assert first and not second
        assert report.duplicates_removed == 1
        assert report.ciocs_created == 0

    def test_failed_feed_counted_not_raised(self, clock):
        descriptor = FeedDescriptor(
            name="missing", url="https://feeds.example/missing",
            format=FeedFormat.PLAINTEXT, category="malware-domains")
        fetcher = FeedFetcher(SimulatedTransport(clock=clock), max_retries=0)
        collector = OsintDataCollector(fetcher, [descriptor])
        _, report = collector.collect()
        assert report.feeds_failed == 1
        assert report.ciocs_created == 0


class TestMultiFeed:
    @pytest.fixture
    def collector(self, misp, clock):
        pool = IndicatorPool(seed=11, size=300)
        transport = SimulatedTransport(clock=clock, seed=11)
        descriptors = []
        for generator, name in standard_feed_set(pool, entries=40, seed=11,
                                                 overlap=0.7):
            descriptor = generator.descriptor(name)
            transport.register_generator(descriptor, generator)
            descriptors.append(descriptor)
        return OsintDataCollector(
            FeedFetcher(transport, clock=clock), descriptors,
            misp=misp, clock=clock)

    def test_cross_feed_duplicates_removed(self, collector):
        _, report = collector.collect()
        assert report.feeds_fetched == 12
        assert report.duplicates_removed > 0
        assert collector.deduplicator.stats.cross_feed_duplicates > 0

    def test_every_category_aggregated(self, collector):
        _, report = collector.collect()
        assert set(report.categories) == {
            "malware-domains", "ip-blocklist", "phishing", "malware-hashes",
            "vulnerability-exploitation", "threat-news"}

    def test_correlation_produces_multi_event_subsets(self, collector):
        _, report = collector.collect()
        # connections exist (hash feeds share families, news mentions domains)
        assert report.connections > 0
        assert report.subsets < report.events_normalized - report.duplicates_removed

    def test_ciocs_are_stored_and_published(self, collector, misp):
        ciocs, report = collector.collect()
        assert misp.store.event_count() == report.ciocs_created
        assert misp.zmq.sent == report.ciocs_created

    def test_volume_reduction_metric(self, collector):
        _, report = collector.collect()
        assert 0.0 <= report.volume_reduction < 1.0


class RecordingTagger(ThreatTagger):
    """A threat tagger that keeps every text it annotates."""

    def __init__(self):
        super().__init__()
        self.texts = []

    def categories(self, text):
        self.texts.append(text)
        return super().categories(text)


class TestNlpOncePerStory:
    #: sha256 of each cycle's cIoCs (canonical JSON) and CollectionReport,
    #: recorded while every record still went through the NLP before the
    #: deduplicator: skipping the NLP for seen stories changes neither.
    CYCLE_DIGESTS = [
        "88991bc8972dd742610fd1faf3d3770101b87164bb56aec18e77c15b8a68375d",
        "8ef7dba6bea170a562d2ed4b132e47c0148c48b051e95185237154039d06c851",
        "d767a9be1bd7954e8a0d92111b6d67b642e8f5fac29f4476c715a3186fcb8cbb",
    ]

    def build(self, clock):
        """Twelve standard feeds, two of them news, and a record of what
        each news feed served."""
        pool = IndicatorPool(seed=11, size=300)
        transport = SimulatedTransport(clock=clock, seed=11)
        served = []
        descriptors = []
        for generator, name in standard_feed_set(pool, entries=40, seed=11,
                                                 overlap=0.7):
            descriptor = generator.descriptor(name)

            def body(now, generator=generator, news=name.startswith(
                    "threat-news")):
                text = generator.body(now)
                if news:
                    served.append(text)
                return text

            transport.register(descriptor.url, body)
            descriptors.append(descriptor)
        tagger = RecordingTagger()
        collector = OsintDataCollector(
            FeedFetcher(transport, clock=clock), descriptors, clock=clock,
            normalizer=Normalizer(tagger=tagger))
        return collector, tagger, served

    def test_each_story_is_annotated_once(self, clock):
        collector, tagger, served = self.build(clock)
        seen = set()
        for cycle, digest in enumerate(self.CYCLE_DIGESTS, start=1):
            del served[:], tagger.texts[:]
            ciocs, report = collector.collect()
            # The text of each story's first record, in document order, for
            # the stories no earlier cycle carried.
            expected = []
            for body in served:
                for entry in json.loads(body)["entries"]:
                    story = entry["title"].lower()
                    if story not in seen:
                        seen.add(story)
                        expected.append(f"{entry['title']}. {entry['text']}")
            assert len(served) == 2
            assert tagger.texts == expected, f"cycle {cycle}"
            assert hashlib.sha256(json.dumps({
                "ciocs": [canonical_json(cioc) for cioc in ciocs],
                "report": dataclasses.asdict(report),
            }, sort_keys=True).encode()).hexdigest() == digest, \
                f"cycle {cycle}"
        assert report.events_normalized == report.records_parsed == 480
        assert 0 < len(expected) < report.duplicates_removed


class TestParseFailureCounting:
    def build(self, bodies, clock, scheduler=False):
        from repro.feeds.scheduler import FeedScheduler

        transport = SimulatedTransport(clock=clock)
        descriptors = []
        for name, body in bodies.items():
            descriptor = FeedDescriptor(
                name=name, url=f"https://feeds.example/{name}",
                format=FeedFormat.CSV if name.endswith(".csv")
                else FeedFormat.PLAINTEXT,
                category="malware-domains")
            transport.register(descriptor.url, lambda _now, b=body: b)
            descriptors.append(descriptor)
        fetcher = FeedFetcher(transport, clock=clock, max_retries=0)
        feed_scheduler = FeedScheduler(descriptors, clock=clock) \
            if scheduler else None
        return OsintDataCollector(fetcher, descriptors, clock=clock,
                                  scheduler=feed_scheduler)

    def test_garbage_feeds_never_drive_fetched_negative(self, clock):
        # Every fetched document that fails to parse moves from fetched to
        # failed; the counter is clamped so it can never go below zero.
        collector = self.build(
            {"bad-one.csv": "", "bad-two.csv": "", "good": "ok.example\n"},
            clock)
        _, report = collector.collect()
        assert report.feeds_fetched == 1
        assert report.feeds_failed == 2

    def test_all_garbage_feeds_report_zero_fetched(self, clock):
        collector = self.build({"bad.csv": "", "worse.csv": ""}, clock)
        _, report = collector.collect()
        assert report.feeds_fetched == 0
        assert report.feeds_failed == 2

    def test_scheduler_path_garbage_feed_clamped(self, clock):
        collector = self.build({"bad.csv": ""}, clock, scheduler=True)
        _, report = collector.collect()
        assert report.feeds_fetched == 0
        assert report.feeds_failed == 1
        # Second cycle: nothing due yet, counters stay at zero, no negatives.
        _, second = collector.collect()
        assert second.feeds_fetched == 0
        assert second.feeds_failed == 0


class TestRelevanceFiltering:
    def test_drop_irrelevant_text(self, clock):
        body = (
            '{"entries": ['
            '{"title": "Ransomware cripples hospital network", '
            '"text": "ransomware attack with data breach and extortion"},'
            '{"title": "Annual charity bake sale raises funds", '
            '"text": "cookies and community fun at the fair"}'
            "]}"
        )
        keep_all = single_feed_collector(
            body, feed_format=FeedFormat.JSON, category="threat-news",
            clock=clock)
        ciocs, _ = keep_all.collect()
        assert len(ciocs) == 2

        filtering = single_feed_collector(
            body, feed_format=FeedFormat.JSON, category="threat-news",
            clock=clock)
        filtering._drop_irrelevant_text = True
        ciocs, _ = filtering.collect()
        titles = [c.info for c in ciocs]
        assert len(ciocs) == 1
        assert "Ransomware" in titles[0]
