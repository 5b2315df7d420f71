"""The OSINT Data Collector (§III-A1): the full input-module pipeline.

fetch -> parse -> deduplicate -> normalize -> aggregate -> correlate ->
compose cIoCs -> ship to the MISP instance.  Deduplication keys each
record on :meth:`~repro.core.Normalizer.uid` before normalizing, so only
records not seen before pay for normalization and its NLP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..clock import Clock, SimulatedClock
from ..errors import FeedError, ParseError, StorageError
from ..feeds import (
    FeedDescriptor,
    FeedDocument,
    FeedFetcher,
    FeedRecord,
    parse_document,
)
from ..feeds.scheduler import FeedScheduler
from ..misp import MispEvent, MispInstance
from ..misp.warninglists import WarninglistIndex
from ..obs import (
    MetricsRegistry,
    NULL_LOG,
    NULL_RECORDER,
    NULL_REGISTRY,
    ProvenanceRecorder,
    StructuredLog,
    Tracer,
)
from ..resilience.deadletter import DeadLetterQueue
from ..resilience.faults import FaultInjector
from .aggregate import Aggregator
from .compose import CiocComposer
from .correlate import Connection, EventCorrelator
from .dedup import Deduplicator
from .normalize import NormalizedEvent, Normalizer


@dataclass
class CollectionReport:
    """Counters from one collection cycle."""

    feeds_fetched: int = 0
    feeds_failed: int = 0
    records_parsed: int = 0
    events_normalized: int = 0
    duplicates_removed: int = 0
    benign_filtered: int = 0
    categories: Dict[str, int] = field(default_factory=dict)
    subsets: int = 0
    connections: int = 0
    ciocs_created: int = 0
    #: Documents quarantined to the dead-letter queue this cycle.
    documents_quarantined: int = 0
    #: Composed events quarantined after the store stage exhausted retries.
    events_quarantined: int = 0
    #: The store stage's failure, when it degraded (None on success).
    store_error: Optional[str] = None

    @property
    def volume_reduction(self) -> float:
        """Fraction of raw records that did NOT become a fresh event."""
        if self.records_parsed == 0:
            return 0.0
        return 1.0 - (self.events_normalized - self.duplicates_removed) / self.records_parsed


class OsintDataCollector:
    """Configured with feeds; each cycle produces cIoCs in the MISP instance."""

    def __init__(self, fetcher: FeedFetcher,
                 feeds: Sequence[FeedDescriptor],
                 misp: Optional[MispInstance] = None,
                 clock: Optional[Clock] = None,
                 normalizer: Optional[Normalizer] = None,
                 drop_irrelevant_text: bool = False,
                 relevance_threshold: float = 0.75,
                 scheduler: Optional[FeedScheduler] = None,
                 warninglists: Optional[WarninglistIndex] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 deadletters: Optional[DeadLetterQueue] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 provenance: Optional[ProvenanceRecorder] = None,
                 log: Optional[StructuredLog] = None) -> None:
        self._fetcher = fetcher
        self._deadletters = deadletters
        self._fault_injector = fault_injector
        self._feeds = list(feeds)
        self._scheduler = scheduler
        self._warninglists = warninglists
        self._misp = misp
        self._clock = clock or SimulatedClock()
        self._normalizer = normalizer or Normalizer()
        self.deduplicator = Deduplicator(metrics=metrics)
        self._tracer = tracer or Tracer(enabled=False)
        self._provenance = provenance or NULL_RECORDER
        self._log = log or NULL_LOG
        #: uid -> composed cIoC uuid, persistent across cycles (mirrors the
        #: deduplicator's memory) so later duplicate sightings can be
        #: attributed to the event that first absorbed the uid.
        self._uid_events: Dict[str, str] = {}
        metrics = metrics or NULL_REGISTRY
        self._m_feed_events = metrics.counter(
            "caop_feed_events_total", "Raw records parsed per feed")
        self._m_parse_errors = metrics.counter(
            "caop_feed_parse_errors_total", "Feed documents rejected by the parser")
        self._m_benign = metrics.counter(
            "caop_benign_filtered_total", "Events dropped by warninglist filtering")
        self._m_ciocs = metrics.counter(
            "caop_ciocs_created_total", "Composed cIoCs shipped to MISP")
        self._aggregator = Aggregator()
        self._correlator = EventCorrelator()
        self._composer = CiocComposer(
            clock=self._clock, deduplicator=self.deduplicator)
        self._drop_irrelevant_text = drop_irrelevant_text
        self._relevance_threshold = relevance_threshold
        self.last_connections: List[Connection] = []

    @property
    def feeds(self) -> List[FeedDescriptor]:
        """The configured feed descriptors."""
        return list(self._feeds)

    def add_feed(self, descriptor: FeedDescriptor) -> None:
        """Register one more feed for subsequent cycles."""
        self._feeds.append(descriptor)

    def collect(self) -> Tuple[List[MispEvent], CollectionReport]:
        """Run one full collection cycle; returns (cIoCs, report)."""
        report = CollectionReport()
        documents: List[FeedDocument] = []
        with self._tracer.span("fetch"):
            if self._scheduler is not None:
                to_fetch = self._scheduler.due_feeds()
            else:
                to_fetch = self._feeds
            # fetch_many runs on the fetcher's worker pool (serial when
            # workers=1) and yields results in descriptor order, so the
            # report and the scheduler bookkeeping stay deterministic.
            # Failed/breaker-skipped feeds are NOT marked fetched, so the
            # scheduler keeps them due next cycle.
            for descriptor, document, error in self._fetcher.fetch_many(to_fetch):
                if error is not None:
                    report.feeds_failed += 1
                    self._log.emit("collect", "feed_failed", level="warn",
                                   feed=descriptor.name, error=str(error))
                    continue
                documents.append(document)
                report.feeds_fetched += 1
                self._log.emit("collect", "feed_fetched",
                               feed=descriptor.name)
                if self._scheduler is not None:
                    self._scheduler.mark_fetched(descriptor)
        return self.process_documents(documents, report)

    def process_documents(self, documents: Sequence[FeedDocument],
                          report: Optional[CollectionReport] = None
                          ) -> Tuple[List[MispEvent], CollectionReport]:
        """Run fetched documents through parse → ... → store.

        This is the post-fetch tail of :meth:`collect`, split out so the
        dead-letter queue can replay quarantined documents through the
        identical pipeline once their fault has cleared.
        """
        if report is None:
            report = CollectionReport()
        records: List[FeedRecord] = []
        with self._tracer.span("normalize"):
            for document in documents:
                try:
                    if self._fault_injector is not None:
                        self._fault_injector.check(
                            "parse", document.descriptor.name)
                    parsed = parse_document(document)
                except ParseError as exc:
                    # A feed serving garbage must not take the cycle down; it
                    # counts as failed and the remaining feeds proceed.  The
                    # fetched counter only moves back for documents it
                    # actually counted, so it can never go negative.
                    report.feeds_failed += 1
                    report.feeds_fetched = max(0, report.feeds_fetched - 1)
                    self._m_parse_errors.inc(feed=document.descriptor.name)
                    if self._deadletters is not None:
                        self._deadletters.quarantine_document(
                            document, reason=f"parse: {exc}")
                        report.documents_quarantined += 1
                    continue
                report.records_parsed += len(parsed)
                self._m_feed_events.inc(len(parsed), feed=document.descriptor.name)
                records.extend(parsed)
            keys = [(self._normalizer.uid(record), record.feed_name)
                    for record in records]
        report.events_normalized = len(records)

        with self._tracer.span("dedup"):
            flags = self.deduplicator.admit(keys)
        # Resolved to their absorbing cIoC after compose (the uid map may
        # gain entries this cycle); the pair order is document order, so
        # the recorded lineage is deterministic.
        duplicate_pairs = [key for key, new in zip(keys, flags) if not new]
        report.duplicates_removed = len(duplicate_pairs)

        # Only a record the deduplicator has not seen is normalized, so the
        # NLP runs once per story.
        with self._tracer.span("normalize"):
            fresh = [self._normalizer.normalize(record)
                     for record, new in zip(records, flags) if new]

        with self._tracer.span("filter"):
            if self._warninglists is not None:
                kept = []
                for event in fresh:
                    if not event.is_text and self._warninglists.is_benign(event.value):
                        report.benign_filtered += 1
                    else:
                        kept.append(event)
                fresh = kept
                if report.benign_filtered:
                    self._m_benign.inc(report.benign_filtered)

            if self._drop_irrelevant_text:
                fresh = [
                    event for event in fresh
                    if not event.is_text
                    or event.relevant
                    or (event.relevance_confidence or 0.0) < self._relevance_threshold
                ]

        groups = self._aggregator.aggregate(fresh)
        report.categories = {c: len(batch) for c, batch in groups.items()}

        self.last_connections = []
        correlated: List[Tuple[str, List[List[NormalizedEvent]]]] = []
        with self._tracer.span("correlate"):
            for category, batch in groups.items():
                subsets, connections = self._correlator.correlate(batch)
                report.subsets += len(subsets)
                report.connections += len(connections)
                self.last_connections.extend(connections)
                correlated.append((category, subsets))

        ciocs: List[MispEvent] = []
        with self._tracer.span("compose"):
            for category, subsets in correlated:
                for subset in subsets:
                    cioc = self._composer.compose(category, subset)
                    ciocs.append(cioc)
                    self._record_cioc_lineage(cioc, subset)
        self._record_duplicate_lineage(duplicate_pairs)

        try:
            with self._tracer.span("store"):
                if self._misp is not None and ciocs:
                    # One transaction + one correlation pass for the whole
                    # cycle's cIoCs instead of per-event round trips.
                    self._misp.add_events(ciocs)
        except StorageError as exc:
            # The MISP instance already retried (and, when wired with a
            # dead-letter queue, quarantined the batch); the cycle degrades
            # instead of dying and the remaining stages still run.
            report.store_error = str(exc)
            if self._deadletters is not None:
                report.events_quarantined += len(ciocs)
        report.ciocs_created = len(ciocs)
        self._m_ciocs.inc(len(ciocs))
        return ciocs, report

    def _record_cioc_lineage(self, cioc: MispEvent,
                             subset: Sequence[NormalizedEvent]) -> None:
        """``fetched``/``parsed`` lineage for one freshly composed cIoC."""
        if not self._provenance.enabled:
            return
        for normalized in subset:
            self._uid_events[normalized.uid] = cioc.uuid
        for feed in sorted({n.feed_name for n in subset}):
            self._provenance.record(
                "fetched", cioc.uuid, actor="collector", detail=f"feed={feed}")
        self._provenance.record(
            "parsed", cioc.uuid, actor="collector",
            detail=f"{len(subset)} normalized record(s)")

    def _record_duplicate_lineage(
            self, duplicate_pairs: Sequence[Tuple[str, str]]) -> None:
        """``deduped-into`` lineage: duplicate sightings of absorbed uids."""
        if not self._provenance.enabled:
            return
        for uid, feed in duplicate_pairs:
            target = self._uid_events.get(uid)
            if target is not None:
                self._provenance.record(
                    "deduped-into", target, actor="dedup",
                    detail=f"feed={feed} uid={uid}")
