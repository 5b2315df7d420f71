"""The Heuristic Component (§III-B2): cIoC -> eIoC.

Consumes cIoCs from the MISP zeroMQ feed "in STIX 2.0 format", runs the
heuristic analysis against the infrastructure context, and writes the threat
score back onto the stored event "as a new MISP attribute" (§IV-A), plus a
JSON breakdown attribute so the per-criterion detail the paper's future work
calls for is already available to the dashboard.

The enrich hot path is batched (docs/PERFORMANCE.md):

1. **Drain** the feed into an ordered work list.  Each frame is the blob
   text the store wrote, so, as a MISP zmq consumer does, the cIoC is built
   from its document; the store is read only for a cIoC whose stored blob
   no longer hashes to that text (re-saved or deleted since it was
   published).  The correlation context comes in three chunked reads
   whatever the drain's size: the events, their correlation rows and the
   infrastructure tags of their correlation partners.
2. **Score** each eligible event in drain order on the calling thread:
   STIX export + heuristic evaluation over that context.  Every
   built-in extractor works in memory, so scoring is CPU-bound.
3. **Write back** through a planner that builds each eIoC fully in memory
   (score/breakdown attributes stamped in whole seconds, galaxy tags, the
   enriched tag) in drain order, then commits the whole cycle via
   :meth:`~repro.misp.MispInstance.apply_enrichments`: one transaction that
   writes only the rows that differ, O(1) SQL statements per cycle.  Each
   :class:`EnrichmentResult` carries its stored blob's digest, and the eIoC
   equals the decode of that blob, so the platform hands the eIoCs on to
   the rollups and the share plan instead of reading them back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..bus import ZmqSubscriber
from ..clock import Clock, FixedClock, SimulatedClock
from ..cvss import CveDatabase
from ..ids import content_uuid
from ..infra import INFRASTRUCTURE_TAG, AlarmManager, Inventory
from ..misp import MispAttribute, MispEvent, MispInstance, to_stix2_bundle
from ..misp.instance import TOPIC_EVENT
from ..misp.store import Handed, blob_digest
from ..obs import (
    MetricsRegistry,
    NULL_LOG,
    NULL_RECORDER,
    NULL_REGISTRY,
    ProvenanceRecorder,
    StructuredLog,
    trace_id_for,
)
from .compose import tags_to_feeds
from .heuristics import EvaluationContext, HeuristicRegistry, default_registry
from .ioc import TAG_EIOC, THREAT_SCORE_COMMENT, ThreatScoreResult

BREAKDOWN_COMMENT = "caop threat score breakdown"

#: When an event yields several scorable STIX objects, the event-level score
#: is the maximum (the analyst prioritizes by the worst credible threat).
_TYPE_PRIORITY = ("vulnerability", "indicator", "malware", "attack-pattern",
                  "tool", "identity")


@dataclass
class EnrichmentResult:
    """Outcome of enriching one cIoC.

    ``digest`` is the :func:`~repro.misp.store.blob_digest` of the blob the
    write-back stored for ``eioc``, which is that blob's decode.
    """

    event_uuid: str
    score: ThreatScoreResult
    object_results: Tuple[Tuple[str, ThreatScoreResult], ...]
    eioc: MispEvent
    digest: str = ""


class HeuristicComponent:
    """Subscribes to the MISP feed and enriches incoming cIoCs.

    Each drain is enriched as one batch: the cIoCs come from the feed's
    documents, the rest of the context from three chunked store reads,
    every eligible event is scored in drain order against a frozen
    snapshot of the clock, and the eIoCs are committed by one write-back.
    """

    def __init__(self, misp: MispInstance,
                 inventory: Optional[Inventory] = None,
                 alarm_manager: Optional[AlarmManager] = None,
                 cve_db: Optional[CveDatabase] = None,
                 registry: Optional[HeuristicRegistry] = None,
                 clock: Optional[Clock] = None,
                 galaxy_matcher: Optional["GalaxyMatcher"] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 provenance: Optional[ProvenanceRecorder] = None,
                 log: Optional[StructuredLog] = None) -> None:
        from ..misp.galaxy import GalaxyMatcher

        self._misp = misp
        self._inventory = inventory
        self._alarm_manager = alarm_manager
        # ``is None``, not ``or``: an empty database or registry is falsy.
        self._cve_db = CveDatabase() if cve_db is None else cve_db
        self._registry = default_registry() if registry is None else registry
        self._clock = clock or SimulatedClock()
        self._galaxies = galaxy_matcher or GalaxyMatcher()
        self._subscriber = ZmqSubscriber(misp.broker)
        self._subscriber.subscribe(TOPIC_EVENT)
        self._provenance = provenance or NULL_RECORDER
        self._log = log or NULL_LOG
        self.processed = 0
        self.skipped = 0
        self.galaxy_hits = 0
        self._metrics = metrics
        registry = metrics or NULL_REGISTRY
        self._m_enriched = registry.counter(
            "caop_eiocs_total", "cIoCs enriched into eIoCs")
        self._m_skipped = registry.counter(
            "caop_enrich_skipped_total", "Events ineligible for enrichment")

    def process_pending(self) -> List[EnrichmentResult]:
        """Drain the zmq feed and enrich every eligible cIoC as one batch.

        Each frame's document becomes the cIoC while the stored blob still
        hashes to the frame's text; a cIoC re-saved since it was published
        is read from the store, and one deleted since is skipped as
        ``missing``.
        """
        uuids: List[str] = []
        feed: Dict[str, Tuple[str, MispEvent]] = {}
        for topic, text in self._subscriber.drain_text():
            if topic != TOPIC_EVENT:
                continue  # prefix subscription also matches attribute topic
            event = MispEvent.from_dict(json.loads(text))
            uuids.append(event.uuid)
            feed[event.uuid] = (blob_digest(text), event)
        return self.enrich_many(uuids, handed=feed)

    def enrich(self, event_uuid: str) -> Optional[EnrichmentResult]:
        """Enrich one stored event; returns None when not eligible."""
        results = self.enrich_many([event_uuid])
        return results[0] if results else None

    def enrich_many(self, event_uuids: Sequence[str],
                    handed: Optional[Handed] = None
                    ) -> List[EnrichmentResult]:
        """Enrich a batch of stored events: read, score, write back.

        Results come back in drain (input) order; later duplicates of a
        uuid are counted as skipped, matching the serial path where the
        first enrichment stamps the enriched tag and the second attempt
        sees it.  The context is three chunked reads, whatever the batch
        size: the events (:meth:`~repro.misp.MispStore.get_events`; a
        ``handed`` event, such as the feed's that :meth:`process_pending`
        passes, is used instead of a decode while the stored blob matches
        its digest), their correlation rows, and the infrastructure tag of
        each correlation partner outside the batch.  Each call reads them
        afresh, so re-enriching an event sees its current correlations.
        """
        order = list(dict.fromkeys(event_uuids))
        duplicates = len(event_uuids) - len(order)
        if not order:
            return []
        store = self._misp.store
        events = store.get_events(order, handed=handed)
        partners = {
            uuid: [row["target_event"] if row["source_event"] == uuid
                   else row["source_event"] for row in rows]
            for uuid, rows in store.correlations_for_events(order).items()}
        infrastructure = {uuid for uuid, event in events.items()
                          if event is not None
                          and event.has_tag(INFRASTRUCTURE_TAG)}
        outside = list(dict.fromkeys(
            other for others in partners.values() for other in others
            if other not in events))
        if outside:
            infrastructure |= store.events_with_tag(INFRASTRUCTURE_TAG,
                                                    outside)
        # Source types: osint always (cIoCs come from feeds), infrastructure
        # when MISP correlated the event with an infrastructure event.
        sources = {uuid: frozenset({"osint", "infrastructure"})
                   if infrastructure.intersection(others)
                   else frozenset({"osint"})
                   for uuid, others in partners.items()}

        # Phase 1: eligibility over the batched context.
        eligible: List[MispEvent] = []
        for uuid in order:
            event = events[uuid]
            if event is None:
                self.skipped += 1
                self._m_skipped.inc(reason="missing")
            elif event.has_tag(INFRASTRUCTURE_TAG) or event.has_tag(TAG_EIOC):
                self.skipped += 1
                self._m_skipped.inc(reason="ineligible")
            else:
                eligible.append(event)
        for _ in range(duplicates):
            self.skipped += 1
            self._m_skipped.inc(reason="ineligible")

        # Phase 2: scoring, in drain order.  Each event sees a frozen clock
        # snapshot, so stored timestamps do not depend on how long scoring
        # takes.
        scored = [
            self.score_event(event, sources[event.uuid],
                             FixedClock(self._clock.now()))
            for event in eligible
        ]

        # Phase 3: write-back planner — build each eIoC fully in memory, in
        # drain order, then commit the cycle as one batch.
        results: List[EnrichmentResult] = []
        plans: List[MispEvent] = []
        for event, object_results in zip(eligible, scored):
            if not object_results:
                self.skipped += 1
                self._m_skipped.inc(reason="unscorable")
                continue
            results.append(self._plan_write_back(event, object_results))
            plans.append(event)
        if plans:
            digests = self._misp.apply_enrichments(plans)
            for result in results:
                result.digest = digests[result.event_uuid]
            self._record_enrichment_lineage(results)
        return results

    def _record_enrichment_lineage(
            self, results: Sequence[EnrichmentResult]) -> None:
        """``enriched-by``/``scored`` lineage + per-event log, in drain order.

        Runs after the batch commit.
        """
        if not (self._provenance.enabled or self._log.enabled):
            return
        for result in results:
            if self._provenance.enabled:
                heuristics = sorted({object_id.split("--", 1)[0]
                                     for object_id, _ in result.object_results})
                self._provenance.record(
                    "enriched-by", result.event_uuid, actor="heuristics",
                    detail="objects=" + ",".join(heuristics))
                self._provenance.record(
                    "scored", result.event_uuid, actor="heuristics",
                    detail=f"score={result.score.score:.4f}")
            if self._log.enabled:
                self._log.emit(
                    "enrich", "event_scored",
                    event_uuid=result.event_uuid,
                    trace_id=trace_id_for(result.event_uuid),
                    score=f"{result.score.score:.4f}")

    def _plan_write_back(
            self, event: MispEvent,
            object_results: List[Tuple[str, ThreatScoreResult]],
    ) -> EnrichmentResult:
        """Apply one event's enrichment mutations in memory (no store I/O).

        The attribute uuids are content-derived (keyed on the event and its
        pre-enrichment attribute count) so a replayed event enriches to
        byte-identical state; the count keeps a re-scored event from
        colliding.  Galaxy tags are stamped after the score attributes so
        the scan sees exactly the text the serial path scanned.  The
        attributes are stamped in whole seconds, as MISP JSON stores them,
        so the eIoC equals the decode of its stored blob even after a
        virtual backoff moved the clock by a fraction of a second.
        """
        best = max(object_results, key=lambda pair: pair[1].score)
        score = best[1]
        count = str(len(event.all_attributes()))
        event.add_attribute(MispAttribute(
            type="float", value=f"{score.score:.4f}",
            comment=THREAT_SCORE_COMMENT, to_ids=False,
            timestamp=self._clock.now().replace(microsecond=0),
            uuid=content_uuid("eioc-score", event.uuid, count),
        ))
        event.add_attribute(MispAttribute(
            type="text", value=json.dumps(score.breakdown(), sort_keys=True),
            comment=BREAKDOWN_COMMENT, to_ids=False,
            timestamp=self._clock.now().replace(microsecond=0),
            uuid=content_uuid("eioc-breakdown", event.uuid, count),
        ))
        # Contextual enrichment: galaxy clusters (threat actors, tooling)
        # mentioned by the intelligence get their misp-galaxy tags.
        clusters = self._galaxies.tag_event(event)
        self.galaxy_hits += len(clusters)
        event.add_tag(TAG_EIOC)
        self.processed += 1
        self._m_enriched.inc()
        return EnrichmentResult(
            event_uuid=event.uuid,
            score=score,
            object_results=tuple(object_results),
            eioc=event,
        )

    def score_event(self, event: MispEvent, source_types: FrozenSet[str],
                    clock: Clock) -> List[Tuple[str, ThreatScoreResult]]:
        """Export the event to STIX 2.0 and score every supported object.

        ``source_types`` is the event's source types and ``clock`` its
        frozen snapshot; :meth:`enrich_many` supplies both.
        """
        bundle = to_stix2_bundle(event)
        osint_feeds = frozenset(tags_to_feeds(event))
        results: List[Tuple[str, ThreatScoreResult]] = []
        # Keyed by STIX object id — two distinct objects of the same type
        # are both scored; only an identical object re-emitted is skipped.
        scored_object_ids: Set[str] = set()
        for stix_type in _TYPE_PRIORITY:
            heuristic = self._registry.for_type(stix_type)
            if heuristic is None:
                continue
            for obj in bundle.by_type(stix_type):
                if obj["id"] in scored_object_ids:
                    continue
                scored_object_ids.add(obj["id"])
                context = EvaluationContext(
                    stix_object=obj,
                    event=event,
                    inventory=self._inventory,
                    alarm_manager=self._alarm_manager,
                    cve_db=self._cve_db,
                    store=self._misp.store,
                    clock=clock,
                    source_types=source_types,
                    osint_feeds=osint_feeds,
                )
                results.append(
                    (obj["id"], heuristic.evaluate(context, metrics=self._metrics)))
        return results
