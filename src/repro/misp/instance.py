"""The MISP instance: store + correlation + real-time feed + sharing.

This is the operational module's hub (§III-B1): it ingests cIoCs, performs
"basic automated correlation steps" against stored data, publishes incoming
OSINT events on the zeroMQ feed for the heuristic component, accepts the
threat score back as a new attribute (eIoC), and syncs published events to
remote instances according to their distribution level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..bus import MessageBroker, ZmqPublisher
from ..clock import Clock
from ..errors import SharingError, StorageError, TransientStorageError
from ..ids import IdGenerator
from ..obs import MetricsRegistry, NULL_REGISTRY
from .export import EXPORT_MODULES, to_stix2_bundle
from .model import Distribution, MispAttribute, MispEvent, MispTag
from .sharing_groups import SharingGroup
from .store import MispStore, blob_digest

#: zeroMQ topics mirroring MISP's real feed names.
TOPIC_EVENT = "misp_json"
TOPIC_ATTRIBUTE = "misp_json_attribute"


@dataclass
class SyncStats:
    """Counters describing instance-to-instance sync outcomes."""
    pushed_events: int = 0
    pulled_events: int = 0
    skipped_distribution: int = 0
    skipped_duplicates: int = 0


class MispInstance:
    """One MISP deployment: local store, correlation, feed, sync peers."""

    def __init__(self, org: str = "CAOP", store: Optional[MispStore] = None,
                 broker: Optional[MessageBroker] = None,
                 id_generator: Optional[IdGenerator] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 clock: Optional[Clock] = None,
                 store_retry_policy=None,
                 sleeper=None,
                 deadletters=None,
                 fault_injector=None) -> None:
        self.org = org
        self._clock = clock
        self.store = store or MispStore(metrics=metrics, clock=clock,
                                        fault_injector=fault_injector)
        self.broker = broker or MessageBroker(metrics=metrics)
        if fault_injector is not None and self.broker.fault_injector is None:
            self.broker.fault_injector = fault_injector
        self.zmq = ZmqPublisher(self.broker)
        self._peers: List["MispInstance"] = []
        self.sync_stats = SyncStats()
        self._ids = id_generator or IdGenerator()
        self.sharing_groups: Dict[str, SharingGroup] = {}
        self._store_retry = store_retry_policy
        self._sleeper = sleeper
        self._deadletters = deadletters
        self._fault_injector = fault_injector
        registry = metrics or NULL_REGISTRY
        self._m_backoff = registry.histogram(
            "caop_retry_backoff_seconds",
            "Backoff computed before each retry attempt")

    # -- ingestion ------------------------------------------------------------

    def add_event(self, event: MispEvent, publish_feed: bool = True) -> MispEvent:
        """Store an event, correlate it, and publish it on the zmq feed.

        Re-adding the same uuid replaces the stored version (MISP edit
        semantics).
        """
        return self.add_events([event], publish_feed=publish_feed)[0]

    def add_events(self, events: Sequence[MispEvent],
                   publish_feed: bool = True) -> List[MispEvent]:
        """Store a batch of events, correlate them, publish each on zmq.

        This is the bulk-ingestion entry point the collector's store stage
        uses: the whole batch is persisted in one transaction and correlated
        with one value lookup, yet produces exactly the events, audit trail
        and correlation edges that adding each event in turn would.
        """
        events = list(events)
        if not events:
            return events
        self._save_with_retry(events)
        self._correlate_batch(events)
        if publish_feed:
            for event in events:
                self.zmq.send(TOPIC_EVENT, event.to_dict())
        return events

    def _save_with_retry(self, events: List[MispEvent]) -> None:
        """Persist a batch, retrying transient storage faults with backoff.

        Exhausted batches are quarantined to the dead-letter queue (when one
        is wired) before the :class:`StorageError` propagates, so a flaky
        store degrades the cycle without losing the composed events —
        ``DeadLetterQueue.replay`` re-ingests them once the fault clears.
        Permanent storage errors (duplicate uuid with ``replace=False``...)
        are never retried.
        """
        attempt = 0
        while True:
            try:
                if self._fault_injector is not None:
                    self._fault_injector.check("store", "add_events")
                self.store.save_events(events)
                return
            except TransientStorageError as exc:
                if self._store_retry is not None and \
                        attempt < self._store_retry.max_retries:
                    delay = self._store_retry.delay("misp-store", attempt)
                    self._m_backoff.observe(delay, component="store")
                    if self._sleeper is not None:
                        self._sleeper.sleep(delay)
                    attempt += 1
                    continue
                if self._deadletters is not None:
                    self._deadletters.quarantine_events(
                        events, reason=f"store: {exc}")
                    raise StorageError(
                        f"save_events failed after {attempt + 1} attempt(s); "
                        f"{len(events)} events quarantined") from exc
                raise

    def apply_enrichments(self, events: Sequence[MispEvent],
                          publish_feed: bool = False) -> List[MispEvent]:
        """Persist one enrichment cycle's write-back as a single batch.

        ``events`` are fully-built eIoCs: the heuristic component's planner
        has already applied score/breakdown attributes, galaxy tags and the
        enriched tag in memory.  The batch is stored in one transaction
        (:meth:`MispStore.apply_enrichments`) and re-correlated with one
        chunked value probe — replacing the ~6 store round trips per event
        that the serial ``add_attribute``/``tag_event`` write-back issued.
        With ``publish_feed`` the enriched events go out on the zmq event
        feed in one publication pass (off by default: the historical
        enrichment path never re-published, and re-publishing would make the
        heuristic component re-drain its own output).
        """
        events = list(events)
        if not events:
            return events
        self.store.apply_enrichments(events)
        self._correlate_batch(events)
        if publish_feed:
            for event in events:
                self.zmq.send(TOPIC_EVENT, event.to_dict())
        return events

    def add_attribute(self, event_uuid: str, attribute: MispAttribute,
                      publish_feed: bool = True) -> MispEvent:
        """Append an attribute to a stored event (enrichment entry point)."""
        event = self.store.get_event(event_uuid)
        if event is None:
            raise StorageError(f"no such event {event_uuid}")
        event.add_attribute(attribute)
        self.store.save_event(event)
        self._correlate(event)
        if publish_feed:
            self.zmq.send(TOPIC_ATTRIBUTE, {
                "event_uuid": event_uuid,
                "Attribute": attribute.to_dict(),
            })
        return event

    def tag_event(self, event_uuid: str, tag: str) -> MispEvent:
        """Add a tag to a stored event."""
        event = self.store.get_event(event_uuid)
        if event is None:
            raise StorageError(f"no such event {event_uuid}")
        event.add_tag(tag)
        self.store.save_event(event)
        return event

    def publish_event(self, event_uuid: str) -> MispEvent:
        """Mark an event published (this is what sync distributes)."""
        event = self.store.get_event(event_uuid)
        if event is None:
            raise StorageError(f"no such event {event_uuid}")
        event.published = True
        self.store.save_event(event)
        self._push_to_peers(event)
        return event

    # -- correlation --------------------------------------------------------------

    def _correlate(self, event: MispEvent) -> int:
        """MISP-style value correlation: link equal correlatable values."""
        return self._correlate_batch([event])

    def _correlate_batch(self, events: Sequence[MispEvent]) -> int:
        """Correlate a batch of just-stored events against the store.

        One chunked ``IN (...)`` lookup resolves every correlatable value of
        the batch, then all edges go through one ``executemany`` insert.
        Edges are exactly those the serial per-event path creates: event *i*
        links only against events already stored before it — pre-existing
        ones plus batch members *j < i* — never against itself or later
        batch members (those report the edge from their side).
        """
        events = list(events)
        if not events:
            return 0
        batch_order = {event.uuid: index for index, event in enumerate(events)}
        correlatable: List[List[MispAttribute]] = []
        values: List[str] = []
        for event in events:
            attributes = [attribute for attribute in event.all_attributes()
                          if attribute.correlatable]
            correlatable.append(attributes)
            values.extend(attribute.value for attribute in attributes)
        if not values:
            return 0
        matches = self.store.correlatable_attributes_many(values)
        edges: List[tuple] = []
        for index, (event, attributes) in enumerate(zip(events, correlatable)):
            for attribute in attributes:
                for other_event, other_attribute in matches.get(
                        attribute.value, ()):
                    if other_event == event.uuid:
                        continue
                    other_index = batch_order.get(other_event)
                    if other_index is not None and other_index >= index:
                        continue
                    edges.append((
                        attribute.uuid, other_attribute,
                        event.uuid, other_event, attribute.value,
                    ))
        self.store.save_correlations(edges)
        return len(edges)

    def correlations(self, event_uuid: str) -> List[Dict[str, str]]:
        """Correlation rows touching one event."""
        return self.store.correlations_for_event(event_uuid)

    # -- export ------------------------------------------------------------------

    def export_event(self, event_uuid: str, export_format: str = "misp-json") -> str:
        """Render a stored event through one of the export modules."""
        event = self.store.get_event(event_uuid)
        if event is None:
            raise StorageError(f"no such event {event_uuid}")
        module = EXPORT_MODULES.get(export_format)
        if module is None:
            raise SharingError(f"no export module for format {export_format!r}")
        return module(event)

    def export_stix2(self, event_uuid: str):
        """Typed STIX 2.0 bundle export (what the heuristic component reads)."""
        event = self.store.get_event(event_uuid)
        if event is None:
            raise StorageError(f"no such event {event_uuid}")
        return to_stix2_bundle(event)

    # -- instance-to-instance sync ---------------------------------------------------

    def add_peer(self, peer: "MispInstance") -> None:
        """Register a trusted remote instance (one-way push)."""
        if peer is self:
            raise SharingError("an instance cannot peer with itself")
        if peer not in self._peers:
            self._peers.append(peer)

    @property
    def peers(self) -> List["MispInstance"]:
        """The registered sync peers."""
        return list(self._peers)

    def _push_to_peers(self, event: MispEvent) -> None:
        for peer in self._peers:
            self.push_event(event, peer)

    def create_sharing_group(self, name: str,
                             organisations: List[str]) -> SharingGroup:
        """Create (and register) a sharing group owned by this instance."""
        group = SharingGroup(name=name, organisations=set(organisations),
                             uuid=self._ids.uuid())
        self.sharing_groups[group.uuid] = group
        return group

    def release_gate(self, event: MispEvent, dest_org: str):
        """May this event leave the instance toward ``dest_org``?

        Returns ``(ok, group, reason)``: the MISP distribution gate every
        outbound path — point-to-point push, pull, or a federation
        backbone link — must pass.  ``group`` is the
        :class:`SharingGroup` that authorized a sharing-group release
        (the caller propagates its definition to the receiver so the same
        boundary holds on any onward hop); ``reason`` names the refusal.
        """
        if event.distribution in (Distribution.ORGANISATION_ONLY,
                                  Distribution.COMMUNITY_ONLY):
            return False, None, "distribution level withheld"
        if event.distribution == Distribution.SHARING_GROUP:
            group = self.sharing_groups.get(event.sharing_group_id or "")
            if group is None or not group.releasable_to(dest_org):
                return False, None, "sharing group excludes destination"
            return True, group, ""
        return True, None, ""

    @staticmethod
    def release_copy(event: MispEvent) -> MispEvent:
        """The wire copy of an outbound event, with the hop downgrade applied.

        CONNECTED_COMMUNITIES becomes COMMUNITY_ONLY at the receiver, so
        events stop propagating one hop further, exactly like MISP.
        """
        copy = MispEvent.from_dict(event.to_dict())
        if copy.distribution == Distribution.CONNECTED_COMMUNITIES:
            copy.distribution = Distribution.COMMUNITY_ONLY
        return copy

    @staticmethod
    def wire_form(event: MispEvent) -> MispEvent:
        """The event as a peer receives it, copying only when that differs.

        The hop downgrade is the one change :meth:`release_copy` makes, so
        only a connected-communities event is copied; any other stored
        event is returned as is, and its wire document and digest are those
        of the stored form.
        """
        if event.distribution == Distribution.CONNECTED_COMMUNITIES:
            return MispInstance.release_copy(event)
        return event

    def push_event(self, event: MispEvent, peer: "MispInstance",
                   trace_context: Optional[Dict[str, Any]] = None) -> bool:
        """Push one event to a peer honouring MISP distribution semantics.

        The distribution gate and hop downgrade live in
        :meth:`release_gate` / :meth:`release_copy` (shared with the
        federation backbone).  Sharing-group events only reach peers whose
        organisation is a group member (no downgrade: the group definition
        itself bounds further propagation).

        ``trace_context`` (:func:`repro.obs.provenance.share_context`)
        rides alongside the payload — never inside the event content, so
        digests and cross-store byte-equality are untouched — and lets the
        receiving store record a ``synced-from`` lineage row carrying the
        accumulated org path.
        """
        ok, group, _reason = self.release_gate(event, peer.org)
        if not ok:
            self.sync_stats.skipped_distribution += 1
            return False
        if group is not None:
            # The receiving instance learns the group definition so it can
            # enforce the same boundary on any onward push.
            peer.sharing_groups.setdefault(group.uuid, group)
        stored = peer.store.get_event(event.uuid)
        if stored is not None and stored.timestamp >= event.timestamp:
            self.sync_stats.skipped_duplicates += 1
            return False
        peer.receive_event(self.release_copy(event),
                           trace_context=trace_context)
        self.sync_stats.pushed_events += 1
        return True

    def receive_event(self, event: MispEvent,
                      trace_context: Optional[Dict[str, Any]] = None) -> str:
        """Peer-facing ingestion endpoint (no re-publish on the zmq feed).

        Returns the content digest of the stored blob.
        """
        return self.receive_events(
            [event],
            trace_contexts={event.uuid: trace_context} if trace_context
            else None)[event.uuid]

    def receive_events(self, events: Sequence[MispEvent],
                       trace_contexts: Optional[
                           Dict[str, Dict[str, Any]]] = None
                       ) -> Dict[str, str]:
        """Batched peer-facing ingestion: one transaction, one correlation pass.

        ``trace_contexts`` maps event uuid to the sender's trace context;
        each present entry becomes one ``synced-from`` lineage row in this
        instance's store, stitching the cross-org journey.  Returns
        ``uuid -> content digest`` of each stored blob.
        """
        events = list(events)
        if not events:
            return {}
        blobs = self.store.save_events(events)
        self._correlate_batch(events)
        self.sync_stats.pulled_events += len(events)
        if trace_contexts:
            self._record_sync_receipts(events, trace_contexts)
        return {uuid: blob_digest(blob) for uuid, blob in blobs.items()}

    def _record_sync_receipts(
            self, events: Sequence[MispEvent],
            trace_contexts: Dict[str, Dict[str, Any]]) -> None:
        from ..obs.provenance import ProvenanceEvent, trace_id_for
        logged_at = (int(self._clock.now().timestamp())
                     if self._clock is not None else 0)
        rows = []
        for event in events:
            context = trace_contexts.get(event.uuid)
            if not context:
                continue
            path = list(context.get("path") or [])
            rows.append(ProvenanceEvent(
                trace_id=context.get("trace_id") or trace_id_for(event.uuid),
                event_uuid=event.uuid, kind="synced-from",
                actor=f"sync:{path[-1]}" if path else "sync",
                org=self.org,
                detail=json.dumps({"path": path}, sort_keys=True),
                logged_at=logged_at))
        if rows:
            self.store.add_provenance(rows)

    def pull_from(self, peer: "MispInstance") -> int:
        """Pull every shareable published event from a peer.

        Accepted events are persisted and correlated as one batch.
        """
        candidates: List[MispEvent] = []
        for event in peer.store.list_events(published_only=True):
            ok, group, _reason = peer.release_gate(event, self.org)
            if not ok:
                continue
            if group is not None:
                self.sharing_groups.setdefault(group.uuid, group)
            candidates.append(event)
        # One chunked existence probe instead of a has_event round trip
        # per candidate.
        known = self.store.existing_events(
            [event.uuid for event in candidates])
        copies = [self.release_copy(event) for event in candidates
                  if event.uuid not in known]
        if copies:
            self.store.save_events(copies)
            self._correlate_batch(copies)
        return len(copies)
