"""The MISP instance: store + real-time feed + sharing.

This is the operational module's hub (§III-B1): it ingests cIoCs into its
store, which performs the "basic automated correlation steps" against stored
data as it writes (:class:`~repro.misp.store.MispStore`), publishes incoming
OSINT events on the zeroMQ feed for the heuristic component, accepts the
threat score back as a new attribute (eIoC), and receives the events a
trusted peer shares with it (:meth:`MispInstance.receive_message`)
according to their distribution level.  Every write goes through the
store's one write routine; the instance only retries, publishes and
records receipts around it.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..bus import MessageBroker, ZmqPublisher
from ..clock import Clock
from ..errors import (
    ParseError,
    SharingError,
    StorageError,
    TransientStorageError,
    ValidationError,
)
from ..ids import IdGenerator
from ..obs import MetricsRegistry, NULL_REGISTRY
from .export import (
    EXPORT_MODULES,
    canonical_json,
    from_misp_json,
    to_stix2_bundle,
)
from .model import Distribution, MispAttribute, MispEvent
from .sharing_groups import SharingGroup
from .store import MispStore, blob_digest

#: zeroMQ topics mirroring MISP's real feed names.
TOPIC_EVENT = "misp_json"
TOPIC_ATTRIBUTE = "misp_json_attribute"


def prefers_incoming(incoming_ts: int, incoming_digest: str,
                     held_ts: int, held_digest: str) -> bool:
    """Anti-entropy resolution: should the held copy be replaced?

    Newer timestamp wins; on a timestamp tie with *different* content the
    lexicographically larger digest wins — an arbitrary but symmetric
    rule, so two divergent replicas always agree on the same survivor.
    """
    if incoming_digest == held_digest:
        return False
    if incoming_ts != held_ts:
        return incoming_ts > held_ts
    return incoming_digest > held_digest


def _strings(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(item, str)
                                           for item in value)


def _side_fields(message: Dict[str, Any]
                 ) -> Tuple[Optional[SharingGroup], Optional[Dict[str, Any]]]:
    """The sharing group and trace context beside an event's document.

    Both are optional.  Raises :class:`ValidationError` unless a group is a
    definition (``uuid`` and ``name`` strings, an ``organisations`` list of
    strings, a name and at least one organisation) and a trace is a
    ``{"trace_id": str, "path": [str, ...]}`` mapping, each key optional.
    """
    raw_group, trace = message.get("sharing_group"), message.get("trace")
    if trace is not None and not (
            isinstance(trace, dict)
            and isinstance(trace.get("trace_id", ""), str)
            and _strings(trace.get("path", []))):
        raise ValidationError("trace is not a trace context")
    if raw_group is None:
        return None, trace
    if not (isinstance(raw_group, dict)
            and isinstance(raw_group.get("uuid"), str)
            and isinstance(raw_group.get("name"), str)
            and _strings(raw_group.get("organisations"))):
        raise ValidationError("sharing_group is not a group definition")
    return SharingGroup.from_dict(raw_group), trace


def _refused(reason: str) -> Dict[str, Any]:
    return {"accepted": False, "reason": reason}


class MispInstance:
    """One MISP deployment: local store, feed, peer receiver."""

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
        self._ids = id_generator or IdGenerator()
        self.sharing_groups: Dict[str, SharingGroup] = {}
        #: The :class:`~repro.sharing.SharingGateway` that shares from this
        #: instance, which registers itself here; :meth:`receive_message`
        #: tells it which version a sender holds.
        self.gateway = None
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
        """Store an event and publish it on the zmq feed.

        Re-adding the same uuid replaces the stored version (MISP edit
        semantics); the store writes only what changed.
        """
        return self.add_events([event], publish_feed=publish_feed)[0]

    def add_events(self, events: Sequence[MispEvent],
                   publish_feed: bool = True) -> List[MispEvent]:
        """Store a batch of events and publish each on zmq.

        This is the bulk-ingestion entry point the collector's store stage
        uses: the whole batch, with its correlation edges, is persisted in
        one transaction (:meth:`MispStore.save_events`), yet produces
        exactly the events, audit trail and correlation edges that adding
        each event in turn would.

        Each event is encoded once: its zmq frame is the blob text the store
        wrote (:func:`~repro.misp.export.canonical_json`, the text a
        ``json.dumps(event.to_dict(), sort_keys=True)`` frame always was).
        The store returns one blob per uuid, so a batch that repeats a uuid
        encodes each version again to publish its own text.
        """
        events = list(events)
        if not events:
            return events
        blobs = self._save_with_retry(events)
        if publish_feed:
            repeated = len(blobs) != len(events)
            for event in events:
                self.zmq.send_text(TOPIC_EVENT, canonical_json(event)
                                   if repeated else blobs[event.uuid])
        return events

    def _save_with_retry(self, events: List[MispEvent]) -> Dict[str, str]:
        """Persist a batch, retrying transient storage faults with backoff;
        returns the stored blobs (:meth:`MispStore.save_events`).

        Exhausted batches are quarantined to the dead-letter queue (when one
        is wired) before the :class:`StorageError` propagates, so a flaky
        store degrades the cycle without losing the composed events —
        ``DeadLetterQueue.replay`` re-ingests them once the fault clears.
        Any other storage error is never retried.
        """
        attempt = 0
        while True:
            try:
                if self._fault_injector is not None:
                    self._fault_injector.check("store", "add_events")
                return self.store.save_events(events)
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

    def apply_enrichments(self, events: Sequence[MispEvent]
                          ) -> Dict[str, str]:
        """Persist one enrichment cycle's write-back as a single batch.

        ``events`` are fully-built eIoCs: the heuristic component's planner
        has already applied score/breakdown attributes, galaxy tags and the
        enriched tag in memory.  The store writes only the rows that differ,
        with the correlation edges, in one transaction
        (:meth:`MispStore.apply_enrichments`).  Nothing is published on the
        zmq feed: the heuristic component would re-drain its own output.

        Returns ``uuid -> content digest`` of each stored blob, so the
        caller can hand the eIoCs on (:meth:`MispStore.get_events`).
        """
        blobs = self.store.apply_enrichments(events)
        return {uuid: blob_digest(blob) for uuid, blob in blobs.items()}

    def add_attribute(self, event_uuid: str, attribute: MispAttribute,
                      publish_feed: bool = True) -> MispEvent:
        """Append an attribute to a stored event (enrichment entry point)."""
        event = self.store.get_event(event_uuid)
        if event is None:
            raise StorageError(f"no such event {event_uuid}")
        event.add_attribute(attribute)
        self.store.save_event(event)
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
        return event

    # -- correlation --------------------------------------------------------------

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
        outbound path — the gateway's ``misp`` or ``backbone`` transport,
        or an anti-entropy repair — must pass.  ``group`` is the
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
    def wire_form(event: MispEvent) -> MispEvent:
        """The event as a peer receives it: the hop downgrade applied.

        CONNECTED_COMMUNITIES becomes COMMUNITY_ONLY at the receiver, so
        events stop propagating one hop further, exactly like MISP.  Only
        such an event is copied; any other is returned as is, and its wire
        document and digest are those of the stored form.  A sharing-group
        event is not downgraded: the group definition that travels with it
        bounds further propagation.
        """
        if event.distribution != Distribution.CONNECTED_COMMUNITIES:
            return event
        copy = MispEvent.from_dict(event.to_dict())
        copy.distribution = Distribution.COMMUNITY_ONLY
        return copy

    def receive_message(
            self, message: Any,
            admit: Optional[Callable[[MispEvent], Optional[str]]] = None,
            sender: Optional[str] = None) -> Dict[str, Any]:
        """Store the event one wire message carries, unless it is refused.

        The one receiver of every MISP-to-MISP hop.  ``message`` holds the
        wire ``document`` (MISP JSON, hop downgrade applied) and optional
        ``sharing_group``, ``trace`` and ``reconcile`` fields.  Nothing is
        written before these checks pass, in order: a message that is not
        a mapping (``malformed message``), a document
        :func:`~repro.misp.export.from_misp_json` refuses (``malformed
        document``), a side field a sender does not write (``malformed
        message``), and the reason ``admit(event)`` names, if any (a
        node's inbound TLP ceiling).  The sharing group is then registered
        for onward hops, and the held copy's stored row, never decoded,
        refuses an event no newer (``duplicate``) or, on ``reconcile``,
        one :func:`prefers_incoming` does not prefer (``stale``).  The
        store refuses, writing nothing, an event that lists an attribute
        uuid twice or carries one another stored event holds
        (``duplicate attribute uuid``); that refusal also names the
        event's ``uuid`` and the ``digest`` of the refused version.

        ``sender`` is the sending org.  Once the event is stored, this
        instance's :attr:`gateway` notes that ``sender`` holds the stored
        version, so its next sync sends no copy back.

        Returns ``{"accepted": False, "reason": ...}``, or, once
        :meth:`receive_event` has stored the event, ``{"accepted": True}``
        with its ``uuid``, the stored blob's ``digest`` and the ``trace``.
        """
        if not isinstance(message, dict):
            return _refused("malformed message")
        try:
            event = from_misp_json(message.get("document"))
        except ParseError:
            return _refused("malformed document")
        try:
            group, trace = _side_fields(message)
        except ValidationError:
            return _refused("malformed message")
        reason = admit(event) if admit is not None else None
        if reason:
            return _refused(reason)
        if group is not None:
            self.sharing_groups.setdefault(group.uuid, group)
        held = self.store.event_digests([event.uuid])[event.uuid]
        if held is not None:
            held_ts, held_digest = held
            incoming_ts = int(event.timestamp.timestamp())
            if message.get("reconcile"):
                if not prefers_incoming(
                        incoming_ts, blob_digest(canonical_json(event)),
                        held_ts, held_digest):
                    return _refused("stale")
            elif held_ts >= incoming_ts:
                return _refused("duplicate")
        try:
            digest = self.receive_event(event, trace_context=trace)
        except ValidationError:
            return {**_refused("duplicate attribute uuid"),
                    "uuid": event.uuid,
                    "digest": blob_digest(canonical_json(event))}
        if sender is not None and self.gateway is not None:
            self.gateway.note_held(sender, event.uuid, digest)
        return {"accepted": True, "uuid": event.uuid, "digest": digest,
                "trace": trace}

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
        """Batched peer-facing ingestion: one transaction, edges included.

        ``trace_contexts`` maps event uuid to the sender's trace context;
        each present entry becomes one ``synced-from`` lineage row in this
        instance's store, stitching the cross-org journey.  Returns
        ``uuid -> content digest`` of each stored blob.
        """
        events = list(events)
        if not events:
            return {}
        blobs = self.store.save_events(events)
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
