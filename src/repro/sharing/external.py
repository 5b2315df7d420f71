"""External-entity sharing orchestration (§III-C2).

"The exchange of eIoCs is performed through MISP ... However, when sharing
with external entities that do not use MISP ... the usage of other standards
is preferable ... STIX 2.0 represents a good choice."

An :class:`ExternalEntity` declares which transport it understands; the
:class:`SharingGateway` routes each eIoC accordingly:

- ``misp``  -> MISP-to-MISP sync (MISP JSON) straight to a peer instance;
- ``backbone`` -> the same MISP JSON message over a federation backbone;
- ``taxii`` -> STIX 2.0 bundle pushed to a TAXII collection;
- ``stix-download`` -> rendered STIX 2.0 JSON handed over as a document.

Both MISP transports build one wire message per share and hand it to one
receiver, :meth:`~repro.misp.MispInstance.receive_message`: the ``misp``
transport calls it on the peer instance, the ``backbone`` transport
transmits the message to the peer org's federation node, which calls it.
Either way the receiver learns the sending org and tells its own gateway,
which then sends that org no copy back.  A receiver that raises (its store
faulted) is a failed delivery, retried like a down link.

:meth:`SharingGateway.sync_cycle` is the one share path: a **delta sync**
over the store's change feed (one read per cycle, filtered by each
entity's watermark; per-entity watermark + content-digest ledger in
:class:`~repro.misp.MispStore`), payloads rendered once per cycle through
a :class:`~repro.sharing.sync.RenderCache`, then each entity's shares run
in registration order with circuit breakers, deterministic retry backoff
and dead-letter quarantine, and are committed in the same order
(docs/SHARING.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..clock import Clock, SimulatedClock
from ..core.deltas import collapse_changes
from ..errors import ReproError, SharingError
from ..misp import MispEvent, MispInstance
from ..misp.store import BATCH_SIZE_BUCKETS, Handed
from ..obs import (
    BYTES_BUCKETS,
    MetricsRegistry,
    NULL_LOG,
    NULL_RECORDER,
    NULL_REGISTRY,
    ProvenanceRecorder,
    StructuredLog,
    share_context,
    share_contexts,
)
from ..resilience.breaker import BreakerState, CircuitBreakerBoard
from ..resilience.retry import RetryPolicy, sleeper_for
from .taxii import TaxiiServer
from .sync import (
    FORMAT_MISP_JSON,
    FORMAT_STIX,
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_REFUSED,
    OUTCOME_SKIPPED,
    EntityCycle,
    PlannedShare,
    RenderCache,
    RenderedPayload,
    ShareCycleReport,
    digest_matches,
    event_digest,
    terminal_digest,
)


@dataclass
class ExternalEntity:
    """A trusted partner and how to reach it."""

    name: str
    transport: str  # "misp" | "taxii" | "stix-download" | "backbone"
    misp_instance: Optional[MispInstance] = None
    taxii_server: Optional[TaxiiServer] = None
    taxii_collection: str = "indicators"
    #: For the ``backbone`` transport: the federation fabric to transmit
    #: over; the entity name is the destination org.
    backbone: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.transport not in ("misp", "taxii", "stix-download",
                                  "backbone"):
            raise SharingError(f"unknown transport {self.transport!r}")
        if self.transport == "misp" and self.misp_instance is None:
            raise SharingError(f"entity {self.name!r} needs a MISP instance")
        if self.transport == "taxii" and self.taxii_server is None:
            raise SharingError(f"entity {self.name!r} needs a TAXII server")
        if self.transport == "backbone" and self.backbone is None:
            raise SharingError(f"entity {self.name!r} needs a backbone")

    @property
    def dest_org(self) -> Optional[str]:
        """The org a MISP transport delivers to: the peer instance's org
        for ``misp``, the entity name for ``backbone``; None for the
        transports that deliver no MISP event."""
        if self.transport == "misp":
            return self.misp_instance.org
        return self.name if self.transport == "backbone" else None

    @property
    def render_format(self) -> str:
        """Which render-cache format this entity's transport consumes."""
        if self.transport in ("misp", "backbone"):
            return FORMAT_MISP_JSON
        return FORMAT_STIX


@dataclass
class SharingRecord:
    """Audit trail entry for one share operation.

    ``payload_bytes`` counts bytes actually handed to the transport: a share
    that fails (or is refused/skipped) *before* transport carries 0, not the
    would-be payload size.
    """

    entity: str
    transport: str
    event_uuid: str
    payload_bytes: int
    ok: bool
    detail: str = ""


@dataclass
class _EntityOutcome:
    """What one entity's shares produced, for the commit to apply."""

    records: List[SharingRecord] = field(default_factory=list)
    #: uuid -> ledger entry (raw digest for ok, marker for terminal non-ok).
    digests: Dict[str, str] = field(default_factory=dict)
    #: Audit seqs of candidates that must block the watermark (transport
    #: failures and breaker-skipped, i.e. anything that must be retried).
    blocked_seqs: List[int] = field(default_factory=list)
    #: (event, reason) pairs to quarantine, in candidate order.
    quarantine: List[Tuple[Any, str]] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    backoff: float = 0.0
    payload_bytes: int = 0
    breaker_skipped: int = 0
    #: ``share_result`` log records as (level, fields), emitted by the
    #: commit after this entity's backoff sleep.
    log: List[Tuple[str, Dict[str, Any]]] = field(default_factory=list)

    def count(self, outcome: str) -> None:
        self.counts[outcome] = self.counts.get(outcome, 0) + 1


class SharingGateway:
    """Shares eIoCs from the local MISP instance with external entities.

    When a :class:`~repro.sharing.policy.SharingPolicy` is attached, every
    share is checked against the event's TLP marking and the entity's
    clearance before any transport is invoked.

    ``retry_policy`` governs transient transport retries (none by
    default), ``breakers`` trips a per-entity circuit after consecutive
    transport failures, and ``deadletters`` quarantines shares that
    exhaust their retries for a later ``replay``.
    """

    def __init__(self, local_misp: MispInstance, policy=None, *,
                 retry_policy: Optional[RetryPolicy] = None,
                 breakers: Optional[CircuitBreakerBoard] = None,
                 deadletters=None,
                 metrics: Optional[MetricsRegistry] = None,
                 clock: Optional[Clock] = None,
                 sleeper=None,
                 fault_injector=None,
                 provenance: Optional[ProvenanceRecorder] = None,
                 log: Optional[StructuredLog] = None) -> None:
        self._misp = local_misp
        self._provenance = provenance or NULL_RECORDER
        self._log = log or NULL_LOG
        self._entities: List[ExternalEntity] = []
        self._policy = policy
        self._retry = retry_policy
        self._clock = clock or SimulatedClock()
        self.breakers = breakers if breakers is not None else \
            CircuitBreakerBoard(clock=self._clock)
        self._deadletters = deadletters
        self._sleeper = sleeper if sleeper is not None else \
            sleeper_for("virtual", self._clock)
        self.fault_injector = fault_injector
        self.audit_log: List[SharingRecord] = []
        #: (org, event uuid) -> digest of the version that org sent this
        #: one; read and dropped by the next plan.
        self._peer_held: Dict[Tuple[str, str], str] = {}
        local_misp.gateway = self
        self._metrics = metrics or NULL_REGISTRY
        self._m_batch = self._metrics.histogram(
            "caop_share_batch_size",
            "Events actually shared per entity per sync cycle",
            buckets=BATCH_SIZE_BUCKETS)
        self._m_payload = self._metrics.histogram(
            "caop_share_payload_bytes",
            "Bytes handed to a transport per successful share",
            buckets=BYTES_BUCKETS)
        self._m_outcomes = self._metrics.counter(
            "caop_share_outcomes_total",
            "Share outcomes per entity (ok/failed/refused/skipped/"
            "unchanged/breaker_open)")
        self._m_backoff = self._metrics.histogram(
            "caop_retry_backoff_seconds",
            "Backoff computed before each retry attempt")
        self._m_cycles = self._metrics.counter(
            "caop_share_cycles_total", "Completed sharing sync cycles")

    # -- registration ---------------------------------------------------------

    def register(self, entity: ExternalEntity) -> None:
        """Register a new entry; rejects duplicates and the local instance.

        Registering a ``backbone`` entity on a policy-less gateway attaches
        a default :class:`~repro.sharing.policy.SharingPolicy`: federation
        boundaries always enforce TLP, so events with no marking fall back
        to the configured default level instead of being silently shared.
        """
        if any(e.name == entity.name for e in self._entities):
            raise SharingError(f"entity {entity.name!r} already registered")
        if entity.misp_instance is self._misp:
            raise SharingError("an instance cannot peer with itself")
        if entity.transport == "backbone" and self._policy is None:
            from .policy import SharingPolicy
            self._policy = SharingPolicy()
        self._entities.append(entity)

    @property
    def entities(self) -> List[ExternalEntity]:
        """The registered external entities."""
        return list(self._entities)

    def entity(self, name: str) -> ExternalEntity:
        """Look one registered entity up by name."""
        for candidate in self._entities:
            if candidate.name == name:
                return candidate
        raise SharingError(f"no such entity {name!r}")

    def note_held(self, org: str, event_uuid: str, digest: str) -> None:
        """Note that ``org`` holds one version of an event.

        The instance this gateway shares from calls this when it stores a
        version ``org`` sent it
        (:meth:`~repro.misp.MispInstance.receive_message`); ``digest`` is
        that stored blob's.  While the event's stored digest is still
        ``digest``, the next :meth:`plan_cycle` plans it as a ``skipped``
        item that needs no transport for each entity whose
        :attr:`~ExternalEntity.dest_org` is ``org``.  An org no registered
        entity reaches is ignored.
        """
        if any(entity.dest_org == org for entity in self._entities):
            self._peer_held[(org, event_uuid)] = digest

    def _share_trace(self, entity: ExternalEntity,
                     event_uuid: str) -> Optional[Dict[str, Any]]:
        """Trace context to ride alongside a MISP share (None otherwise)."""
        if not self._carries_trace(entity):
            return None
        return share_context(self._misp.store, event_uuid, self._misp.org)

    def _carries_trace(self, entity: ExternalEntity) -> bool:
        """Whether shares to ``entity`` carry a trace context: lineage is
        on and its transport speaks MISP."""
        return self._provenance.enabled and \
            entity.transport in ("misp", "backbone")

    # -- transports -----------------------------------------------------------

    def _transport_push(self, event: MispEvent, entity: ExternalEntity,
                        payload: RenderedPayload,
                        trace: Optional[Dict[str, Any]] = None
                        ) -> Tuple[bool, str, int]:
        """One transport attempt: (ok, detail, bytes actually handed over).

        Raises :class:`SharingError` on transport faults, a receiver's
        included (retryable); a ``False`` return is a *terminal* non-ok
        outcome (distribution skip, rejected objects) that retrying cannot
        change.
        """
        if self.fault_injector is not None:
            self.fault_injector.check("share", entity.name)
        if entity.transport in ("misp", "backbone"):
            # One MISP-to-MISP hop: the release gate toward the destination
            # org, then one message carrying the rendered wire document
            # (the hop downgrade already applied), delivered to the peer's
            # receiver directly or over the federation fabric.
            ok, group, reason = self._misp.release_gate(
                event, entity.dest_org)
            if not ok:
                return False, f"skipped ({reason})", 0
            message: Dict[str, Any] = {"document": payload.text}
            if group is not None:
                message["sharing_group"] = group.to_dict()
            if trace is not None:
                message["trace"] = trace
            if entity.transport == "backbone":
                response = entity.backbone.transmit(
                    self._misp.org, entity.name, "event", message)
            else:
                try:
                    response = entity.misp_instance.receive_message(
                        message, sender=self._misp.org)
                except ReproError as exc:
                    raise SharingError(
                        f"delivery to {entity.name!r} failed: {exc}") from exc
            if response.get("accepted"):
                return True, "", payload.size
            detail = response.get("reason", "rejected")
            return False, f"skipped ({detail})", 0
        if entity.transport == "taxii":
            status = entity.taxii_server.add_objects(
                entity.taxii_collection, list(payload.objects))
            ok = status["failure_count"] == 0 and status["success_count"] > 0
            detail = f"accepted {status['success_count']} objects"
            return ok, detail, payload.size if ok else 0
        # stix-download: the rendered document is the handover.
        return True, "", payload.size

    # -- delta-sync fan-out ----------------------------------------------------

    def plan_cycle(self, handed: Optional[Handed] = None
                   ) -> Tuple[List[EntityCycle], RenderCache]:
        """Build every entity's delta plan and pre-render the payloads.

        Reads the store's change feed once, from the lowest entity
        watermark up to the current audit cursor, and collapses it to live
        upserts.  Each entity's candidates are the upserts whose last seq
        is above its own watermark, in ``(last seq, uuid)`` order; digest-
        unchanged candidates are dropped, the sharing policy is applied,
        a version the entity's org sent this one (:meth:`note_held`) is
        skipped without transport when the release gate would let it
        through, and
        each needed payload is rendered once through the returned
        :class:`RenderCache`.  Digests are those of the stored blobs
        (:meth:`~repro.misp.MispStore.event_digests`), and the trace
        contexts of every planned share come from one batched lineage read.
        A ``handed`` event (the platform's eIoCs of the cycle) is used
        instead of a decode while its stored blob still hashes to the
        digest it is handed with (:meth:`~repro.misp.MispStore.get_events`),
        so only the other upserts are decoded.
        """
        store = self._misp.store
        target_seq = store.max_audit_seq()
        cache = RenderCache(self._metrics)
        watermarks = self.watermarks()
        batch = collapse_changes(store.changes_since(
            min(watermarks.values(), default=target_seq),
            until_seq=target_seq))
        events = store.get_events(batch.upserts, handed=handed)
        stamps = store.event_digests(batch.upserts)
        peer_held, self._peer_held = self._peer_held, {}
        plans: List[EntityCycle] = []
        traced: List[PlannedShare] = []
        for entity in self._entities:
            plan = EntityCycle(entity=entity,
                               watermark=watermarks[entity.name],
                               target_seq=target_seq)
            candidates = [uuid for uuid in batch.upserts
                          if batch.last_seqs[uuid] > plan.watermark]
            known = store.get_sync_digests(entity.name, candidates)
            for uuid in candidates:
                event = events[uuid]
                if event is None:
                    continue
                seq = batch.last_seqs[uuid]
                digest = stamps[uuid][1]
                if digest_matches(known.get(uuid), digest):
                    plan.unchanged += 1
                    continue
                if self._policy is not None and \
                        not self._policy.allows(event, entity.name):
                    plan.items.append(PlannedShare(
                        kind=OUTCOME_REFUSED, event=event, seq=seq,
                        digest=digest,
                        detail=f"refused by TLP policy (marking: "
                               f"{self._policy.marking_of(event)})"))
                    continue
                if peer_held.get((entity.dest_org, uuid)) == digest and \
                        self._misp.release_gate(event, entity.dest_org)[0]:
                    # The entity's org sent this version: a copy would come
                    # back refused as a duplicate.
                    plan.items.append(PlannedShare(
                        kind=OUTCOME_SKIPPED, event=event, seq=seq,
                        digest=digest, detail="skipped (duplicate)"))
                    continue
                item = PlannedShare(
                    kind="share", event=event, seq=seq, digest=digest,
                    payload=cache.get_or_render(event, digest,
                                                entity.render_format))
                plan.items.append(item)
                if self._carries_trace(entity):
                    traced.append(item)
            plans.append(plan)
        if traced:
            contexts = share_contexts(
                store, [item.event.uuid for item in traced], self._misp.org)
            for item in traced:
                item.trace = contexts[item.event.uuid]
        return plans, cache

    def sync_cycle(self, handed: Optional[Handed] = None
                   ) -> ShareCycleReport:
        """One incremental share fan-out across every registered entity.

        Plans and payloads are built up front (``handed`` goes to
        :meth:`plan_cycle`); then each entity's shares run in registration
        order, and a second pass commits each entity's outcome in the same
        order: its backoff sleep, audit and log records, lineage, ledger,
        watermark, quarantine and telemetry.  Committing after every entity
        has run keeps later entities' breaker decisions and timestamps off
        the clock the backoff sleeps advance.
        """
        report = ShareCycleReport(entities=len(self._entities))
        if not self._entities:
            return report
        store = self._misp.store
        plans, cache = self.plan_cycle(handed)
        outcomes = [self._run_entity_cycle(plan) for plan in plans]
        for plan, outcome in zip(plans, outcomes):
            entity = plan.entity
            self._sleeper.sleep(outcome.backoff)
            self.audit_log.extend(outcome.records)
            for level, fields in outcome.log:
                self._log.emit("share", "share_result", level, **fields)
            if self._provenance.enabled:
                for record in outcome.records:
                    if record.ok:
                        self._provenance.record(
                            "shared-to", record.event_uuid, actor="gateway",
                            detail=f"entity={record.entity} "
                                   f"transport={record.transport}")
            report.records.extend(outcome.records)
            new_watermark = plan.target_seq
            if outcome.blocked_seqs:
                new_watermark = min(outcome.blocked_seqs) - 1
            store.set_sync_digests(entity.name, outcome.digests)
            # plan.watermark is still the stored one: only this commit
            # writes watermarks.
            if new_watermark > plan.watermark:
                store.set_sync_watermark(entity.name, new_watermark)
            if self._deadletters is not None:
                for event, reason in outcome.quarantine:
                    self._deadletters.quarantine_share(
                        entity.name, event, reason=reason)
            for outcome_name, count in sorted(outcome.counts.items()):
                self._m_outcomes.inc(count, entity=entity.name,
                                     outcome=outcome_name)
            if plan.unchanged:
                self._m_outcomes.inc(plan.unchanged, entity=entity.name,
                                     outcome="unchanged")
            shared = outcome.counts.get(OUTCOME_OK, 0)
            self._m_batch.observe(shared, entity=entity.name)
            report.events_considered += len(plan.items) + plan.unchanged
            report.shared += shared
            report.failed += outcome.counts.get(OUTCOME_FAILED, 0)
            report.refused += outcome.counts.get(OUTCOME_REFUSED, 0)
            report.skipped += outcome.counts.get(OUTCOME_SKIPPED, 0)
            report.unchanged += plan.unchanged
            report.breaker_skipped += outcome.breaker_skipped
            report.payload_bytes += outcome.payload_bytes
        report.renders = cache.misses
        report.render_hits = cache.hits
        self._provenance.flush()
        self._m_cycles.inc()
        return report

    def _run_entity_cycle(self, plan: EntityCycle) -> _EntityOutcome:
        """One entity's share sequence, in candidate order.

        Touches the entity's transport, breaker and metrics; every
        local-store write, backoff sleep and log record is left to the
        commit in :meth:`sync_cycle`.
        """
        outcome = _EntityOutcome()
        entity = plan.entity
        breaker = self.breakers.breaker(entity.name)
        for item in plan.items:
            if item.kind != "share":
                # Refused or skipped at plan time: the same record, ledger
                # marker and count a transport answer would have produced.
                outcome.records.append(SharingRecord(
                    entity=entity.name, transport=entity.transport,
                    event_uuid=item.event.uuid, payload_bytes=0, ok=False,
                    detail=item.detail))
                outcome.digests[item.event.uuid] = terminal_digest(
                    item.kind, item.digest)
                outcome.count(item.kind)
                outcome.log.append((
                    "warn" if item.kind == OUTCOME_REFUSED else "info",
                    {"entity": entity.name, "event_uuid": item.event.uuid,
                     "outcome": item.kind}))
                continue
            if not breaker.allow():
                # Open breaker: leave the event pending (no record, no
                # ledger write) so the watermark holds it for a later cycle.
                outcome.blocked_seqs.append(item.seq)
                outcome.breaker_skipped += 1
                outcome.count("breaker_open")
                outcome.log.append((
                    "warn", {"entity": entity.name,
                             "event_uuid": item.event.uuid,
                             "outcome": "breaker_open"}))
                continue
            probing = breaker.state == BreakerState.HALF_OPEN
            record, entry, failed = self._attempt_share(
                entity, item, breaker, probing, outcome)
            outcome.records.append(record)
            if entry is not None:
                outcome.digests[item.event.uuid] = entry
            if failed:
                outcome.blocked_seqs.append(item.seq)
                outcome.quarantine.append((item.event, record.detail))
            outcome.log.append((
                "warn" if failed else "info",
                {"entity": entity.name, "event_uuid": item.event.uuid,
                 "outcome": OUTCOME_OK if record.ok else
                 (OUTCOME_FAILED if failed else OUTCOME_SKIPPED)}))
        return outcome

    def _attempt_share(self, entity: ExternalEntity, item: PlannedShare,
                       breaker, probing: bool, outcome: _EntityOutcome
                       ) -> Tuple[SharingRecord, Optional[str], bool]:
        """Share one event with retries: (record, ledger entry, failed?)."""
        max_retries = self._retry.max_retries if self._retry is not None else 0
        attempts = 1 if probing else max_retries + 1
        last_error: Optional[SharingError] = None
        for attempt in range(attempts):
            try:
                ok, detail, sent_bytes = self._transport_push(
                    item.event, entity, item.payload, trace=item.trace)
            except SharingError as exc:
                last_error = exc
                if attempt < attempts - 1:
                    delay = self._retry.delay(
                        f"share:{entity.name}:{item.event.uuid}", attempt)
                    self._m_backoff.observe(delay, component="share")
                    outcome.backoff += delay
                continue
            if ok:
                breaker.record_success()
                outcome.count(OUTCOME_OK)
                outcome.payload_bytes += sent_bytes
                self._m_payload.observe(sent_bytes, entity=entity.name)
                return (SharingRecord(
                    entity=entity.name, transport=entity.transport,
                    event_uuid=item.event.uuid, payload_bytes=sent_bytes,
                    ok=True, detail=detail), item.digest, False)
            # Terminal non-ok (distribution skip, rejected objects): the
            # transport answered, so the breaker counts it as a success and
            # the ledger marks the content version handled.
            breaker.record_success()
            outcome.count(OUTCOME_SKIPPED)
            return (SharingRecord(
                entity=entity.name, transport=entity.transport,
                event_uuid=item.event.uuid, payload_bytes=0, ok=False,
                detail=detail),
                terminal_digest(OUTCOME_SKIPPED, item.digest), False)
        breaker.record_failure()
        outcome.count(OUTCOME_FAILED)
        detail = f"transport failed after {attempts} attempt(s): {last_error}"
        return (SharingRecord(
            entity=entity.name, transport=entity.transport,
            event_uuid=item.event.uuid, payload_bytes=0, ok=False,
            detail=detail), None, True)

    # -- dead-letter replay ----------------------------------------------------

    def replay_share(self, entity_name: str, event: MispEvent) -> bool:
        """Re-drive one quarantined share (called by ``DeadLetterQueue.replay``).

        Renders fresh (the event may have changed since quarantine), pushes
        through the normal transport attempt (single try — the caller
        decides about re-quarantine), and records the ledger digest on
        success so the next :meth:`sync_cycle` treats it as handled.
        """
        entity = self.entity(entity_name)
        digest = event_digest(event)
        cache = RenderCache(self._metrics)
        payload = cache.get_or_render(event, digest, entity.render_format)
        breaker = self.breakers.breaker(entity.name)
        if not breaker.allow():
            return False
        trace = self._share_trace(entity, event.uuid)
        try:
            ok, detail, sent_bytes = self._transport_push(
                event, entity, payload, trace=trace)
        except SharingError:
            breaker.record_failure()
            return False
        breaker.record_success()
        record = SharingRecord(
            entity=entity.name, transport=entity.transport,
            event_uuid=event.uuid, payload_bytes=sent_bytes if ok else 0,
            ok=ok, detail=detail or "dead-letter replay")
        self.audit_log.append(record)
        entry = digest if ok else terminal_digest(OUTCOME_SKIPPED, digest)
        self._misp.store.set_sync_digests(entity.name, {event.uuid: entry})
        if ok and self._provenance.enabled:
            # Mirror sync_cycle's lineage row: a replayed share that landed
            # is the same "shared-to" fact, just recorded later.
            self._provenance.record(
                "shared-to", event.uuid, actor="gateway",
                detail=f"entity={entity.name} "
                       f"transport={entity.transport}")
            self._provenance.flush()
        self._m_outcomes.inc(entity=entity.name,
                             outcome=OUTCOME_OK if ok else OUTCOME_SKIPPED)
        return True

    # -- stats ----------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Aggregate counters over the audit log."""
        out: Dict[str, int] = {"shared": 0, "failed": 0, "bytes": 0}
        for record in self.audit_log:
            out["shared" if record.ok else "failed"] += 1
            out["bytes"] += record.payload_bytes
        return out

    def watermarks(self) -> Dict[str, int]:
        """Per-entity persisted watermarks (entity -> audit seq, 0 when
        never synced), in registration order."""
        stored = self._misp.store.sync_watermarks()
        return {entity.name: stored.get(entity.name, 0)
                for entity in self._entities}
