"""Federation nodes and the N-org federation orchestrator.

A :class:`FederationNode` is one organisation's full stack — MISP instance,
sharing gateway (delta-sync ledger, per-link circuit breakers, retry,
dead-letter quarantine), heuristic component, sighting processor and
provenance recorder — attached to a :class:`~repro.federation.Backbone`.
Outbound links are ordinary gateway entities with the ``backbone``
transport, so the whole PR-5 delta-sync machinery (watermarks, digest
ledgers, render cache, DLQ replay) drives N-org topologies unchanged.

The **sightings feedback loop** closes here: any org can observe an
eIoC-derived value in its own infrastructure; the sighting record is routed
hop-by-hop over the backbone back to the event's *origin* org (learned from
the provenance trace that rode with the event), where it re-scores the eIoC
— and the bumped timestamp lets the re-scored version flow back out through
normal sync cycles.

:class:`Federation` wires nodes over a :class:`~repro.federation.Topology`
and drives deterministic rounds: org-by-org sync cycles, sighting flushes,
and an optional anti-entropy reconciliation stage.  The whole stack runs on
one pinned simulated clock with zero-cooldown breakers and recording
sleepers, so a faulted run converges *byte-identically* (full store
fingerprints) onto the fault-free baseline.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..clock import Clock, PAPER_NOW, SimulatedClock
from ..core.enrich import HeuristicComponent
from ..core.sightings import RescoreOutcome, SightingProcessor
from ..errors import SharingError, ValidationError
from ..infra import paper_inventory
from ..misp import MispEvent, MispInstance
from ..misp.export import canonical_json
from ..obs import MetricsRegistry, ProvenanceRecorder
from ..resilience import CircuitBreakerBoard, DeadLetterQueue, RetryPolicy
from ..resilience.retry import sleeper_for
from ..sharing import ExternalEntity, SharingGateway, SharingPolicy, Tlp
from ..sharing.sync import ShareCycleReport
from .antientropy import OfferIndex, handle_offer, reconcile
from .backbone import Backbone, InMemoryBackbone, KIND_EVENT, KIND_SIGHTING
from .fingerprint import event_blob, store_fingerprint
from .topology import Topology


def _epoch(stamp: Optional[_dt.datetime]) -> int:
    return int(stamp.timestamp()) if stamp is not None else 0


def _text(value: Any) -> bool:
    """A non-empty string that encodes as UTF-8 (no lone surrogate)."""
    if not isinstance(value, str) or not value:
        return False
    try:
        value.encode()
    except UnicodeEncodeError:
        return False
    return True


def _sighting_record(payload: Dict[str, Any],
                     orgs: Sequence[str]) -> Dict[str, Any]:
    """The routed sighting record a message carries, checked whole.

    Raises :class:`ValidationError` unless ``eioc_uuid``, ``value`` and
    ``node`` are non-empty text, ``origin`` names a member org and
    ``observed_at`` is an integer epoch second a datetime can hold.
    """
    record = {key: payload.get(key) for key in
              ("eioc_uuid", "value", "node", "observed_at", "origin")}
    if not (all(_text(record[key]) for key in ("eioc_uuid", "value", "node"))
            and record["origin"] in orgs
            and type(record["observed_at"]) is int):
        raise ValidationError("not a sighting record")
    try:
        _observed_at(record)
    except (OverflowError, OSError, ValueError) as exc:
        raise ValidationError(f"observed_at out of range: {exc}") from exc
    return record


def _observed_at(record: Dict[str, Any]) -> _dt.datetime:
    return _dt.datetime.fromtimestamp(record["observed_at"],
                                      tz=_dt.timezone.utc)


class FederationNode:
    """One organisation on the backbone: MISP + gateway + sightings."""

    def __init__(self, name: str, backbone: Backbone, topology: Topology,
                 clock: Optional[Clock] = None, *,
                 policy: Optional[SharingPolicy] = None,
                 accept_ceiling: str = Tlp.RED,
                 failure_threshold: int = 3,
                 retry_policy: Optional[RetryPolicy] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.name = name
        self.backbone = backbone
        self.topology = topology
        self.clock = clock or SimulatedClock(PAPER_NOW)
        self.misp = MispInstance(org=name, clock=self.clock, metrics=metrics)
        self.provenance = ProvenanceRecorder(
            store=self.misp.store, clock=self.clock, org=name)
        self.deadletters = DeadLetterQueue(clock=self.clock)
        self.policy = policy or SharingPolicy()
        #: Most restrictive TLP marking this org accepts *inbound*.
        self.accept_ceiling = accept_ceiling
        # Zero-cooldown breakers + recording sleeper keep the simulated
        # clock pinned: every timestamp an org ever writes is a function of
        # content, so faulted runs can match the baseline byte-for-byte.
        self.gateway = SharingGateway(
            self.misp, self.policy,
            retry_policy=retry_policy or RetryPolicy(max_retries=1, seed=11),
            breakers=CircuitBreakerBoard(
                clock=self.clock, failure_threshold=failure_threshold,
                cooldown_seconds=0.0),
            deadletters=self.deadletters,
            clock=self.clock,
            sleeper=sleeper_for("none", self.clock),
            metrics=metrics,
            provenance=self.provenance)
        self.heuristics = HeuristicComponent(
            self.misp, inventory=paper_inventory(), clock=self.clock,
            provenance=self.provenance, metrics=metrics)
        self.sightings = SightingProcessor(
            self.misp, self.heuristics, clock=self.clock)
        #: event uuid -> origin org (from the provenance path that rode in).
        self.origins: Dict[str, str] = {}
        #: Sighting records queued for (re-)routing toward their origin.
        self.pending_sightings: List[Dict[str, Any]] = []
        #: Rescore outcomes of sightings applied at this org (it's origin).
        self.rescores: List[RescoreOutcome] = []
        #: The anti-entropy sender's offer inputs, kept from the change feed.
        self.offer_index = OfferIndex(self.misp.store)
        #: ``(event uuid, wire digest)`` of every version this node refused
        #: as ``duplicate attribute uuid``, which anti-entropy no longer
        #: wants.  In memory only: a restarted node asks once more.
        self.refused: Set[Tuple[str, str]] = set()
        backbone.connect(name, self._handle)

    # -- wiring ---------------------------------------------------------------

    def link_to(self, dst: str) -> None:
        """Register the directed backbone link ``self`` → ``dst``."""
        self.gateway.register(ExternalEntity(
            name=dst, transport="backbone", backbone=self.backbone))

    # -- inbound --------------------------------------------------------------

    def _handle(self, src: str, kind: str,
                payload: Dict[str, Any]) -> Dict[str, Any]:
        if not isinstance(payload, dict):
            return {"accepted": False, "reason": "malformed message"}
        if kind == KIND_EVENT:
            return self._handle_event(src, payload)
        if kind == KIND_SIGHTING:
            return self._handle_sighting(src, payload)
        if kind == "digest-offer":
            return handle_offer(self, src, payload)
        raise SharingError(f"unknown backbone message kind {kind!r}")

    def _admit(self, event: MispEvent) -> Optional[str]:
        """Inbound trust boundary: refuse markings more restrictive than
        this org's acceptance ceiling (unmarked events fall back to the
        policy's default marking — never treated as unrestricted)."""
        marking = self.policy.marking_of(event)
        if not Tlp.at_most(marking, self.accept_ceiling):
            return f"tlp:{marking} refused"
        return None

    def _handle_event(self, src: str,
                      payload: Dict[str, Any]) -> Dict[str, Any]:
        # The instance's receiver checks the whole message before anything
        # is written; a refusal goes back to the sender, which records it
        # and moves on.  Once it stores the event, it tells this node's
        # gateway that src holds that version, so no copy goes back.
        response = self.misp.receive_message(payload, admit=self._admit,
                                             sender=src)
        if not response["accepted"]:
            if response["reason"] == "duplicate attribute uuid":
                # Anti-entropy stops wanting this version (handle_offer).
                self.refused.add((response["uuid"], response["digest"]))
            return {"accepted": False, "reason": response["reason"]}
        path = (response["trace"] or {}).get("path")
        self.origins[response["uuid"]] = path[0] if path else src
        return {"accepted": True}

    def _handle_sighting(self, src: str,
                         payload: Dict[str, Any]) -> Dict[str, Any]:
        # Checked whole before it is applied or queued: a record that
        # cannot be routed or applied is refused, never parked.
        try:
            record = _sighting_record(payload, self.topology.orgs)
        except ValidationError:
            return {"accepted": False, "reason": "malformed message"}
        if record["origin"] == self.name:
            if not self.misp.store.has_event(record["eioc_uuid"]):
                return {"accepted": False, "reason": "unknown eioc"}
            self._apply_sighting(record)
            return {"accepted": True, "processed": True}
        self.pending_sightings.append(record)
        return {"accepted": True, "forwarded": True}

    # -- sightings loop -------------------------------------------------------

    def observe(self, eioc_uuid: str, value: str, infra_node: str,
                observed_at: Optional[_dt.datetime] = None
                ) -> Optional[RescoreOutcome]:
        """Report an in-infrastructure sighting of an eIoC's value.

        Locally-originated eIoCs re-score immediately; synced ones queue a
        sighting record routed hop-by-hop back to the origin org (retried
        by :meth:`flush_sightings` until the route is up).
        """
        if observed_at is None:
            observed_at = self.clock.now()
        origin = self.origins.get(eioc_uuid, self.name)
        record = {
            "eioc_uuid": eioc_uuid,
            "value": value,
            "node": infra_node,
            "observed_at": _epoch(observed_at),
            "origin": origin,
        }
        if origin == self.name:
            return self._apply_sighting(record)
        self.pending_sightings.append(record)
        self.flush_sightings()
        return None

    def flush_sightings(self) -> int:
        """Try to route every queued sighting one hop; returns deliveries.

        A record the next hop refuses is dropped; one whose link is down
        stays queued.
        """
        still: List[Dict[str, Any]] = []
        delivered = 0
        for record in self.pending_sightings:
            hop = self.topology.next_hop(self.name, record["origin"])
            if hop is None:
                still.append(record)
                continue
            try:
                response = self.backbone.transmit(
                    self.name, hop, KIND_SIGHTING, record)
            except SharingError:
                still.append(record)
                continue
            if response.get("accepted"):
                delivered += 1
        self.pending_sightings = still
        return delivered

    def _apply_sighting(self, record: Dict[str, Any]) -> RescoreOutcome:
        outcome = self.sightings.report(
            record["eioc_uuid"], record["value"], record["node"],
            observed_at=_observed_at(record))
        self.rescores.append(outcome)
        return outcome

    # -- reconciliation -------------------------------------------------------

    def reconcile_with(self, dst: str) -> Dict[str, int]:
        """One anti-entropy exchange over the ``self`` → ``dst`` link."""
        return reconcile(self, dst)

    # -- state ----------------------------------------------------------------

    def fingerprint(self) -> str:
        """Full-state fingerprint (events, correlations, sync, lineage)."""
        return store_fingerprint(self.misp.store)

    def event_blob(self) -> str:
        """Event-content-only canonical blob."""
        return event_blob(self.misp.store)


class Federation:
    """N organisations wired over a topology, driven in deterministic rounds."""

    def __init__(self, topology: Topology, *,
                 backbone: Optional[Backbone] = None,
                 clock: Optional[Clock] = None,
                 workers: int = 1,
                 metrics: Optional[MetricsRegistry] = None,
                 node_options: Optional[Dict[str, Dict[str, Any]]] = None
                 ) -> None:
        # ``workers`` is ignored: each org's gateway shares entity by
        # entity.  Kept only because the benchmark smoke test
        # (``benchmarks/perf/test_smoke.py``) still passes ``workers=1``
        # for the ``federate`` workload; it goes once that test stops
        # passing it.
        self.topology = topology
        self.clock = clock or SimulatedClock(PAPER_NOW)
        self.backbone = backbone or InMemoryBackbone(metrics=metrics)
        options = node_options or {}
        self.nodes: Dict[str, FederationNode] = {
            org: FederationNode(org, self.backbone, topology, self.clock,
                                metrics=metrics, **options.get(org, {}))
            for org in topology.orgs
        }
        for src, dst in topology.links:
            self.nodes[src].link_to(dst)

    def node(self, name: str) -> FederationNode:
        """One member org by name."""
        return self.nodes[name]

    def run_round(self, anti_entropy: bool = False
                  ) -> List[ShareCycleReport]:
        """One federation round: org-by-org sync cycle + sighting flush.

        Orgs run serially in topology declaration order — the determinism
        anchor that makes faulted runs replayable against the baseline.
        """
        reports = []
        for org in self.topology.orgs:
            node = self.nodes[org]
            reports.append(node.gateway.sync_cycle())
            node.flush_sightings()
        if anti_entropy:
            self.reconcile()
        return reports

    def run(self, rounds: int, anti_entropy: bool = False
            ) -> List[List[ShareCycleReport]]:
        """Drive several rounds; returns each round's reports."""
        return [self.run_round(anti_entropy=anti_entropy)
                for _ in range(rounds)]

    def reconcile(self) -> Dict[str, Dict[str, int]]:
        """One anti-entropy pass over every link (down links are skipped)."""
        results: Dict[str, Dict[str, int]] = {}
        for src, dst in self.topology.links:
            try:
                results[f"{src}->{dst}"] = self.nodes[src].reconcile_with(dst)
            except SharingError:
                results[f"{src}->{dst}"] = {"offered": 0, "wanted": 0,
                                            "repaired": 0, "link_down": 1}
        return results

    def replay_deadletters(self) -> Dict[str, int]:
        """Replay every org's share quarantine, in topology org order.

        Run this *before* post-heal sync rounds: replay then re-records the
        same ledger entries the baseline's ordinary cycles wrote, keeping
        sync-state fingerprints identical.
        """
        return {org: self.nodes[org].deadletters.replay(
                    gateway=self.nodes[org].gateway).shares_replayed
                for org in self.topology.orgs}

    def fingerprints(self) -> Dict[str, str]:
        """org -> full-state store fingerprint."""
        return {org: self.nodes[org].fingerprint()
                for org in self.topology.orgs}

    def event_blobs(self) -> Dict[str, str]:
        """org -> event-content-only canonical blob."""
        return {org: self.nodes[org].event_blob()
                for org in self.topology.orgs}

    def converged(self) -> bool:
        """Do all orgs hold identical *shareable* event content?

        Compares ALL_COMMUNITIES-visible content only: org-only events
        (sighting evidence) legitimately stay home.
        """
        import json as _json

        def shared_blob(node: FederationNode) -> str:
            released = []
            for event in node.misp.store.list_events():
                ok = all(node.misp.release_gate(event, other)[0]
                         for other in self.topology.orgs
                         if other != node.name)
                if ok:
                    released.append(canonical_json(event))
            return _json.dumps(sorted(released))

        blobs = {shared_blob(node) for node in self.nodes.values()}
        return len(blobs) == 1

    def bytes_by_org(self) -> Dict[str, int]:
        """org -> total payload bytes it pushed onto the backbone."""
        return {org: self.backbone.bytes_sent(org)
                for org in self.topology.orgs}
