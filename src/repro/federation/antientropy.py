"""Anti-entropy reconciliation: digest exchange that repairs divergence.

Delta sync is *optimistic*: each sender trusts its own ledger about what a
peer holds.  After partitions, crashes or conflicting concurrent edits,
that belief can drift from reality — the classic gossip fix is periodic
**anti-entropy**: replicas exchange content digests and repair exactly the
differences (Demers et al.; MISP communities run the same shape as full
server pulls).

The protocol over one directed link ``src`` → ``dst``:

1. ``src`` offers ``{uuid: {digest, ts}}`` for every event its release
   gate *and* TLP policy would let reach ``dst`` — digests computed on the
   wire copy (post hop-downgrade), i.e. what ``dst`` would actually store;
2. ``dst`` answers with the uuids it wants: unknown events, plus held
   copies the deterministic :func:`~repro.federation.prefers_incoming`
   rule says should be replaced (newer timestamp, or digest tiebreak on a
   timestamp tie — so two divergent replicas converge onto one survivor);
3. ``src`` pushes each wanted event as a normal backbone event message
   flagged ``reconcile`` (which bypasses the receiver's duplicate gate in
   favour of the same preference rule) and records ledger success with
   the event's canonical digest — exactly what an ordinary sync cycle
   would have written, so a repaired run's sync state still matches the
   fault-free baseline's.

A healthy link offers everything and repairs nothing: the exchange is a
pure read (one offer message) and leaves no new state behind.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from ..misp.export import to_misp_json
from ..obs import share_context
from ..sharing.sync import event_digest
from ..sharing.policy import Tlp
from .backbone import KIND_DIGEST_OFFER, KIND_EVENT

if TYPE_CHECKING:  # pragma: no cover
    from .node import FederationNode


def _epoch(stamp: Optional[_dt.datetime]) -> int:
    return int(stamp.timestamp()) if stamp is not None else 0


def _releasable(node: "FederationNode", event, dst: str):
    """(wire_copy, group) when the event may reach ``dst``; None otherwise.

    Mirrors the outbound path's two gates — MISP distribution and TLP
    policy — without touching the policy's refusal counters (this is a
    read-only probe, not a share attempt).
    """
    ok, group, _reason = node.misp.release_gate(event, dst)
    if not ok:
        return None
    marking = node.policy.marking_of(event)
    if marking == Tlp.RED or not Tlp.at_most(
            marking, node.policy.clearance_of(dst)):
        return None
    return node.misp.release_copy(event), group


def build_offer(node: "FederationNode", dst: str) -> Dict[str, Dict[str, Any]]:
    """The digest offer ``src`` advertises to ``dst``, uuid-sorted."""
    offer: Dict[str, Dict[str, Any]] = {}
    for event in sorted(node.misp.store.list_events(),
                        key=lambda e: e.uuid or ""):
        released = _releasable(node, event, dst)
        if released is None:
            continue
        copy, _group = released
        offer[event.uuid] = {
            "digest": event_digest(copy),
            "ts": _epoch(copy.timestamp),
        }
    return offer


def handle_offer(node: "FederationNode", src: str,
                 payload: Dict[str, Any]) -> Dict[str, Any]:
    """The receiver half: decide which offered uuids to request."""
    from .node import prefers_incoming

    offer = payload.get("offer", {})
    held = node.misp.store.get_events(sorted(offer))
    want: List[str] = []
    for uuid, stored in held.items():
        meta = offer[uuid]
        if stored is None or prefers_incoming(
                int(meta["ts"]), meta["digest"],
                _epoch(stored.timestamp), event_digest(stored)):
            want.append(uuid)
    return {"want": want}


def reconcile(node: "FederationNode", dst: str) -> Dict[str, int]:
    """One full anti-entropy exchange over the ``node`` → ``dst`` link.

    Raises :class:`~repro.errors.SharingError` when the link is down (the
    offer itself fails) — callers treat that like any other transient
    transport fault and retry next round.
    """
    offer = build_offer(node, dst)
    response = node.backbone.transmit(
        node.name, dst, KIND_DIGEST_OFFER, {"offer": offer})
    wanted = list(response.get("want", ()))
    repaired = 0
    for uuid in wanted:
        event = node.misp.store.get_event(uuid)
        if event is None:
            continue
        released = _releasable(node, event, dst)
        if released is None:
            continue
        copy, group = released
        message: Dict[str, Any] = {
            "document": to_misp_json(copy),
            "reconcile": True,
        }
        if group is not None:
            message["sharing_group"] = group.to_dict()
        if node.provenance.enabled:
            message["trace"] = share_context(
                node.misp.store, uuid, node.name)
        result = node.backbone.transmit(node.name, dst, KIND_EVENT, message)
        if result.get("accepted"):
            repaired += 1
            # The same ledger entry an ordinary successful sync writes:
            # the canonical digest of the *local* event.
            node.misp.store.set_sync_digests(
                dst, {uuid: event_digest(event)})
            if node.provenance.enabled:
                node.provenance.record(
                    "shared-to", uuid, actor="anti-entropy",
                    detail=f"entity={dst} transport=backbone")
                node.provenance.flush()
    return {"offered": len(offer), "wanted": len(wanted),
            "repaired": repaired}
