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

Cost model (docs/FEDERATION.md): a pass decodes only what changed since
the previous one.

- The sender keeps one in-memory :class:`OfferIndex` per node, a rollup on
  the store's change feed holding each event's release-gate inputs, epoch
  timestamp and wire-copy digest: the stored blob's digest, except for a
  connected-communities event, whose downgraded copy is encoded.  Building
  an offer refreshes it, which decodes only events whose audit rows are
  newer than its position, then runs the live release gate and TLP check
  on every entry — so a clearance or sharing-group change takes effect at
  the next pass.
- The receiver probes the offer with
  :meth:`~repro.misp.MispStore.event_digests`: stored timestamps and
  sha256 digests of the stored blobs, no decoding.
- The sender fetches the wanted events and their trace contexts in
  batched reads, and writes its ledger rows and lineage rows once per
  link pass — also when the link fails mid-pass, so the ledger records
  exactly the repairs the receiver accepted.
"""

from __future__ import annotations

import datetime as _dt
from typing import (
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
)

from ..core.deltas import StoreRollup
from ..misp import (
    MispEvent,
    MispInstance,
    MispStore,
    MispTag,
    SharingGroup,
)
from ..misp.export import to_misp_json
from ..obs import share_contexts
from ..sharing.sync import event_digest
from ..sharing.policy import Tlp
from .backbone import KIND_DIGEST_OFFER, KIND_EVENT

if TYPE_CHECKING:  # pragma: no cover
    from .node import FederationNode


def _epoch(stamp: Optional[_dt.datetime]) -> int:
    return int(stamp.timestamp()) if stamp is not None else 0


class OfferEntry(NamedTuple):
    """What an offer needs of one stored event, without the event.

    ``distribution``, ``sharing_group_id`` and ``tags`` are the fields
    :meth:`~repro.misp.MispInstance.release_gate` and
    :meth:`~repro.sharing.SharingPolicy.marking_of` read, so both gates run
    on the entry itself; ``ts`` and ``digest`` describe the wire copy.
    """

    distribution: int
    sharing_group_id: Optional[str]
    tags: Tuple[MispTag, ...]
    ts: int
    digest: str


class OfferIndex(StoreRollup):
    """One node's offer inputs, kept current from the store's change feed.

    In memory only (nothing is persisted, so a restarted node decodes its
    store once on its first pass).  Entries with the same tag names share
    one tag tuple, which keeps the index near 0.4 KB per event.
    """

    def __init__(self, store: MispStore) -> None:
        super().__init__(store, "anti-entropy-offers")
        #: event uuid -> :class:`OfferEntry`.
        self.entries: Dict[str, OfferEntry] = {}
        self._tags: Dict[Tuple[str, ...], Tuple[MispTag, ...]] = {}

    def apply_delta(self, events: Sequence[MispEvent],
                    deleted: Sequence[str]) -> None:
        for uuid in deleted:
            self.entries.pop(uuid, None)
        copies = [(event, MispInstance.wire_form(event)) for event in events]
        # An event sent as stored has its stored blob's digest, read
        # without re-encoding the event.
        stamps = self.store.event_digests(
            [event.uuid for event, copy in copies if copy is event])
        for event, copy in copies:
            tags = self._tags.setdefault(
                tuple(tag.name for tag in event.tags), tuple(event.tags))
            digest = (stamps[event.uuid][1] if copy is event
                      else event_digest(copy))
            self.entries[event.uuid] = OfferEntry(
                event.distribution, event.sharing_group_id, tags,
                _epoch(event.timestamp), digest)


def _cleared(node: "FederationNode", item: Union[MispEvent, OfferEntry],
             dst: str) -> Tuple[bool, Optional[SharingGroup]]:
    """``(may reach dst, authorizing sharing group)`` for an event or entry.

    Mirrors the outbound path's two gates — MISP distribution and TLP
    policy — without touching the policy's refusal counters (this is a
    read-only probe, not a share attempt).
    """
    ok, group, _reason = node.misp.release_gate(item, dst)
    if not ok:
        return False, None
    marking = node.policy.marking_of(item)
    if marking == Tlp.RED or not Tlp.at_most(
            marking, node.policy.clearance_of(dst)):
        return False, None
    return True, group


def build_offer(node: "FederationNode", dst: str) -> Dict[str, Dict[str, Any]]:
    """The digest offer ``src`` advertises to ``dst``, uuid-sorted."""
    index = node.offer_index
    index.refresh()
    offer: Dict[str, Dict[str, Any]] = {}
    for uuid in sorted(index.entries):
        entry = index.entries[uuid]
        if _cleared(node, entry, dst)[0]:
            offer[uuid] = {"digest": entry.digest, "ts": entry.ts}
    return offer


def handle_offer(node: "FederationNode", src: str,
                 payload: Dict[str, Any]) -> Dict[str, Any]:
    """The receiver half: decide which offered uuids to request."""
    from .node import prefers_incoming

    offer = payload.get("offer", {})
    held = node.misp.store.event_digests(sorted(offer))
    want: List[str] = []
    for uuid, stamp in held.items():
        meta = offer[uuid]
        if stamp is None or prefers_incoming(
                int(meta["ts"]), meta["digest"], *stamp):
            want.append(uuid)
    return {"want": want}


def reconcile(node: "FederationNode", dst: str) -> Dict[str, int]:
    """One full anti-entropy exchange over the ``node`` → ``dst`` link.

    Raises :class:`~repro.errors.SharingError` when the link is down (the
    offer itself fails) — callers treat that like any other transient
    transport fault and retry next round.  A link that fails mid-pass
    still records the repairs accepted before the failure.
    """
    offer = build_offer(node, dst)
    response = node.backbone.transmit(
        node.name, dst, KIND_DIGEST_OFFER, {"offer": offer})
    wanted = list(response.get("want", ()))
    store = node.misp.store
    events = store.get_events(wanted)
    traces = (share_contexts(store, wanted, node.name)
              if node.provenance.enabled else {})
    # The same ledger entries an ordinary successful sync writes: the
    # canonical digest of the *local* event.
    repaired: Dict[str, str] = {}
    try:
        for uuid, event in events.items():
            if event is None:
                continue
            ok, group = _cleared(node, event, dst)
            if not ok:
                continue
            message: Dict[str, Any] = {
                "document": to_misp_json(MispInstance.wire_form(event)),
                "reconcile": True,
            }
            if group is not None:
                message["sharing_group"] = group.to_dict()
            if uuid in traces:
                message["trace"] = traces[uuid]
            result = node.backbone.transmit(
                node.name, dst, KIND_EVENT, message)
            if result.get("accepted"):
                repaired[uuid] = event_digest(event)
                if node.provenance.enabled:
                    node.provenance.record(
                        "shared-to", uuid, actor="anti-entropy",
                        detail=f"entity={dst} transport=backbone")
    finally:
        if repaired:
            store.set_sync_digests(dst, repaired)
            node.provenance.flush()
    return {"offered": len(offer), "wanted": len(wanted),
            "repaired": len(repaired)}
