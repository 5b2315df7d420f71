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

Cost model (docs/FEDERATION.md): a pass decodes only the
connected-communities and sharing-group events that changed since the
previous one, and the receiver answers an offer from its own index.

- Each node keeps one in-memory :class:`OfferIndex` on the store's change
  feed, holding each event's release-gate inputs, epoch timestamp, stored
  blob digest and wire-copy digest.  A refresh reads the changed events'
  columns, tag rows and blob digests with
  :meth:`~repro.misp.MispStore.release_fields`, and decodes only a
  connected-communities event (whose downgraded wire copy is encoded for
  its digest) and a sharing-group event (for its group id).
- The sender refreshes its index, then runs the live release gate and TLP
  check once per link for each distinct set of gate inputs (distribution,
  group id, tag names) — so a clearance or sharing-group change takes
  effect at the next pass.
- The receiver refreshes its own index (one feed read when it is current)
  and answers each offered entry from it: the held copy's timestamp and
  stored blob digest, the same pair
  :meth:`~repro.misp.MispStore.event_digests` reads.
- The sender keeps the wanted uuids it offered, each once, and ignores
  the rest of the answer.  It fetches those events and their trace
  contexts in batched reads, and writes its ledger rows and lineage rows
  once per link pass — also when the link fails mid-pass, so the ledger
  records exactly the repairs the receiver accepted.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
    TYPE_CHECKING,
    Union,
)

from ..core.deltas import DeltaCursor, collapse_changes
from ..misp import (
    Distribution,
    MispEvent,
    MispInstance,
    MispStore,
    MispTag,
    SharingGroup,
)
from ..misp.export import to_misp_json
from ..misp.instance import prefers_incoming
from ..obs import share_contexts
from ..sharing.sync import event_digest
from ..sharing.policy import Tlp
from .backbone import KIND_DIGEST_OFFER, KIND_EVENT

if TYPE_CHECKING:  # pragma: no cover
    from .node import FederationNode


#: The distributions whose offer entry needs the decoded event: the wire
#: copy of a connected-communities event differs from its stored form, and
#: a sharing-group event's group id is not a column.
_DECODED = (Distribution.CONNECTED_COMMUNITIES, Distribution.SHARING_GROUP)


class OfferEntry(NamedTuple):
    """What an offer needs of one stored event, without the event.

    ``distribution``, ``sharing_group_id`` (None unless the event is a
    sharing-group event) and ``tags`` are the fields
    :meth:`~repro.misp.MispInstance.release_gate` and
    :meth:`~repro.sharing.SharingPolicy.marking_of` read, so both gates run
    on the entry itself.  ``ts`` and ``digest`` describe the wire copy a
    sender offers; ``ts`` and ``blob_digest`` the stored copy a receiver
    holds.  Only a connected-communities event has two digests.
    """

    distribution: int
    sharing_group_id: Optional[str]
    tags: Tuple[MispTag, ...]
    ts: int
    digest: str
    blob_digest: str


class OfferIndex:
    """One node's offer entries, kept current from the store's change feed.

    In memory only (nothing is persisted, so a restarted node reads its
    store's columns once on its first pass).  Entries with the same tag
    names share one tag tuple, which keeps the index near 0.4 KB per event.
    """

    def __init__(self, store: MispStore) -> None:
        self.store = store
        self.cursor = DeltaCursor(store, "anti-entropy-offers")
        #: event uuid -> :class:`OfferEntry`.
        self.entries: Dict[str, OfferEntry] = {}
        self._tags: Dict[Tuple[str, ...], Tuple[MispTag, ...]] = {}

    def refresh(self) -> int:
        """Consume everything past the cursor; returns feed rows consumed."""
        changes = self.cursor.read()
        if not changes:
            return 0
        batch = collapse_changes(changes)
        for uuid in batch.deleted:
            self.entries.pop(uuid, None)
        fields = self.store.release_fields(batch.upserts)
        events = self.store.get_events(
            [uuid for uuid, row in fields.items()
             if row is not None and row[0] in _DECODED])
        for uuid, row in fields.items():
            if row is None:  # deleted after the feed window closed
                self.entries.pop(uuid, None)
                continue
            distribution, ts, blob_digest, names = row
            tags = self._tags.get(names)
            if tags is None:
                tags = self._tags[names] = tuple(MispTag(name)
                                                 for name in names)
            event = events.get(uuid)
            self.entries[uuid] = OfferEntry(
                distribution,
                event.sharing_group_id
                if distribution == Distribution.SHARING_GROUP else None,
                tags, ts,
                event_digest(MispInstance.wire_form(event))
                if distribution == Distribution.CONNECTED_COMMUNITIES
                else blob_digest,
                blob_digest)
        self.cursor.advance(batch.last_seq)
        return len(changes)


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
    # Entries with the same gate inputs share one decision.  Entries with
    # the same tag names share one tag tuple, so its id stands for them.
    decisions: Dict[Tuple[int, Optional[str], int], bool] = {}
    offer: Dict[str, Dict[str, Any]] = {}
    for uuid in sorted(index.entries):
        entry = index.entries[uuid]
        key = (entry.distribution, entry.sharing_group_id, id(entry.tags))
        cleared = decisions.get(key)
        if cleared is None:
            cleared = decisions[key] = _cleared(node, entry, dst)[0]
        if cleared:
            offer[uuid] = {"digest": entry.digest, "ts": entry.ts}
    return offer


def _is_offer(offer: Any) -> bool:
    """Whether ``offer`` is a ``{uuid: {"digest": str, "ts": int}}`` map."""
    return isinstance(offer, dict) and all(
        isinstance(uuid, str) and isinstance(meta, dict)
        and isinstance(meta.get("digest"), str)
        and type(meta.get("ts")) is int
        for uuid, meta in offer.items())


def handle_offer(node: "FederationNode", src: str,
                 payload: Dict[str, Any]) -> Dict[str, Any]:
    """The receiver half: decide which offered uuids to request.

    Answered from the receiver's own :class:`OfferIndex`.  A version the
    receiver already refused as ``duplicate attribute uuid`` (its
    ``refused`` pairs) is not wanted again; a changed version, with a new
    digest, is.  An offer that is not a map of digest entries is refused
    before anything is read.
    """
    offer = payload.get("offer")
    if not _is_offer(offer):
        return {"accepted": False, "reason": "malformed message"}
    index = node.offer_index
    index.refresh()
    want: List[str] = []
    for uuid in sorted(offer):
        held = index.entries.get(uuid)
        meta = offer[uuid]
        if (uuid, meta["digest"]) in node.refused:
            continue
        if held is None or prefers_incoming(
                meta["ts"], meta["digest"], held.ts, held.blob_digest):
            want.append(uuid)
    return {"want": want}


def _wanted(response: Any, offer: Dict[str, Any]) -> List[str]:
    """The offered uuids a receiver's answer asks for, each once, in order.

    The answer is the peer's, so it is not trusted: one that is not a
    mapping, or whose ``want`` is not a list, wants nothing, and an entry
    that is not a string or was not in this pass's offer is dropped.
    """
    want = response.get("want") if isinstance(response, dict) else None
    if not isinstance(want, list):
        return []
    return list(dict.fromkeys(
        uuid for uuid in want if isinstance(uuid, str) and uuid in offer))


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
    wanted = _wanted(response, offer)
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
