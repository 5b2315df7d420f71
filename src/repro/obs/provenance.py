"""Per-IoC provenance: stable trace ids and typed lineage events.

The paper's sharing loop only pays off if an analyst at the *receiving*
organization can answer "where did this indicator come from and what
happened to it on the way here?".  This module gives every IoC a stable
**trace id** derived from its content uuid (:func:`trace_id_for`), so the
same cIoC carries the same trace id in every org's store, and records
typed **lineage events** (:data:`LINEAGE_KINDS`) at each pipeline seam:

- ``fetched`` / ``parsed`` / ``deduped-into`` — collector and dedup;
- ``enriched-by`` / ``scored`` — the heuristic component;
- ``reduced-into`` — rIoC generation;
- ``shared-to`` — the sharing gateway, per entity;
- ``synced-from`` — written into the *receiving* store when a MISP push
  carries trace context, with the org path accumulated hop by hop.

Rows are buffered in a :class:`ProvenanceRecorder` on the coordinating
thread (worker pools never write provenance directly — the same
determinism discipline as metrics and logs) and flushed once per cycle
into the :class:`~repro.misp.MispStore` ``provenance`` table with a single
``executemany``.  :func:`stitch_lineage` then reassembles the cross-org
journey of one event from any number of stores, and
:func:`render_lineage` prints it as the tree ``caop trace`` shows.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ValidationError
from ..ids import content_uuid

#: The typed lineage vocabulary, in rough pipeline order.
LINEAGE_KINDS: Tuple[str, ...] = (
    "fetched",
    "parsed",
    "deduped-into",
    "enriched-by",
    "scored",
    "reduced-into",
    "shared-to",
    "synced-from",
)

_KIND_SET = frozenset(LINEAGE_KINDS)


def trace_id_for(event_uuid: str) -> str:
    """The stable trace id of an IoC: content-derived, identical cross-org."""
    return content_uuid("trace", event_uuid)


@dataclass(frozen=True)
class ProvenanceEvent:
    """One lineage row, as stored in the ``provenance`` table."""

    trace_id: str
    event_uuid: str
    kind: str
    actor: str = ""
    org: str = ""
    detail: str = ""
    cycle: int = 0
    logged_at: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (the ``caop trace --json`` row shape)."""
        return {
            "trace_id": self.trace_id,
            "event_uuid": self.event_uuid,
            "kind": self.kind,
            "actor": self.actor,
            "org": self.org,
            "detail": self.detail,
            "cycle": self.cycle,
            "logged_at": self.logged_at,
        }


class ProvenanceRecorder:
    """Buffers lineage rows per cycle; one ``executemany`` flush per flush.

    ``record`` is only called from coordinating threads over drain-ordered
    results, so the buffered row order — and therefore the persisted
    ``seq`` order — is identical for any worker count.  The lock is purely
    defensive.
    """

    def __init__(self, store: Any = None, clock: Any = None,
                 org: str = "CAOP", enabled: bool = True) -> None:
        self._store = store
        self._clock = clock
        self.org = org
        self.enabled = bool(enabled and store is not None)
        self._cycle = 0
        self._lock = threading.Lock()
        self._buffer: List[ProvenanceEvent] = []

    @property
    def store(self) -> Any:
        """The store flushes land in (the local MISP instance's)."""
        return self._store

    def begin_cycle(self, cycle: int) -> None:
        """Stamp subsequently recorded rows with this cycle number."""
        self._cycle = cycle

    def record(self, kind: str, event_uuid: str, actor: str = "",
               detail: str = "") -> None:
        """Buffer one lineage row (no-op when disabled)."""
        if kind not in _KIND_SET:
            raise ValidationError(f"unknown lineage kind {kind!r}")
        if not self.enabled:
            return
        logged_at = (int(self._clock.now().timestamp())
                     if self._clock is not None else 0)
        row = ProvenanceEvent(
            trace_id=trace_id_for(event_uuid), event_uuid=event_uuid,
            kind=kind, actor=actor, org=self.org, detail=detail,
            cycle=self._cycle, logged_at=logged_at)
        with self._lock:
            self._buffer.append(row)

    @property
    def pending(self) -> int:
        """Rows buffered but not yet flushed."""
        with self._lock:
            return len(self._buffer)

    def flush(self) -> int:
        """Persist every buffered row in one batch; returns the row count."""
        with self._lock:
            rows, self._buffer = self._buffer, []
        if rows:
            self._store.add_provenance(rows)
        return len(rows)


#: Shared always-disabled recorder (mirrors ``NULL_REGISTRY``).
NULL_RECORDER = ProvenanceRecorder(enabled=False)


def origin_path(store: Any, event_uuid: str, self_org: str) -> List[str]:
    """The org path an outgoing share should carry for this event.

    Locally born events yield ``[self_org]``; an event this store received
    via sync extends the path its latest ``synced-from`` row recorded, so
    the context C receives through B reads ``["org-a", "org-b"]``.
    """
    return _path_from(store.provenance_for_event(event_uuid), self_org)


def _path_from(rows: Sequence[Dict[str, Any]], self_org: str) -> List[str]:
    """:func:`origin_path` over one event's already-read lineage rows."""
    path: List[str] = []
    for row in reversed(rows):
        if row["kind"] != "synced-from":
            continue
        try:
            path = list(json.loads(row["detail"]).get("path", []))
        except (ValueError, AttributeError):
            path = []
        break
    return path + [self_org]


def share_context(store: Any, event_uuid: str, self_org: str) -> Dict[str, Any]:
    """The trace context a MISP push carries alongside one event."""
    return {"trace_id": trace_id_for(event_uuid),
            "path": origin_path(store, event_uuid, self_org)}


def share_contexts(store: Any, event_uuids: Sequence[str],
                   self_org: str) -> Dict[str, Dict[str, Any]]:
    """:func:`share_context` for many events from one batched lineage read."""
    return {uuid: {"trace_id": trace_id_for(uuid),
                   "path": _path_from(rows, self_org)}
            for uuid, rows in store.provenance_for_events(event_uuids).items()}


def _hop_depth(rows: Sequence[Dict[str, Any]]) -> int:
    """How many sync hops upstream of this store the event originated."""
    depth = 0
    for row in rows:
        if row["kind"] != "synced-from":
            continue
        try:
            depth = max(depth, len(json.loads(row["detail"]).get("path", [])))
        except (ValueError, AttributeError):
            continue
    return depth


def stitch_lineage(stores: Iterable[Tuple[str, Any]],
                   event_uuid: str) -> Dict[str, Any]:
    """Reassemble one event's cross-org journey from several stores.

    ``stores`` is ``(label, MispStore)`` pairs; any store without
    provenance or audit rows for the event is skipped.  Hops are ordered
    origin-first by their recorded sync path depth, so the tree reads
    feed-fetch downward to the last sync receipt.
    """
    hops: List[Dict[str, Any]] = []
    for label, store in stores:
        rows = store.provenance_for_event(event_uuid)
        audit = store.event_history(event_uuid)
        if not rows and not audit:
            continue
        org = next((row["org"] for row in rows if row["org"]), label)
        hops.append({
            "store": label,
            "org": org,
            "depth": _hop_depth(rows),
            "lineage": rows,
            "audit": audit,
        })
    hops.sort(key=lambda hop: (hop["depth"], hop["store"]))
    return {"event_uuid": event_uuid, "trace_id": trace_id_for(event_uuid),
            "hops": hops}


def render_lineage(tree: Dict[str, Any]) -> str:
    """The ``caop trace`` view: one hop block per store, origin first."""
    lines = [f"trace {tree['trace_id']}", f"event {tree['event_uuid']}"]
    if not tree["hops"]:
        lines.append("  (no provenance recorded for this event)")
        return "\n".join(lines)
    for hop in tree["hops"]:
        lines.append(f"└─ hop {hop['depth']} · org {hop['org']} "
                     f"[{hop['store']}]")
        for row in hop["audit"]:
            lines.append(f"   store   #{row['seq']:<3} "
                         f"{row['action']:<13} {row['detail']}".rstrip())
        for row in hop["lineage"]:
            lines.append(f"   lineage c{row['cycle']:<3} "
                         f"{row['kind']:<13} {row['actor']:<10} "
                         f"{row['detail']}".rstrip())
    return "\n".join(lines)
