"""Canonical full-state fingerprints for convergence proofs.

A federation "converges" when every org's *entire* store agrees with the
fault-free baseline — not just the event corpus, but the correlation
edges, the delta-sync ledger (watermarks + digests) and the provenance
lineage too.  :func:`store_fingerprint` folds all four into one sha256
over a canonical JSON form.

Two classes of field are excluded on purpose:

- ``seq`` / ``cycle`` / ``logged_at`` on provenance rows and watermark
  bookkeeping: these record *when* a run learned something, and a faulted
  run legitimately learns later than the baseline;
- row order beyond the canonical sort: arrival order differs under
  partitions, content must not.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

from ..misp.export import canonical_json
from ..misp.store import MispStore

#: Provenance fields that record processing time, not lineage content.
_PROVENANCE_TIME_FIELDS = ("seq", "cycle", "logged_at")


def store_state(store: MispStore) -> Dict[str, Any]:
    """The canonical, order-free view of one store's full state.

    Decodes each stored event once, and keeps only its canonical form and
    uuid past that pass, not the decoded events.
    """
    events: List[str] = []
    uuids: List[str] = []
    for event in store.list_events():
        events.append(canonical_json(event))
        if event.uuid:
            uuids.append(event.uuid)
    events.sort()
    uuids.sort()
    correlations = sorted(
        json.dumps(row, sort_keys=True)
        for rows in store.correlations_for_events(uuids).values()
        for row in rows)
    provenance: List[str] = []
    for uuid in uuids:
        for row in store.provenance_for_event(uuid):
            slim = {key: value for key, value in row.items()
                    if key not in _PROVENANCE_TIME_FIELDS}
            provenance.append(json.dumps(slim, sort_keys=True))
    provenance.sort()
    return {
        "events": events,
        "correlations": correlations,
        "sync": {
            "watermarks": store.sync_watermarks(),
            "digests": [list(row) for row in store.sync_digest_rows()],
        },
        "provenance": provenance,
    }


def store_fingerprint(store: MispStore) -> str:
    """sha256 over the canonical full-state view of one store."""
    return hashlib.sha256(
        json.dumps(store_state(store), sort_keys=True).encode()).hexdigest()


def event_blob(store: MispStore) -> str:
    """Event-content-only canonical blob (the PR-5 harness's comparator)."""
    return json.dumps(sorted(
        canonical_json(event) for event in store.list_events()),
        sort_keys=True)
