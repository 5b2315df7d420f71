"""Change-feed consumption: persisted cursors and materialized rollups.

The store's change feed (:meth:`~repro.misp.MispStore.changes_since`) is
the one answer to "which events changed after position P, and in what
order".  Every derived structure — dashboard views, geo aggregation,
intel-report summaries, and the sharing gateway's per-entity delta sync —
consumes it instead of re-scanning stored state every cycle:

- :class:`DeltaCursor` — a named position into the audit-seq change feed,
  optionally persisted in the store's ``rollup_state`` table (deliberately
  separate from ``sync_state`` so federation fingerprints, which fold sync
  watermarks, never see local view-maintenance progress).
- :func:`collapse_changes` — fold raw feed rows into one action per event
  (the last one wins), split into upserts and deletes, with each upsert's
  last seq (what the sharing gateway filters entity watermarks against).
- :class:`StoreRollup` — base class for incrementally-maintained
  materialized views: ``refresh()`` reads the feed once, batch-loads only
  the changed events, and hands them to the subclass's ``apply_delta``.
  A persistent rollup checkpoints into per-key ``rollup_rows`` and
  remembers which keys its deltas touched, so a checkpoint writes only
  the rows that changed since the previous one.
- :class:`RollupGroup` — several rollups over one store sharing a single
  feed read and a single event fetch per cycle when their cursors align
  (the common case after the first cycle).

Cost model (docs/PERFORMANCE.md): a quiet cycle is one ``changes_since``
query returning nothing — no event payload is fetched or deserialized and
no rollup write happens.  A busy cycle decodes each changed event at most
once, and not even that for the eIoCs the platform hands on from its
enrich stage (``refresh(handed=...)``): an eIoC whose stored blob still
hashes to the digest it was written with is that blob's decode.  Rollup
state is persisted only at explicit ``save()`` checkpoints, not per
refresh, and a checkpoint costs the rows touched since the previous one,
not the size of the store.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..misp.model import MispEvent
from ..misp.store import Handed, MispStore, StoreChange


@dataclass
class DeltaBatch:
    """One feed read collapsed to net effects, in deterministic order.

    ``upserts`` and ``deleted`` each hold event uuids ordered by
    ``(last_change_seq, uuid)`` and are disjoint: an event created and
    deleted inside the window appears only in ``deleted``.  ``last_seqs``
    maps every upserted uuid to its last change seq in the window.
    """

    last_seq: int = 0
    upserts: List[str] = field(default_factory=list)
    deleted: List[str] = field(default_factory=list)
    last_seqs: Dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.upserts or self.deleted)


def collapse_changes(changes: Sequence[StoreChange]) -> DeltaBatch:
    """Fold raw change-feed rows into net per-event effects.

    Multiple audit rows for one event collapse to its last action in the
    window; ``deleted`` wins over any earlier write, a re-create after a
    delete wins back.
    """
    last: Dict[str, Tuple[int, str]] = {}
    top = 0
    for change in changes:
        top = max(top, change.seq)
        last[change.event_uuid] = (change.seq, change.action)
    ordered = sorted(last.items(), key=lambda kv: (kv[1][0], kv[0]))
    batch = DeltaBatch(last_seq=top)
    for uuid, (seq, action) in ordered:
        if action == "deleted":
            batch.deleted.append(uuid)
        else:
            batch.upserts.append(uuid)
            batch.last_seqs[uuid] = seq
    return batch


def load_delta_events(store: MispStore, batch: DeltaBatch,
                      handed: Optional[Handed] = None
                      ) -> Tuple[List[MispEvent], List[str]]:
    """Batch-fetch the events behind a delta (chunked, one round trip set).

    Returns ``(upserted_events, deleted_uuids)``.  An upsert uuid that no
    longer resolves (deleted after the feed window closed) is reported as
    deleted now — its own ``deleted`` feed row, processed later, is then a
    no-op, so consumers must treat deletes as idempotent.  A ``handed``
    event is used as is while the stored blob still hashes to its digest
    (:meth:`~repro.misp.MispStore.get_events`), so only the other upserts
    are decoded.
    """
    deleted = list(batch.deleted)
    if not batch.upserts:
        return [], deleted
    fetched = store.get_events(batch.upserts, handed=handed)
    events: List[MispEvent] = []
    for uuid in batch.upserts:
        event = fetched.get(uuid)
        if event is None:
            deleted.append(uuid)
        else:
            events.append(event)
    return events, deleted


class DeltaCursor:
    """A named, optionally persisted position in the store's change feed.

    Reads never advance the cursor implicitly (consume-then-advance keeps
    crash semantics at-least-once), and ``save()`` persists position, an
    opaque state string and any changed ``rollup_rows`` only when
    something actually moved.  Unlike a sharing watermark, which holds at
    the first failed share, a rollup cursor always advances to the end of
    what it read.
    """

    def __init__(self, store: MispStore, name: str,
                 persistent: bool = False) -> None:
        self.store = store
        self.name = name
        self.persistent = persistent
        self.position = 0
        self._dirty = False
        self._saved_state = ""
        if persistent:
            row = store.get_rollup(name)
            if row is not None:
                self.position = row[0]
                self._saved_state = row[1]

    @property
    def saved_state(self) -> str:
        """The state blob persisted alongside the position ('' if none)."""
        return self._saved_state

    def read(self) -> List[StoreChange]:
        """Feed rows past the cursor; does NOT advance it."""
        return self.store.changes_since(self.position)

    def advance(self, seq: int) -> None:
        """Move the cursor forward (never backward) after consuming."""
        if seq > self.position:
            self.position = seq
            self._dirty = True

    def save(self, state: str = "",
             rows: Optional[Mapping[str, Optional[str]]] = None) -> bool:
        """Persist position + state (+ ``rows``, one transaction) if this
        cursor is persistent and something moved; a ``None`` row value
        deletes that row."""
        if not self.persistent:
            return False
        if not self._dirty and state == self._saved_state and not rows:
            return False
        self.store.set_rollup(self.name, self.position, state, rows=rows)
        self._saved_state = state
        self._dirty = False
        return True


_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _encode_row(value: Any) -> Optional[str]:
    return None if value is None else _ROW_ENCODER.encode(value)


class StoreRollup:
    """Base class for a materialized view maintained from the change feed.

    Subclasses implement :meth:`apply_delta`.  Persistent ones also keep
    their state as per-key rows: :meth:`row` / :meth:`restore_row` map one
    key to and from a JSON value, and :meth:`touch` marks a key whose row
    a delta changed.  :meth:`save` writes the touched rows and the
    position in one transaction; construction over a store with saved
    rows restores them — no rescan — and the first ``refresh()`` after a
    quiet reopen consumes zero deltas.  Non-persistent rollups track no
    keys at all.
    """

    def __init__(self, store: MispStore, name: str,
                 persistent: bool = False) -> None:
        self.store = store
        self.name = name
        self.cursor = DeltaCursor(store, name, persistent=persistent)
        #: Keys whose rows changed since the last save (None: untracked).
        self._touched: Optional[Set[str]] = set() if persistent else None
        if self.cursor.position or self.cursor.saved_state:
            rows = store.rollup_rows(name)
            if self.cursor.saved_state:
                # A whole-state blob from before per-key rows: rebuild off
                # the feed (the audit log is never truncated); the next
                # save clears the blob and any stale row.
                self.cursor.position = 0
                self._touched.update(key for key, _value in rows)
            else:
                for key, value in rows:
                    self.restore_row(key, json.loads(value))

    @property
    def position(self) -> int:
        return self.cursor.position

    def refresh(self, handed: Optional[Handed] = None) -> int:
        """Consume everything past the cursor; returns feed rows consumed.

        ``handed`` goes to :func:`load_delta_events`.
        """
        changes = self.cursor.read()
        if not changes:
            return 0
        batch = collapse_changes(changes)
        events, deleted = load_delta_events(self.store, batch, handed)
        self.ingest(batch, events, deleted)
        return len(changes)

    def ingest(self, batch: DeltaBatch, events: Sequence[MispEvent],
               deleted: Sequence[str]) -> None:
        """Apply one pre-loaded delta and advance (RollupGroup fast path)."""
        self.apply_delta(events, deleted)
        self.cursor.advance(batch.last_seq)

    def touch(self, key: str) -> None:
        """Mark ``key``'s row as changed since the last save."""
        if self._touched is not None:
            self._touched.add(key)

    def save(self) -> bool:
        """Checkpoint position + touched rows (persistent rollups only)."""
        if self._touched is None:
            return False
        rows = {key: _encode_row(self.row(key))
                for key in sorted(self._touched)}
        saved = self.cursor.save(rows=rows)
        self._touched.clear()
        return saved

    # -- subclass hooks -------------------------------------------------------

    def apply_delta(self, events: Sequence[MispEvent],
                    deleted: Sequence[str]) -> None:
        """Fold changed events in / retire deleted uuids (idempotently)."""
        raise NotImplementedError

    def row(self, key: str) -> Any:
        """JSON-serializable checkpoint row of ``key`` (None: no row)."""
        return None

    def restore_row(self, key: str, value: Any) -> None:
        """Fold one checkpointed :meth:`row` back in."""


class RollupGroup:
    """Several rollups over one store, refreshed with one feed read.

    When every member's cursor sits at the same position (true from the
    second cycle on), one ``changes_since`` query and one chunked event
    fetch feed all of them; otherwise each member catches up individually
    and the group re-aligns.
    """

    def __init__(self, store: MispStore) -> None:
        self.store = store
        self.members: List[StoreRollup] = []

    def add(self, rollup: StoreRollup) -> StoreRollup:
        self.members.append(rollup)
        return rollup

    def refresh(self, handed: Optional[Handed] = None) -> int:
        """Bring every member current; returns feed rows consumed.

        ``handed`` (the platform's eIoCs of the cycle) goes to
        :func:`load_delta_events`.
        """
        if not self.members:
            return 0
        positions = {rollup.position for rollup in self.members}
        if len(positions) > 1:
            return max(rollup.refresh(handed) for rollup in self.members)
        changes = self.store.changes_since(positions.pop())
        if not changes:
            return 0
        batch = collapse_changes(changes)
        events, deleted = load_delta_events(self.store, batch, handed)
        for rollup in self.members:
            rollup.ingest(batch, events, deleted)
        return len(changes)

    def save_all(self) -> int:
        """Checkpoint every persistent member; returns how many wrote."""
        return sum(1 for rollup in self.members if rollup.save())
