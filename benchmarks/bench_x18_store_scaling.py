"""X18: correlation reads by index, on the one-file store.

``correlations`` is indexed by both endpoint events
(``idx_correlations_source_event``, ``idx_correlations_target_event``), so
``correlations_for_event`` — the read behind enrichment context and the
dashboard's correlation graph — finds an event's rows with two index
searches (SQLite plans it as ``MULTI-INDEX OR``): its cost follows the
event's own edges, not the corpus.  The seed schema had no such index, and
each call walked the whole table, O(C) however few rows it returned.

This bench builds a correlated corpus once and guards two properties:

1. **Throughput** — the correlation-probe phase must run ≥2× faster through
   the indexes than the same phase forced through the seed's walk
   (``FROM correlations NOT INDEXED``) on the same store.  The op phase is
   pure ``correlations_for_event`` deliberately: it is the store op whose
   per-call cost grew with the corpus (point lookups are index probes and
   are covered by the conformance suite).  Timing protocol: warm the
   store, then alternate the two plans for ``ATTEMPTS`` rounds and keep
   each plan's minimum of ``time.process_time`` — paired CPU-time minima
   cancel the box's wall-clock noise.
2. **Same answers** — both plans return the same rows in the same order.

CI runs it scaled down via ``CAOP_X18_EVENTS`` (``make bench-store``).  A
smaller corpus gives a shorter walk while the fixed per-call overhead
(statement prep, row→dict conversion) stays, so the guard drops to a
direction-proving floor; the full 2× target is enforced at the default
corpus size.
"""

import os
import time
from contextlib import contextmanager
from datetime import date, datetime, timezone

from repro.misp import MispStore
from repro.misp.model import MispAttribute, MispEvent

from conftest import print_table

#: Corpus size; CI overrides with CAOP_X18_EVENTS for a faster run.
EVENTS = int(os.environ.get("CAOP_X18_EVENTS", "8000"))
ATTRS_PER_EVENT = 3
#: ~20 correlatable hits per value → a dense, realistic edge mesh.
VALUE_POOL = max(10, EVENTS * ATTRS_PER_EVENT // 20)
#: The indexed reads, and the same SQL forced through a walk of the table.
PLANS = ("indexed", "scan")
#: ≥2× over the walk at the default corpus; smaller (CI) corpora only prove
#: the direction.
SPEEDUP_TARGET = 2.0 if EVENTS >= 8000 else 1.3
SAMPLE_OPS = 100
ATTEMPTS = 4

_TS = datetime(2026, 1, 1, tzinfo=timezone.utc)


def build_corpus():
    """The corpus: events whose values overlap across a shared pool."""
    pool = [f"ioc-{k}.example" for k in range(VALUE_POOL)]
    corpus = []
    for i in range(EVENTS):
        event = MispEvent(info=f"event {i}", date=date(2026, 1, 1),
                          org="CAOP", timestamp=_TS, published=True)
        for j in range(ATTRS_PER_EVENT):
            event.add_attribute(MispAttribute(
                type="domain",
                value=pool[(i * ATTRS_PER_EVENT + j) % VALUE_POOL],
                category="Network activity", timestamp=_TS))
        corpus.append(event)
    return corpus


def build():
    """Ingest the corpus; each save links its events' edges."""
    events = build_corpus()
    store = MispStore(":memory:")
    started = time.perf_counter()
    for start in range(0, len(events), 500):
        store.save_events(events[start:start + 500])
    return (store, events, store.correlation_count(),
            time.perf_counter() - started)


def op_phase(store, events):
    """One timed round of the guarded op: per-event correlation probes."""
    started = time.process_time()
    answers = []
    for i in range(SAMPLE_OPS):
        event = events[(i * 13) % EVENTS]
        answers.append(store.correlations_for_event(event.uuid))
    return time.process_time() - started, answers


@contextmanager
def forced_scan(store):
    """Run ``store``'s correlation reads as the seed's schema planned them:
    the same SQL with ``correlations NOT INDEXED``, a walk of the table."""
    conn = store._conn
    run = conn.execute
    conn.execute = lambda sql, params=(): run(
        sql.replace("FROM correlations", "FROM correlations NOT INDEXED"),
        params)
    try:
        yield
    finally:
        del conn.execute


def timed(store, events, plan):
    """``op_phase`` on ``store``, through ``plan``."""
    if plan == "indexed":
        return op_phase(store, events)
    with forced_scan(store):
        return op_phase(store, events)


def test_x18_indexed_correlation_reads():
    store, events, inserted, build_seconds = build()
    best = dict.fromkeys(PLANS)
    answers = {}
    for plan in PLANS:
        timed(store, events, plan)  # warm caches before timing
    for attempt in range(ATTEMPTS):
        # Alternating rounds: both plans measured back to back so the
        # minima come from comparable machine states.
        for plan in PLANS:
            seconds, answers[plan] = timed(store, events, plan)
            if best[plan] is None or seconds < best[plan]:
                best[plan] = seconds
        speedup = best["scan"] / best["indexed"]
        if attempt >= 1 and speedup >= SPEEDUP_TARGET:
            break
    store.close()

    print_table(
        f"X18 correlation reads ({EVENTS} events, {inserted} edges, "
        f"{SAMPLE_OPS} probes/round)",
        f"{'build s':>8}  {'scan s':>8}  {'indexed s':>9}  {'speedup':>8}",
        [f"{build_seconds:>8.2f}  {best['scan']:>8.3f}  "
         f"{best['indexed']:>9.3f}  {speedup:>7.2f}x"])

    assert any(answers["indexed"]), "the probed events have no edges"
    assert answers["indexed"] == answers["scan"]
    assert speedup >= SPEEDUP_TARGET, (
        f"indexed op phase only {speedup:.2f}x faster than the forced scan "
        f"(target {SPEEDUP_TARGET}x)")
