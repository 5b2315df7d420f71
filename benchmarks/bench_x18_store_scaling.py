"""X18: correlation reads by index, at every shard count.

Every shard's ``correlations`` table is indexed by both endpoint events
(``idx_correlations_source_event``, ``idx_correlations_target_event``), so
``correlations_for_event`` — the read behind enrichment context and the
dashboard's correlation graph — finds an event's rows with two index
searches (SQLite plans it as ``MULTI-INDEX OR``): its cost follows the
event's own edges, not the corpus.  The seed schema had no such index, and
each call walked the whole table, O(C) however few rows it returned;
sharding only shrank that walk to the ~``C × (2 - 1/N) / N`` rows of one
shard (every edge is mirrored onto both endpoint shards).

This bench builds an identical correlated corpus at shard counts {1, 4, 16}
and guards two properties:

1. **Throughput** — at every shard count, the correlation-probe phase must
   run ≥2× faster through the indexes than the same phase forced through
   the seed's walk (``FROM correlations NOT INDEXED``) on the same store,
   and both must return the same rows.  The op phase is pure
   ``correlations_for_event`` deliberately: it is the store op whose
   per-call cost grew with the corpus (point lookups are index probes at
   any shard count and are covered by the conformance suite).  Timing
   protocol: build each store once, warm it, then interleave the six
   (shard count, plan) configurations for ``ATTEMPTS`` rounds and keep the
   per-configuration minimum of ``time.process_time`` — paired CPU-time
   minima cancel the box's wall-clock noise.
2. **Determinism** — audit history, correlation graphs, sync watermarks
   and digests must be byte-identical across all three shard counts.

CI runs it scaled down via ``CAOP_X18_EVENTS`` (``make bench-store``).  A
smaller corpus gives a shorter walk, above all at 16 shards, while the
fixed per-call overhead (statement prep, row→dict conversion) stays, so
the guard drops to a direction-proving floor; the full 2× target is
enforced at the default corpus size.
"""

import json
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
SHARD_COUNTS = (1, 4, 16)
#: The indexed reads, and the same SQL forced through a walk of the table.
PLANS = ("indexed", "scan")
#: ≥2× over the walk at the default corpus; smaller (CI) corpora only prove
#: the direction.
SPEEDUP_TARGET = 2.0 if EVENTS >= 8000 else 1.3
SAMPLE_OPS = 100
ATTEMPTS = 4

_TS = datetime(2026, 1, 1, tzinfo=timezone.utc)


def build_corpus():
    """One corpus template shared by every shard count (same uuids)."""
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
    return corpus, pool


CORPUS, POOL = build_corpus()
_STORES = {}


def built(shards):
    """Ingest + correlate the corpus the way ``_correlate_batch`` does.

    Stores are cached per shard count so both tests share one build.
    """
    if shards in _STORES:
        return _STORES[shards]
    store = MispStore(":memory:", shards=shards)
    events = [MispEvent.from_dict(event.to_dict()) for event in CORPUS]
    started = time.perf_counter()
    for start in range(0, len(events), 500):
        store.save_events(events[start:start + 500])
    probe = store.correlatable_attributes_many(POOL)
    edges = []
    for value in POOL:
        hits = probe[value]
        for a in hits:
            for b in hits:
                if a[0] != b[0] and a[1] < b[1]:
                    edges.append((a[1], b[1], a[0], b[0], value))
    inserted = store.save_correlations(edges)
    store.set_sync_watermark("partner-0", store.max_audit_seq())
    store.set_sync_digests(
        "partner-0", {events[i].uuid: f"digest-{i}" for i in range(50)})
    build_seconds = time.perf_counter() - started
    _STORES[shards] = (store, events, inserted, build_seconds)
    return _STORES[shards]


def op_phase(store, events):
    """One timed round of the guarded op: per-event correlation probes."""
    started = time.process_time()
    rows = 0
    for i in range(SAMPLE_OPS):
        event = events[(i * 13) % EVENTS]
        rows += len(store.correlations_for_event(event.uuid))
    return time.process_time() - started, rows


@contextmanager
def forced_scan(store):
    """Run ``store``'s correlation reads as the seed's schema planned them:
    the same SQL with ``correlations NOT INDEXED``, a walk of the table."""
    conns = store.backend._conns
    for conn in conns:
        conn.execute = lambda sql, params=(), run=conn.execute: run(
            sql.replace("FROM correlations", "FROM correlations NOT INDEXED"),
            params)
    try:
        yield
    finally:
        for conn in conns:
            del conn.execute


def timed(shards, plan):
    """``op_phase`` on the ``shards`` store, through ``plan``."""
    store, events, _inserted, _build = built(shards)
    if plan == "indexed":
        return op_phase(store, events)
    with forced_scan(store):
        return op_phase(store, events)


def state_fingerprint(store, events):
    """Audit + correlation + sync state, canonicalised for comparison."""
    uuids = [event.uuid for event in events]
    sample = uuids[::max(1, len(uuids) // 200)]
    return json.dumps({
        "counts": [store.event_count(), store.attribute_count(),
                   store.correlation_count(), store.audit_count()],
        "max_seq": store.max_audit_seq(),
        "history": {uuid: store.event_history(uuid) for uuid in sample},
        "correlations": {uuid: store.correlations_for_event(uuid)
                         for uuid in sample},
        "feed_tail": [(change.seq, change.event_uuid, change.action,
                       change.logged_at)
                      for change in store.changes_since(0)[-50:]],
        "watermarks": store.sync_watermarks(),
        "digests": store.get_sync_digests("partner-0", uuids[:50]),
        "search": {value: store.search_value(value) for value in POOL[:20]},
    }, sort_keys=True)


def test_x18_store_scaling_and_determinism():
    configs = [(shards, plan) for shards in SHARD_COUNTS
               for plan in PLANS]
    results = {config: {"ops": None, "rows": None} for config in configs}
    for config in configs:
        timed(*config)  # build and warm caches before timing
    for attempt in range(ATTEMPTS):
        # Interleaved rounds: each configuration measured back to back so
        # per-configuration minima come from comparable machine states.
        for config in configs:
            seconds, rows = timed(*config)
            entry = results[config]
            if entry["ops"] is None or seconds < entry["ops"]:
                entry["ops"] = seconds
            entry["rows"] = rows
        speedup = {shards: results[shards, "scan"]["ops"]
                   / results[shards, "indexed"]["ops"]
                   for shards in SHARD_COUNTS}
        if attempt >= 1 and min(speedup.values()) >= SPEEDUP_TARGET:
            break

    print_table(
        f"X18 correlation reads ({EVENTS} events, {built(1)[2]} edges, "
        f"{SAMPLE_OPS} probes/round)",
        f"{'shards':>7}  {'build s':>8}  {'scan s':>8}  {'indexed s':>9}  "
        f"{'speedup':>8}",
        [f"{shards:>7}  {built(shards)[3]:>8.2f}  "
         f"{results[shards, 'scan']['ops']:>8.3f}  "
         f"{results[shards, 'indexed']['ops']:>9.3f}  "
         f"{speedup[shards]:>7.2f}x"
         for shards in SHARD_COUNTS])

    # Same workload, same answers: every configuration returned the same
    # correlation rows and left byte-identical observable state.
    assert len({entry["rows"] for entry in results.values()}) == 1
    assert len({built(shards)[2] for shards in SHARD_COUNTS}) == 1
    fingerprints = {shards: state_fingerprint(*built(shards)[:2])
                    for shards in SHARD_COUNTS}
    baseline = fingerprints[1]
    for shards in SHARD_COUNTS[1:]:
        assert fingerprints[shards] == baseline, \
            f"{shards}-shard state diverges from single-file"

    for shards in SHARD_COUNTS:
        assert speedup[shards] >= SPEEDUP_TARGET, (
            f"{shards}-shard indexed op phase only {speedup[shards]:.2f}x "
            f"faster than the forced scan (target {SPEEDUP_TARGET}x)")


def test_x18_shard_batch_distribution():
    """Hash placement spreads one cycle's batch across every shard."""
    store, _events, _inserted, _build = built(4)
    counts = [
        conn.execute("SELECT COUNT(*) FROM events").fetchone()[0]
        for conn in store.backend._conns]
    assert sum(counts) == EVENTS
    assert min(counts) > 0
    # sha256 placement keeps the imbalance mild (< 2x between extremes).
    assert max(counts) < 2 * max(1, min(counts))
