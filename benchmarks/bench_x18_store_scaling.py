"""X18: store-scaling guard — hash-sharded MispStore vs the single file.

The seed store keeps every correlation edge in one SQLite table with no
index on its event columns, so ``correlations_for_event`` — the hot probe
behind enrichment context and the dashboard's correlation graph — walks the
whole table: O(C) per call however large the corpus grows.  The sharded
backend bounds that walk to one shard (every edge is mirrored onto both
endpoint shards), i.e. ~``C × (2 - 1/N) / N`` rows at N shards — 43.75% of
the corpus at 4 shards, 12.1% at 16 — a structural win that needs no extra
CPU cores (docs/PERFORMANCE.md).

This bench builds an identical correlated corpus at shard counts {1, 4, 16}
and guards two properties:

1. **Throughput** — the correlation-probe phase must run ≥2× faster at
   4 shards than at 1 shard.  The op phase is pure ``correlations_for_event``
   deliberately: it is the only store op whose per-call cost grows with the
   corpus (point lookups are index probes at any shard count and are covered
   by the conformance suite).  Timing protocol: build each store once, warm
   it, then interleave the three configurations for ``ATTEMPTS`` rounds and
   keep the per-configuration minimum of ``time.process_time`` — paired
   CPU-time minima cancel the box's wall-clock noise.
2. **Determinism** — audit history, correlation graphs, sync watermarks
   and digests must be byte-identical across all three shard counts.

CI runs it scaled down via ``CAOP_X18_EVENTS`` (``make bench-store``).  At
reduced corpus sizes the fixed per-call overhead (statement prep, row→dict
conversion) dilutes the scan ratio, so the guard drops to a direction-proving
floor; the full 2× target is enforced at the default corpus size.
"""

import json
import os
import time
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
#: ≥2× at the default corpus; smaller (CI) corpora only prove the direction.
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
    results = {}
    for shards in SHARD_COUNTS:
        store, events, inserted, build_seconds = built(shards)
        op_phase(store, events)  # warm caches before timing
        results[shards] = {"ops": None, "rows": None,
                           "build": build_seconds, "edges": inserted}
    for attempt in range(ATTEMPTS):
        # Interleaved rounds: each configuration measured back to back so
        # per-configuration minima come from comparable machine states.
        for shards in SHARD_COUNTS:
            store, events, _inserted, _build = built(shards)
            seconds, rows = op_phase(store, events)
            entry = results[shards]
            if entry["ops"] is None or seconds < entry["ops"]:
                entry["ops"] = seconds
            entry["rows"] = rows
        if attempt >= 1 and \
                results[1]["ops"] / results[4]["ops"] >= SPEEDUP_TARGET:
            break

    speedup = {shards: results[1]["ops"] / results[shards]["ops"]
               for shards in SHARD_COUNTS}
    print_table(
        f"X18 store scaling ({EVENTS} events, {results[1]['edges']} edges, "
        f"{SAMPLE_OPS} probes/round)",
        f"{'shards':>7}  {'build s':>8}  {'op-phase s':>10}  {'speedup':>8}",
        [f"{shards:>7}  {results[shards]['build']:>8.2f}  "
         f"{results[shards]['ops']:>10.3f}  {speedup[shards]:>7.2f}x"
         for shards in SHARD_COUNTS])

    # Same workload, same answers: every configuration returned the same
    # correlation rows and left byte-identical observable state.
    assert len({results[shards]["rows"] for shards in SHARD_COUNTS}) == 1
    assert len({results[shards]["edges"] for shards in SHARD_COUNTS}) == 1
    fingerprints = {shards: state_fingerprint(*built(shards)[:2])
                    for shards in SHARD_COUNTS}
    baseline = fingerprints[1]
    for shards in SHARD_COUNTS[1:]:
        assert fingerprints[shards] == baseline, \
            f"{shards}-shard state diverges from single-file"

    assert speedup[4] >= SPEEDUP_TARGET, (
        f"4-shard op phase only {speedup[4]:.2f}x faster "
        f"(target {SPEEDUP_TARGET}x)")
    # The curve must keep bending: 16 shards at least as fast as 4.
    assert results[16]["ops"] <= results[4]["ops"] * 1.1


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
