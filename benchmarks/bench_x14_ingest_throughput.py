"""X14: ingest-throughput guard — parallel fetch + batched persistence.

The collect→store hot path has three scaling wings (docs/PERFORMANCE.md):

1. **Concurrent feed fetching** — ``FeedFetcher`` runs feeds on a bounded
   worker pool; with a realtime transport the wall clock approaches
   ``max(latency)`` instead of ``sum(latency)``.
2. **Batched persistence** — ``MispStore.save_events`` writes a whole
   cycle in one transaction via ``executemany``.
3. **Batched correlation** — the same transaction links the cycle's
   edges: one chunked ``IN (...)`` query resolves every correlatable
   value of the batch, and one ``executemany`` inserts the edges.

This bench measures each wing against its serial counterpart and guards the
win: parallel fetch must be ≥2× faster wall-clock with 8 workers, and the
batched store+correlate path must issue ≥30% fewer SQL round trips than the
per-event path — while producing byte-identical stored events and identical
correlation edges.  The default pool (one worker per feed) is timed and
held to the same determinism checks as the 8-worker pool.  CI runs it as a
regression gate under ``pytest benchmarks/``; ``make bench-ingest`` runs it
alone, with its tables printed.
"""

import time

import pytest

from repro import PlatformConfig
from repro.clock import SimulatedClock
from repro.feeds import (
    FeedFetcher,
    IndicatorPool,
    SimulatedTransport,
    standard_feed_set,
)
from repro.ids import IdGenerator
from repro.misp import MispAttribute, MispEvent, MispInstance

from conftest import print_table

SEED = 14
FEED_ENTRIES = 30
LATENCY_RANGE = (0.01, 0.03)
PARALLEL_WORKERS = 8
#: The platform's default pool: one worker per due feed.
DEFAULT_WORKERS = PlatformConfig().fetch_workers
FETCH_SPEEDUP_TARGET = 2.0
SQL_REDUCTION_TARGET = 0.70  # batched must use <= 70% of per-event statements
EVENTS = 60
ATTRS_PER_EVENT = 5
VALUE_POOL = 80
ATTEMPTS = 3


# -- wing 1: concurrent fetch ---------------------------------------------------

def build_fetch_rig(workers: int, realtime: bool = True):
    """A fetcher over the standard 12-feed set on a latency-bearing transport."""
    clock = SimulatedClock()
    pool = IndicatorPool(seed=SEED, size=500)
    transport = SimulatedTransport(clock=clock, seed=SEED,
                                   latency_range=LATENCY_RANGE,
                                   realtime=realtime)
    descriptors = []
    for generator, name in standard_feed_set(pool, entries=FEED_ENTRIES,
                                             seed=SEED, overlap=0.5):
        descriptor = generator.descriptor(name)
        transport.register_generator(descriptor, generator)
        descriptors.append(descriptor)
    fetcher = FeedFetcher(transport, clock=clock, workers=workers)
    return fetcher, descriptors, transport


def timed_fetch(workers: int):
    fetcher, descriptors, transport = build_fetch_rig(workers)
    start = time.perf_counter()
    documents = fetcher.fetch_all(descriptors)
    elapsed = time.perf_counter() - start
    return elapsed, documents, transport.stats


def test_x14_parallel_fetch_speedup():
    serial = parallel = None
    for _attempt in range(ATTEMPTS):
        serial_time, serial_docs, serial_stats = timed_fetch(1)
        parallel_time, parallel_docs, parallel_stats = timed_fetch(
            PARALLEL_WORKERS)
        speedup = serial_time / parallel_time
        serial, parallel = serial_time, parallel_time
        if speedup >= FETCH_SPEEDUP_TARGET:
            break
    default_time, default_docs, default_stats = timed_fetch(DEFAULT_WORKERS)
    print_table(
        f"X14: fetch wall-clock, {len(serial_docs)} feeds, "
        f"latency {LATENCY_RANGE[0]*1000:.0f}-{LATENCY_RANGE[1]*1000:.0f} ms",
        "variant / wall time / speedup",
        [
            f"serial (1 worker)        {serial * 1000:8.1f} ms  1.00x",
            f"parallel ({PARALLEL_WORKERS} workers)    "
            f"{parallel * 1000:8.1f} ms  {speedup:.2f}x",
            f"default (1 per feed)     {default_time * 1000:8.1f} ms  "
            f"{serial / default_time:.2f}x",
        ])
    # Determinism: the pool changes nothing about what is fetched.
    for docs, stats in ((parallel_docs, parallel_stats),
                        (default_docs, default_stats)):
        assert [d.descriptor.name for d in docs] == \
            [d.descriptor.name for d in serial_docs]
        assert [d.body for d in docs] == [d.body for d in serial_docs]
        assert stats.requests == serial_stats.requests
        assert stats.failures == serial_stats.failures
    assert speedup >= FETCH_SPEEDUP_TARGET, (
        f"parallel fetch only {speedup:.2f}x faster than serial "
        f"(target {FETCH_SPEEDUP_TARGET}x) across {ATTEMPTS} attempts")


# -- wings 2+3: batched store + correlate ---------------------------------------

def synthetic_cycle(events: int = EVENTS) -> list:
    """One cycle's worth of cIoC-shaped events with heavy value overlap."""
    ids = IdGenerator(seed=SEED)
    values = [f"indicator-{index % VALUE_POOL}.example"
              for index in range(events * ATTRS_PER_EVENT)]
    batch = []
    for index in range(events):
        event = MispEvent(info=f"cycle event {index}", uuid=ids.uuid())
        event.add_tag("caop:cioc")
        for offset in range(ATTRS_PER_EVENT):
            event.add_attribute(MispAttribute(
                type="domain",
                value=values[index * ATTRS_PER_EVENT + offset],
                uuid=ids.uuid()))
        batch.append(event)
    return batch


def exported_state(misp: MispInstance):
    """(sorted event export blobs, sorted correlation edge tuples)."""
    exports = sorted(
        misp.export_event(event.uuid)
        for event in misp.store.list_events())
    edges = set()
    for event in misp.store.list_events():
        for row in misp.store.correlations_for_event(event.uuid):
            edges.add(tuple(sorted(row.items())))
    return exports, edges


def test_x14_batched_store_correlate_fewer_statements():
    batch = synthetic_cycle()

    per_event = MispInstance(org="serial")
    baseline = per_event.store.sql_statements
    for event in batch:
        per_event.add_event(event, publish_feed=False)
    serial_statements = per_event.store.sql_statements - baseline

    batched = MispInstance(org="batched")
    baseline = batched.store.sql_statements
    batched.add_events(batch, publish_feed=False)
    batched_statements = batched.store.sql_statements - baseline

    ratio = batched_statements / serial_statements
    print_table(
        f"X14: store+correlate SQL round trips, {len(batch)} events x "
        f"{ATTRS_PER_EVENT} attributes",
        "variant / SQL statements / ratio",
        [
            f"per-event add_event   {serial_statements:6d}  1.000",
            f"batched add_events    {batched_statements:6d}  {ratio:.3f}",
        ])

    serial_exports, serial_edges = exported_state(per_event)
    batched_exports, batched_edges = exported_state(batched)
    assert batched_exports == serial_exports, (
        "batched persistence changed the stored events")
    assert batched_edges == serial_edges, (
        "batched correlation changed the correlation graph")
    assert per_event.store.audit_count() == batched.store.audit_count()
    assert ratio <= SQL_REDUCTION_TARGET, (
        f"batched path issued {batched_statements} statements vs "
        f"{serial_statements} serial ({ratio:.2f}, "
        f"target <= {SQL_REDUCTION_TARGET})")


def test_x14_batched_correlations_match_serial_instance():
    """The full graph matches when events arrive in one batch vs one by one."""
    batch = synthetic_cycle(events=20)
    serial = MispInstance(org="serial")
    for event in batch:
        serial.add_event(event, publish_feed=False)
    batched = MispInstance(org="batched")
    batched.add_events(batch, publish_feed=False)
    assert batched.store.correlation_count() == serial.store.correlation_count()


@pytest.mark.parametrize("workers", [1, PARALLEL_WORKERS])
def test_bench_x14_fetch(benchmark, workers):
    def run():
        fetcher, descriptors, _transport = build_fetch_rig(workers)
        return fetcher.fetch_all(descriptors)

    documents = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(documents) == 12


@pytest.mark.parametrize("batched", [False, True])
def test_bench_x14_store(benchmark, batched):
    def run():
        misp = MispInstance(org="bench")
        batch = synthetic_cycle()
        if batched:
            misp.add_events(batch, publish_feed=False)
        else:
            for event in batch:
                misp.add_event(event, publish_feed=False)
        return misp

    misp = benchmark.pedantic(run, rounds=3, iterations=1)
    assert misp.store.event_count() == EVENTS
