"""X19: idle-cost guard — steady-state cycles must be O(new events).

Before PR 9 every quiet platform cycle still paid O(store): decay
re-scoring walked ``list_events()``, the dashboard views and the geo map
re-scanned the full store per render, and the intel report digested every
event.  PR 9 converts all of them into materialized rollups fed by the
store's audit-seq change feed, and confines the decay full pass to a
rate-limited compaction stage — so a cycle in which nothing happened
costs one empty ``changes_since`` query and nothing else.

This soak drives ``CYCLES`` virtual-hour cycles (default 10,000; CI scales
down via ``CAOP_X19_CYCLES``) over a single-file SQLite store with
periodic ingest waves of short-lived scored events, and guards:

1. **Idle budget** — every quiet cycle (no ingest, no compaction due)
   issues ≤ ``IDLE_SQL_BUDGET`` SQL statements and deserializes **zero**
   event payloads.
2. **Cadence** — compaction runs exactly on its configured cycle cadence,
   never in between.
3. **Compaction cost** — compaction reads its summary rollup, so each run
   decodes at most the events saved since the previous run (a count, so
   it cannot flake).
4. **Correctness** — the final full-store fingerprint
   (``federation.fingerprint``) is byte-identical to a full-rescan
   baseline that swept the decoded store and purged on *every* cycle, and
   every maintained rollup answers identically to a from-scratch rebuild
   over the final store.
"""

import datetime as dt
import os
import time

from repro.clock import SimulatedClock
from repro.core.compaction import CompactionStage
from repro.core.decay import ScoreDecayEngine
from repro.core.deltas import RollupGroup
from repro.core.ioc import TAG_EIOC, THREAT_SCORE_COMMENT
from repro.core.report import IntelReportBuilder
from repro.dashboard.geo import GeoSummaryView
from repro.dashboard.views import CorrelationGraphView, KeywordSummaryView
from repro.federation.fingerprint import store_fingerprint
from repro.ids import content_uuid
from repro.misp import MispAttribute, MispEvent, MispStore

from conftest import print_table

#: Soak length; CI overrides with CAOP_X19_CYCLES for a faster run.
CYCLES = int(os.environ.get("CAOP_X19_CYCLES", "10000"))
#: One cycle of virtual time; 30-day phishing IoCs expire in 720 cycles.
CYCLE_STEP = dt.timedelta(hours=1)
INGEST_EVERY = 500
WAVE_SIZE = 12
COMPACT_EVERY = 100
#: The ISSUE's ceiling; the measured steady state is 1 statement.
IDLE_SQL_BUDGET = 5

START = dt.datetime(2026, 1, 1, tzinfo=dt.timezone.utc)


def wave_events(cycle, now):
    """One ingest wave: short-lived scored eIoCs with shared infrastructure.

    Content-derived uuids keep the incremental and baseline runs (and any
    two soak invocations) byte-identical.  Values overlap inside a wave so
    the correlation graph rollup has real edges to maintain, and the infos
    carry threat keywords so the keyword rollup counts something.
    """
    events = []
    for i in range(WAVE_SIZE):
        info = f"phishing wave {cycle} lure {i}"
        event = MispEvent(info=info, published=True, timestamp=now)
        event.uuid = content_uuid("x19-event", info)
        attributes = [
            MispAttribute(type="domain",
                          value=f"lure-{cycle}-{i}.example", timestamp=now),
            # Shared per-wave drop host => intra-wave correlation edges.
            MispAttribute(type="domain",
                          value=f"drop-{cycle}-{i % 3}.example",
                          timestamp=now),
            MispAttribute(type="float", value="4.0",
                          comment=THREAT_SCORE_COMMENT, timestamp=now),
        ]
        for index, attribute in enumerate(attributes):
            attribute.uuid = content_uuid("x19-attr", event.uuid, str(index))
            event.add_attribute(attribute)
        event.add_tag(TAG_EIOC)
        event.add_tag('caop:category="phishing"')
        events.append(event)
    return events


def ingest_wave(store, cycle, now):
    """Persist one wave; the save links its edges."""
    store.save_events(wave_events(cycle, now))


def run_incremental():
    """The PR 9 steady state: change-feed rollups + cadenced compaction."""
    clock = SimulatedClock(start=START)
    store = MispStore(":memory:", clock=clock)
    decay = ScoreDecayEngine(clock=clock)
    compaction = CompactionStage(store, decay=decay, clock=clock,
                                 every_cycles=COMPACT_EVERY)
    group = RollupGroup(store)
    graph = group.add(CorrelationGraphView(store))
    keywords = group.add(KeywordSummaryView(store))
    geo = GeoSummaryView()
    group.add(geo.store_rollup(store))
    report = IntelReportBuilder(store, clock=clock, decay=decay,
                                incremental=True)
    group.add(report.rollup)

    quiet = 0
    max_sql = 0
    max_payloads = 0
    compaction_runs = 0
    compaction_cycles = []
    #: (decodes, events saved since the previous run) per compaction run.
    compaction_decodes = []
    saved = 0
    purged = 0

    def compact(run, cycle):
        nonlocal saved
        decoded = store.payloads_deserialized
        outcome = run(cycle)
        if outcome.ran:
            compaction_decodes.append(
                (store.payloads_deserialized - decoded, saved))
            saved = 0
        return outcome

    started = time.perf_counter()
    for cycle in range(1, CYCLES + 1):
        clock.advance(CYCLE_STEP)
        busy = cycle % INGEST_EVERY == 0
        statements = store.sql_statements
        decoded = store.payloads_deserialized
        if busy:
            ingest_wave(store, cycle, clock.now())
            saved += WAVE_SIZE
        outcome = compact(compaction.maybe_run, cycle)
        if outcome.ran:
            compaction_runs += 1
            compaction_cycles.append(cycle)
            purged += outcome.purged
        group.refresh()
        if not busy and not outcome.ran:
            quiet += 1
            max_sql = max(max_sql, store.sql_statements - statements)
            max_payloads = max(
                max_payloads, store.payloads_deserialized - decoded)
    # Terminal run at the final instant so deferred purges land
    # regardless of whether CYCLES is a cadence multiple; the baseline
    # gets the identical terminal pass.
    final = compact(compaction.run, CYCLES)
    purged += final.purged
    group.refresh()
    elapsed = time.perf_counter() - started
    return {
        "store": store, "clock": clock, "graph": graph,
        "keywords": keywords, "geo": geo, "report": report,
        "quiet": quiet, "max_sql": max_sql, "max_payloads": max_payloads,
        "compaction_runs": compaction_runs,
        "compaction_cycles": compaction_cycles,
        "compaction_decodes": compaction_decodes, "purged": purged,
        "seconds": elapsed,
    }


def full_pass(store, decay):
    """Sweep every decoded stored event, then purge the expired ones in
    ``list_events()`` order."""
    _live, expired = decay.sweep(store)
    for event_uuid in expired:
        store.delete_event(event_uuid)


def run_baseline():
    """The pre-PR-9 semantics: a decay full pass (sweep + purge) every
    cycle.  Same clock schedule, same ingest waves, same event uuids."""
    clock = SimulatedClock(start=START)
    store = MispStore(":memory:", clock=clock)
    decay = ScoreDecayEngine(clock=clock)
    started = time.perf_counter()
    for cycle in range(1, CYCLES + 1):
        clock.advance(CYCLE_STEP)
        if cycle % INGEST_EVERY == 0:
            ingest_wave(store, cycle, clock.now())
        full_pass(store, decay)
    full_pass(store, decay)
    elapsed = time.perf_counter() - started
    return {"store": store, "seconds": elapsed}


_RESULTS = {}


def results():
    if not _RESULTS:
        _RESULTS["incremental"] = run_incremental()
        _RESULTS["baseline"] = run_baseline()
    return _RESULTS


def test_idle_cycles_stay_within_budget():
    soak = results()["incremental"]
    expected_quiet = CYCLES - len(
        {cycle for cycle in range(1, CYCLES + 1)
         if cycle % INGEST_EVERY == 0 or cycle % COMPACT_EVERY == 0})
    assert soak["quiet"] == expected_quiet
    assert soak["quiet"] > 0
    assert soak["max_sql"] <= IDLE_SQL_BUDGET, (
        f"quiet cycle issued {soak['max_sql']} SQL statements "
        f"(budget {IDLE_SQL_BUDGET})")
    assert soak["max_payloads"] == 0, (
        f"quiet cycle deserialized {soak['max_payloads']} payloads")


def test_compaction_runs_on_cadence_only():
    soak = results()["incremental"]
    expected = [cycle for cycle in range(1, CYCLES + 1)
                if cycle % COMPACT_EVERY == 0]
    assert soak["compaction_cycles"] == expected
    assert soak["compaction_runs"] == len(expected)
    assert soak["purged"] > 0, "the soak never exercised a purge"


def test_compaction_decodes_only_what_changed():
    soak = results()["incremental"]
    runs = soak["compaction_decodes"]
    assert len(runs) == soak["compaction_runs"] + 1   # + the terminal run
    over = [(index, decoded, saved)
            for index, (decoded, saved) in enumerate(runs)
            if decoded > saved]
    assert not over, (
        "compaction runs (index, decoded, saved since previous run) that "
        f"decoded more than what changed: {over}")


def test_final_store_matches_full_rescan_baseline():
    incremental = results()["incremental"]["store"]
    baseline = results()["baseline"]["store"]
    assert incremental.event_count() == baseline.event_count()
    assert store_fingerprint(incremental) == store_fingerprint(baseline)


def test_rollups_match_from_scratch_rebuild():
    soak = results()["incremental"]
    store, clock = soak["store"], soak["clock"]
    fresh_graph = CorrelationGraphView(store, name="fresh:graph")
    assert fresh_graph.render() == soak["graph"].render()
    fresh_keywords = KeywordSummaryView(store, name="fresh:keywords")
    assert fresh_keywords.render() == soak["keywords"].render()
    fresh_geo = GeoSummaryView()
    fresh_geo.store_rollup(store, name="fresh:geo").refresh()
    assert fresh_geo.render() == soak["geo"].render()
    rescan = IntelReportBuilder(store, clock=clock)
    assert (soak["report"].build().to_markdown()
            == rescan.build().to_markdown())


def test_report_table():
    soak = results()["incremental"]
    baseline = results()["baseline"]
    fingerprint_ok = (store_fingerprint(soak["store"])
                      == store_fingerprint(baseline["store"]))
    rows = [
        f"{'cycles':<28} {CYCLES:>10}",
        f"{'quiet cycles':<28} {soak['quiet']:>10}",
        f"{'max SQL / quiet cycle':<28} {soak['max_sql']:>10}"
        f"  (budget {IDLE_SQL_BUDGET})",
        f"{'max payloads / quiet cycle':<28} {soak['max_payloads']:>10}"
        "  (budget 0)",
        f"{'compaction runs':<28} {soak['compaction_runs']:>10}"
        f"  (every {COMPACT_EVERY} cycles)",
        f"{'max decodes / compaction':<28} "
        f"{max(d for d, _ in soak['compaction_decodes']):>10}"
        f"  (budget: events saved since the previous run)",
        f"{'events purged':<28} {soak['purged']:>10}",
        f"{'events remaining':<28} {soak['store'].event_count():>10}",
        f"{'incremental soak seconds':<28} {soak['seconds']:>10.2f}",
        f"{'full-rescan soak seconds':<28} {baseline['seconds']:>10.2f}",
        f"{'fingerprint == baseline':<28} {str(fingerprint_ok):>10}",
    ]
    print_table("X19: incremental steady-state idle cost",
                "metric                               value", rows)
    assert fingerprint_ok
