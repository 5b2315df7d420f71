"""Rate-limited decay compaction (PR 9).

The decay full pass is the one stage that legitimately touches every
stored event (scores drift with nothing but time passing).  These tests
pin its budget: it runs only on its cycle/interval cadence, its metrics
meter the cost, purges reach rollups through the ordinary change feed,
and deferring purges to the cadence converges onto the byte-identical
store state an every-cycle full pass produces.
"""

import datetime as dt

import pytest

from repro.clock import SimulatedClock
from repro.core.compaction import CompactionStage
from repro.core.decay import ScoreDecayEngine
from repro.core.ioc import TAG_EIOC, THREAT_SCORE_COMMENT
from repro.federation.fingerprint import store_fingerprint
from repro.ids import content_uuid
from repro.misp import MispAttribute, MispEvent, MispStore
from repro.obs import MetricsRegistry

TS = dt.datetime(2026, 1, 1, tzinfo=dt.timezone.utc)


def scored_event(info="eioc", score=4.0, category="malware-domains",
                 timestamp=TS):
    # Content-derived uuids so two runs over the same ingest schedule
    # produce byte-identical stores (the convergence test's comparator).
    event = MispEvent(info=info, published=True, timestamp=timestamp)
    event.uuid = content_uuid("compaction-test", info)
    for index, attribute in enumerate([
        MispAttribute(type="domain", value=f"{info}.example",
                      timestamp=timestamp),
        MispAttribute(type="float", value=str(score),
                      comment=THREAT_SCORE_COMMENT, timestamp=timestamp),
    ]):
        attribute.uuid = content_uuid("compaction-attr", event.uuid,
                                      str(index))
        event.add_attribute(attribute)
    event.add_tag(TAG_EIOC)
    event.add_tag(f'caop:category="{category}"')
    return event


def build_store(clock):
    """Three scored events: one long-lived, one expired, one unscored."""
    store = MispStore(":memory:", clock=clock)
    fresh = scored_event(info="fresh", timestamp=clock.now())
    # malware-domains lifetime is 90 days; 100 days old => expired.
    stale = scored_event(
        info="stale", timestamp=clock.now() - dt.timedelta(days=100))
    unscored = MispEvent(info="raw", published=True, timestamp=clock.now())
    store.save_events([fresh, stale, unscored])
    return store, fresh, stale, unscored


class TestCadence:
    def test_runs_only_on_multiples_of_every_cycles(self):
        clock = SimulatedClock(start=TS)
        store, *_ = build_store(clock)
        stage = CompactionStage(store, clock=clock, every_cycles=5)
        assert [cycle for cycle in range(1, 11) if stage.due(cycle)] == [5, 10]

    def test_nonpositive_cadence_disables_the_stage(self):
        clock = SimulatedClock(start=TS)
        store, *_ = build_store(clock)
        stage = CompactionStage(store, clock=clock, every_cycles=0)
        assert not any(stage.due(cycle) for cycle in range(1, 50))
        report = stage.maybe_run(25)
        assert not report.ran
        assert store.event_count() == 3

    def test_min_interval_rate_limits_on_the_platform_clock(self):
        clock = SimulatedClock(start=TS)
        store, *_ = build_store(clock)
        stage = CompactionStage(store, clock=clock, every_cycles=1,
                                min_interval_seconds=3600.0)
        assert stage.maybe_run(1).ran
        assert stage.last_run_at == clock.now()
        # Cadence says yes, the clock says no.
        assert not stage.due(2)
        assert not stage.maybe_run(2).ran
        clock.advance(dt.timedelta(hours=2))
        assert stage.maybe_run(3).ran

    def test_skip_reasons_are_metered(self):
        clock = SimulatedClock(start=TS)
        store, *_ = build_store(clock)
        metrics = MetricsRegistry()
        stage = CompactionStage(store, clock=clock, every_cycles=2,
                                min_interval_seconds=3600.0, metrics=metrics)
        stage.maybe_run(1)           # cadence skip
        stage.maybe_run(2)           # runs
        stage.maybe_run(4)           # interval skip (clock never moved)
        skipped = metrics.counter("caop_compaction_skipped_total")
        assert skipped.value(reason="cadence") == 1
        assert skipped.value(reason="interval") == 1
        assert metrics.counter("caop_compaction_runs_total").total() == 1


class TestFullPass:
    def test_run_rescores_and_purges_expired(self):
        clock = SimulatedClock(start=TS)
        store, fresh, stale, unscored = build_store(clock)
        stage = CompactionStage(store, clock=clock, every_cycles=1)
        report = stage.run(cycle=7)
        assert report.ran and report.cycle == 7
        assert report.scanned == 3
        assert report.live == 1          # fresh still carries value
        assert report.expired == 1
        assert report.purged == 1
        assert not store.has_event(stale.uuid)
        assert store.has_event(fresh.uuid)
        assert store.has_event(unscored.uuid)  # unscored never ages out

    def test_purge_false_rescores_only(self):
        clock = SimulatedClock(start=TS)
        store, _fresh, stale, _unscored = build_store(clock)
        stage = CompactionStage(store, clock=clock, every_cycles=1,
                                purge=False)
        report = stage.run()
        assert report.expired == 1 and report.purged == 0
        assert store.has_event(stale.uuid)

    def test_run_metrics_meter_the_budget(self):
        clock = SimulatedClock(start=TS)
        store, *_ = build_store(clock)
        metrics = MetricsRegistry()
        stage = CompactionStage(store, clock=clock, every_cycles=1,
                                metrics=metrics)
        stage.run()
        assert metrics.counter(
            "caop_compaction_events_scanned_total").total() == 3
        assert metrics.counter("caop_compaction_purged_total").total() == 1
        seconds = metrics.get("caop_compaction_seconds")
        assert sum(sample["count"] for sample in seconds._samples()) == 1

    def test_purges_reach_rollups_through_the_change_feed(self):
        clock = SimulatedClock(start=TS)
        store, _fresh, stale, _unscored = build_store(clock)
        from repro.core.deltas import RollupGroup
        from tests.test_deltas import CountingRollup
        group = RollupGroup(store)
        rollup = group.add(CountingRollup(store, "rollup:c"))
        group.refresh()
        CompactionStage(store, clock=clock, every_cycles=1).run()
        assert group.refresh() > 0
        assert rollup.retired == [stale.uuid]


class TestDeferredPurgeConvergence:
    def test_cadenced_compaction_matches_every_cycle_full_pass(self):
        """Running the full pass every 25th cycle instead of every cycle
        must land on a byte-identical final store, provided a pass runs at
        the end (expiry is monotone in age, deletes are idempotent)."""
        start = TS
        horizon = 200

        def drive(every_cycles):
            clock = SimulatedClock(start=start)
            store = MispStore(":memory:", clock=clock)
            decay = ScoreDecayEngine(clock=clock)
            stage = CompactionStage(store, decay=decay, clock=clock,
                                    every_cycles=every_cycles)
            runs = 0
            for cycle in range(1, horizon + 1):
                clock.advance(dt.timedelta(days=1))
                if cycle % 40 == 0:
                    # Periodic ingest: short-lived scored events (30-day
                    # phishing lifetime) that expire before the horizon.
                    store.save_events([
                        scored_event(info=f"wave-{cycle}-{i}",
                                     category="phishing",
                                     timestamp=clock.now())
                        for i in range(3)])
                runs += 1 if stage.maybe_run(cycle).ran else 0
            # Horizon cycle count is a multiple of the cadence, so both
            # schedules end with a terminal full pass.
            assert horizon % every_cycles == 0
            return store, runs

        baseline, baseline_runs = drive(every_cycles=1)
        cadenced, cadenced_runs = drive(every_cycles=25)
        assert baseline_runs == 200 and cadenced_runs == 8
        assert store_fingerprint(cadenced) == store_fingerprint(baseline)
        # Every wave except the terminal one (age zero) has aged out.
        assert cadenced.event_count() == 3
