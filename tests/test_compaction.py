"""Rate-limited decay compaction over the report summaries.

Expiry drifts with nothing but time passing, so compaction is the one
stage that considers every stored event; it reads the summary rollup
instead of decoding the store.  These tests pin its budget: it runs only
on its cycle/interval cadence, its metrics meter the cost, it decodes only
what changed, purges reach rollups through the ordinary change feed, it
agrees with a sweep of the decoded store (a Hypothesis differential
test), and deferring purges to the cadence converges onto the
byte-identical store state an every-cycle full pass produces.
"""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ContextAwareOSINTPlatform, PlatformConfig
from repro.clock import SimulatedClock
from repro.core.compaction import CompactionStage
from repro.core.decay import CATEGORY_MODELS, DEFAULT_MODEL, ScoreDecayEngine
from repro.core.deltas import collapse_changes
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


# -- compaction == sweep of the decoded store ---------------------------------

#: Categories with a model, one without, and no category tag at all.
CATEGORIES = sorted(CATEGORY_MODELS) + ["not-a-category", None]


def lifetime_of(category):
    return CATEGORY_MODELS.get(category, DEFAULT_MODEL).lifetime


def drawn_event(index, category, score, age, now):
    """Event ``index`` (content uuids), ``age`` old at ``now``; ``score``
    None leaves it unscored, a non-number stores an unreadable score."""
    timestamp = now - age
    event = MispEvent(info=f"event {index}", published=True,
                      timestamp=timestamp)
    event.uuid = content_uuid("compaction-prop", str(index))
    attributes = [MispAttribute(type="domain", value=f"d{index}.example",
                                timestamp=timestamp)]
    if score is not None:
        attributes.append(MispAttribute(
            type="float", value=score, comment=THREAT_SCORE_COMMENT,
            timestamp=timestamp))
        event.add_tag(TAG_EIOC)
    for number, attribute in enumerate(attributes):
        attribute.uuid = content_uuid("compaction-prop-attr", event.uuid,
                                      str(number))
        event.add_attribute(attribute)
    if category is not None:
        event.add_tag(f'caop:category="{category}"')
    return event


@st.composite
def ages(draw, category):
    """Ages at and around the category's lifetime, plus arbitrary ones."""
    lifetime = lifetime_of(category)
    return draw(st.one_of(
        st.sampled_from([lifetime, lifetime - dt.timedelta(seconds=1),
                         lifetime + dt.timedelta(seconds=1)]),
        st.integers(0, 1200 * 86400).map(
            lambda seconds: dt.timedelta(seconds=seconds))))


@st.composite
def save_ops(draw):
    category = draw(st.sampled_from(CATEGORIES))
    return ("save", draw(st.integers(0, 11)), category,
            draw(st.sampled_from([None, "0.0", "1.5", "4.25", "5.0",
                                  "n/a"])),
            draw(ages(category)))


COMPACTION_OPS = st.lists(st.one_of(
    save_ops(),
    st.tuples(st.just("delete"), st.integers(0, 11)),
    st.tuples(st.just("advance"), st.one_of(
        st.integers(1, 90 * 86400).map(
            lambda seconds: dt.timedelta(seconds=seconds)),
        st.integers(1, 10 ** 6).map(
            lambda micros: dt.timedelta(microseconds=micros)))),
    st.tuples(st.just("run")),
), max_size=30)


def reference_pass(store, decay, purge):
    """Sweep every decoded stored event, then delete in list order."""
    live, expired = decay.sweep(store)
    purged = sum(1 for uuid in expired if store.delete_event(uuid)) \
        if purge else 0
    return len(live), expired, purged


def deleted_rows(store):
    return [(change.seq, change.event_uuid)
            for change in store.changes_since(0)
            if change.action == "deleted"]


@given(ops=COMPACTION_OPS, purge=st.booleans())
@settings(max_examples=80, deadline=None)
def test_run_matches_a_sweep_of_the_decoded_store(ops, purge):
    clock = SimulatedClock(start=TS)
    stores = [MispStore(":memory:", clock=clock) for _ in range(2)]
    stage = CompactionStage(stores[0], clock=clock, purge=purge)
    decay = ScoreDecayEngine(clock=clock)
    for op in ops + [("run",)]:
        if op[0] == "save":
            _kind, index, category, score, age = op
            for store in stores:
                store.save_event(drawn_event(index, category, score, age,
                                             clock.now()))
        elif op[0] == "delete":
            uuid = content_uuid("compaction-prop", str(op[1]))
            for store in stores:
                store.delete_event(uuid)
        elif op[0] == "advance":
            clock.advance(op[1])
        else:
            live, expired, purged = reference_pass(stores[1], decay, purge)
            report = stage.run()
            assert (report.live, report.expired, report.purged) == (
                live, len(expired), purged)
            if not purge:
                # Nothing was deleted: the summaries still hold exactly
                # what the sweep saw, and a second run agrees.
                assert stage.decay.sweep_summaries(
                    stage.summaries.summaries) == (live, expired)
                again = stage.run()
                assert (again.live, again.expired) == (live, len(expired))
    assert deleted_rows(stores[0]) == deleted_rows(stores[1])
    assert store_fingerprint(stores[0]) == store_fingerprint(stores[1])


class TestDecodes:
    def test_standalone_runs_decode_only_what_changed(self):
        clock = SimulatedClock(start=TS)
        store, fresh, _stale, _unscored = build_store(clock)
        stage = CompactionStage(store, clock=clock, purge=False)
        decoded = store.payloads_deserialized
        stage.run()          # first run: the store once
        assert store.payloads_deserialized - decoded == 3
        decoded = store.payloads_deserialized
        stage.run()          # nothing changed
        assert store.payloads_deserialized == decoded
        fresh.info = "renamed"
        store.save_event(fresh)
        stage.run()
        assert store.payloads_deserialized - decoded == 1

    def test_platform_compaction_cycle_decodes_each_change_once(self):
        platform = ContextAwareOSINTPlatform.build_default(PlatformConfig(
            seed=7, feed_entries=20, compaction_every_cycles=2))
        store = platform.misp.store
        platform.run_cycle()
        decodes = {"maybe_run": [], "refresh": []}

        def counted(owner, name):
            method = getattr(owner, name)

            def wrapper(*args, **kwargs):
                before = store.payloads_deserialized
                result = method(*args, **kwargs)
                decodes[name].append(store.payloads_deserialized - before)
                return result
            setattr(owner, name, wrapper)

        counted(platform.compaction, "maybe_run")
        counted(platform.rollups, "refresh")
        position = store.max_audit_seq()
        report = platform.run_cycle()
        assert report.compacted
        changes = store.changes_since(position)
        changed = collapse_changes(changes).upserts
        last_action = {change.event_uuid: change.action for change in changes}
        handed = [uuid for uuid in changed if last_action[uuid] == "enriched"]
        assert handed and len(handed) < len(changed)
        # The compact stage's group refresh decodes the cycle's changes
        # except the eIoCs the enrich stage handed on; the run itself and
        # the rollup stage decode nothing.
        assert decodes == {"maybe_run": [0],
                           "refresh": [len(changed) - len(handed), 0]}
        # Both refreshes count toward the cycle's consumed deltas.
        assert report.deltas_consumed == len(changes)
