"""Parallel delta-sync sharing fan-out: determinism, delta, resilience.

The contract under test (docs/SHARING.md): any ``share_workers`` count
produces byte-identical SharingRecord ledgers, remote stores, digests and
watermarks; a steady-state cycle renders and shares nothing; transport
failures block the watermark, quarantine to the dead-letter queue, and the
ledger self-heals after breaker recovery + replay.
"""

import datetime as dt
import json

import pytest

from repro.clock import PAPER_NOW, SimulatedClock
from repro.errors import SharingError
from repro.misp import Distribution, MispAttribute, MispEvent, MispInstance
from repro.resilience import (
    KIND_SHARE,
    DeadLetterQueue,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
)
from repro.sharing import (
    ExternalEntity,
    SharingGateway,
    SharingPolicy,
    TaxiiServer,
    event_digest,
    mark_tlp,
)

UUID_BASE = "11111111-1111-4111-8111-{:012d}"


ATTR_UUID_BASE = "22222222-2222-4222-8222-{:012d}"


def make_events(count, tlp=None):
    events = []
    for index in range(count):
        event = MispEvent(
            info=f"intel report {index}",
            uuid=UUID_BASE.format(index),
            distribution=Distribution.ALL_COMMUNITIES)
        # Attribute UUIDs pinned so identical builds are digest-identical.
        event.add_attribute(MispAttribute(
            type="ip-src", value=f"198.51.100.{index + 1}",
            uuid=ATTR_UUID_BASE.format(index * 2)))
        event.add_attribute(MispAttribute(
            type="domain", value=f"bad{index}.example",
            uuid=ATTR_UUID_BASE.format(index * 2 + 1)))
        if tlp is not None:
            mark_tlp(event, tlp)
        events.append(event)
    return events


def build_world(workers, events=6, fault_plan=None, policy=None,
                retries=1, breaker_threshold=3, breaker_cooldown=300.0):
    clock = SimulatedClock(PAPER_NOW)
    local = MispInstance(org="Local", clock=clock)
    for event in make_events(events):
        local.add_event(event)
    peer = MispInstance(org="Peer", clock=clock)
    server = TaxiiServer(clock=clock)
    server.create_collection("indicators", "Indicators")
    deadletters = DeadLetterQueue(clock=clock)
    from repro.resilience import CircuitBreakerBoard
    gateway = SharingGateway(
        local, policy,
        workers=workers,
        retry_policy=RetryPolicy(max_retries=retries, seed=7),
        breakers=CircuitBreakerBoard(
            clock=clock, failure_threshold=breaker_threshold,
            cooldown_seconds=breaker_cooldown),
        deadletters=deadletters,
        clock=clock,
        fault_injector=FaultInjector(fault_plan) if fault_plan else None)
    gateway.register(ExternalEntity(name="peer-misp", transport="misp",
                                    misp_instance=peer))
    gateway.register(ExternalEntity(name="cert-taxii", transport="taxii",
                                    taxii_server=server))
    gateway.register(ExternalEntity(name="legacy", transport="stix-download"))
    return gateway, local, peer, server, deadletters, clock


def canonical_state(gateway, local, peer, server):
    """Everything the determinism contract covers, as one canonical blob."""
    store = local.store
    digests = {
        entity.name: store.get_sync_digests(
            entity.name, [UUID_BASE.format(i) for i in range(32)])
        for entity in gateway.entities
    }
    return json.dumps({
        "records": [(r.entity, r.transport, r.event_uuid, r.payload_bytes,
                     r.ok, r.detail) for r in gateway.audit_log],
        "watermarks": gateway.watermarks(),
        "digests": digests,
        "peer_events": sorted(
            json.dumps(e.to_dict(), sort_keys=True)
            for e in peer.store.list_events()),
        "taxii_objects": sorted(
            json.dumps(obj, sort_keys=True)
            for obj in server.get_objects("indicators")),
    }, sort_keys=True)


class TestWorkerDeterminism:
    @pytest.mark.parametrize("cycles", [1, 2])
    def test_worker_counts_byte_identical(self, cycles):
        blobs = []
        for workers in (1, 4, 8):
            gateway, local, peer, server, _dlq, _clock = build_world(workers)
            for _ in range(cycles):
                gateway.sync_cycle()
            blobs.append(canonical_state(gateway, local, peer, server))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_worker_counts_byte_identical_under_faults(self):
        plan = FaultPlan(rules=[FaultRule(
            component="share", key="peer-misp", from_call=0, until_call=4)])
        blobs = []
        for workers in (1, 4, 8):
            gateway, local, peer, server, _dlq, _clock = build_world(
                workers, fault_plan=plan)
            gateway.sync_cycle()
            blobs.append(canonical_state(gateway, local, peer, server))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_pool_gauge_reflects_bound(self):
        from repro.obs import MetricsRegistry
        metrics = MetricsRegistry()
        local = MispInstance(org="Local")
        for event in make_events(2):
            local.add_event(event)
        gateway = SharingGateway(local, workers=8, metrics=metrics)
        gateway.register(ExternalEntity(name="a", transport="stix-download"))
        gateway.register(ExternalEntity(name="b", transport="stix-download"))
        gateway.register(ExternalEntity(name="c", transport="stix-download"))
        report = gateway.sync_cycle()
        # 3 entities, 8 workers: the pool is clamped to the entity count.
        assert metrics.get("caop_share_pool_workers").value() == 3
        outcomes = metrics.get("caop_share_outcomes_total")
        assert outcomes.value(entity="a", outcome="ok") == 2
        assert report.payload_bytes > 0


class TestDeltaSync:
    def test_first_cycle_shares_everything(self):
        gateway, _local, peer, server, _dlq, _clock = build_world(1, events=5)
        report = gateway.sync_cycle()
        assert report.shared == 15  # 5 events x 3 entities
        assert report.failed == 0
        assert peer.store.event_count() == 5
        assert len(server.get_objects("indicators")) >= 5

    def test_steady_state_cycle_renders_nothing(self):
        gateway, *_ = build_world(4, events=5)
        first = gateway.sync_cycle()
        assert first.renders > 0
        second = gateway.sync_cycle()
        assert second.renders == 0
        assert second.render_hits == 0
        assert second.shared == 0
        assert second.events_considered == 0

    def test_render_cache_one_serialization_per_format(self):
        gateway, *_ = build_world(4, events=5)
        report = gateway.sync_cycle()
        # misp-json for the MISP peer + stix shared by taxii and download:
        # 2 renders per event, 3 consumers -> 1 hit per event.
        assert report.renders == 10
        assert report.render_hits == 5

    def test_changed_event_is_the_only_delta(self):
        gateway, local, peer, _server, _dlq, clock = build_world(4, events=6)
        gateway.sync_cycle()
        changed = local.store.get_event(UUID_BASE.format(2))
        changed.add_attribute(MispAttribute(type="url",
                                            value="http://new.example/x"))
        # An edit bumps the event timestamp (as MISP does), so the peer's
        # duplicate check accepts the newer version.
        clock.advance(dt.timedelta(seconds=60))
        changed.timestamp = clock.now()
        local.store.save_event(changed)
        report = gateway.sync_cycle()
        assert report.shared == 3  # one event, three entities
        shared_uuids = {r.event_uuid for r in report.records if r.ok}
        assert shared_uuids == {UUID_BASE.format(2)}
        assert len(peer.store.get_event(UUID_BASE.format(2)).attributes) == 3

    def test_rewrite_without_content_change_shares_nothing(self):
        gateway, local, _peer, _server, _dlq, _clock = build_world(4, events=4)
        gateway.sync_cycle()
        # Re-saving identical content bumps the audit cursor but not the
        # digest, so the candidates are dropped as unchanged.
        event = local.store.get_event(UUID_BASE.format(1))
        local.store.save_event(event)
        report = gateway.sync_cycle()
        assert report.shared == 0
        assert report.unchanged == 3
        assert report.renders == 0

    def test_late_registered_entity_gets_full_backfill(self):
        gateway, local, _peer, _server, _dlq, clock = build_world(4, events=4)
        gateway.sync_cycle()
        late_peer = MispInstance(org="Late", clock=clock)
        gateway.register(ExternalEntity(name="late", transport="misp",
                                        misp_instance=late_peer))
        report = gateway.sync_cycle()
        assert report.shared == 4
        assert late_peer.store.event_count() == 4

    @pytest.mark.parametrize("entities", [1, 8])
    def test_one_feed_read_per_cycle(self, entities, monkeypatch):
        local = MispInstance(org="Local")
        for event in make_events(4):
            local.add_event(event)
        gateway = SharingGateway(local, workers=4)
        for index in range(entities):
            gateway.register(ExternalEntity(name=f"partner-{index}",
                                            transport="stix-download"))
        reads = []
        feed = local.store.changes_since

        def spy(*args, **kwargs):
            reads.append(args)
            return feed(*args, **kwargs)

        monkeypatch.setattr(local.store, "changes_since", spy)
        report = gateway.sync_cycle()
        assert len(reads) == 1
        assert report.shared == 4 * entities


class TestFailureSemantics:
    def test_failed_share_has_zero_payload_bytes(self):
        plan = FaultPlan(rules=[FaultRule(component="share", key="peer-misp",
                                          rate=1.0)])
        gateway, *_ = build_world(1, events=3, fault_plan=plan,
                                  breaker_threshold=99)
        report = gateway.sync_cycle()
        failed = [r for r in report.records if r.entity == "peer-misp"]
        assert failed and all(not r.ok for r in failed)
        assert all(r.payload_bytes == 0 for r in failed)

    def test_failed_share_does_not_advance_watermark(self):
        plan = FaultPlan(rules=[FaultRule(component="share", key="peer-misp",
                                          rate=1.0)])
        gateway, local, *_ = build_world(1, events=3, fault_plan=plan,
                                         breaker_threshold=99)
        gateway.sync_cycle()
        assert gateway.watermarks()["peer-misp"] == 0
        # The fault-free entities advanced to the cursor.
        cursor = local.store.max_audit_seq()
        assert gateway.watermarks()["cert-taxii"] == cursor
        assert gateway.watermarks()["legacy"] == cursor

    def test_partial_failure_blocks_at_first_failed_seq(self):
        # Events 0-1 fail (2 attempts each with 1 retry = calls 0..3),
        # events 2+ succeed: the watermark holds at the failed prefix but
        # the digest ledger remembers the successes.
        plan = FaultPlan(rules=[FaultRule(component="share", key="peer-misp",
                                          from_call=0, until_call=4)])
        gateway, local, peer, _server, _dlq, _clock = build_world(
            1, events=4, fault_plan=plan, breaker_threshold=99)
        report = gateway.sync_cycle()
        peer_records = [r for r in report.records if r.entity == "peer-misp"]
        assert [r.ok for r in peer_records] == [False, False, True, True]
        assert gateway.watermarks()["peer-misp"] == 0
        # Clearing the fault and re-syncing shares only the failed prefix.
        gateway.fault_injector.clear()
        second = gateway.sync_cycle()
        reshared = [r for r in second.records
                    if r.entity == "peer-misp" and r.ok]
        assert {r.event_uuid for r in reshared} == {
            UUID_BASE.format(0), UUID_BASE.format(1)}
        assert second.unchanged == 2  # the two earlier successes
        assert gateway.watermarks()["peer-misp"] == \
            local.store.max_audit_seq()
        assert peer.store.event_count() == 4

    def test_breaker_opens_and_skips_remaining_events(self):
        plan = FaultPlan(rules=[FaultRule(component="share", key="peer-misp",
                                          rate=1.0)])
        gateway, *_ = build_world(1, events=6, fault_plan=plan,
                                  retries=0, breaker_threshold=3)
        report = gateway.sync_cycle()
        assert report.failed == 3
        assert report.breaker_skipped == 3
        assert gateway.breakers.states()["peer-misp"] == "open"
        # Breaker-skipped events leave no record and hold the watermark.
        assert len([r for r in report.records
                    if r.entity == "peer-misp"]) == 3
        assert gateway.watermarks()["peer-misp"] == 0

    def test_refused_events_do_not_block_watermark(self):
        clock = SimulatedClock(PAPER_NOW)
        local = MispInstance(org="Local", clock=clock)
        events = make_events(3)
        mark_tlp(events[1], "red")  # TLP:RED never leaves the organisation
        for event in events:
            local.add_event(event)
        policy = SharingPolicy()
        policy.set_clearance("legacy", "amber")
        gateway = SharingGateway(local, policy, workers=2, clock=clock)
        gateway.register(ExternalEntity(name="legacy",
                                        transport="stix-download"))
        report = gateway.sync_cycle()
        assert report.refused == 1
        assert report.shared == 2
        assert gateway.watermarks()["legacy"] == local.store.max_audit_seq()
        refused = [r for r in report.records if not r.ok]
        assert len(refused) == 1
        assert refused[0].payload_bytes == 0
        # The refusal is terminal for this content version: no re-record.
        assert gateway.sync_cycle().refused == 0

    def test_misp_distribution_skip_is_terminal(self):
        clock = SimulatedClock(PAPER_NOW)
        local = MispInstance(org="Local", clock=clock)
        event = MispEvent(info="org-only", uuid=UUID_BASE.format(0),
                          distribution=Distribution.ORGANISATION_ONLY)
        event.add_attribute(MispAttribute(type="ip-src", value="10.9.9.9"))
        local.add_event(event)
        peer = MispInstance(org="Peer", clock=clock)
        gateway = SharingGateway(local, clock=clock)
        gateway.register(ExternalEntity(name="peer", transport="misp",
                                        misp_instance=peer))
        report = gateway.sync_cycle()
        assert report.skipped == 1
        record = report.records[0]
        assert not record.ok and record.payload_bytes == 0
        assert not peer.store.has_event(event.uuid)
        # Terminal: watermark advanced, nothing pending.
        assert gateway.watermarks()["peer"] == local.store.max_audit_seq()
        assert gateway.sync_cycle().events_considered == 0


class TestDeadLetterReplay:
    def test_failed_shares_quarantine_with_kind_share(self):
        plan = FaultPlan(rules=[FaultRule(component="share", key="peer-misp",
                                          rate=1.0)])
        gateway, _local, _peer, _server, dlq, _clock = build_world(
            1, events=3, fault_plan=plan, breaker_threshold=99)
        gateway.sync_cycle()
        letters = dlq.entries()
        assert len(letters) == 3
        assert all(l.kind == KIND_SHARE for l in letters)
        assert all(l.entity == "peer-misp" for l in letters)
        assert all(l.source == "share:peer-misp" for l in letters)

    def test_replay_requeues_while_breaker_open(self):
        plan = FaultPlan(rules=[FaultRule(component="share", key="peer-misp",
                                          rate=1.0)])
        gateway, _local, _peer, _server, dlq, _clock = build_world(
            1, events=4, fault_plan=plan, retries=0, breaker_threshold=3)
        gateway.sync_cycle()
        assert gateway.breakers.states()["peer-misp"] == "open"
        gateway.fault_injector.clear()
        report = dlq.replay(gateway=gateway)
        assert report.shares_replayed == 0
        assert report.requeued == len(dlq) > 0

    def test_replay_after_recovery_delivers_and_ledger_self_heals(self):
        plan = FaultPlan(rules=[FaultRule(component="share", key="peer-misp",
                                          rate=1.0)])
        gateway, local, peer, _server, dlq, clock = build_world(
            1, events=3, fault_plan=plan, breaker_threshold=99,
            breaker_cooldown=300.0)
        gateway.sync_cycle()
        assert peer.store.event_count() == 0
        gateway.fault_injector.clear()
        clock.advance(dt.timedelta(seconds=301))
        report = dlq.replay(gateway=gateway)
        assert report.shares_replayed == 3
        assert report.requeued == 0
        assert peer.store.event_count() == 3
        # The replay recorded the digests, so the next cycle re-shares
        # nothing and the watermark self-heals to the cursor.
        follow_up = gateway.sync_cycle()
        assert follow_up.shared == 0
        assert follow_up.unchanged == 3
        assert gateway.watermarks()["peer-misp"] == \
            local.store.max_audit_seq()

    def test_share_letters_survive_save_load_round_trip(self, tmp_path):
        plan = FaultPlan(rules=[FaultRule(component="share", key="peer-misp",
                                          rate=1.0)])
        gateway, _local, _peer, _server, dlq, clock = build_world(
            1, events=2, fault_plan=plan, breaker_threshold=99)
        gateway.sync_cycle()
        path = str(tmp_path / "dlq.json")
        dlq.save(path)
        fresh = DeadLetterQueue(clock=clock)
        assert fresh.load(path) == 2
        letters = fresh.entries()
        assert all(l.kind == KIND_SHARE and l.entity == "peer-misp"
                   for l in letters)
        assert {l.event.uuid for l in letters} == {
            UUID_BASE.format(0), UUID_BASE.format(1)}


class TestPlatformIntegration:
    @pytest.fixture
    def platform(self):
        from repro.core import ContextAwareOSINTPlatform, PlatformConfig
        return ContextAwareOSINTPlatform.build_default(
            PlatformConfig(feed_entries=12, share_workers=4))

    def test_share_stage_runs_when_entities_registered(self, platform):
        peer = MispInstance(org="Peer", clock=platform.clock)
        platform.gateway.register(ExternalEntity(
            name="partner", transport="misp", misp_instance=peer))
        report = platform.run_cycle()
        assert report.shares_sent > 0
        assert report.share_failures == 0
        assert "share" in report.timings
        assert peer.store.event_count() > 0

    def test_share_stage_noop_without_entities(self, platform):
        report = platform.run_cycle()
        assert report.shares_sent == 0
        assert "share" not in report.timings

    def test_health_includes_entity_breakers_and_share_stage(self, platform):
        platform.gateway.register(ExternalEntity(
            name="partner", transport="stix-download"))
        platform.run_cycle()
        health = platform.health()
        names = {c.component for c in health.components}
        assert "entity:partner" in names
        assert "stage:share" in names

    def test_config_workers_reach_gateway(self):
        from repro.core import ContextAwareOSINTPlatform, PlatformConfig
        platform = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(feed_entries=12, share_workers=2))
        assert platform.gateway.workers == 2

    def test_replay_deadletters_drains_share_quarantine(self, platform):
        peer = MispInstance(org="Peer", clock=platform.clock)
        platform.gateway.register(ExternalEntity(
            name="partner", transport="misp", misp_instance=peer))
        platform.gateway.fault_injector = FaultInjector(FaultPlan(rules=[
            FaultRule(component="share", key="partner", rate=1.0)]))
        report = platform.run_cycle()
        assert report.share_failures > 0
        assert any(l.kind == KIND_SHARE for l in platform.deadletters.entries())
        platform.gateway.fault_injector = None
        platform.clock.advance(dt.timedelta(seconds=1000))
        replay = platform.replay_deadletters()
        assert replay.shares_replayed > 0
        assert not any(l.kind == KIND_SHARE
                       for l in platform.deadletters.entries())
        assert peer.store.event_count() > 0


class TestGatewayValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(SharingError):
            SharingGateway(MispInstance(), workers=0)

    def test_unknown_entity_lookup(self):
        gateway = SharingGateway(MispInstance())
        with pytest.raises(SharingError):
            gateway.entity("ghost")

    def test_digest_is_content_stable(self):
        a = make_events(1)[0]
        b = MispEvent(info="intel report 0", uuid=UUID_BASE.format(0),
                      distribution=Distribution.ALL_COMMUNITIES)
        b.add_attribute(MispAttribute(type="ip-src", value="198.51.100.1"))
        b.add_attribute(MispAttribute(type="domain", value="bad0.example"))
        # Same content but fresh attribute UUIDs: digests differ...
        assert event_digest(a) != event_digest(b)
        # ...while re-reading the same event is digest-stable.
        store_round_trip = MispEvent.from_dict(a.to_dict())
        assert event_digest(a) == event_digest(store_round_trip)
