"""Three-organization federation: chained delta sync A -> B -> C.

Each organization runs its own MISP instance and sharing gateway; B is A's
peer, C is B's.  ALL_COMMUNITIES events propagate the full chain (MISP's
distribution downgrade stops CONNECTED_COMMUNITIES after one hop).  The
harness drives sync rounds with injected transport faults on the A->B hop
and asserts the federation converges byte-for-byte onto the fault-free
baseline once the fault clears, the breaker recovers, and the dead-letter
queue replays.
"""

import datetime as dt
import json

from repro.clock import PAPER_NOW, SimulatedClock
from repro.misp import Distribution, MispAttribute, MispEvent, MispInstance
from repro.resilience import (
    CircuitBreakerBoard,
    DeadLetterQueue,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
)
from repro.sharing import ExternalEntity, SharingGateway

EVENT_UUID = "33333333-3333-4333-8333-{:012d}"
ATTR_UUID = "44444444-4444-4444-8444-{:012d}"

BREAKER_COOLDOWN = 120.0


class Organization:
    """One federation node: a MISP instance plus its sharing gateway."""

    def __init__(self, name, clock, fault_injector=None):
        self.name = name
        self.misp = MispInstance(org=name, clock=clock)
        self.deadletters = DeadLetterQueue(clock=clock)
        self.gateway = SharingGateway(
            self.misp,
            retry_policy=RetryPolicy(max_retries=1, seed=7),
            breakers=CircuitBreakerBoard(
                clock=clock, failure_threshold=2,
                cooldown_seconds=BREAKER_COOLDOWN),
            deadletters=self.deadletters,
            clock=clock,
            fault_injector=fault_injector)

    def peer_with(self, other):
        self.gateway.register(ExternalEntity(
            name=other.name, transport="misp", misp_instance=other.misp))

    def store_blob(self):
        """The node's event content as one canonical, order-free blob."""
        return json.dumps(sorted(
            json.dumps(event.to_dict(), sort_keys=True)
            for event in self.misp.store.list_events()), sort_keys=True)


def seed_events(org, count):
    for index in range(count):
        event = MispEvent(
            info=f"federated intel {index}",
            uuid=EVENT_UUID.format(index),
            distribution=Distribution.ALL_COMMUNITIES)
        event.add_attribute(MispAttribute(
            type="ip-src", value=f"203.0.113.{index + 1}",
            uuid=ATTR_UUID.format(index * 2)))
        event.add_attribute(MispAttribute(
            type="sha256", value=f"{index:064x}",
            uuid=ATTR_UUID.format(index * 2 + 1)))
        org.misp.add_event(event)


def build_federation(fault_injector=None):
    """A -> B -> C chain; the injector (if any) faults the A->B hop."""
    clock = SimulatedClock(PAPER_NOW)
    a = Organization("org-a", clock, fault_injector=fault_injector)
    b = Organization("org-b", clock)
    c = Organization("org-c", clock)
    a.peer_with(b)
    b.peer_with(c)
    seed_events(a, 6)
    return clock, a, b, c


def run_round(*orgs):
    return [org.gateway.sync_cycle() for org in orgs]


class TestChainedSync:
    def test_events_propagate_the_full_chain(self):
        _clock, a, b, c = build_federation()
        run_round(a, b, c)
        assert b.misp.store.event_count() == 6
        assert c.misp.store.event_count() == 6
        assert a.store_blob() == b.store_blob() == c.store_blob()

    def test_chain_needs_one_round_per_hop(self):
        _clock, a, b, c = build_federation()
        a.gateway.sync_cycle()
        assert b.misp.store.event_count() == 6
        assert c.misp.store.event_count() == 0  # B hasn't synced yet
        b.gateway.sync_cycle()
        assert c.misp.store.event_count() == 6

    def test_connected_communities_stops_after_one_hop(self):
        clock = SimulatedClock(PAPER_NOW)
        a = Organization("org-a", clock)
        b = Organization("org-b", clock)
        c = Organization("org-c", clock)
        a.peer_with(b)
        b.peer_with(c)
        event = MispEvent(
            info="one hop only", uuid=EVENT_UUID.format(99),
            distribution=Distribution.CONNECTED_COMMUNITIES)
        event.add_attribute(MispAttribute(
            type="domain", value="hop.example", uuid=ATTR_UUID.format(99)))
        a.misp.add_event(event)
        run_round(a, b, c)
        run_round(a, b, c)
        assert b.misp.store.has_event(event.uuid)
        assert not c.misp.store.has_event(event.uuid)

    def test_steady_state_rounds_share_nothing(self):
        _clock, a, b, c = build_federation()
        run_round(a, b, c)
        reports = run_round(a, b, c)
        assert all(r.shared == 0 for r in reports)
        assert all(r.renders == 0 for r in reports)

    def test_mid_chain_update_propagates(self):
        clock, a, b, c = build_federation()
        run_round(a, b, c)
        updated = a.misp.store.get_event(EVENT_UUID.format(3))
        updated.add_attribute(MispAttribute(
            type="url", value="http://updated.example/payload",
            uuid=ATTR_UUID.format(77)))
        clock.advance(dt.timedelta(seconds=60))
        updated.timestamp = clock.now()
        a.misp.store.save_event(updated)
        run_round(a, b, c)
        assert len(c.misp.store.get_event(EVENT_UUID.format(3)).attributes) == 3
        assert a.store_blob() == b.store_blob() == c.store_blob()


class TestFederationConvergence:
    def fault_plan(self):
        # The A->B transport drops every attempt until cleared.
        return FaultPlan(rules=[FaultRule(
            component="share", key="org-b", rate=1.0,
            reason="injected A->B outage")])

    def converge(self):
        """Run the faulted federation to convergence; returns the nodes."""
        injector = FaultInjector(self.fault_plan())
        clock, a, b, c = build_federation(fault_injector=injector)
        # Rounds under fault: nothing crosses A->B; A's breaker opens and
        # failed shares quarantine.
        run_round(a, b, c)
        run_round(a, b, c)
        assert b.misp.store.event_count() == 0
        assert a.gateway.breakers.states()["org-b"] == "open"
        assert len(a.deadletters) > 0
        # Outage ends: clear the fault, wait out the breaker cooldown,
        # replay the quarantined shares, then sync the chain dry.
        injector.clear()
        clock.advance(dt.timedelta(seconds=BREAKER_COOLDOWN + 1))
        replay = a.deadletters.replay(gateway=a.gateway)
        assert replay.requeued == 0
        for _ in range(3):
            run_round(a, b, c)
        return a, b, c

    def test_federation_converges_onto_fault_free_baseline(self):
        _clock, a0, b0, c0 = build_federation()
        for _ in range(2):
            run_round(a0, b0, c0)
        baseline = c0.store_blob()
        assert baseline == a0.store_blob()

        a, b, c = self.converge()
        assert a.store_blob() == baseline
        assert b.store_blob() == baseline
        assert c.store_blob() == baseline

    def test_watermarks_self_heal_after_recovery(self):
        a, b, c = self.converge()
        for org in (a, b, c):
            cursor = org.misp.store.max_audit_seq()
            for entity, watermark in org.gateway.watermarks().items():
                assert watermark == cursor, (org.name, entity)
        # Fully drained: one more round moves nothing.
        reports = run_round(a, b, c)
        assert all(r.shared == 0 and r.failed == 0 for r in reports)
