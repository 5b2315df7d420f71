"""Partition-tolerant federation backbone tests.

The headline guarantee (docs/FEDERATION.md): a 10-org federation that
suffers a scripted partition, keeps operating in both halves (including a
sighting raised far from its event's origin), then heals, replays its
dead-letter quarantines and runs anti-entropy, converges **byte-identically**
— every org's full store fingerprint (events, correlations, sync ledger,
provenance lineage) equals the fault-free baseline's.

Unit layers covered on the way there: topology routing, backbone delivery
and accounting, the fault injector's ``link`` seam
(``partition``/``heal``/``lossy``), the anti-entropy preference rule and
repair protocol, the sightings feedback loop, the TLP trust boundary
at the backbone edge, the receiver's refusal of malformed messages, and
the wire document of a hop (the release copy, encoded once per event per
cycle).
"""

import datetime as dt
import math
import sys

import pytest

from repro.clock import PAPER_NOW, SimulatedClock
from repro.core import threat_score_of
from repro.errors import ConfigurationError, SharingError
from repro.federation import (
    Federation,
    InMemoryBackbone,
    KIND_EVENT,
    SimulatedNetworkBackbone,
    Topology,
    build_offer,
    chain,
    handle_offer,
    hub_and_spoke,
    mesh,
    prefers_incoming,
    store_state,
)
from repro.misp import (
    Distribution,
    MispAttribute,
    MispEvent,
    MispInstance,
    MispObject,
    SharingGroup,
)
from repro.misp.export import from_misp_json, to_misp_json
from repro.misp.store import VAR_BUDGET
from repro.obs import MetricsRegistry
from repro.resilience import FaultInjector, FaultPlan, FaultRule, link_key
from repro.sharing import SharingPolicy, Tlp, event_digest, mark_tlp


def make_intel(index, ts, distribution=Distribution.ALL_COMMUNITIES):
    """One deterministic green-marked event (content-derived uuids)."""
    event = MispEvent(
        info=f"intel {index}",
        uuid=f"11111111-1111-4111-8111-{index:012d}",
        distribution=distribution,
        timestamp=ts)
    event.add_attribute(MispAttribute(
        type="ip-src", value=f"203.0.113.{index + 1}",
        uuid=f"22222222-2222-4222-8222-{index:012d}",
        timestamp=ts))
    mark_tlp(event, "green")
    return event


def seed(federation, org, start, count, ts):
    """Add ``count`` events at ``org`` and enrich them before sharing."""
    node = federation.node(org)
    for index in range(start, start + count):
        node.misp.add_event(make_intel(index, ts))
    node.heuristics.process_pending()


class TestTopology:
    def test_mesh_links_every_ordered_pair(self):
        topo = mesh(["a", "b", "c"])
        assert set(topo.links) == {("a", "b"), ("a", "c"), ("b", "a"),
                                   ("b", "c"), ("c", "a"), ("c", "b")}
        assert topo.neighbors("a") == ["b", "c"]

    def test_hub_and_spoke_is_bidirectional_star(self):
        topo = hub_and_spoke("hub", ["s1", "s2"])
        assert set(topo.links) == {("hub", "s1"), ("s1", "hub"),
                                   ("hub", "s2"), ("s2", "hub")}

    def test_chain_is_one_way(self):
        topo = chain(["a", "b", "c"])
        assert topo.links == (("a", "b"), ("b", "c"))
        assert topo.next_hop("a", "c") == "b"
        assert topo.next_hop("c", "a") is None  # no reverse path

    def test_next_hop_is_first_hop_of_shortest_path(self):
        topo = hub_and_spoke("hub", ["s1", "s2", "s3"])
        assert topo.next_hop("s1", "s3") == "hub"
        assert topo.next_hop("hub", "s2") == "s2"
        assert topo.next_hop("s1", "s1") is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Topology(orgs=("a", "a"), links=())
        with pytest.raises(ConfigurationError):
            Topology(orgs=("a", "b"), links=(("a", "ghost"),))
        with pytest.raises(ConfigurationError):
            Topology(orgs=("a", "b"), links=(("a", "a"),))
        with pytest.raises(ConfigurationError):
            Topology(orgs=("a", "b"), links=(("a", "b"), ("a", "b")))


class TestBackbone:
    def test_transmit_delivers_and_accounts(self):
        backbone = InMemoryBackbone()
        seen = []
        backbone.connect("b", lambda src, kind, payload:
                         seen.append((src, kind, payload)) or {"ok": True})
        response = backbone.transmit("a", "b", "ping", {"x": 1})
        assert response == {"ok": True}
        assert seen == [("a", "ping", {"x": 1})]
        stats = backbone.stats[("a", "b")]
        assert stats.messages == 1 and stats.bytes > 0
        assert backbone.bytes_sent("a") == stats.bytes
        assert backbone.total_bytes() == stats.bytes

    def test_unknown_destination_raises(self):
        backbone = InMemoryBackbone()
        with pytest.raises(SharingError):
            backbone.transmit("a", "ghost", "ping", {})

    def test_duplicate_connect_raises(self):
        backbone = InMemoryBackbone()
        backbone.connect("a", lambda *_: {})
        with pytest.raises(SharingError):
            backbone.connect("a", lambda *_: {})

    def test_metrics_account_per_link(self):
        registry = MetricsRegistry()
        backbone = InMemoryBackbone(metrics=registry)
        backbone.connect("b", lambda *_: {})
        backbone.transmit("a", "b", "event", {"x": 1})
        messages = registry.counter("caop_federation_messages_total")
        assert messages.value(src="a", dst="b", kind="event") == 1
        assert registry.gauge("caop_federation_link_up").value(
            src="a", dst="b") == 1


class TestLinkFaults:
    def test_partition_blocks_and_heal_restores(self):
        injector = FaultInjector()
        backbone = SimulatedNetworkBackbone(injector)
        backbone.connect("b", lambda *_: {"ok": True})
        injector.partition(["a"], ["b"])
        with pytest.raises(SharingError):
            backbone.transmit("a", "b", "ping", {})
        assert backbone.stats[("a", "b")].failures == 1
        injector.heal()
        assert backbone.transmit("a", "b", "ping", {}) == {"ok": True}

    def test_partition_spares_unlisted_orgs(self):
        injector = FaultInjector()
        injector.partition(["a"], ["b"])
        injector.check_link("a", "c")  # c is in no group: reachable
        injector.check_link("c", "b")
        with pytest.raises(SharingError):
            injector.check_link("b", "a")

    def test_partition_groups_must_be_disjoint(self):
        with pytest.raises(ConfigurationError):
            FaultInjector().partition(["a", "b"], ["b", "c"])

    def test_lossy_link_drops_deterministically(self):
        def drops(injector):
            out = []
            for _ in range(20):
                try:
                    injector.check_link("a", "b")
                    out.append(False)
                except SharingError:
                    out.append(True)
            return out

        first, second = FaultInjector(), FaultInjector()
        first.lossy("a", "b", 0.5)
        second.lossy("a", "b", 0.5)
        schedule = drops(first)
        assert schedule == drops(second)  # same hash-draw schedule
        assert any(schedule) and not all(schedule)
        # The reverse direction is a different seam key: unaffected.
        first.check_link("b", "a")

    def test_scripted_plan_rules_cover_the_link_seam(self):
        plan = FaultPlan(rules=[FaultRule(
            component="link", key=link_key("a", "b"), calls=(0,),
            reason="flap")])
        injector = FaultInjector(plan)
        with pytest.raises(SharingError):
            injector.check_link("a", "b")
        injector.check_link("a", "b")  # only call #0 faults
        assert injector.injected[("link", "a->b")] == 1

    def test_metrics_count_link_failures(self):
        registry = MetricsRegistry()
        injector = FaultInjector()
        backbone = SimulatedNetworkBackbone(injector, metrics=registry)
        backbone.connect("b", lambda *_: {})
        injector.partition(["a"], ["b"])
        with pytest.raises(SharingError):
            backbone.transmit("a", "b", "ping", {})
        failures = registry.counter("caop_federation_link_failures_total")
        assert failures.value(src="a", dst="b") == 1
        assert registry.gauge("caop_federation_link_up").value(
            src="a", dst="b") == 0


class TestPrefersIncoming:
    def test_equal_digests_never_replace(self):
        assert not prefers_incoming(5, "aa", 1, "aa")

    def test_newer_timestamp_wins(self):
        assert prefers_incoming(2, "aa", 1, "zz")
        assert not prefers_incoming(1, "zz", 2, "aa")

    def test_timestamp_tie_breaks_on_digest_symmetrically(self):
        # Both replicas agree on the same survivor whichever side offers.
        assert prefers_incoming(1, "bb", 1, "aa")
        assert not prefers_incoming(1, "aa", 1, "bb")


class TestAntiEntropy:
    def build_pair(self):
        clock = SimulatedClock(PAPER_NOW)
        return Federation(mesh(["left", "right"]), clock=clock)

    def test_divergent_replicas_converge_onto_one_survivor(self):
        federation = self.build_pair()
        # Same uuid, same timestamp, different content on the two sides —
        # the shape a conflicting concurrent edit leaves behind.
        for org, info in (("left", "variant A"), ("right", "variant B")):
            event = make_intel(0, PAPER_NOW)
            event.info = info
            federation.node(org).misp.add_event(event)
        reports = federation.reconcile()
        assert sum(r["repaired"] for r in reports.values()) == 1
        blobs = set(federation.event_blobs().values())
        assert len(blobs) == 1

    def test_healthy_links_repair_nothing(self):
        federation = self.build_pair()
        seed(federation, "left", 0, 2, PAPER_NOW)
        federation.run_round()
        before = federation.fingerprints()
        reports = federation.reconcile()
        assert all(r["repaired"] == 0 and r["wanted"] == 0
                   for r in reports.values())
        assert all(r["offered"] == 2 for r in reports.values())
        assert federation.fingerprints() == before  # a pure read
        # With no store change since, a second pass decodes nothing on
        # either end of either link.
        stores = [node.misp.store for node in federation.nodes.values()]
        decoded = [store.payloads_deserialized for store in stores]
        assert federation.reconcile() == reports
        assert [store.payloads_deserialized for store in stores] == decoded

    def test_offer_matches_a_full_decode(self):
        federation = Federation(mesh(["left", "right", "third"]),
                                clock=SimulatedClock(PAPER_NOW))
        node = federation.node("left")
        known = SharingGroup(name="pair", organisations={"left", "right"})
        learned = SharingGroup(name="later", organisations={"left", "right"})
        node.misp.sharing_groups[known.uuid] = known
        shapes = [
            (Distribution.CONNECTED_COMMUNITIES, "green", None),
            (Distribution.CONNECTED_COMMUNITIES, None, None),
            (Distribution.ALL_COMMUNITIES, "green", None),
            (Distribution.ALL_COMMUNITIES, "amber", None),
            (Distribution.ALL_COMMUNITIES, "red", None),
            (Distribution.ALL_COMMUNITIES, None, None),
            (Distribution.ORGANISATION_ONLY, "green", None),
            (Distribution.SHARING_GROUP, "green", known),
            (Distribution.SHARING_GROUP, "amber", known),
            (Distribution.SHARING_GROUP, "green", learned),
        ]
        events = []
        for index, (distribution, tlp, group) in enumerate(shapes):
            event = make_intel(index, PAPER_NOW)
            event.distribution = distribution
            if group is not None:
                event.sharing_group_id = group.uuid
            if tlp is None:
                event.tags = []
            else:
                mark_tlp(event, tlp)
            events.append(event)
        node.misp.add_events(events)

        def reference_offer(dst):
            # A full decode: every stored event through both gates,
            # digested as the wire copy it would be sent as.
            offer = {}
            for event in sorted(node.misp.store.list_events(),
                                key=lambda e: e.uuid):
                ok, _group, _reason = node.misp.release_gate(event, dst)
                marking = node.policy.marking_of(event)
                if not ok or marking == Tlp.RED or not Tlp.at_most(
                        marking, node.policy.clearance_of(dst)):
                    continue
                copy = node.misp.release_copy(event)
                offer[event.uuid] = {"digest": event_digest(copy),
                                     "ts": int(copy.timestamp.timestamp())}
            return offer

        def check():
            built = {dst: build_offer(node, dst) for dst in ("right", "third")}
            assert built == {dst: reference_offer(dst)
                             for dst in ("right", "third")}
            return built

        first = check()
        # Connected communities reach a hop further only downgraded.
        assert first["right"][events[0].uuid]["digest"] != \
            event_digest(events[0])
        updated = MispEvent.from_dict(events[2].to_dict())
        updated.info = "intel 2, revised"
        updated.timestamp = PAPER_NOW + dt.timedelta(minutes=5)
        node.misp.add_event(updated)
        node.misp.store.delete_event(events[0].uuid)
        check()
        # Gate inputs that live outside the store change after the index
        # is built; the next offer sees them.
        node.policy.set_clearance("right", Tlp.AMBER)
        node.misp.sharing_groups[learned.uuid] = learned
        last = check()
        assert set(first["right"]) - set(last["right"]) == {events[0].uuid}
        assert set(last["right"]) - set(first["right"]) == {
            events[index].uuid for index in (1, 3, 5, 8, 9)}
        assert set(last["third"]) == set(first["third"]) - {events[0].uuid}

    def test_ledger_and_lineage_are_written_once_per_pass(self):
        federation = self.build_pair()
        left = federation.node("left")
        store = left.misp.store

        def repair_pass(start, count):
            left.misp.add_events(
                [make_intel(index, PAPER_NOW)
                 for index in range(start, start + count)])
            before = store.sql_statements
            assert left.reconcile_with("right")["repaired"] == count
            return store.sql_statements - before

        assert repair_pass(0, 1) == repair_pass(1, 20)
        assert store.sync_digest_count("right") == 21

    def test_link_failure_mid_pass_keeps_the_accepted_repairs(self):
        # Link call 0 carries the offer, so call 3 is the third repair.
        plan = FaultPlan(rules=[FaultRule(
            component="link", key=link_key("left", "right"), calls=(3,))])
        federation = Federation(
            mesh(["left", "right"]),
            backbone=SimulatedNetworkBackbone(FaultInjector(plan)),
            clock=SimulatedClock(PAPER_NOW))
        left = federation.node("left")
        events = [make_intel(index, PAPER_NOW) for index in range(5)]
        left.misp.add_events(events)
        with pytest.raises(SharingError):
            left.reconcile_with("right")
        store = left.misp.store
        assert store.sync_digest_count("right") == 2
        shared = [row for event in events
                  for row in store.provenance_for_event(event.uuid)
                  if row["kind"] == "shared-to"]
        assert len(shared) == 2
        assert federation.node("right").misp.store.event_count() == 2

    def test_offer_respects_release_gate_and_tlp(self):
        federation = self.build_pair()
        node = federation.node("left")
        node.misp.add_event(make_intel(0, PAPER_NOW))
        secret = make_intel(1, PAPER_NOW,
                            distribution=Distribution.ORGANISATION_ONLY)
        node.misp.add_event(secret)
        red = make_intel(2, PAPER_NOW)
        mark_tlp(red, "red")
        node.misp.add_event(red)
        from repro.federation import build_offer
        offer = build_offer(node, "right")
        assert set(offer) == {make_intel(0, PAPER_NOW).uuid}

    def test_offer_is_probed_in_chunked_batches(self):
        federation = self.build_pair()
        store = federation.node("right").misp.store
        older, newer = make_intel(0, PAPER_NOW), make_intel(1, PAPER_NOW)
        store.save_events([older, newer])
        later = int(PAPER_NOW.timestamp()) + 60
        offer = {make_intel(i, PAPER_NOW).uuid: {"digest": "d", "ts": later}
                 for i in range(1, 1000)}
        offer[older.uuid] = {"digest": "d", "ts": 0}
        before = store.sql_statements
        response = handle_offer(federation.node("right"), "left",
                                {"offer": offer})
        assert store.sql_statements - before <= \
            math.ceil(len(offer) / VAR_BUDGET)
        # Unknown uuids and the newer offered copy are wanted; the held
        # copy that is newer than the offer is not.
        assert response["want"] == sorted(set(offer) - {older.uuid})


#: A valid TLP:GREEN event document.
GREEN = to_misp_json(make_intel(0, PAPER_NOW))


class TestInboundEvents:
    def test_refused_copies_cost_one_receiver_statement(self):
        federation = Federation(mesh(["left", "right"]),
                                clock=SimulatedClock(PAPER_NOW))
        receiver = federation.node("right")
        receiver.misp.add_event(make_intel(0, PAPER_NOW))
        store = receiver.misp.store

        def relay(event, **extra):
            before = store.sql_statements, store.payloads_deserialized
            reply = federation.node("left").backbone.transmit(
                "left", "right", KIND_EVENT,
                {"document": to_misp_json(event), **extra})
            return (reply, store.sql_statements - before[0],
                    store.payloads_deserialized - before[1])

        # One statement each, and the held copy is never decoded.
        assert relay(make_intel(0, PAPER_NOW)) == \
            ({"accepted": False, "reason": "duplicate"}, 1, 0)
        older = make_intel(0, PAPER_NOW - dt.timedelta(hours=1))
        assert relay(older, reconcile=True) == \
            ({"accepted": False, "reason": "stale"}, 1, 0)

    @pytest.mark.parametrize("body", [
        pytest.param('{"Event": {"info": "x", "Attribute": [{"type": "domain",'
                     ' "value": "a\\ud800.example"}]}}', id="lone-surrogate"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000"),
        pytest.param("{", id="invalid-json"),
        pytest.param("[]", id="list"),
        pytest.param('{"Event": 5}', id="event-int"),
    ])
    def test_malformed_document_is_refused(self, body):
        federation = Federation(mesh(["left", "right"]),
                                clock=SimulatedClock(PAPER_NOW))
        reply = federation.backbone.transmit(
            "left", "right", KIND_EVENT, {"document": body})
        assert reply == {"accepted": False, "reason": "malformed document"}
        assert federation.node("right").misp.store.event_count() == 0

    @pytest.mark.parametrize("message, reason", [
        pytest.param({"document": GREEN, "sharing_group": 5},
                     "malformed message", id="group-int"),
        pytest.param({"document": GREEN, "sharing_group": {"uuid": 1}},
                     "malformed message", id="group-uuid-int"),
        pytest.param({}, "malformed document", id="no-document"),
        pytest.param({"document": 5}, "malformed document",
                     id="document-int"),
        pytest.param({"document": GREEN, "trace": 5}, "malformed message",
                     id="trace-int"),
        pytest.param({"document": GREEN, "trace": {"path": 5}},
                     "malformed message", id="trace-path-int"),
    ])
    def test_malformed_message_is_refused_before_any_write(self, message,
                                                           reason):
        federation = Federation(mesh(["left", "right"]),
                                clock=SimulatedClock(PAPER_NOW))
        reply = federation.backbone.transmit(
            "left", "right", KIND_EVENT, message)
        assert reply == {"accepted": False, "reason": reason}
        receiver = federation.node("right")
        assert receiver.misp.store.event_count() == 0
        assert receiver.misp.store.provenance_count() == 0
        assert receiver.misp.sharing_groups == {}
        assert receiver.origins == {}


def shaped_events(group):
    """An all-communities, a connected-communities, a sharing-group and an
    object-bearing event, all TLP:GREEN."""
    everyone, connected, grouped, with_object = (
        make_intel(index, PAPER_NOW) for index in range(4))
    connected.distribution = Distribution.CONNECTED_COMMUNITIES
    grouped.distribution = Distribution.SHARING_GROUP
    grouped.sharing_group_id = group.uuid
    grouped.info = "intel 2, caf\u00e9 \u2603"
    sample = MispObject(name="file",
                        uuid="33333333-3333-4333-8333-000000000003")
    sample.add_attribute(MispAttribute(
        type="sha256", value="ab" * 32,
        uuid="44444444-4444-4444-8444-000000000003", timestamp=PAPER_NOW),
        "sha256")
    with_object.objects.append(sample)
    return [everyone, connected, grouped, with_object]


def wire_encodes(monkeypatch):
    """Record every ``to_misp_json`` call made through a ``repro`` module."""
    calls = []

    def counting(event, *args, **kwargs):
        calls.append(event.uuid)
        return to_misp_json(event, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and \
                getattr(module, "to_misp_json", None) is to_misp_json:
            monkeypatch.setattr(module, "to_misp_json", counting)
    return calls


class TestWireDocument:
    """What crosses a hop: the release copy, encoded once per cycle."""

    def pair_with_shapes(self):
        federation = Federation(mesh(["left", "right"]),
                                clock=SimulatedClock(PAPER_NOW))
        left = federation.node("left")
        group = left.misp.create_sharing_group("pair", ["left", "right"])
        events = shaped_events(group)
        left.misp.add_events(events)
        left.heuristics.process_pending()
        return federation, events

    @pytest.mark.parametrize("deliver", ["sync", "reconcile"])
    def test_every_document_is_the_release_copy(self, deliver):
        federation, events = self.pair_with_shapes()
        sent = []
        transmit = federation.backbone.transmit

        def recording(src, dst, kind, payload):
            if kind == KIND_EVENT:
                sent.append((src, payload["document"]))
            return transmit(src, dst, kind, payload)

        federation.backbone.transmit = recording
        if deliver == "sync":
            federation.run_round()
        else:
            federation.reconcile()
        uuids = set()
        for src, document in sent:
            uuid = from_misp_json(document).uuid
            stored = federation.node(src).misp.store.get_event(uuid)
            assert document == to_misp_json(MispInstance.release_copy(stored))
            if src == "left":
                uuids.add(uuid)
        assert uuids == {event.uuid for event in events}

    def test_planned_digests_are_event_digests(self):
        federation, events = self.pair_with_shapes()
        red = make_intel(4, PAPER_NOW)
        mark_tlp(red, "red")
        federation.node("left").misp.add_event(red)
        plans, _cache = federation.node("left").gateway.plan_cycle()
        items = [item for plan in plans for item in plan.items]
        assert sorted(item.kind for item in items) == \
            ["refused"] + ["share"] * len(events)
        for item in items:
            assert item.digest == event_digest(item.event)

    @pytest.mark.parametrize("spokes", [2, 8])
    def test_hub_encodes_a_relayed_event_once_per_cycle(self, spokes,
                                                       monkeypatch):
        names = [f"spoke-{index}" for index in range(spokes)]
        federation = Federation(hub_and_spoke("hub", names),
                                clock=SimulatedClock(PAPER_NOW))
        seed(federation, names[0], 0, 1, PAPER_NOW)
        assert federation.node(names[0]).gateway.sync_cycle().shared == 1
        encodes = wire_encodes(monkeypatch)
        report = federation.node("hub").gateway.sync_cycle()
        # The origin spoke already holds it and refuses the copy.
        assert (report.shared, report.skipped) == (spokes - 1, 1)
        assert encodes == [make_intel(0, PAPER_NOW).uuid]
        assert (report.renders, report.render_hits) == (1, spokes - 1)


class TestSightingsLoop:
    def test_sighting_routes_multi_hop_to_origin_and_rescores(self):
        clock = SimulatedClock(PAPER_NOW)
        federation = Federation(hub_and_spoke("hub", ["s1", "s2"]),
                                clock=clock)
        seed(federation, "s1", 0, 1, PAPER_NOW)
        federation.run(2)  # s1 -> hub, hub -> s2
        uuid = make_intel(0, PAPER_NOW).uuid
        assert federation.node("s2").misp.store.has_event(uuid)
        assert federation.node("s2").origins[uuid] == "s1"

        origin_before = federation.node("s1").misp.store.get_event(uuid)
        score_before = threat_score_of(origin_before)
        federation.node("s2").observe(
            uuid, "203.0.113.1", "edge-fw",
            observed_at=PAPER_NOW + dt.timedelta(seconds=60))
        # The record is parked at the hub until its next flush.
        assert federation.node("hub").pending_sightings
        federation.run(3)
        outcomes = federation.node("s1").rescores
        assert len(outcomes) == 1
        assert outcomes[0].eioc_uuid == uuid
        origin_after = federation.node("s1").misp.store.get_event(uuid)
        assert threat_score_of(origin_after) >= score_before
        assert origin_after.timestamp > origin_before.timestamp
        # The re-scored version flowed back out through normal sync.
        synced = federation.node("s2").misp.store.get_event(uuid)
        assert synced.timestamp == origin_after.timestamp
        assert threat_score_of(synced) == threat_score_of(origin_after)

    def test_local_origin_sighting_applies_immediately(self):
        federation = Federation(mesh(["solo", "peer"]),
                                clock=SimulatedClock(PAPER_NOW))
        seed(federation, "solo", 0, 1, PAPER_NOW)
        uuid = make_intel(0, PAPER_NOW).uuid
        outcome = federation.node("solo").observe(
            uuid, "203.0.113.1", "edge-fw",
            observed_at=PAPER_NOW + dt.timedelta(seconds=30))
        assert outcome is not None
        assert federation.node("solo").rescores == [outcome]


class TestTrustBoundary:
    def test_unmarked_event_hits_default_marking_at_the_boundary(self):
        # The receiver's acceptance ceiling is green; an unmarked event
        # falls back to the policy default (amber) and is refused — never
        # silently shared as if unrestricted.
        federation = Federation(
            mesh(["sender", "strict"]),
            clock=SimulatedClock(PAPER_NOW),
            node_options={"strict": {"accept_ceiling": Tlp.GREEN}})
        node = federation.node("sender")
        unmarked = MispEvent(info="no marking", uuid=make_intel(9, PAPER_NOW).uuid,
                             distribution=Distribution.ALL_COMMUNITIES,
                             timestamp=PAPER_NOW)
        node.misp.add_event(unmarked)
        green = make_intel(1, PAPER_NOW)
        node.misp.add_event(green)
        federation.run(2)
        strict_store = federation.node("strict").misp.store
        assert strict_store.has_event(green.uuid)
        assert not strict_store.has_event(unmarked.uuid)

    def test_outbound_policy_uses_default_marking(self):
        # A red default marking means unmarked events never leave at all.
        federation = Federation(
            mesh(["cautious", "peer"]),
            clock=SimulatedClock(PAPER_NOW),
            node_options={"cautious": {
                "policy": SharingPolicy(default_marking=Tlp.RED)}})
        node = federation.node("cautious")
        unmarked = MispEvent(info="no marking",
                             uuid=make_intel(9, PAPER_NOW).uuid,
                             distribution=Distribution.ALL_COMMUNITIES,
                             timestamp=PAPER_NOW)
        node.misp.add_event(unmarked)
        federation.run(2)
        assert not federation.node("peer").misp.store.has_event(unmarked.uuid)


def drive_partition_scenario(fault, *, topology_name="mesh",
                             seed_mid_partition=False):
    """The scripted acceptance scenario; ``fault=False`` is the baseline.

    Seed three events at org-00, propagate, split 6/4, raise a sighting in
    the far partition (org-08 observes org-00's intel), run partitioned
    rounds, heal, replay dead letters, run recovery rounds, reconcile.
    """
    orgs = [f"org-{i:02d}" for i in range(10)]
    injector = FaultInjector()
    topology = (mesh(orgs) if topology_name == "mesh"
                else hub_and_spoke(orgs[0], orgs[1:]))
    federation = Federation(topology,
                            backbone=SimulatedNetworkBackbone(injector),
                            clock=SimulatedClock(PAPER_NOW))
    seed(federation, orgs[0], 0, 3, PAPER_NOW)
    federation.run_round()
    if fault:
        injector.partition(orgs[:6], orgs[6:])
    if seed_mid_partition:
        seed(federation, orgs[-1], 10, 2,
             PAPER_NOW + dt.timedelta(seconds=30))
    federation.node("org-08").observe(
        make_intel(0, PAPER_NOW).uuid, "203.0.113.1", "edge-fw",
        observed_at=PAPER_NOW + dt.timedelta(seconds=60))
    federation.run(3)
    if fault:
        assert injector.injected_total() > 0
        injector.heal()
        federation.replay_deadletters()
    federation.run(4)
    federation.reconcile()
    federation.run_round()
    return federation


class TestConvergenceAcceptance:
    def test_fingerprint_decodes_each_event_once(self):
        federation = Federation(mesh(["left", "right"]),
                                clock=SimulatedClock(PAPER_NOW))
        seed(federation, "left", 0, 3, PAPER_NOW)
        federation.run_round()
        store = federation.node("right").misp.store
        before = store.payloads_deserialized
        federation.node("right").fingerprint()
        assert store.payloads_deserialized - before == store.event_count()

    def test_mesh_partition_converges_byte_identically(self):
        baseline = drive_partition_scenario(False)
        faulted = drive_partition_scenario(True)
        assert baseline.converged() and faulted.converged()
        base_prints = baseline.fingerprints()
        fault_prints = faulted.fingerprints()
        for org in baseline.topology.orgs:
            assert fault_prints[org] == base_prints[org], org
        # The sighting raised inside the far partition re-scored the
        # originating eIoC after the heal — in both runs.
        assert len(baseline.node("org-00").rescores) == 1
        assert len(faulted.node("org-00").rescores) == 1
        # And the partition genuinely cost nothing extra in payload bytes:
        # dropped transmits never leave the source.
        assert sum(faulted.bytes_by_org().values()) == \
            sum(baseline.bytes_by_org().values())

    def test_hub_partition_converges_byte_identically(self):
        baseline = drive_partition_scenario(False, topology_name="hub")
        faulted = drive_partition_scenario(True, topology_name="hub")
        assert faulted.fingerprints() == baseline.fingerprints()
        assert len(faulted.node("org-00").rescores) == 1

    def test_mid_partition_intel_converges_content_and_sync_state(self):
        # Intel seeded *during* the partition takes a genuinely different
        # physical path after the heal, so the lineage-bearing state
        # (provenance routes, which link's attempt delivered first) records
        # a different — true — history.  Event content, correlations,
        # watermarks and digest *coverage* still converge onto the baseline.
        baseline = drive_partition_scenario(False, seed_mid_partition=True)
        faulted = drive_partition_scenario(True, seed_mid_partition=True)
        assert baseline.converged() and faulted.converged()

        def covered(state):
            # (entity, uuid) -> content digest, terminal prefix stripped.
            return {(entity, uuid): digest.rsplit(":", 1)[-1]
                    for entity, uuid, digest in state["sync"]["digests"]}

        for org in baseline.topology.orgs:
            base = store_state(baseline.node(org).misp.store)
            fault = store_state(faulted.node(org).misp.store)
            assert fault["events"] == base["events"], org
            assert fault["correlations"] == base["correlations"], org
            assert fault["sync"]["watermarks"] == \
                base["sync"]["watermarks"], org
            assert covered(fault) == covered(base), org

    def test_dead_letters_fill_and_drain(self):
        orgs = [f"org-{i:02d}" for i in range(4)]
        injector = FaultInjector()
        federation = Federation(mesh(orgs),
                                backbone=SimulatedNetworkBackbone(injector),
                                clock=SimulatedClock(PAPER_NOW))
        injector.partition(orgs[:2], orgs[2:])
        seed(federation, orgs[0], 0, 2, PAPER_NOW)
        federation.run(3)
        quarantined = sum(len(federation.node(org).deadletters)
                          for org in orgs)
        assert quarantined > 0
        injector.heal()
        replayed = federation.replay_deadletters()
        assert sum(replayed.values()) > 0
        federation.run(2)
        assert all(len(federation.node(org).deadletters) == 0
                   for org in orgs)
        assert federation.converged()
