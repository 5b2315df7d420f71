"""Partition-tolerant federation backbone tests.

The headline guarantee (docs/FEDERATION.md): a 10-org federation that
suffers a scripted partition, keeps operating in both halves (including a
sighting raised far from its event's origin), then heals, replays its
dead-letter quarantines and runs anti-entropy, converges **byte-identically**
— every org's full store fingerprint (events, correlations, sync ledger,
provenance lineage) equals the fault-free baseline's.

Unit layers covered on the way there: topology routing, backbone delivery
and accounting, the fault injector's ``link`` seam
(``partition``/``heal``/``lossy``), a receiver's store fault as a failed
delivery, the anti-entropy preference rule and repair protocol and the
offer index, the sightings feedback loop, the TLP trust boundary at the
backbone edge, the receiver's refusal of malformed messages, the wire
document of a hop (the release copy, encoded once per event per cycle),
and the echo a receiver no longer sends back to the org it got a version
from.
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
    KIND_DIGEST_OFFER,
    KIND_EVENT,
    KIND_SIGHTING,
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
from repro.federation.antientropy import OfferEntry
from repro.misp import (
    Distribution,
    MispAttribute,
    MispEvent,
    MispInstance,
    MispObject,
    MispTag,
    SharingGroup,
)
from repro.misp.export import from_misp_json, to_misp_json
from repro.misp.store import VAR_BUDGET
from repro.obs import MetricsRegistry
from repro.resilience import FaultInjector, FaultPlan, FaultRule, link_key
from repro.sharing import (
    SharingGateway,
    SharingPolicy,
    Tlp,
    event_digest,
    mark_tlp,
)


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


class TestReceiverFaults:
    def test_a_receiver_store_fault_is_a_failed_delivery(self):
        federation = Federation(mesh(["left", "right", "third"]),
                                clock=SimulatedClock(PAPER_NOW))
        injector = FaultInjector(FaultPlan(rules=[
            FaultRule(component="store", key="*", rate=1.0)]))
        federation.node("right").misp.store.fault_injector = injector
        left = federation.node("left")
        for index in range(3):
            left.misp.add_event(make_intel(index, PAPER_NOW))
        federation.run_round()
        watermarks = left.gateway.watermarks()
        assert watermarks["third"] == left.misp.store.max_audit_seq()
        assert watermarks["right"] == 0
        assert federation.node("third").misp.store.event_count() == 3
        assert federation.backbone.stats[("left", "right")].messages == 0
        assert federation.reconcile()["left->right"]["link_down"] == 1
        injector.clear()
        federation.replay_deadletters()
        federation.run(3)
        assert federation.converged()


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
                copy = MispInstance.wire_form(event)
                offer[event.uuid] = {"digest": event_digest(copy),
                                     "ts": int(copy.timestamp.timestamp())}
            return offer

        def reference_entries():
            # The index entry of every stored event, from a full decode.
            entries = {}
            for event in node.misp.store.list_events():
                names = sorted({tag.name for tag in event.tags})
                entries[event.uuid] = OfferEntry(
                    event.distribution,
                    event.sharing_group_id
                    if event.distribution == Distribution.SHARING_GROUP
                    else None,
                    tuple(MispTag(name) for name in names),
                    int(event.timestamp.timestamp()),
                    event_digest(MispInstance.wire_form(event)),
                    event_digest(event))
            return entries

        store = node.misp.store

        def check(decodes):
            before = store.payloads_deserialized
            built = {dst: build_offer(node, dst) for dst in ("right", "third")}
            # Only connected-communities and sharing-group events that
            # changed are decoded.
            assert store.payloads_deserialized - before == decodes
            assert node.offer_index.entries == reference_entries()
            assert built == {dst: reference_offer(dst)
                             for dst in ("right", "third")}
            return built

        first = check(decodes=5)
        # Connected communities reach a hop further only downgraded.
        assert first["right"][events[0].uuid]["digest"] != \
            event_digest(events[0])
        updated = MispEvent.from_dict(events[2].to_dict())
        updated.info = "intel 2, revised"
        updated.timestamp = PAPER_NOW + dt.timedelta(minutes=5)
        node.misp.add_event(updated)
        node.misp.store.delete_event(events[0].uuid)
        check(decodes=0)
        # Gate inputs that live outside the store change after the index
        # is built; the next offer sees them.
        node.policy.set_clearance("right", Tlp.AMBER)
        node.misp.sharing_groups[learned.uuid] = learned
        last = check(decodes=0)
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
        receiver = federation.node("right")
        store = receiver.misp.store
        held = [make_intel(index, PAPER_NOW) for index in range(1000)]
        store.save_events(held)
        older = held[0]
        later = int(PAPER_NOW.timestamp()) + 60
        offer = {make_intel(index, PAPER_NOW).uuid: {"digest": "d",
                                                     "ts": later}
                 for index in range(1, 1001)}
        offer[older.uuid] = {"digest": "d", "ts": 0}
        # The first answer brings the receiver's index current: one feed
        # read, then its columns in chunked reads, and no decode.
        before = store.sql_statements, store.payloads_deserialized
        first = handle_offer(receiver, "left", {"offer": offer})
        assert (store.sql_statements - before[0],
                store.payloads_deserialized - before[1]) == \
            (1 + math.ceil(len(held) / VAR_BUDGET), 0)
        # Once it is current, a 1,000-uuid offer costs the feed read alone.
        before = store.sql_statements, store.payloads_deserialized
        response = handle_offer(receiver, "left", {"offer": offer})
        assert (store.sql_statements - before[0],
                store.payloads_deserialized - before[1]) == (1, 0)
        assert response == first
        # The unknown uuid and the newer offered copies are wanted; the
        # held copy that is newer than the offer is not.
        assert response["want"] == sorted(set(offer) - {older.uuid})

    def test_offer_answer_matches_a_probe_of_the_stored_blobs(self):
        federation = self.build_pair()
        receiver = federation.node("right")
        store = receiver.misp.store
        group = receiver.misp.create_sharing_group("pair", ["left", "right"])
        held = [make_intel(index, PAPER_NOW) for index in range(5)]
        held[1].distribution = Distribution.CONNECTED_COMMUNITIES
        held[2].distribution = Distribution.SHARING_GROUP
        held[2].sharing_group_id = group.uuid
        held[3].timestamp = PAPER_NOW + dt.timedelta(minutes=1)
        receiver.misp.add_events(held)
        unknown = make_intel(9, PAPER_NOW).uuid
        uuids = [event.uuid for event in held] + [unknown]

        def offers():
            # Each held copy offered equal, older and newer, and on each
            # side of its digest at a timestamp tie.
            stamps = store.event_digests(uuids)
            base = int(PAPER_NOW.timestamp())
            for shift in (-60, 0, 60):
                for digest in (None, "0" * 64, "f" * 64):
                    yield {uuid: {
                        "ts": (stamp[0] if stamp else base) + shift,
                        "digest": digest or (stamp[1] if stamp else "d")}
                        for uuid, stamp in stamps.items()}

        def check():
            for offer in offers():
                stamps = store.event_digests(sorted(offer))
                expected = [uuid for uuid, stamp in stamps.items()
                            if stamp is None or prefers_incoming(
                                offer[uuid]["ts"], offer[uuid]["digest"],
                                *stamp)]
                assert handle_offer(receiver, "left",
                                    {"offer": offer}) == {"want": expected}

        check()
        # A copy changed and a copy deleted after the index was refreshed.
        changed = MispEvent.from_dict(held[0].to_dict())
        changed.info = "intel 0, revised"
        changed.timestamp = PAPER_NOW + dt.timedelta(minutes=5)
        receiver.misp.add_event(changed)
        store.delete_event(held[4].uuid)
        check()


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


#: A routed sighting record of ``make_intel(0)``'s indicator, origin left.
SIGHTING = {"eioc_uuid": make_intel(0, PAPER_NOW).uuid,
            "value": "203.0.113.1", "node": "edge-fw",
            "observed_at": int(PAPER_NOW.timestamp()) + 60, "origin": "left"}


class TestHostileMessages:
    """Offers and sightings a peer cannot use are refused, and offer
    answers it cannot use are trimmed; none of them raises."""

    HELD = make_intel(0, PAPER_NOW).uuid
    #: Held by the sender but never offered: it is organisation-only.
    UNOFFERED = make_intel(1, PAPER_NOW).uuid

    @pytest.mark.parametrize("kind", [KIND_EVENT, KIND_SIGHTING,
                                      KIND_DIGEST_OFFER])
    def test_a_message_that_is_not_a_mapping_is_refused(self, kind):
        federation = Federation(mesh(["left", "right"]),
                                clock=SimulatedClock(PAPER_NOW))
        assert federation.backbone.transmit("left", "right", kind, 5) == \
            {"accepted": False, "reason": "malformed message"}

    @pytest.mark.parametrize("payload", [
        pytest.param({"offer": 5}, id="offer-int"),
        pytest.param({"offer": [1, 2]}, id="offer-list"),
        pytest.param({}, id="no-offer"),
        pytest.param({"offer": {HELD: 5}}, id="entry-int"),
        pytest.param({"offer": {HELD: {"ts": "x", "digest": "d"}}},
                     id="ts-text"),
        pytest.param({"offer": {HELD: {"digest": "d"}}}, id="no-ts"),
        pytest.param({"offer": {HELD: {"ts": 0}}}, id="no-digest"),
    ])
    def test_malformed_offer_is_refused_before_any_read(self, payload):
        federation = Federation(mesh(["left", "right"]),
                                clock=SimulatedClock(PAPER_NOW))
        store = federation.node("right").misp.store
        store.save_event(make_intel(0, PAPER_NOW))
        before = store.sql_statements
        reply = federation.backbone.transmit(
            "left", "right", KIND_DIGEST_OFFER, payload)
        assert reply == {"accepted": False, "reason": "malformed message"}
        assert store.sql_statements == before

    @pytest.mark.parametrize("answer, wanted", [
        pytest.param(5, 0, id="answer-int"),
        pytest.param({"want": 5}, 0, id="want-int"),
        pytest.param({"want": [7, None]}, 0, id="want-not-text"),
        pytest.param({"want": "abc"}, 0, id="want-text"),
        pytest.param({"want": [UNOFFERED]}, 0, id="want-unoffered"),
        pytest.param({"want": [HELD, HELD]}, 1, id="want-twice"),
    ])
    def test_an_offer_answer_wants_only_what_was_offered(self, answer,
                                                         wanted):
        federation = Federation(mesh(["left", "right"]),
                                clock=SimulatedClock(PAPER_NOW))
        left = federation.node("left")
        left.misp.add_events([
            make_intel(0, PAPER_NOW),
            make_intel(1, PAPER_NOW,
                       distribution=Distribution.ORGANISATION_ONLY)])
        transmit = federation.backbone.transmit

        def answering(src, dst, kind, payload):
            if kind == KIND_DIGEST_OFFER:
                return answer
            return transmit(src, dst, kind, payload)

        federation.backbone.transmit = answering
        assert left.reconcile_with("right") == \
            {"offered": 1, "wanted": wanted, "repaired": wanted}
        assert federation.node("right").misp.store.event_count() == wanted

    @pytest.mark.parametrize("record", [
        pytest.param({}, id="empty"),
        pytest.param({**SIGHTING, "origin": 5}, id="origin-int"),
        pytest.param({**SIGHTING, "origin": "ghost"}, id="origin-unknown"),
        pytest.param({**SIGHTING, "eioc_uuid": None}, id="no-eioc"),
        pytest.param({**SIGHTING, "value": ""}, id="value-empty"),
        pytest.param({**SIGHTING, "value": "a\ud800.example"},
                     id="value-lone-surrogate"),
        pytest.param({**SIGHTING, "node": 5}, id="node-int"),
        pytest.param({**SIGHTING, "observed_at": "x"}, id="observed-at-text"),
        pytest.param({**SIGHTING, "observed_at": 10 ** 20},
                     id="observed-at-out-of-range"),
    ])
    def test_malformed_sighting_is_refused_not_queued(self, record):
        federation = Federation(mesh(["left", "right"]),
                                clock=SimulatedClock(PAPER_NOW))
        seed(federation, "left", 0, 1, PAPER_NOW)
        reply = federation.backbone.transmit(
            "left", "right", KIND_SIGHTING, record)
        assert reply == {"accepted": False, "reason": "malformed message"}
        assert federation.node("right").pending_sightings == []
        federation.run(2)
        assert federation.node("left").rescores == []

    def test_sighting_of_an_unknown_eioc_is_refused_and_dropped(self):
        federation = Federation(hub_and_spoke("hub", ["s1", "s2"]),
                                clock=SimulatedClock(PAPER_NOW))
        record = {**SIGHTING, "origin": "s1"}
        # The origin refuses it ...
        assert federation.backbone.transmit(
            "hub", "s1", KIND_SIGHTING, record) == \
            {"accepted": False, "reason": "unknown eioc"}
        # ... and a hop that queued it drops it instead of raising.
        s2 = federation.node("s2")
        s2.origins[record["eioc_uuid"]] = "s1"
        s2.observe(record["eioc_uuid"], record["value"], record["node"],
                   observed_at=PAPER_NOW + dt.timedelta(seconds=60))
        assert federation.node("hub").pending_sightings
        federation.run(2)
        assert all(node.pending_sightings == []
                   for node in federation.nodes.values())
        assert federation.node("s1").misp.store.event_count() == 0


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
            assert document == to_misp_json(MispInstance.wire_form(stored))
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
        # The origin spoke already holds it: its copy is skipped without
        # being rendered, so only the other spokes look the payload up.
        assert (report.shared, report.skipped) == (spokes - 1, 1)
        assert encodes == [make_intel(0, PAPER_NOW).uuid]
        assert (report.renders, report.render_hits) == (1, spokes - 2)


def spy_event_messages(federation):
    """Record ``(src, dst, uuid, wire digest, response)`` per event message."""
    sent = []
    transmit = federation.backbone.transmit

    def recording(src, dst, kind, payload):
        response = transmit(src, dst, kind, payload)
        if kind == KIND_EVENT:
            event = from_misp_json(payload["document"])
            sent.append((src, dst, event.uuid, event_digest(event),
                         response))
        return response

    federation.backbone.transmit = recording
    return sent


def drive_echo_scenario(topology):
    """Events at two orgs, a later version of one, rounds until quiet.

    Returns every round's share counts, ledger rows and watermarks per
    org, the event messages sent, and the federation.
    """
    federation = Federation(topology, clock=SimulatedClock(PAPER_NOW))
    orgs = topology.orgs
    sent = spy_event_messages(federation)
    seed(federation, orgs[1], 0, 2, PAPER_NOW)
    seed(federation, orgs[-1], 2, 1, PAPER_NOW)
    rounds = [federation.run_round()]
    revised = make_intel(0, PAPER_NOW + dt.timedelta(minutes=5))
    revised.info = "intel 0, revised"
    federation.node(orgs[1]).misp.add_event(revised)
    rounds += federation.run(3)
    states = []
    for reports in rounds:
        counts = [{key: value for key, value in report.to_dict().items()
                   if key not in ("renders", "render_hits")}
                  for report in reports]
        states.append(counts)
    ledgers = {org: (federation.node(org).misp.store.sync_digest_rows(),
                     federation.node(org).misp.store.sync_watermarks())
               for org in orgs}
    return states, ledgers, sent, federation


TOPOLOGIES = [
    pytest.param(hub_and_spoke("hub", ["spoke-0", "spoke-1"]), id="hub-2"),
    pytest.param(hub_and_spoke("hub", [f"spoke-{i}" for i in range(8)]),
                 id="hub-8"),
    pytest.param(mesh(["a", "b", "c"]), id="mesh-3"),
]


class TestEcho:
    """A receiver sends no copy back to the org it got a version from."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_no_copy_goes_back_to_its_sender(self, topology, monkeypatch):
        states, ledgers, sent, federation = drive_echo_scenario(topology)
        accepted = [(src, dst, uuid, digest)
                    for src, dst, uuid, digest, response in sent
                    if response.get("accepted")]
        assert accepted
        echoes = {(dst, src, uuid, digest)
                  for src, dst, uuid, digest in accepted}
        assert not [message for message in sent
                    if message[:4] in echoes]
        # While a receiver still stores the version it accepted, its
        # ledger row for the sender is the skip marker of that digest.
        checked = 0
        for src, dst, uuid, digest in accepted:
            store = federation.node(dst).misp.store
            if store.event_digests([uuid])[uuid][1] == digest:
                assert store.get_sync_digests(src, [uuid]) == \
                    {uuid: f"skipped:{digest}"}
                checked += 1
        assert checked >= len(topology.orgs) - 1
        # Every round's share counts, ledger rows and watermarks equal the
        # ones a round that sends the copy, refused as a duplicate, writes.
        monkeypatch.setattr(SharingGateway, "note_held",
                            lambda *args: None)
        base_states, base_ledgers, base_sent, base = \
            drive_echo_scenario(topology)
        assert states == base_states
        assert ledgers == base_ledgers
        assert federation.fingerprints() == base.fingerprints()
        removed = [message for message in base_sent
                   if message[:4] in echoes]
        assert removed and all(
            message[4] == {"accepted": False, "reason": "duplicate"}
            for message in removed)
        assert len(sent) == len(base_sent) - len(removed)
        if topology.orgs[0] == "hub":
            assert all(message[4].get("accepted") for message in sent)

    def test_a_version_changed_after_receipt_is_still_sent(self):
        federation = Federation(hub_and_spoke("hub", ["s1", "s2"]),
                                clock=SimulatedClock(PAPER_NOW))
        sent = spy_event_messages(federation)
        seed(federation, "s1", 0, 1, PAPER_NOW)
        federation.node("s1").gateway.sync_cycle()
        hub = federation.node("hub")
        revised = make_intel(0, PAPER_NOW + dt.timedelta(minutes=5))
        revised.info = "intel 0, revised at the hub"
        hub.misp.add_event(revised)
        report = hub.gateway.sync_cycle()
        assert (report.shared, report.skipped) == (2, 0)
        assert [(src, dst, response) for src, dst, _uuid, _digest, response
                in sent if src == "hub"] == \
            [("hub", "s1", {"accepted": True}),
             ("hub", "s2", {"accepted": True})]
        assert federation.node("s1").misp.store.get_event(
            revised.uuid).info == revised.info

    def test_a_version_refused_by_tlp_still_records_refused(self):
        # s1 may send amber to the hub; the hub clears s1 for green only.
        policy = SharingPolicy()
        policy.set_clearance("hub", Tlp.AMBER)
        federation = Federation(hub_and_spoke("hub", ["s1", "s2"]),
                                clock=SimulatedClock(PAPER_NOW),
                                node_options={"s1": {"policy": policy}})
        amber = make_intel(0, PAPER_NOW)
        mark_tlp(amber, "amber")
        federation.node("s1").misp.add_event(amber)
        assert federation.node("s1").gateway.sync_cycle().shared == 1
        hub = federation.node("hub")
        report = hub.gateway.sync_cycle()
        assert (report.refused, report.skipped) == (2, 0)
        stored = hub.misp.store.event_digests([amber.uuid])[amber.uuid][1]
        assert hub.misp.store.get_sync_digests("s1", [amber.uuid]) == \
            {amber.uuid: f"refused:{stored}"}

    def test_a_receiver_with_no_link_back_keeps_no_note(self):
        federation = Federation(chain(["a", "b", "c"]),
                                clock=SimulatedClock(PAPER_NOW))
        seed(federation, "a", 0, 1, PAPER_NOW)
        federation.node("a").gateway.sync_cycle()
        assert federation.node("b").misp.store.event_count() == 1
        assert federation.node("b").gateway._peer_held == {}
        federation.node("b").gateway.sync_cycle()
        assert federation.node("c").gateway._peer_held == {}
        assert federation.node("c").misp.store.event_count() == 1


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

    def test_a_message_over_the_ceiling_writes_nothing(self):
        # The ceiling refuses before the sharing group beside the document
        # is registered, like any other refusal of the whole message.
        federation = Federation(
            mesh(["sender", "strict"]),
            clock=SimulatedClock(PAPER_NOW),
            node_options={"strict": {"accept_ceiling": Tlp.GREEN}})
        group = federation.node("sender").misp.create_sharing_group(
            "pair", ["sender", "strict"])
        event = make_intel(0, PAPER_NOW)
        event.distribution = Distribution.SHARING_GROUP
        event.sharing_group_id = group.uuid
        mark_tlp(event, "amber")
        reply = federation.backbone.transmit(
            "sender", "strict", KIND_EVENT,
            {"document": to_misp_json(event),
             "sharing_group": group.to_dict(),
             "trace": {"trace_id": "t-1", "path": ["sender"]}})
        assert reply == {"accepted": False, "reason": "tlp:amber refused"}
        strict = federation.node("strict")
        assert strict.misp.store.event_count() == 0
        assert strict.misp.store.provenance_count() == 0
        assert strict.misp.sharing_groups == {}
        assert strict.origins == {}

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
