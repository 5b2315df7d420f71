"""Model-based tests of MISP sync semantics across instance chains.

Distribution levels bound how far intelligence travels; these tests build
chains of instances linked by sharing gateways over the ``misp`` transport,
share events of every distribution through them (one sync cycle at every
hop, in chain order) and assert the reachability rules:

- ORGANISATION_ONLY / COMMUNITY_ONLY never leave the origin;
- CONNECTED_COMMUNITIES travels exactly one hop (downgraded on arrival);
- ALL_COMMUNITIES travels the whole chain;
- SHARING_GROUP reaches exactly the member organisations, at any depth.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.misp import Distribution, MispAttribute, MispEvent, MispInstance
from repro.sharing import ExternalEntity, SharingGateway


def build_chain(length):
    instances = [MispInstance(org=f"Org{i}") for i in range(length)]
    gateways = [SharingGateway(instance) for instance in instances]
    for gateway, downstream in zip(gateways, instances[1:]):
        gateway.register(ExternalEntity(name=downstream.org, transport="misp",
                                        misp_instance=downstream))
    return instances, gateways


def propagate(chain, event):
    """Store at the origin, then run one sync cycle at every hop in order."""
    instances, gateways = chain
    instances[0].add_event(event)
    for gateway in gateways:
        gateway.sync_cycle()


def reach(chain, uuid):
    instances, _gateways = chain
    return [i for i, inst in enumerate(instances)
            if inst.store.has_event(uuid)]


@given(st.integers(min_value=2, max_value=6))
@settings(max_examples=20, deadline=None)
def test_org_only_never_leaves(length):
    chain = build_chain(length)
    event = MispEvent(info="internal",
                      distribution=Distribution.ORGANISATION_ONLY)
    event.add_attribute(MispAttribute(type="domain", value="x.example"))
    propagate(chain, event)
    assert reach(chain, event.uuid) == [0]


@given(st.integers(min_value=2, max_value=6))
@settings(max_examples=20, deadline=None)
def test_community_only_never_leaves(length):
    chain = build_chain(length)
    event = MispEvent(info="community",
                      distribution=Distribution.COMMUNITY_ONLY)
    event.add_attribute(MispAttribute(type="domain", value="x.example"))
    propagate(chain, event)
    assert reach(chain, event.uuid) == [0]


@given(st.integers(min_value=3, max_value=6))
@settings(max_examples=20, deadline=None)
def test_connected_communities_travels_exactly_one_hop(length):
    chain = build_chain(length)
    event = MispEvent(info="connected",
                      distribution=Distribution.CONNECTED_COMMUNITIES)
    event.add_attribute(MispAttribute(type="domain", value="x.example"))
    propagate(chain, event)
    assert reach(chain, event.uuid) == [0, 1]
    received = chain[0][1].store.get_event(event.uuid)
    assert received.distribution == Distribution.COMMUNITY_ONLY


@given(st.integers(min_value=2, max_value=6))
@settings(max_examples=20, deadline=None)
def test_all_communities_travels_everywhere(length):
    chain = build_chain(length)
    event = MispEvent(info="public",
                      distribution=Distribution.ALL_COMMUNITIES)
    event.add_attribute(MispAttribute(type="domain", value="x.example"))
    propagate(chain, event)
    assert reach(chain, event.uuid) == list(range(length))


@given(st.integers(min_value=3, max_value=6),
       st.data())
@settings(max_examples=25, deadline=None)
def test_sharing_group_reaches_exactly_members(length, data):
    chain = build_chain(length)
    instances = chain[0]
    # The origin is always a member; pick a random subset of the rest.
    member_indices = {0} | set(data.draw(st.lists(
        st.integers(min_value=1, max_value=length - 1), unique=True)))
    group = instances[0].create_sharing_group(
        "ops", [f"Org{i}" for i in sorted(member_indices)])
    event = MispEvent(info="group intel",
                      distribution=Distribution.SHARING_GROUP,
                      sharing_group_id=group.uuid)
    event.add_attribute(MispAttribute(type="domain", value="x.example"))
    propagate(chain, event)
    reached = set(reach(chain, event.uuid))
    # Reachability along a chain stops at the first non-member: an event
    # can only reach a member if every intermediate hop is also a member.
    expected = {0}
    for index in range(1, length):
        if index in member_indices and (index - 1) in expected:
            expected.add(index)
        else:
            break
    assert reached == expected
    # Regardless of topology effects, no non-member ever holds the event.
    assert reached <= member_indices


# ---------------------------------------------------------------------------
# Federation-under-partitions properties (the backbone's safety/liveness
# contract; see docs/FEDERATION.md).  A hypothesis-drawn schedule mixes
# event seeding, partitions, heals and sync rounds over a 3-org mesh, and
# the tests assert:
#
# - SAFETY: an org's per-link low watermark never advances past a seq whose
#   share is still unresolved — every change at or below the watermark has
#   a ledger entry (delivered digest or terminal marker) covering the
#   event's *current* content;
# - CONVERGENCE: after the faults clear, dead-letter replay plus recovery
#   rounds and one anti-entropy pass land every org on the fault-free
#   baseline's event corpus, byte for byte.
# ---------------------------------------------------------------------------

import datetime as dt

from repro.clock import PAPER_NOW, SimulatedClock
from repro.federation import Federation, SimulatedNetworkBackbone, mesh
from repro.resilience import FaultInjector
from repro.sharing import mark_tlp
from repro.sharing.sync import digest_matches, event_digest

FED_ORGS = ("alpha", "beta", "gamma")

fed_ops = st.lists(
    st.one_of(
        st.tuples(st.just("seed"), st.integers(0, len(FED_ORGS) - 1)),
        st.tuples(st.just("partition"), st.integers(1, len(FED_ORGS) - 1)),
        st.tuples(st.just("heal")),
        st.tuples(st.just("round")),
    ),
    min_size=1, max_size=10)


def seed_fed_event(federation, org, index):
    node = federation.node(org)
    event = MispEvent(
        info=f"intel {index}",
        uuid=f"33333333-3333-4333-8333-{index:012d}",
        distribution=Distribution.ALL_COMMUNITIES,
        timestamp=PAPER_NOW + dt.timedelta(seconds=index))
    event.add_attribute(MispAttribute(
        type="domain", value=f"c2-{index}.example",
        uuid=f"44444444-4444-4444-8444-{index:012d}",
        timestamp=event.timestamp))
    mark_tlp(event, "green")
    node.misp.add_event(event)
    node.heuristics.process_pending()


def apply_schedule(federation, injector, ops, *, faults):
    counter = 0
    for op in ops:
        if op[0] == "seed":
            seed_fed_event(federation, FED_ORGS[op[1]], counter)
            counter += 1
        elif op[0] == "partition" and faults:
            injector.partition(FED_ORGS[:op[1]], FED_ORGS[op[1]:])
        elif op[0] == "heal" and faults:
            injector.heal()
        elif op[0] == "round":
            federation.run_round()
            assert_watermark_safety(federation)


def assert_watermark_safety(federation):
    for org in federation.topology.orgs:
        store = federation.node(org).misp.store
        # Each live event's last seq, straight from the raw audit feed.
        last_seq = {}
        for change in store.changes_since(0):
            last_seq[change.event_uuid] = change.seq
        live = {uuid: event for uuid, event in
                store.get_events(sorted(last_seq)).items()
                if event is not None}
        for dst in federation.topology.neighbors(org):
            watermark = store.get_sync_watermark(dst)
            due = [uuid for uuid in live if last_seq[uuid] <= watermark]
            ledger = store.get_sync_digests(dst, due)
            for uuid in due:
                event, seq = live[uuid], last_seq[uuid]
                assert digest_matches(ledger.get(uuid), event_digest(event)), (
                    f"{org}->{dst}: watermark {watermark} passed seq {seq} "
                    f"of {uuid} without a covering ledger entry")


def build_federation():
    injector = FaultInjector()
    federation = Federation(
        mesh(list(FED_ORGS)),
        backbone=SimulatedNetworkBackbone(injector),
        clock=SimulatedClock(PAPER_NOW))
    return federation, injector


@given(fed_ops)
@settings(max_examples=15, deadline=None)
def test_watermark_never_passes_an_unresolved_seq(ops):
    federation, injector = build_federation()
    apply_schedule(federation, injector, ops, faults=True)
    assert_watermark_safety(federation)
    # Still safe through recovery.
    injector.heal()
    federation.replay_deadletters()
    federation.run_round()
    assert_watermark_safety(federation)


@given(fed_ops)
@settings(max_examples=15, deadline=None)
def test_replayed_deadletters_converge_onto_baseline(ops):
    def finish(federation, injector, *, faults):
        if faults:
            injector.heal()
            federation.replay_deadletters()
        federation.run(3)
        federation.reconcile()
        federation.run_round()
        return federation.event_blobs()

    baseline_fed, baseline_inj = build_federation()
    apply_schedule(baseline_fed, baseline_inj, ops, faults=False)
    baseline = finish(baseline_fed, baseline_inj, faults=False)

    faulted_fed, faulted_inj = build_federation()
    apply_schedule(faulted_fed, faulted_inj, ops, faults=True)
    faulted = finish(faulted_fed, faulted_inj, faults=True)

    assert faulted == baseline
