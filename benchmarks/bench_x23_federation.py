"""X23: federation convergence guard — partitions must repair, cheaply.

The federation backbone (docs/FEDERATION.md) promises that an N-org
topology which suffers a scripted partition, keeps operating in both
halves (including a sighting raised far from its event's origin), then
heals, replays its dead-letter quarantines and runs one anti-entropy pass,
converges **byte-identically** — every org's full store fingerprint
(events, correlations, sync ledger, provenance lineage) equals the
fault-free baseline's — and does so without blowing up transport cost:
dropped transmits never leave the source, so the faulted run's per-org
payload bytes stay within ``COST_CEILING`` of the baseline's.

Two guards, one scale table:

- 10-org **mesh** and **hub-and-spoke** under a 6/4 partition: fingerprint
  equality, sighting re-score at the origin, per-org cost ceiling;
- hub-and-spoke at 10/20/50 orgs (and mesh at 10): rounds to converge,
  bytes per org, and event messages sent, accepted and refused as
  ``duplicate``, printing the hub-vs-mesh transport-cost gap the topology
  choice buys.  A fault-free hub-and-spoke run sends no copy its receiver
  refuses as a duplicate: no receiver sends a version back to the org it
  got it from, and a hub relays each version once to each spoke.

CI runs the guards as a regression gate (``make bench-federation``).
"""

import datetime as dt

from repro.clock import PAPER_NOW, SimulatedClock
from repro.federation import (
    KIND_EVENT,
    Federation,
    SimulatedNetworkBackbone,
    hub_and_spoke,
    mesh,
)
from repro.misp import Distribution, MispAttribute, MispEvent
from repro.resilience import FaultInjector
from repro.sharing import mark_tlp

from conftest import print_table

EVENTS = 3
PARTITION_AT = 6          # the scripted split: orgs[:6] / orgs[6:]
PARTITION_ROUNDS = 3      # rounds driven while the partition holds
RECOVERY_ROUNDS = 4       # rounds after heal + dead-letter replay
COST_CEILING = 1.5        # faulted per-org bytes <= ceiling * baseline
COST_SLACK = 4096         # absolute allowance for near-zero baselines
SCALE_SIZES = (10, 20, 50)
MAX_ROUNDS = 12


def make_intel(index, ts):
    event = MispEvent(
        info=f"intel {index}",
        uuid=f"11111111-1111-4111-8111-{index:012d}",
        distribution=Distribution.ALL_COMMUNITIES,
        timestamp=ts)
    event.add_attribute(MispAttribute(
        type="ip-src", value=f"203.0.113.{index + 1}",
        uuid=f"22222222-2222-4222-8222-{index:012d}",
        timestamp=ts))
    mark_tlp(event, "green")
    return event


def seed(federation, org, count, ts):
    node = federation.node(org)
    for index in range(count):
        node.misp.add_event(make_intel(index, ts))
    node.heuristics.process_pending()


def build(topology):
    injector = FaultInjector()
    federation = Federation(
        topology, backbone=SimulatedNetworkBackbone(injector),
        clock=SimulatedClock(PAPER_NOW))
    return federation, injector


def count_event_replies(federation):
    """Count every event message's reply, by reason (``accepted`` if taken)."""
    replies = {}
    transmit = federation.backbone.transmit

    def counting(src, dst, kind, payload):
        response = transmit(src, dst, kind, payload)
        if kind == KIND_EVENT:
            reply = ("accepted" if response.get("accepted")
                     else response.get("reason", "rejected"))
            replies[reply] = replies.get(reply, 0) + 1
        return response

    federation.backbone.transmit = counting
    return replies


def scripted_run(topology_name, orgs, fault):
    """The acceptance scenario (baseline when ``fault`` is False)."""
    topology = (mesh(orgs) if topology_name == "mesh"
                else hub_and_spoke(orgs[0], orgs[1:]))
    federation, injector = build(topology)
    seed(federation, orgs[0], EVENTS, PAPER_NOW)
    federation.run_round()
    if fault:
        injector.partition(orgs[:PARTITION_AT], orgs[PARTITION_AT:])
    # An org in the far half sights the first event's indicator; the
    # record must route back to the origin once the partition heals.
    federation.node(orgs[-2]).observe(
        make_intel(0, PAPER_NOW).uuid, "203.0.113.1", "edge-fw",
        observed_at=PAPER_NOW + dt.timedelta(seconds=60))
    federation.run(PARTITION_ROUNDS)
    if fault:
        injector.heal()
        federation.replay_deadletters()
    federation.run(RECOVERY_ROUNDS)
    federation.reconcile()
    federation.run_round()
    return federation, injector


def guard_topology(topology_name):
    orgs = [f"org-{i:02d}" for i in range(10)]
    baseline, _ = scripted_run(topology_name, orgs, fault=False)
    faulted, injector = scripted_run(topology_name, orgs, fault=True)

    base_prints = baseline.fingerprints()
    fault_prints = faulted.fingerprints()
    matching = sum(1 for org in orgs if base_prints[org] == fault_prints[org])
    base_bytes = baseline.bytes_by_org()
    fault_bytes = faulted.bytes_by_org()
    worst = max(fault_bytes[org] / base_bytes[org]
                for org in orgs if base_bytes[org])

    print_table(
        f"X23 federation convergence — {topology_name}, 10 orgs",
        ["metric", "baseline", "faulted"],
        [
            ["faults injected", 0, injector.injected_total()],
            ["fingerprints matching baseline", len(orgs), matching],
            ["origin re-scores", len(baseline.node(orgs[0]).rescores),
             len(faulted.node(orgs[0]).rescores)],
            ["total payload KiB",
             round(sum(base_bytes.values()) / 1024, 1),
             round(sum(fault_bytes.values()) / 1024, 1)],
            ["worst per-org cost ratio", 1.0, round(worst, 3)],
        ])

    assert injector.injected_total() > 0, "the partition must actually fire"
    assert matching == len(orgs), \
        f"{topology_name}: every org must converge onto the baseline " \
        f"fingerprint ({matching}/{len(orgs)} matched)"
    assert len(faulted.node(orgs[0]).rescores) == 1, \
        "the partitioned sighting must re-score the origin after the heal"
    for org in orgs:
        assert fault_bytes[org] <= \
            COST_CEILING * base_bytes[org] + COST_SLACK, \
            f"{topology_name}: {org} transport cost " \
            f"{fault_bytes[org]}B exceeds the ceiling " \
            f"({COST_CEILING}x {base_bytes[org]}B + {COST_SLACK}B)"


def test_x23_mesh_partition_converges_within_cost_ceiling():
    guard_topology("mesh")


def test_x23_hub_partition_converges_within_cost_ceiling():
    guard_topology("hub")


def test_x23_topology_scale_table():
    """Hub-vs-mesh transport cost as the federation grows (fault-free)."""
    rows = []
    for size in SCALE_SIZES:
        orgs = [f"org-{i:02d}" for i in range(size)]
        shapes = [("hub", hub_and_spoke(orgs[0], orgs[1:]))]
        if size == 10:
            shapes.insert(0, ("mesh", mesh(orgs)))
        for name, topology in shapes:
            federation, _ = build(topology)
            replies = count_event_replies(federation)
            # Seed at a *spoke*: the hub topology pays one relay round for
            # its linear transport cost, the mesh converges immediately.
            seed(federation, orgs[1], EVENTS, PAPER_NOW)
            rounds = 0
            for rounds in range(1, MAX_ROUNDS + 1):
                federation.run_round()
                if federation.converged():
                    break
            assert federation.converged(), \
                f"{name}/{size} failed to converge in {MAX_ROUNDS} rounds"
            total = sum(federation.bytes_by_org().values())
            rows.append([name, size, len(topology.links), rounds,
                         round(total / 1024, 1),
                         round(total / size / 1024, 2),
                         sum(replies.values()), replies.get("accepted", 0),
                         replies.get("duplicate", 0)])
    print_table(
        "X23 federation scale — rounds and bytes to full propagation",
        ["topology", "orgs", "links", "rounds", "total KiB", "KiB/org",
         "event msgs", "accepted", "duplicates"],
        rows)
    for row in rows:
        if row[0] == "hub":
            assert row[8] == 0, \
                f"hub/{row[1]}: {row[8]} event messages were refused " \
                f"as duplicates"
    # Hub-and-spoke total cost grows linearly with org count; a mesh of
    # the same 10 orgs pays quadratically more for its extra resilience.
    mesh_row = next(r for r in rows if r[0] == "mesh")
    hub10 = next(r for r in rows if r[0] == "hub" and r[1] == 10)
    assert mesh_row[4] > hub10[4]
