"""X17: share-throughput guard — render cache and steady-state delta sync.

Payloads are serialized once per (content digest, format) per cycle, no
matter how many entities consume them (docs/SHARING.md), so a 12-entity
fan-out of STIX consumers renders each event once and serves 11 cache
hits.  A second cycle over unchanged content shares and renders nothing.

Guards: the first-cycle render-cache hit rate must be ≥90%, and a
steady-state second cycle must perform zero renders.  CI runs it as a
regression gate (``make bench-share``).
"""

from repro.clock import PAPER_NOW, SimulatedClock
from repro.ids import IdGenerator
from repro.misp import Distribution, MispAttribute, MispEvent, MispInstance
from repro.sharing import ExternalEntity, SharingGateway, TaxiiServer

from conftest import print_table

SEED = 17
EVENTS = 40
ENTITIES = 12
HIT_RATE_TARGET = 0.90


def synthetic_eiocs(events: int = EVENTS) -> list:
    """A cycle's worth of eIoCs (same uuids per seed)."""
    ids = IdGenerator(seed=SEED)
    batch = []
    for index in range(events):
        event = MispEvent(info=f"eIoC {index}", uuid=ids.uuid(),
                          distribution=Distribution.ALL_COMMUNITIES)
        event.add_tag("caop:eioc")
        event.add_attribute(MispAttribute(
            type="domain", value=f"evil-{index}.example", uuid=ids.uuid()))
        event.add_attribute(MispAttribute(
            type="ip-src", value=f"198.51.100.{index + 1}", uuid=ids.uuid()))
        batch.append(event)
    return batch


def build_rig(events: int = EVENTS):
    """A gateway fanning out to ``ENTITIES`` TAXII peers."""
    clock = SimulatedClock(PAPER_NOW)
    local = MispInstance(org="bench", clock=clock)
    local.add_events(synthetic_eiocs(events))
    server = TaxiiServer(clock=clock)
    gateway = SharingGateway(local, clock=clock)
    for index in range(ENTITIES):
        name = f"partner-{index:02d}"
        server.create_collection(name, f"Partner {index}")
        gateway.register(ExternalEntity(
            name=name, transport="taxii", taxii_server=server,
            taxii_collection=name))
    return gateway, server


def test_x17_render_cache_hit_rate():
    gateway, _server = build_rig()
    report = gateway.sync_cycle()
    print_table(
        f"X17: render cache, {EVENTS} eIoCs x {ENTITIES} STIX consumers",
        "renders / hits / hit rate",
        [f"first cycle   {report.renders:4d}  {report.render_hits:4d}  "
         f"{report.render_hit_rate * 100:5.1f}%"])
    # One render per event; the other ENTITIES-1 consumers hit the cache.
    assert report.renders == EVENTS
    assert report.render_hits == EVENTS * (ENTITIES - 1)
    assert report.render_hit_rate >= HIT_RATE_TARGET, (
        f"render-cache hit rate {report.render_hit_rate:.1%} "
        f"below target {HIT_RATE_TARGET:.0%}")


def test_x17_steady_state_renders_nothing():
    gateway, _server = build_rig()
    first = gateway.sync_cycle()
    second = gateway.sync_cycle()
    print_table(
        "X17: steady-state delta sync",
        "cycle / considered / shared / renders",
        [
            f"first    {first.events_considered:5d}  {first.shared:5d}  "
            f"{first.renders:5d}",
            f"second   {second.events_considered:5d}  {second.shared:5d}  "
            f"{second.renders:5d}",
        ])
    assert first.shared == EVENTS * ENTITIES
    assert second.events_considered == 0
    assert second.shared == 0
    assert second.renders == 0


def test_bench_x17_share(benchmark):
    def run():
        gateway, _server = build_rig(events=10)
        return gateway.sync_cycle()

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.shared == 10 * ENTITIES
