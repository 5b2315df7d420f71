"""X16: enrich-throughput guard — batched write-back.

``HeuristicComponent`` scores a drain in order, then plans every mutation
of the cycle (score/breakdown attributes, galaxy tags, the eIoC tag) in
memory and lands it through ``MispStore.apply_enrichments``: one
transaction, one correlation pass, O(1) SQL statements per cycle instead
of ~6 per event (docs/PERFORMANCE.md).

Guard: the enrich path must average ≤2 SQL statements per enriched event
on a 500-cIoC drain.  CI runs it as a regression gate
(``make bench-enrich``).
"""

from repro.clock import PAPER_NOW, SimulatedClock
from repro.core import HeuristicComponent
from repro.ids import IdGenerator
from repro.infra import paper_inventory
from repro.misp import MispAttribute, MispEvent, MispInstance

from conftest import print_table

SEED = 16
EVENTS = 500
SQL_PER_EVENT_TARGET = 2.0


def synthetic_ciocs(events: int = EVENTS) -> list:
    """A drain cycle of domain cIoCs (same uuids per seed)."""
    ids = IdGenerator(seed=SEED)
    batch = []
    for index in range(events):
        event = MispEvent(info=f"osint report {index}", uuid=ids.uuid())
        event.add_tag("caop:cioc")
        event.add_attribute(MispAttribute(
            type="domain", value=f"evil-{index}.example", uuid=ids.uuid()))
        batch.append(event)
    return batch


def build_rig(events: int = EVENTS):
    misp = MispInstance(org="bench")
    component = HeuristicComponent(
        misp, inventory=paper_inventory(),
        clock=SimulatedClock(PAPER_NOW))
    misp.add_events(synthetic_ciocs(events), publish_feed=True)
    return misp, component


def test_x16_sql_statements_per_event():
    misp, component = build_rig()
    baseline = misp.store.sql_statements
    results = component.process_pending()
    statements = misp.store.sql_statements - baseline
    per_event = statements / len(results)
    print_table(
        f"X16: write-back SQL round trips, {len(results)} events enriched",
        "SQL statements / per event",
        [f"batched write-back   {statements:6d}  {per_event:.3f}"])
    assert len(results) == EVENTS
    assert per_event <= SQL_PER_EVENT_TARGET, (
        f"enrich path issued {per_event:.2f} SQL statements per event "
        f"(target <= {SQL_PER_EVENT_TARGET})")


def test_bench_x16_enrich(benchmark):
    def run():
        _misp, component = build_rig(events=100)
        return component.process_pending()

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(results) == 100
