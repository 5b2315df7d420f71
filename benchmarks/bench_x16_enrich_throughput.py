"""X16: enrich-throughput guard — batched write-back.

``HeuristicComponent`` builds each drained cIoC from its zmq frame, scores
the drain in order, then plans every mutation of the cycle (score/breakdown
attributes, galaxy tags, the eIoC tag) in memory and lands it through
``MispStore.apply_enrichments``: one transaction that writes only the rows
that differ, O(1) SQL statements per cycle instead of ~6 per event
(docs/PERFORMANCE.md).

Guards, run by CI as regression gates (``make bench-enrich``) on a
500-cIoC drain:

- the enrich path averages ≤2 SQL statements per enriched event;
- the drain decodes no stored payload, and the write-back writes the two
  attribute rows each eIoC gains, not every row of the event.
"""

from repro.clock import PAPER_NOW, SimulatedClock
from repro.core import HeuristicComponent
from repro.ids import IdGenerator
from repro.infra import paper_inventory
from repro.misp import MispAttribute, MispEvent, MispInstance
from repro.obs import MetricsRegistry

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


def build_rig(events: int = EVENTS, metrics=None):
    misp = MispInstance(org="bench", metrics=metrics)
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


def test_x16_write_back_reads_nothing_back():
    metrics = MetricsRegistry()
    misp, component = build_rig(metrics=metrics)
    written = metrics.counter("caop_misp_attributes_stored_total")
    decodes, rows = misp.store.payloads_deserialized, written.total()
    results = component.process_pending()
    decoded = misp.store.payloads_deserialized - decodes
    per_eioc = (written.total() - rows) / len(results)
    print_table(
        f"X16: read-backs and rows written, {len(results)} events enriched",
        "payloads decoded / attribute rows written per eIoC",
        [f"write-back           {decoded:6d}  {per_eioc:.3f}"])
    assert len(results) == EVENTS
    assert decoded == 0, f"the drain decoded {decoded} stored payloads"
    assert per_eioc == 2, (
        f"the write-back wrote {per_eioc:.2f} attribute rows per eIoC "
        f"(expected the 2 enrichment adds)")


def test_bench_x16_enrich(benchmark):
    def run():
        _misp, component = build_rig(events=100)
        return component.process_pending()

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(results) == 100
