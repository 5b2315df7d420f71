"""End-to-end IoC provenance: recorder, store tables, cross-org stitching.

The acceptance scenario at the bottom reconstructs a complete three-org
lineage (feed fetch at org A through sync receipt at org C) from store
provenance alone, through the real ``caop trace`` CLI over persisted
SQLite stores.
"""

import os

import pytest

from repro.cli import main
from repro.clock import PAPER_NOW, SimulatedClock
from repro.core import ContextAwareOSINTPlatform, PlatformConfig
from repro.errors import ValidationError
from repro.ids import content_uuid
from repro.misp import (
    Distribution,
    MispAttribute,
    MispEvent,
    MispInstance,
    MispStore,
)
from repro.obs import (
    LINEAGE_KINDS,
    NULL_RECORDER,
    ProvenanceRecorder,
    origin_path,
    render_lineage,
    share_context,
    share_contexts,
    stitch_lineage,
    trace_id_for,
)
from repro.sharing import ExternalEntity, SharingGateway

EVENT_UUID = "55555555-5555-4555-8555-{:012d}"
ATTR_UUID = "66666666-6666-4666-8666-{:012d}"


class TestTraceIds:
    def test_trace_id_is_stable(self):
        uuid = EVENT_UUID.format(1)
        assert trace_id_for(uuid) == trace_id_for(uuid)

    def test_trace_id_differs_per_event(self):
        assert trace_id_for(EVENT_UUID.format(1)) != \
            trace_id_for(EVENT_UUID.format(2))

    def test_trace_id_is_content_derived(self):
        uuid = EVENT_UUID.format(3)
        assert trace_id_for(uuid) == content_uuid("trace", uuid)


class TestProvenanceRecorder:
    def test_records_flush_into_the_store(self):
        store = MispStore()
        recorder = ProvenanceRecorder(store=store, clock=SimulatedClock(),
                                      org="org-a")
        recorder.begin_cycle(3)
        recorder.record("fetched", EVENT_UUID.format(0), actor="collector",
                        detail="feed=alpha")
        assert recorder.pending == 1
        assert recorder.flush() == 1
        assert recorder.pending == 0
        rows = store.provenance_for_event(EVENT_UUID.format(0))
        assert len(rows) == 1
        assert rows[0]["kind"] == "fetched"
        assert rows[0]["org"] == "org-a"
        assert rows[0]["cycle"] == 3
        assert rows[0]["trace_id"] == trace_id_for(EVENT_UUID.format(0))

    def test_unknown_kind_rejected(self):
        recorder = ProvenanceRecorder(store=MispStore())
        with pytest.raises(ValidationError):
            recorder.record("teleported", EVENT_UUID.format(0))

    def test_disabled_recorder_is_a_noop(self):
        assert not NULL_RECORDER.enabled
        NULL_RECORDER.record("fetched", EVENT_UUID.format(0))
        assert NULL_RECORDER.pending == 0
        assert NULL_RECORDER.flush() == 0

    def test_recorder_without_store_is_disabled(self):
        assert not ProvenanceRecorder(store=None).enabled

    def test_store_rows_keep_insertion_order(self):
        store = MispStore()
        recorder = ProvenanceRecorder(store=store, clock=SimulatedClock())
        for kind in ("fetched", "parsed", "scored"):
            recorder.record(kind, EVENT_UUID.format(0))
        recorder.flush()
        rows = store.provenance_for_event(EVENT_UUID.format(0))
        assert [row["kind"] for row in rows] == ["fetched", "parsed", "scored"]
        assert store.provenance_count() == 3

    def test_provenance_for_trace(self):
        store = MispStore()
        recorder = ProvenanceRecorder(store=store, clock=SimulatedClock())
        recorder.record("fetched", EVENT_UUID.format(0))
        recorder.flush()
        trace_id = trace_id_for(EVENT_UUID.format(0))
        rows = store.provenance_for_trace(trace_id)
        assert [row["event_uuid"] for row in rows] == [EVENT_UUID.format(0)]

    def test_latest_traced_event(self):
        store = MispStore()
        recorder = ProvenanceRecorder(store=store, clock=SimulatedClock())
        assert store.latest_traced_event() is None
        recorder.record("fetched", EVENT_UUID.format(1))
        recorder.record("fetched", EVENT_UUID.format(2))
        recorder.flush()
        assert store.latest_traced_event() == EVENT_UUID.format(2)


class TestOriginPath:
    def test_locally_born_event_has_single_org_path(self):
        store = MispStore()
        assert origin_path(store, EVENT_UUID.format(0), "org-a") == ["org-a"]

    def test_synced_event_extends_the_recorded_path(self):
        store = MispStore()
        recorder = ProvenanceRecorder(store=store, clock=SimulatedClock(),
                                      org="org-b")
        recorder.record("synced-from", EVENT_UUID.format(0), actor="sync",
                        detail='{"path": ["org-a"]}')
        recorder.flush()
        assert origin_path(store, EVENT_UUID.format(0), "org-b") == \
            ["org-a", "org-b"]

    def test_share_context_carries_trace_id_and_path(self):
        store = MispStore()
        context = share_context(store, EVENT_UUID.format(0), "org-a")
        assert context == {"trace_id": trace_id_for(EVENT_UUID.format(0)),
                           "path": ["org-a"]}

    def test_batched_share_contexts_match_one_by_one(self):
        store = MispStore()
        recorder = ProvenanceRecorder(store=store, clock=SimulatedClock(),
                                      org="org-b")
        recorder.record("synced-from", EVENT_UUID.format(0), actor="sync",
                        detail='{"path": ["org-a"]}')
        recorder.record("synced-from", EVENT_UUID.format(0), actor="sync",
                        detail='{"path": ["org-c", "org-d"]}')
        recorder.flush()
        uuids = [EVENT_UUID.format(index) for index in (1, 0)]
        before = store.sql_statements
        batched = share_contexts(store, uuids, "org-b")
        assert store.sql_statements - before == 1
        assert batched == {uuid: share_context(store, uuid, "org-b")
                           for uuid in uuids}
        assert batched[uuids[1]]["path"] == ["org-c", "org-d", "org-b"]


class TestPlatformLineage:
    def build(self, **overrides):
        config = PlatformConfig(feed_entries=12, **overrides)
        return ContextAwareOSINTPlatform.build_default(config)

    def test_cycle_records_full_local_lineage(self):
        platform = self.build()
        platform.run_cycle()
        uuid = platform.misp.store.latest_traced_event()
        assert uuid is not None
        kinds = {row["kind"]
                 for row in platform.misp.store.provenance_for_event(uuid)}
        assert {"fetched", "parsed"} <= kinds
        assert kinds <= set(LINEAGE_KINDS)

    def test_scored_events_record_enrichment_lineage(self):
        platform = self.build()
        platform.run_cycle()
        store = platform.misp.store
        kinds = set()
        for event in store.list_events():
            kinds |= {row["kind"]
                      for row in store.provenance_for_event(event.uuid)}
        assert {"enriched-by", "scored"} <= kinds

    def test_provenance_disabled_records_nothing(self):
        platform = self.build(metrics_enabled=False)
        platform.run_cycle()
        assert platform.misp.store.provenance_count() == 0
        assert not platform.provenance.enabled

    def test_provenance_rows_are_worker_count_invariant(self):
        def rows(workers):
            platform = self.build(fetch_workers=workers,
                                  share_workers=workers)
            platform.run(2)
            store = platform.misp.store
            return [
                {key: value for key, value in row.items() if key != "seq"}
                for event in store.list_events()
                for row in store.provenance_for_event(event.uuid)
            ]

        assert rows(1) == rows(4)


class Organization:
    """One federation node with provenance wired through its gateway."""

    def __init__(self, name, clock, store_path=None):
        store = MispStore(store_path) if store_path else MispStore()
        self.name = name
        self.misp = MispInstance(org=name, clock=clock, store=store)
        self.provenance = ProvenanceRecorder(
            store=self.misp.store, clock=clock, org=name)
        self.gateway = SharingGateway(
            self.misp, clock=clock, provenance=self.provenance)

    def peer_with(self, other):
        self.gateway.register(ExternalEntity(
            name=other.name, transport="misp", misp_instance=other.misp))


def build_chain(tmp_path=None):
    """A -> B -> C with one ALL_COMMUNITIES event seeded at A."""
    clock = SimulatedClock(PAPER_NOW)
    paths = [None, None, None]
    if tmp_path is not None:
        paths = [str(tmp_path / f"org-{suffix}.sqlite")
                 for suffix in ("a", "b", "c")]
    a = Organization("org-a", clock, store_path=paths[0])
    b = Organization("org-b", clock, store_path=paths[1])
    c = Organization("org-c", clock, store_path=paths[2])
    a.peer_with(b)
    b.peer_with(c)
    event = MispEvent(info="federated intel", uuid=EVENT_UUID.format(0),
                      distribution=Distribution.ALL_COMMUNITIES)
    event.add_attribute(MispAttribute(
        type="ip-src", value="203.0.113.7", uuid=ATTR_UUID.format(0)))
    a.misp.add_event(event)
    a.provenance.record("fetched", event.uuid, actor="collector",
                        detail="feed=seed")
    a.provenance.record("parsed", event.uuid, actor="collector",
                        detail="1 normalized record(s)")
    a.provenance.flush()
    a.gateway.sync_cycle()
    b.gateway.sync_cycle()
    return a, b, c, event.uuid, paths


class TestCrossOrgLineage:
    def test_sync_receipt_records_the_sender_path(self):
        a, b, c, uuid, _paths = build_chain()
        b_rows = [row for row in b.misp.store.provenance_for_event(uuid)
                  if row["kind"] == "synced-from"]
        c_rows = [row for row in c.misp.store.provenance_for_event(uuid)
                  if row["kind"] == "synced-from"]
        assert len(b_rows) == 1 and len(c_rows) == 1
        assert '"path": ["org-a"]' in b_rows[0]["detail"]
        assert '"path": ["org-a", "org-b"]' in c_rows[0]["detail"]
        assert c_rows[0]["actor"] == "sync:org-b"

    def test_sender_records_shared_to(self):
        a, _b, _c, uuid, _paths = build_chain()
        kinds = [row["kind"]
                 for row in a.misp.store.provenance_for_event(uuid)]
        assert "shared-to" in kinds

    def test_trace_context_never_mutates_event_content(self):
        import json

        a, b, c, uuid, _paths = build_chain()
        blobs = {json.dumps(org.misp.store.get_event(uuid).to_dict(),
                            sort_keys=True)
                 for org in (a, b, c)}
        assert len(blobs) == 1

    def test_stitched_lineage_orders_hops_origin_first(self):
        a, b, c, uuid, _paths = build_chain()
        tree = stitch_lineage(
            [("a", a.misp.store), ("c", c.misp.store), ("b", b.misp.store)],
            uuid)
        assert [hop["org"] for hop in tree["hops"]] == \
            ["org-a", "org-b", "org-c"]
        assert [hop["depth"] for hop in tree["hops"]] == [0, 1, 2]
        assert tree["trace_id"] == trace_id_for(uuid)

    def test_render_covers_fetch_through_final_sync(self):
        a, b, c, uuid, _paths = build_chain()
        text = render_lineage(stitch_lineage(
            [("a", a.misp.store), ("b", b.misp.store), ("c", c.misp.store)],
            uuid))
        assert text.index("fetched") < text.index("shared-to")
        assert "org org-c" in text
        assert text.count("synced-from") == 2

    def test_cli_reconstructs_lineage_from_stores_alone(self, tmp_path,
                                                        capsys):
        """Acceptance: feed fetch at A to sync receipt at C, via the CLI."""
        _a, _b, _c, uuid, paths = build_chain(tmp_path)
        assert main(["trace", uuid] + paths) == 0
        out = capsys.readouterr().out
        assert f"trace {trace_id_for(uuid)}" in out
        assert "hop 0 · org org-a [org-a.sqlite]" in out
        assert "hop 1 · org org-b [org-b.sqlite]" in out
        assert "hop 2 · org org-c [org-c.sqlite]" in out
        assert "fetched" in out and "shared-to" in out
        assert out.count("synced-from") == 2

    def test_cli_latest_flag_and_json_output(self, tmp_path, capsys):
        import json

        _a, _b, _c, uuid, paths = build_chain(tmp_path)
        assert main(["trace", "--latest", "--json", paths[0]]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["event_uuid"] == uuid
        assert tree["hops"][0]["org"] == "org-a"

    def test_cli_errors_without_enough_arguments(self, capsys):
        assert main(["trace", EVENT_UUID.format(0)]) == 2
        assert "store path" in capsys.readouterr().err


GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "trace_output.txt")


class TestGoldenTrace:
    def test_trace_output_matches_golden(self, tmp_path, capsys):
        _a, _b, _c, uuid, paths = build_chain(tmp_path)
        assert main(["trace", uuid] + paths) == 0
        out = capsys.readouterr().out
        if os.environ.get("CAOP_REGEN_GOLDEN"):
            with open(GOLDEN, "w") as handle:
                handle.write(out)
        with open(GOLDEN) as handle:
            expected = handle.read()
        assert out == expected
