"""Tests for the §II-B visualization models (timeline / graph / keywords)."""

import datetime as dt

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import PAPER_NOW
from repro.core.ioc import ReducedIoc
from repro.dashboard import (
    CorrelationGraphView,
    KeywordSummaryView,
    TimelineView,
    sparkline,
)
from repro.errors import ValidationError
from repro.ids import content_uuid
from repro.infra import Alarm, Severity
from repro.misp import MispAttribute, MispEvent, MispInstance, MispStore


def make_alarm(minutes):
    return Alarm(node="Node 1", severity=Severity.RED, description="x",
                 timestamp=PAPER_NOW + dt.timedelta(minutes=minutes))


def make_rioc(minutes):
    return ReducedIoc(eioc_uuid="e", threat_score=2.0, nodes=("Node 1",),
                      created_at=PAPER_NOW + dt.timedelta(minutes=minutes))


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_all_zero(self):
        assert sparkline([0, 0, 0]) == "   "

    def test_peak_gets_densest_glyph(self):
        line = sparkline([0, 5, 10])
        assert line[-1] == "@"
        assert line[0] == " "

    def test_length_matches(self):
        assert len(sparkline([1, 2, 3, 4])) == 4


class TestTimelineView:
    def test_empty_render(self):
        assert "no data" in TimelineView().render()

    def test_bucketing(self):
        view = TimelineView(bucket=dt.timedelta(minutes=10))
        view.ingest_alarm(make_alarm(0))
        view.ingest_alarm(make_alarm(5))
        view.ingest_alarm(make_alarm(25))
        view.ingest_rioc(make_rioc(15))
        buckets = view.buckets()
        assert len(buckets) == 3
        assert [b.alarms for b in buckets] == [2, 0, 1]
        assert [b.riocs for b in buckets] == [0, 1, 0]

    def test_render_totals(self):
        view = TimelineView(bucket=dt.timedelta(minutes=10))
        view.ingest_alarm(make_alarm(0))
        view.ingest_rioc(make_rioc(3))
        rendered = view.render()
        assert "total 1" in rendered

    def test_invalid_bucket(self):
        with pytest.raises(ValidationError):
            TimelineView(bucket=dt.timedelta(0))

    def test_alarm_without_timestamp_ignored(self):
        view = TimelineView()
        view.ingest_alarm(Alarm(node="n", severity=Severity.RED,
                                description="d"))
        assert view.buckets() == []


class TestCorrelationGraphView:
    def build_store(self):
        misp = MispInstance()
        first = MispEvent(info="first")
        first.add_attribute(MispAttribute(type="domain", value="shared.example"))
        second = MispEvent(info="second")
        second.add_attribute(MispAttribute(type="domain", value="shared.example"))
        third = MispEvent(info="isolated")
        third.add_attribute(MispAttribute(type="domain", value="alone.example"))
        for event in (first, second, third):
            misp.add_event(event)
        return misp.store, first, second, third

    def test_graph_structure(self):
        store, first, second, third = self.build_store()
        view = CorrelationGraphView(store)
        graph = view.graph()
        assert graph.number_of_nodes() == 3
        assert graph.has_edge(first.uuid, second.uuid)
        assert graph.degree[third.uuid] == 0

    def test_components(self):
        store, first, second, third = self.build_store()
        components = CorrelationGraphView(store).components()
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 2]

    def test_hubs_exclude_isolated(self):
        store, first, second, third = self.build_store()
        hubs = CorrelationGraphView(store).hubs()
        assert third.uuid not in [uuid for uuid, _d in hubs]
        assert all(degree > 0 for _u, degree in hubs)

    def test_render(self):
        store, *_ = self.build_store()
        rendered = CorrelationGraphView(store).render()
        assert "events:        3" in rendered
        assert "correlations:  1" in rendered


#: Few values over few events, so clusters form, merge and split.
GRAPH_VALUES = [f"v{index}.example" for index in range(6)]

GRAPH_OPS = st.lists(st.one_of(
    st.tuples(st.just("save"), st.integers(0, 9),
              st.lists(st.sampled_from(GRAPH_VALUES), min_size=1,
                       max_size=3, unique=True),
              st.sampled_from(["first", "second"])),
    st.tuples(st.just("delete"), st.integers(0, 9)),
    st.tuples(st.just("checkpoint")),
), max_size=25)


def graph_event(index, values, info):
    event = MispEvent(info=f"{info} {index}", timestamp=PAPER_NOW)
    event.uuid = content_uuid("graph-prop", str(index))
    for value in values:
        attribute = MispAttribute(type="domain", value=value,
                                  timestamp=PAPER_NOW)
        attribute.uuid = content_uuid("graph-prop-attr", event.uuid, value)
        event.add_attribute(attribute)
    return event


def graph_state(graph):
    return (sorted(graph.nodes(data="info")),
            sorted((min(a, b), max(a, b), value)
                   for a, b, value in graph.edges(data="value")))


@given(GRAPH_OPS)
@settings(max_examples=100, deadline=None)
def test_cluster_count_matches_connected_components(ops):
    """The union-find cluster count equals networkx's component count,
    through adds, updates, deletes and checkpoint + reopen."""
    misp = MispInstance(store=MispStore(":memory:"))
    store = misp.store
    view = CorrelationGraphView(store, persistent=True)
    for op in ops:
        if op[0] == "save":
            misp.add_events([graph_event(*op[1:])], publish_feed=False)
        elif op[0] == "delete":
            store.delete_event(content_uuid("graph-prop", str(op[1])))
        else:
            before = graph_state(view.graph())
            view.save()
            view = CorrelationGraphView(store, persistent=True)
            assert graph_state(view.graph()) == before
        summary = view.summary()
        clusters = [component for component
                    in nx.connected_components(view.graph())
                    if len(component) > 1]
        assert summary["clusters"] == len(clusters)
        fresh = CorrelationGraphView(store, name="fresh:graph")
        assert fresh.summary() == summary
        assert fresh.render() == view.render()


def test_checkpoint_rows_follow_edges_and_retires():
    """An edge lives in its smaller endpoint's row: a later event that
    correlates with a stored smaller one rewrites that row, and when a
    ghost's last live partner goes, its cluster and its row go too."""
    misp = MispInstance(store=MispStore(":memory:"))
    store = misp.store
    view = CorrelationGraphView(store, persistent=True)
    low, high = sorted((graph_event(index, ["v0.example"], "first")
                        for index in range(2)), key=lambda e: e.uuid)
    steps = ((lambda: misp.add_events([low], publish_feed=False), 0),
             (lambda: misp.add_events([high], publish_feed=False), 1),
             (lambda: store.delete_event(low.uuid), 1),
             (lambda: store.delete_event(high.uuid), 0))
    for step, clusters in steps:
        step()
        assert view.summary()["clusters"] == clusters
        view.save()
        reopened = CorrelationGraphView(store, persistent=True)
        assert graph_state(reopened.graph()) == graph_state(view.graph())
    assert store.rollup_rows(view.name) == []


class TestKeywordSummaryView:
    def test_counts_by_category(self):
        store = MispStore()
        event = MispEvent(info="ransomware campaign with data breach fallout")
        store.save_event(event)
        frequencies = KeywordSummaryView(store).frequencies()
        assert frequencies["malware"] == 1
        assert frequencies["data-breach"] == 1

    def test_text_attributes_included(self):
        store = MispStore()
        event = MispEvent(info="untitled")
        event.add_attribute(MispAttribute(
            type="text", value="massive ddos attack reported", to_ids=False))
        store.save_event(event)
        assert "ddos" in KeywordSummaryView(store).frequencies()

    def test_empty_store(self):
        assert "no threat keywords" in KeywordSummaryView(MispStore()).render()

    def test_render_sorted_bars(self):
        store = MispStore()
        store.save_event(MispEvent(info="ransomware ransomware trojan"))
        store.save_event(MispEvent(info="phishing attempt"))
        rendered = KeywordSummaryView(store).render()
        lines = rendered.splitlines()
        assert lines[1].strip().startswith("malware")
