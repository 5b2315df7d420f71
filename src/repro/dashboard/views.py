"""Specialized visualization models (§II-B).

The paper calls for "a rich set of specialized visualization models that
handle diverse types of data e.g., high-dimensional, temporal, textual,
relational, spatial" and for views of "data that is under constant change".
Three such models over the platform's live data:

- :class:`TimelineView` — *temporal*: alarms/rIoCs bucketed over time with
  an ASCII sparkline (streaming-friendly: ingest as events arrive);
- :class:`CorrelationGraphView` — *relational*: the MISP correlation graph
  between events, with connected-component analysis (the cluster count is
  kept by union-find as edges arrive);
- :class:`KeywordSummaryView` — *textual*: threat-category keyword
  frequencies across stored intelligence, as a bar summary;
- :class:`EventJourneyView` — *provenance*: one IoC's recorded journey
  through the pipeline (fetch -> parse -> enrich -> score -> reduce ->
  share), read from the store's provenance table.

The store-backed views are :class:`~repro.core.deltas.StoreRollup`
materializations: they consume the store's change feed on read (or via the
platform's rollup stage) instead of re-scanning every stored event, so a
render after a quiet cycle costs one empty feed query.  Construct them with
``persistent=True`` to checkpoint their state as per-key rows (one per
event uuid) into the store's ``rollup_rows`` table — a checkpoint rewrites
only the rows that changed — and resume without rescans after a reopen.
"""

from __future__ import annotations

import datetime as _dt
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from ..clock import ensure_utc
from ..core.deltas import StoreRollup
from ..core.ioc import ReducedIoc
from ..errors import ValidationError
from ..infra import Alarm
from ..misp import MispStore
from ..misp.model import MispEvent
from ..nlp import ThreatTagger

_SPARK_GLYPHS = " .:-=+*#%@"


def sparkline(counts: Sequence[int]) -> str:
    """Render counts as a density string (one glyph per bucket)."""
    if not counts:
        return ""
    peak = max(counts)
    if peak == 0:
        return _SPARK_GLYPHS[0] * len(counts)
    out = []
    for count in counts:
        index = round(count / peak * (len(_SPARK_GLYPHS) - 1))
        out.append(_SPARK_GLYPHS[index])
    return "".join(out)


@dataclass(frozen=True)
class TimelineBucket:
    """One time bucket with its alarm/rIoC counts."""
    start: _dt.datetime
    alarms: int
    riocs: int


class TimelineView:
    """Temporal view: events bucketed into fixed windows."""

    def __init__(self, bucket: _dt.timedelta = _dt.timedelta(minutes=30)) -> None:
        if bucket <= _dt.timedelta(0):
            raise ValidationError("bucket width must be positive")
        self._bucket = bucket
        self._alarm_times: List[_dt.datetime] = []
        self._rioc_times: List[_dt.datetime] = []

    def ingest_alarm(self, alarm: Alarm) -> None:
        """Record one alarm against its node."""
        if alarm.timestamp is not None:
            self._alarm_times.append(ensure_utc(alarm.timestamp))

    def ingest_rioc(self, rioc: ReducedIoc) -> None:
        """Record an rIoC on every node it references."""
        if rioc.created_at is not None:
            self._rioc_times.append(ensure_utc(rioc.created_at))

    def buckets(self) -> List[TimelineBucket]:
        """The time buckets with their event counts."""
        times = self._alarm_times + self._rioc_times
        if not times:
            return []
        start = min(times)
        end = max(times)
        width = self._bucket
        count = int((end - start) / width) + 1
        alarm_counts = [0] * count
        rioc_counts = [0] * count
        for stamp in self._alarm_times:
            alarm_counts[int((stamp - start) / width)] += 1
        for stamp in self._rioc_times:
            rioc_counts[int((stamp - start) / width)] += 1
        return [
            TimelineBucket(start=start + index * width,
                           alarms=alarm_counts[index],
                           riocs=rioc_counts[index])
            for index in range(count)
        ]

    def render(self) -> str:
        """Render this view as printable text."""
        buckets = self.buckets()
        if not buckets:
            return "Timeline: no data"
        alarms = [b.alarms for b in buckets]
        riocs = [b.riocs for b in buckets]
        lines = [
            f"Timeline ({len(buckets)} buckets of {self._bucket})",
            f"  alarms [{sparkline(alarms)}]  total {sum(alarms)}",
            f"  riocs  [{sparkline(riocs)}]  total {sum(riocs)}",
            f"  from {buckets[0].start.isoformat()} "
            f"to {buckets[-1].start.isoformat()}",
        ]
        return "\n".join(lines)


class ClusterCount:
    """Union-find over a graph: how many components have > 1 node.

    Starts from the graph's connected components and unions each edge
    added later.  Edges can only be added; a caller that removes one drops
    the structure and builds a new one from the graph.
    """

    def __init__(self, graph: nx.Graph) -> None:
        self._parent: Dict[str, str] = {}
        self._size: Dict[str, int] = {}
        #: Components with more than one node.
        self.clusters = 0
        for component in nx.connected_components(graph):
            if len(component) > 1:
                root = next(iter(component))
                self._parent.update(dict.fromkeys(component, root))
                self._size[root] = len(component)
                self.clusters += 1

    def _find(self, node: str) -> str:
        parent = self._parent
        root = parent.setdefault(node, node)
        while root != parent[root]:
            root = parent[root]
        while node != root:
            parent[node], node = root, parent[node]
        return root

    def union(self, a: str, b: str) -> None:
        """Record the edge ``a``–``b``."""
        root_a, root_b = self._find(a), self._find(b)
        if root_a == root_b:
            return
        size_a = self._size.get(root_a, 1)
        size_b = self._size.get(root_b, 1)
        if size_a < size_b:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] = size_a + size_b
        self.clusters += 1 - (size_a > 1) - (size_b > 1)


class CorrelationGraphView(StoreRollup):
    """Relational view: the event-correlation graph inside the MISP store.

    Maintained incrementally: the graph is materialized once and then fed
    deltas from the change feed.  Semantics match a full rescan exactly.
    Deleting an event deletes its correlation rows, so a retired event
    leaves the graph with every edge it had; an edge endpoint that was
    never stored stays as an attribute-less "ghost" node while a live
    event's rows still name it.

    A persistent view checkpoints one row per node: its ``info`` (null for
    a ghost) and its edges to larger uuids, so adding an edge touches one
    row.
    """

    def __init__(self, store: MispStore,
                 name: str = "rollup:correlation-graph",
                 persistent: bool = False) -> None:
        self._graph = nx.Graph()
        #: Events currently stored (nodes carrying an ``info`` attribute);
        #: nodes outside this set are ghosts named by live events' rows.
        self._live: set = set()
        #: Cluster count kept as edges arrive; None until the next
        #: :meth:`summary` builds it (at first use and after a retire).
        self._clusters: Optional[ClusterCount] = None
        super().__init__(store, name, persistent=persistent)

    def apply_delta(self, events: Sequence[MispEvent],
                    deleted: Sequence[str]) -> None:
        for uuid in deleted:
            self._retire(uuid)
        events = list(events)
        if not events:
            return
        for event in events:
            self._live.add(event.uuid)
            self._graph.add_node(event.uuid, info=event.info)
            self.touch(event.uuid)
        rows = self.store.correlations_for_events(
            [event.uuid for event in events])
        for event in events:
            uuid = event.uuid
            for correlation in rows[uuid]:
                a = correlation["source_event"]
                b = correlation["target_event"]
                self._graph.add_edge(a, b, value=correlation["value"])
                # An edge lives in its smaller endpoint's row; the event's
                # own row is already touched.
                other = b if a == uuid else a
                if other < uuid:
                    self.touch(other)
                if self._clusters is not None:
                    self._clusters.union(a, b)

    def _retire(self, uuid: str) -> None:
        self._live.discard(uuid)
        if uuid not in self._graph:
            return
        self.touch(uuid)
        self._clusters = None
        # The store deleted the event's edges with it; a ghost left without
        # edges goes too, as a rescan would never meet it.
        neighbors = [other for other in self._graph.neighbors(uuid)
                     if other != uuid]
        self._graph.remove_node(uuid)
        for neighbor in neighbors:
            self.touch(neighbor)
            if neighbor not in self._live \
                    and self._graph.degree[neighbor] == 0:
                self._graph.remove_node(neighbor)

    def row(self, key: str) -> Optional[List[Any]]:
        if key not in self._graph:
            return None
        info = self._graph.nodes[key].get("info") \
            if key in self._live else None
        neighbors = self._graph.adj[key]
        edges = sorted([other, neighbors[other]["value"]]
                       for other in neighbors if other > key)
        return [info, edges]

    def restore_row(self, key: str, value: List[Any]) -> None:
        info, edges = value
        if info is None:
            self._graph.add_node(key)
        else:
            self._graph.add_node(key, info=info)
            self._live.add(key)
        for other, correlation in edges:
            self._graph.add_edge(key, other, value=correlation)

    def _cluster_count(self) -> int:
        if self._clusters is None:
            self._clusters = ClusterCount(self._graph)
        return self._clusters.clusters

    def graph(self) -> nx.Graph:
        """Events as nodes, value-correlations as labelled edges."""
        self.refresh()
        return self._graph.copy()

    def components(self) -> List[List[str]]:
        """Connected components (clusters of related intelligence)."""
        self.refresh()
        return sorted(sorted(component)
                      for component in nx.connected_components(self._graph))

    def hubs(self, top: int = 5) -> List[Tuple[str, int]]:
        """The most-correlated events (highest degree)."""
        self.refresh()
        ranked = sorted(self._graph.degree,
                        key=lambda pair: (-pair[1], pair[0]))
        return [(uuid, degree) for uuid, degree in ranked[:top] if degree > 0]

    def summary(self) -> Dict[str, int]:
        """Headline graph stats, JSON-ready (the fan-out ``graph`` room)."""
        self.refresh()
        return {
            "events": self._graph.number_of_nodes(),
            "correlations": self._graph.number_of_edges(),
            "clusters": self._cluster_count(),
        }

    def render(self, top: int = 5) -> str:
        """Render this view as printable text."""
        self.refresh()
        lines = [
            "Correlation graph",
            f"  events:        {self._graph.number_of_nodes()}",
            f"  correlations:  {self._graph.number_of_edges()}",
            f"  clusters (>1): {self._cluster_count()}",
        ]
        for uuid, degree in self.hubs(top):
            info = self._graph.nodes[uuid].get("info", "")[:50]
            lines.append(f"  hub {uuid[:8]} degree={degree}  {info}")
        return "\n".join(lines)


class KeywordSummaryView(StoreRollup):
    """Textual view: threat-category keyword frequencies across the store.

    Maintained incrementally: per-event keyword contributions are kept so
    updates and deletes retire an event's old counts before folding the
    new ones in — totals always equal what a full rescan would produce.
    """

    def __init__(self, store: MispStore,
                 tagger: Optional[ThreatTagger] = None,
                 name: str = "rollup:keyword-summary",
                 persistent: bool = False) -> None:
        self._tagger = tagger or ThreatTagger()
        #: event uuid -> its category contribution (only non-empty ones).
        self._contrib: Dict[str, Dict[str, int]] = {}
        self._totals: Counter = Counter()
        super().__init__(store, name, persistent=persistent)

    def apply_delta(self, events: Sequence[MispEvent],
                    deleted: Sequence[str]) -> None:
        for uuid in deleted:
            self._retire(uuid)
        for event in events:
            self._retire(event.uuid)
            text = event.info + " " + " ".join(
                attribute.value for attribute in event.attributes
                if attribute.type == "text")
            counts = {category: len(keywords)
                      for category, keywords in self._tagger.tag(text).items()}
            if counts:
                self._contrib[event.uuid] = counts
                self.touch(event.uuid)
                for category, count in counts.items():
                    self._totals[category] += count

    def _retire(self, uuid: str) -> None:
        # Only events with keywords have a row to write or delete.
        old = self._contrib.pop(uuid, None)
        if old:
            self.touch(uuid)
            for category, count in old.items():
                self._totals[category] -= count
                if self._totals[category] <= 0:
                    del self._totals[category]

    def row(self, key: str) -> Optional[Dict[str, int]]:
        return self._contrib.get(key)

    def restore_row(self, key: str, value: Dict[str, int]) -> None:
        self._contrib[key] = value
        self._totals.update(value)

    def frequencies(self) -> Dict[str, int]:
        """Threat-category keyword counts across the store.

        Sorted by descending count (then category) so the mapping is
        deterministic regardless of the order deltas arrived in.
        """
        self.refresh()
        return {category: count for category, count in sorted(
            self._totals.items(), key=lambda pair: (-pair[1], pair[0]))}

    def render(self, width: int = 40) -> str:
        """Render this view as printable text."""
        frequencies = self.frequencies()
        if not frequencies:
            return "Keyword summary: no threat keywords found"
        peak = max(frequencies.values())
        lines = ["Threat keyword summary"]
        for category, count in sorted(frequencies.items(),
                                      key=lambda pair: -pair[1]):
            bar = "#" * max(1, round(count / peak * width))
            lines.append(f"  {category:<28} {bar} {count}")
        return "\n".join(lines)


class EventJourneyView:
    """Provenance view: one IoC's journey through the pipeline stages."""

    def __init__(self, store: MispStore) -> None:
        self._store = store

    def journey(self, event_uuid: Optional[str] = None
                ) -> List[Dict[str, object]]:
        """The lineage rows for ``event_uuid`` (latest traced by default)."""
        if event_uuid is None:
            event_uuid = self._store.latest_traced_event()
        if event_uuid is None:
            return []
        return self._store.provenance_for_event(event_uuid)

    def render(self, event_uuid: Optional[str] = None) -> str:
        """Render this view as printable text."""
        if event_uuid is None:
            event_uuid = self._store.latest_traced_event()
        if event_uuid is None:
            return "Event journey: no provenance recorded"
        rows = self._store.provenance_for_event(event_uuid)
        lines = [f"Event journey {event_uuid}"]
        if not rows:
            lines.append("  (no lineage recorded for this event)")
            return "\n".join(lines)
        lines.append(f"  trace {rows[0]['trace_id']}")
        for row in rows:
            actor = f" by {row['actor']}" if row["actor"] else ""
            detail = f"  {row['detail']}" if row["detail"] else ""
            lines.append(f"  c{row['cycle']:<3} {row['kind']:<13}"
                         f"{actor}{detail}")
        return "\n".join(lines)
