"""Spatial visualization model (§II-B: "spatial" data).

OSINT text often names countries/cities; the gazetteer extracts them and
this view aggregates threat activity by world region — "the provenance of
an attack" rendering the paper asks visualizations to communicate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.deltas import StoreRollup
from ..misp import MispEvent, MispStore
from ..nlp import GazetteerExtractor

#: location name (lowercase) -> (region, latitude, longitude).
LOCATION_INDEX: Mapping[str, Tuple[str, float, float]] = {
    "spain": ("Europe", 40.4, -3.7),
    "portugal": ("Europe", 38.7, -9.1),
    "france": ("Europe", 48.9, 2.4),
    "germany": ("Europe", 52.5, 13.4),
    "italy": ("Europe", 41.9, 12.5),
    "united kingdom": ("Europe", 51.5, -0.1),
    "netherlands": ("Europe", 52.4, 4.9),
    "poland": ("Europe", 52.2, 21.0),
    "lisbon": ("Europe", 38.7, -9.1),
    "madrid": ("Europe", 40.4, -3.7),
    "barcelona": ("Europe", 41.4, 2.2),
    "europe": ("Europe", 50.0, 10.0),
    "ukraine": ("Europe", 50.4, 30.5),
    "russia": ("Asia", 55.8, 37.6),
    "china": ("Asia", 39.9, 116.4),
    "japan": ("Asia", 35.7, 139.7),
    "india": ("Asia", 28.6, 77.2),
    "north korea": ("Asia", 39.0, 125.8),
    "iran": ("Asia", 35.7, 51.4),
    "united states": ("North America", 38.9, -77.0),
    "canada": ("North America", 45.4, -75.7),
    "mexico": ("North America", 19.4, -99.1),
    "brazil": ("South America", -15.8, -47.9),
    "argentina": ("South America", -34.6, -58.4),
    "nigeria": ("Africa", 9.1, 7.5),
    "south africa": ("Africa", -25.7, 28.2),
    "egypt": ("Africa", 30.0, 31.2),
    "australia": ("Oceania", -35.3, 149.1),
}

#: ISO country code (as used by galaxy cluster meta) -> location-index key.
COUNTRY_CODE_INDEX: Mapping[str, str] = {
    "RU": "russia", "CN": "china", "KP": "north korea", "IR": "iran",
    "US": "united states", "DE": "germany", "FR": "france", "ES": "spain",
    "PT": "portugal", "UA": "ukraine", "GB": "united kingdom",
    "BR": "brazil", "NG": "nigeria", "AU": "australia", "JP": "japan",
    "IN": "india",
}

REGIONS = ("Europe", "North America", "South America", "Asia", "Africa",
           "Oceania")


@dataclass(frozen=True)
class GeoHit:
    """One located mention: where, and on which event."""

    location: str
    region: str
    latitude: float
    longitude: float
    event_uuid: str


def locate_event(event: MispEvent, gazetteer: GazetteerExtractor,
                 index: Mapping[str, Tuple[str, float, float]]
                 ) -> List[GeoHit]:
    """Extract and map the located mentions of one event's text."""
    text = event.info + " " + " ".join(
        attribute.value for attribute in event.attributes
        if attribute.type == "text")
    found = gazetteer.extract(text).get("location", [])
    hits: List[GeoHit] = []
    for location in found:
        entry = index.get(location)
        if entry is None:
            continue
        region, latitude, longitude = entry
        hits.append(GeoHit(location=location, region=region,
                           latitude=latitude, longitude=longitude,
                           event_uuid=event.uuid))
    return hits


class GeoStoreRollup(StoreRollup):
    """Per-store located-mention index maintained from the change feed.

    Keeps each event's hits separately so updates replace and deletes
    retire that event's mentions — the aggregate always matches what a
    fresh scan of the store would find.  A persistent rollup checkpoints
    one row per located event.
    """

    def __init__(self, store: MispStore, gazetteer: GazetteerExtractor,
                 index: Mapping[str, Tuple[str, float, float]],
                 name: str = "rollup:geo-summary",
                 persistent: bool = False) -> None:
        self._gazetteer = gazetteer
        self._index = index
        self._event_hits: Dict[str, List[GeoHit]] = {}
        #: Hits contributed by the most recent delta (ingest_store return).
        self.last_delta_hits = 0
        super().__init__(store, name, persistent=persistent)

    def apply_delta(self, events: Sequence[MispEvent],
                    deleted: Sequence[str]) -> None:
        self.last_delta_hits = 0
        for uuid in deleted:
            self._retire(uuid)
        for event in events:
            hits = locate_event(event, self._gazetteer, self._index)
            self.last_delta_hits += len(hits)
            if hits:
                self._event_hits[event.uuid] = hits
                self.touch(event.uuid)
            else:
                self._retire(event.uuid)

    def _retire(self, uuid: str) -> None:
        # Only located events have a row to write or delete.
        if self._event_hits.pop(uuid, None) is not None:
            self.touch(uuid)

    def row(self, key: str) -> Optional[List[List[Any]]]:
        hits = self._event_hits.get(key)
        if not hits:
            return None
        return [[h.location, h.region, h.latitude, h.longitude]
                for h in hits]

    def restore_row(self, key: str, value: List[List[Any]]) -> None:
        self._event_hits[key] = [
            GeoHit(location=row[0], region=row[1], latitude=row[2],
                   longitude=row[3], event_uuid=key) for row in value]

    @property
    def hits(self) -> List[GeoHit]:
        return [hit for hits in self._event_hits.values() for hit in hits]


class GeoSummaryView:
    """Aggregates located threat mentions by region.

    Manually-ingested events (:meth:`ingest_event` /
    :meth:`ingest_attribution`) accumulate append-only, as before.
    Store-backed aggregation is an incremental rollup per store: repeated
    :meth:`ingest_store` calls consume only the change feed instead of
    re-scanning (and no longer double-count what they already saw).
    """

    def __init__(self, gazetteer: Optional[GazetteerExtractor] = None,
                 index: Mapping[str, Tuple[str, float, float]] = LOCATION_INDEX
                 ) -> None:
        self._gazetteer = gazetteer or GazetteerExtractor()
        self._index = dict(index)
        self._hits: List[GeoHit] = []
        self._store_rollups: Dict[int, GeoStoreRollup] = {}

    def ingest_event(self, event: MispEvent) -> List[GeoHit]:
        """Extract locations from one event's text; returns new hits."""
        new_hits = locate_event(event, self._gazetteer, self._index)
        self._hits.extend(new_hits)
        return new_hits

    def store_rollup(self, store: MispStore,
                     name: str = "rollup:geo-summary",
                     persistent: bool = False) -> GeoStoreRollup:
        """The (lazily created) incremental rollup tracking one store."""
        key = id(store)
        rollup = self._store_rollups.get(key)
        if rollup is None:
            rollup = GeoStoreRollup(store, self._gazetteer, self._index,
                                    name=name, persistent=persistent)
            self._store_rollups[key] = rollup
        return rollup

    def ingest_store(self, store: MispStore) -> int:
        """Fold a store's changes in; returns newly located mentions."""
        rollup = self.store_rollup(store)
        if rollup.refresh() == 0:
            return 0
        return rollup.last_delta_hits

    def ingest_attribution(self, event: MispEvent) -> List[GeoHit]:
        """Place an event by its galaxy clusters' ``country`` metadata.

        Events tagged with a threat-actor cluster (``misp-galaxy:...``)
        whose cluster declares a country are mapped onto that country —
        "the provenance of an attack" view even when the event text names
        no location itself.
        """
        from ..misp.galaxy import BUILTIN_GALAXIES, clusters_of

        new_hits: List[GeoHit] = []
        for value in clusters_of(event):
            cluster = None
            for galaxy in BUILTIN_GALAXIES:
                cluster = galaxy.find(value)
                if cluster is not None:
                    break
            if cluster is None:
                continue
            country_code = cluster.meta.get("country")
            location = COUNTRY_CODE_INDEX.get(country_code or "")
            entry = self._index.get(location or "")
            if entry is None:
                continue
            region, latitude, longitude = entry
            hit = GeoHit(location=location, region=region,
                         latitude=latitude, longitude=longitude,
                         event_uuid=event.uuid)
            self._hits.append(hit)
            new_hits.append(hit)
        return new_hits

    @property
    def hits(self) -> List[GeoHit]:
        """Every located mention recorded so far (manual + store rollups)."""
        combined = list(self._hits)
        for rollup in self._store_rollups.values():
            combined.extend(rollup.hits)
        return combined

    @staticmethod
    def _ranked(counter: Counter) -> Dict[str, int]:
        # Deterministic regardless of ingest order: by count, then name.
        return {name: count for name, count in sorted(
            counter.items(), key=lambda pair: (-pair[1], pair[0]))}

    def by_region(self) -> Dict[str, int]:
        """Mention counts grouped by world region."""
        return self._ranked(Counter(hit.region for hit in self.hits))

    def by_location(self) -> Dict[str, int]:
        """Mention counts grouped by location name."""
        return self._ranked(Counter(hit.location for hit in self.hits))

    def render(self, width: int = 30) -> str:
        """Render this view as printable text."""
        regions = self.by_region()
        if not regions:
            return "Geo summary: no located mentions"
        peak = max(regions.values())
        lines = ["Threat mentions by region"]
        for region in REGIONS:
            count = regions.get(region, 0)
            if count == 0:
                continue
            bar = "#" * max(1, round(count / peak * width))
            lines.append(f"  {region:<15} {bar} {count}")
        top = sorted(self.by_location().items(), key=lambda p: -p[1])[:5]
        if top:
            lines.append("  top locations: " +
                         ", ".join(f"{name} ({count})" for name, count in top))
        return "\n".join(lines)
