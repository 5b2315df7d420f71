"""TAXII 2.0-lite: collection-based STIX sharing over in-process transport.

The paper names STIX+TAXII as "the most used, and also the most promising"
sharing standards (§II-A).  This module implements the TAXII 2.0 resource
model that matters for exchange — discovery, API roots, collections, and the
objects endpoint with ``added_after`` filtering — without HTTP, so two
platforms in one process can exchange intelligence the standard way.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..clock import Clock, SimulatedClock, ensure_utc
from ..errors import SharingError
from ..stix import Bundle, StixObject, parse_object


@dataclass
class TaxiiCollection:
    """One TAXII collection: metadata + the stored envelope of objects."""

    collection_id: str
    title: str
    description: str = ""
    can_read: bool = True
    can_write: bool = True
    #: (added_at, object dict) pairs, insertion ordered.
    _objects: List[Tuple[_dt.datetime, Dict]] = field(default_factory=list)

    def manifest(self) -> List[Dict]:
        """The TAXII manifest entries of this collection."""
        return [
            {
                "id": obj.get("id"),
                "date_added": added_at.isoformat(),
                "version": obj.get("modified"),
            }
            for added_at, obj in self._objects
        ]

    def object_count(self) -> int:
        """Number of stored objects."""
        return len(self._objects)


class TaxiiServer:
    """A TAXII 2.0-lite server: discovery + one API root of collections."""

    def __init__(self, title: str = "CAOP TAXII", api_root: str = "intel",
                 clock: Optional[Clock] = None) -> None:
        self.title = title
        self.api_root = api_root
        self._collections: Dict[str, TaxiiCollection] = {}
        self._clock = clock or SimulatedClock()
        self.requests_served = 0

    # -- server management -----------------------------------------------------

    def create_collection(self, collection_id: str, title: str,
                          description: str = "", can_read: bool = True,
                          can_write: bool = True) -> TaxiiCollection:
        """Create a new collection on this API root."""
        if collection_id in self._collections:
            raise SharingError(f"collection {collection_id!r} already exists")
        collection = TaxiiCollection(
            collection_id=collection_id, title=title, description=description,
            can_read=can_read, can_write=can_write)
        self._collections[collection_id] = collection
        return collection

    # -- protocol endpoints -------------------------------------------------------

    def discovery(self) -> Dict:
        """The TAXII discovery resource."""
        self.requests_served += 1
        return {
            "title": self.title,
            "api_roots": [f"/{self.api_root}/"],
        }

    def get_collections(self) -> List[Dict]:
        """The collection metadata resources."""
        self.requests_served += 1
        return [
            {
                "id": c.collection_id,
                "title": c.title,
                "description": c.description,
                "can_read": c.can_read,
                "can_write": c.can_write,
            }
            for c in self._collections.values()
        ]

    def _collection(self, collection_id: str) -> TaxiiCollection:
        collection = self._collections.get(collection_id)
        if collection is None:
            raise SharingError(f"no such collection {collection_id!r}")
        return collection

    def add_objects(self, collection_id: str,
                    objects: Sequence[Mapping]) -> Dict:
        """POST /collections/{id}/objects — returns a status resource."""
        collection = self._collection(collection_id)
        if not collection.can_write:
            self.requests_served += 1
            raise SharingError(f"collection {collection_id!r} is read-only")
        now = self._clock.now()
        successes = 0
        failures = 0
        self.requests_served += 1
        for obj in objects:
            try:
                parse_object(obj)  # validate before accepting
                collection._objects.append((now, dict(obj)))
                successes += 1
            except Exception:
                failures += 1
        return {
            "status": "complete",
            "success_count": successes,
            "failure_count": failures,
        }

    def get_objects(self, collection_id: str,
                    added_after: Optional[_dt.datetime] = None,
                    object_type: Optional[str] = None) -> List[Dict]:
        """GET /collections/{id}/objects with TAXII filters."""
        self.requests_served += 1
        collection = self._collection(collection_id)
        if not collection.can_read:
            raise SharingError(f"collection {collection_id!r} is not readable")
        if added_after is not None:
            added_after = ensure_utc(added_after)
        out: List[Dict] = []
        for added_at, obj in collection._objects:
            if added_after is not None and added_at <= added_after:
                continue
            if object_type is not None and obj.get("type") != object_type:
                continue
            out.append(dict(obj))
        return out

    def get_manifest(self, collection_id: str) -> List[Dict]:
        """GET /collections/{id}/manifest."""
        self.requests_served += 1
        return self._collection(collection_id).manifest()


class TaxiiClient:
    """Client-side helper speaking to a :class:`TaxiiServer` instance."""

    def __init__(self, server: TaxiiServer, clock: Optional[Clock] = None) -> None:
        self._server = server
        self._clock = clock or SimulatedClock()
        #: high-water mark per collection for incremental polls.
        self._last_poll: Dict[str, _dt.datetime] = {}

    def discover_collections(self) -> List[str]:
        """Readable collection ids via discovery."""
        self._server.discovery()
        return [c["id"] for c in self._server.get_collections() if c["can_read"]]

    def push_bundle(self, collection_id: str, bundle: Bundle) -> Dict:
        """POST a bundle's objects to a collection."""
        return self._server.add_objects(
            collection_id, [obj.to_dict() for obj in bundle])

    def poll(self, collection_id: str,
             object_type: Optional[str] = None) -> List[StixObject]:
        """Incremental poll: only objects added since the previous poll."""
        added_after = self._last_poll.get(collection_id)
        raw = self._server.get_objects(
            collection_id, added_after=added_after, object_type=object_type)
        self._last_poll[collection_id] = self._clock.now()
        return [parse_object(obj) for obj in raw]
