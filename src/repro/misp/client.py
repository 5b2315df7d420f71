"""PyMISP-like client façade.

§IV-A: "A specific open source library, written in Python, called PyMISP,
exists to interact directly with the MISP platform."  This client mirrors
the PyMISP call surface the collectors use (``add_event``, ``get_event``,
``search``, ``add_attribute``, ``tag``, ``publish``) so integration code
reads like real PyMISP code while talking to the in-process instance.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import StorageError
from .instance import MispInstance
from .model import MispAttribute, MispEvent


class PyMispClient:
    """Thin API client over a :class:`MispInstance` endpoint."""

    def __init__(self, instance: MispInstance, api_key: str = "caop-local") -> None:
        self._instance = instance
        self._api_key = api_key

    # PyMISP returns dicts; this client returns the typed objects plus
    # ``*_dict`` variants where raw JSON is wanted.

    def add_event(self, event: MispEvent) -> MispEvent:
        """Store a new event."""
        return self._instance.add_event(event)

    def get_event(self, event_uuid: str) -> MispEvent:
        """Fetch one event by uuid."""
        event = self._instance.store.get_event(event_uuid)
        if event is None:
            raise StorageError(f"no such event {event_uuid}")
        return event

    def get_event_dict(self, event_uuid: str) -> Dict[str, Any]:
        """Fetch one event as its MISP JSON dict."""
        return self.get_event(event_uuid).to_dict()

    def event_exists(self, event_uuid: str) -> bool:
        """Whether the event uuid is stored."""
        return self._instance.store.has_event(event_uuid)

    def add_attribute(self, event_uuid: str, attribute: MispAttribute) -> MispEvent:
        """Append an attribute."""
        return self._instance.add_attribute(event_uuid, attribute)

    def tag(self, event_uuid: str, tag_name: str) -> MispEvent:
        """Add a tag to a stored event."""
        return self._instance.tag_event(event_uuid, tag_name)

    def publish(self, event_uuid: str) -> MispEvent:
        """Mark an event published."""
        return self._instance.publish_event(event_uuid)

    def search(self, value: Optional[str] = None, tag: Optional[str] = None,
               type_attribute: Optional[str] = None,
               eventinfo: Optional[str] = None) -> List[MispEvent]:
        """Search with PyMISP-style keyword arguments."""
        return self._instance.store.search_events(
            info_substring=eventinfo, tag=tag,
            attribute_type=type_attribute, value=value,
        )

    def export(self, event_uuid: str, export_format: str = "misp-json") -> str:
        """Render a stored event in an export format."""
        return self._instance.export_event(event_uuid, export_format)
