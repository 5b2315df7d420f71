"""STIX 2.0 Bundle: a transport container for objects, plus parse helpers."""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional

from ..errors import MALFORMED_ERRORS, ParseError, ValidationError, decode_json
from ..ids import IdGenerator
from .base import StixObject
from .sdo import SDO_CLASSES, StixDomainObject
from .sro import SRO_CLASSES

_ALL_CLASSES: Dict[str, type] = {**SDO_CLASSES, **SRO_CLASSES}


def parse_object(data: Mapping[str, Any], allow_custom: bool = True) -> StixObject:
    """Parse one STIX object dict into its typed class.

    Unknown object types raise :class:`ParseError`; unknown *properties* that
    are not ``x_`` customs raise :class:`~repro.errors.ValidationError`.
    """
    object_type = data.get("type")
    if not object_type:
        raise ParseError("STIX object is missing its 'type' field")
    cls = _ALL_CLASSES.get(object_type)
    if cls is None:
        raise ParseError(f"unknown STIX object type {object_type!r}")
    return cls(allow_custom=allow_custom, **dict(data))


class Bundle:
    """An ordered collection of STIX objects with a bundle id."""

    def __init__(self, objects: Optional[Iterable[StixObject]] = None,
                 bundle_id: Optional[str] = None,
                 id_generator: Optional[IdGenerator] = None) -> None:
        self.id = bundle_id or (id_generator or IdGenerator()).stix_id("bundle")
        if not self.id.startswith("bundle--"):
            raise ValidationError(f"bundle id must start with 'bundle--': {self.id!r}")
        self.objects: List[StixObject] = list(objects or [])

    def add(self, obj: StixObject) -> None:
        """Add one entry."""
        self.objects.append(obj)

    def get(self, stix_id: str) -> Optional[StixObject]:
        """Return the (latest version of the) object with this id, if present."""
        candidates = [o for o in self.objects if o["id"] == stix_id]
        if not candidates:
            return None
        return max(candidates, key=lambda o: o["modified"])

    def by_type(self, object_type: str) -> List[StixObject]:
        """Objects of one STIX type."""
        return [o for o in self.objects if o["type"] == object_type]

    def __iter__(self) -> Iterator[StixObject]:
        return iter(self.objects)

    def __len__(self) -> int:
        return len(self.objects)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-ready dict."""
        return {
            "type": "bundle",
            "id": self.id,
            "spec_version": "2.0",
            "objects": [obj.to_dict() for obj in self.objects],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], allow_custom: bool = True) -> "Bundle":
        """Revive an instance from its dict form."""
        if data.get("type") != "bundle":
            raise ParseError("not a STIX bundle (type != 'bundle')")
        objects = [parse_object(o, allow_custom=allow_custom)
                   for o in data.get("objects", [])]
        return cls(objects=objects, bundle_id=data.get("id"))

    @classmethod
    def from_json(cls, text: str, allow_custom: bool = True) -> "Bundle":
        """Parse an instance from a JSON string.

        Raises :class:`ParseError` for any text that is not a bundle: what
        :func:`~repro.errors.decode_json` refuses, and JSON of the wrong
        shape (``[]``, an ``objects`` entry that is not a JSON object), as
        :func:`~repro.misp.export.from_misp_json` does.
        """
        data = decode_json(text, "bundle JSON")
        try:
            return cls.from_dict(data, allow_custom=allow_custom)
        except ParseError:
            raise
        except MALFORMED_ERRORS as exc:
            raise ParseError(f"bundle JSON: not a bundle: {exc!r}") from exc
