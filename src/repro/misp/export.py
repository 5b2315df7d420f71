"""MISP export/import modules.

"thanks to specific export modules, they can be retrieved in various formats
(e.g., MISP JSON, STIX 1.x and STIX 2.x)" (§III-B1).  Implemented:

- MISP JSON (lossless, the storage format);
- STIX 2.0 bundle (the heuristic component's working format);
- a STIX 1.x-flavoured XML rendering (legacy consumers);
- CSV and plaintext value exports (SIEM-friendly).

The STIX 2.0 exporter maps attribute types onto indicator patterns and the
event's CVE attributes onto ``vulnerability`` SDOs — the two object kinds the
scoring heuristics consume.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Mapping, Optional
from xml.sax.saxutils import escape

from ..clock import format_timestamp
from ..errors import MALFORMED_ERRORS, ParseError, decode_json
from ..ids import content_stix_id
from ..stix import (
    Bundle,
    ExternalReference,
    Indicator,
    Relationship,
    StixObject,
    Vulnerability,
    equals_pattern,
)
from ..stix.markings import marking_ref_for, strictest_tlp
from .model import MispAttribute, MispEvent

#: MISP attribute type -> STIX cyber-observable object path.
_TYPE_TO_OBJECT_PATH: Mapping[str, str] = {
    "ip-src": "ipv4-addr:value",
    "ip-dst": "ipv4-addr:value",
    "domain": "domain-name:value",
    "hostname": "domain-name:value",
    "url": "url:value",
    "md5": "file:hashes.MD5",
    "sha1": "file:hashes.'SHA-1'",
    "sha256": "file:hashes.'SHA-256'",
    "filename": "file:name",
    "email-src": "email-addr:value",
}


def to_misp_json(event: MispEvent, indent: Optional[int] = None) -> str:
    """Lossless MISP JSON export."""
    return json.dumps(event.to_dict(), indent=indent, sort_keys=False)


def canonical_json(event: MispEvent) -> str:
    """The canonical sorted-key MISP JSON form of one event.

    The one serialization behind the store's event blob, the content
    digest (:func:`~repro.sharing.sync.event_digest`) and the federation
    fingerprints, so a stored blob's sha256 *is* the event's digest.
    """
    return json.dumps(event.to_dict(), sort_keys=True)


def from_misp_json(text: str) -> MispEvent:
    """Parse a MISP JSON document into an event.

    Raises :class:`ParseError` for any document that is not a storable
    event: what :func:`~repro.errors.decode_json` refuses, and JSON of the
    wrong shape (``[]``, ``{"Event": 5}``, a timestamp that is not a
    number).
    """
    data = decode_json(text, "MISP JSON")
    try:
        return MispEvent.from_dict(data)
    except ParseError:
        raise
    except MALFORMED_ERRORS as exc:
        raise ParseError(f"MISP JSON: not an event: {exc!r}") from exc


_CAPEC_RE = re.compile(r"\bCAPEC-\d+\b", re.IGNORECASE)


def _event_reference_attributes(event: MispEvent) -> List[ExternalReference]:
    """CAPEC/link references carried on sibling attributes of the event."""
    references: List[ExternalReference] = []
    for attribute in event.all_attributes():
        if attribute.type == "link":
            match = _CAPEC_RE.search(attribute.value)
            if match:
                references.append(ExternalReference(
                    source_name="capec", external_id=match.group().upper()))
            else:
                references.append(ExternalReference(
                    source_name="external", url=attribute.value))
        elif attribute.type == "text":
            match = _CAPEC_RE.search(attribute.value)
            if match:
                references.append(ExternalReference(
                    source_name="capec", external_id=match.group().upper()))
    return references


def attribute_to_stix(attribute: MispAttribute, event: MispEvent,
                      **extra: Any) -> Optional[StixObject]:
    """Convert one MISP attribute to its STIX 2.0 object, if representable.

    ``extra`` properties (``x_*`` customs, ``object_marking_refs``) are
    validated with the rest, in the object's one construction.
    """
    created = format_timestamp(attribute.timestamp)
    labels = [tag.name for tag in attribute.tags] or ["malicious-activity"]
    if attribute.type == "vulnerability":
        references = [ExternalReference(source_name="cve",
                                        external_id=attribute.value)]
        references.extend(_event_reference_attributes(event))
        return Vulnerability(
            id=content_stix_id("vulnerability", attribute.value),
            name=attribute.value,
            description=attribute.comment or event.info,
            external_references=references,
            created=created,
            modified=created,
            **extra,
        )
    object_path = _TYPE_TO_OBJECT_PATH.get(attribute.type)
    if object_path is None:
        return None
    return Indicator(
        id=content_stix_id("indicator", attribute.type, attribute.value),
        name=f"{attribute.type}: {attribute.value}"[:120],
        description=attribute.comment or event.info,
        pattern=equals_pattern(object_path, attribute.value),
        valid_from=created,
        labels=labels,
        created=created,
        modified=created,
        **extra,
    )


def to_stix2_bundle(event: MispEvent) -> Bundle:
    """Export an event as a STIX 2.0 bundle.

    Custom event context (threat score, category tags) rides on each object
    as ``x_caop_*`` properties so the heuristic component can read it
    without a side channel.  The event's strictest ``tlp:*`` tag becomes
    the spec-fixed TLP marking-definition reference on every exported
    object, the level the sharing gate refuses by.
    """
    bundle = Bundle(bundle_id=f"bundle--{event.uuid}")
    customs: Dict[str, Any] = {
        "x_caop_event_uuid": event.uuid,
        "x_caop_event_info": event.info,
        "x_caop_tags": [tag.name for tag in event.tags],
    }
    level = strictest_tlp(tag.name for tag in event.tags)
    markings = {"object_marking_refs": [marking_ref_for(level)]} if level else {}
    for attribute in event.all_attributes():
        obj = attribute_to_stix(attribute, event, **markings, **customs,
                                x_caop_attribute_uuid=attribute.uuid)
        if obj is not None:
            bundle.add(obj)
    # Knit the graph: every indicator in the event relates to the event's
    # vulnerability objects, so STIX consumers see one connected story
    # instead of loose objects.
    vulnerabilities = bundle.by_type("vulnerability")
    indicators = bundle.by_type("indicator")
    for vulnerability in vulnerabilities:
        for indicator in indicators:
            created = format_timestamp(indicator["created"])
            bundle.add(Relationship(
                id=content_stix_id("relationship", indicator["id"],
                                   vulnerability["id"]),
                relationship_type="related-to",
                source_ref=indicator["id"],
                target_ref=vulnerability["id"],
                created=created,
                modified=created,
                **markings,
                **customs,
            ))
    return bundle


def from_stix2_bundle(bundle: Bundle, info: Optional[str] = None) -> MispEvent:
    """Import a STIX 2.0 bundle as a MISP event (indicators + vulnerabilities).

    TLP marking references on the objects are recovered as a ``tlp:*`` tag.
    """
    from ..stix.markings import tlp_from_marking_refs

    event = MispEvent(info=info or f"Imported STIX bundle {bundle.id}")
    for obj in bundle:
        level = tlp_from_marking_refs(obj.get("object_marking_refs"))
        if level is not None and not any(
                tag.name.startswith("tlp:") for tag in event.tags):
            event.add_tag(f"tlp:{level}")
        if obj["type"] == "vulnerability":
            event.add_attribute(MispAttribute(
                type="vulnerability", value=obj["name"],
                comment=obj.get("description", ""),
            ))
        elif obj["type"] == "indicator":
            attribute = _indicator_to_attribute(obj)
            if attribute is not None:
                event.add_attribute(attribute)
    return event


def _indicator_to_attribute(indicator: StixObject) -> Optional[MispAttribute]:
    from ..stix.pattern import CompiledPattern

    try:
        comparisons = CompiledPattern(indicator["pattern"]).comparisons()
    except Exception:
        return None
    # First declaration wins so 'domain' round-trips as 'domain', not the
    # later 'hostname' alias of the same object path.  Both sides are
    # canonicalized through the pattern parser so quoting differences
    # (hashes.MD5 vs hashes.'MD5') cannot break the lookup.
    reverse: Dict[str, str] = {}
    for misp_type, object_path in _TYPE_TO_OBJECT_PATH.items():
        canonical = str(CompiledPattern(f"[{object_path} = 'x']").comparisons()[0].path)
        reverse.setdefault(canonical, misp_type)
    for comparison in comparisons:
        path = str(comparison.path)
        misp_type = reverse.get(path)
        if misp_type is not None and comparison.operator == "=":
            return MispAttribute(
                type=misp_type, value=str(comparison.value),
                comment=indicator.get("description", ""),
            )
    return None


def to_stix1_xml(event: MispEvent) -> str:
    """A STIX 1.x-flavoured XML export for legacy consumers.

    Structure (STIX_Package / Indicators / Observable) follows STIX 1.2
    conventions closely enough for XML-consuming SIEM connectors; it is a
    one-way export.
    """
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<stix:STIX_Package id="caop:package-{event.uuid}" version="1.2">',
        f"  <stix:STIX_Header><stix:Title>{escape(event.info)}</stix:Title></stix:STIX_Header>",
        "  <stix:Indicators>",
    ]
    for attribute in event.all_attributes():
        lines.append(f'    <stix:Indicator id="caop:indicator-{attribute.uuid}">')
        lines.append(f"      <indicator:Type>{escape(attribute.type)}</indicator:Type>")
        lines.append("      <indicator:Observable>")
        lines.append(
            f"        <cybox:Value>{escape(attribute.value)}</cybox:Value>")
        lines.append("      </indicator:Observable>")
        lines.append("    </stix:Indicator>")
    lines.append("  </stix:Indicators>")
    lines.append("</stix:STIX_Package>")
    return "\n".join(lines)


def to_csv(event: MispEvent) -> str:
    """CSV export: uuid,type,category,value,to_ids,comment."""
    rows = ["uuid,type,category,value,to_ids,comment"]
    for attribute in event.all_attributes():
        comment = attribute.comment.replace('"', '""')
        rows.append(
            f'{attribute.uuid},{attribute.type},{attribute.category},'
            f'"{attribute.value}",{int(attribute.to_ids)},"{comment}"')
    return "\n".join(rows) + "\n"


def to_plaintext_values(event: MispEvent,
                        attribute_type: Optional[str] = None) -> str:
    """One attribute value per line (blocklist-style export)."""
    values = [
        attribute.value for attribute in event.all_attributes()
        if attribute_type is None or attribute.type == attribute_type
    ]
    return "\n".join(values) + ("\n" if values else "")


#: Export format name -> callable, the instance's export-module registry.
EXPORT_MODULES = {
    "misp-json": to_misp_json,
    "stix2": lambda event: to_stix2_bundle(event).to_json(),
    "stix1-xml": to_stix1_xml,
    "csv": to_csv,
    "plaintext": to_plaintext_values,
}
