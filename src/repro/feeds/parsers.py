"""Parsers turning a :class:`FeedDocument` into :class:`FeedRecord` values.

Each wire format has quirks copied from real OSINT feeds:

- plaintext: one indicator per line, ``#`` comments, blank lines;
- CSV: first row is a header; a ``value`` (or format-specific) column holds
  the indicator and remaining columns become ``fields``;
- JSON: a list of objects, or an object with an ``entries`` list.

Hostile input fails as :class:`~repro.errors.ParseError`, which the
collector counts as a failed feed and quarantines: besides malformed
bodies, that covers a document nested deeper than the recursion limit
(any format), a JSON string holding a lone surrogate, which no UTF-8
store can bind, and a document of the wrong shape that makes a format
parser raise one of :data:`~repro.errors.MALFORMED_ERRORS`.
"""

from __future__ import annotations

import csv
import io
import re
from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..clock import parse_timestamp
from ..errors import MALFORMED_ERRORS, ParseError, decode_json
from .model import FeedDocument, FeedFormat, FeedRecord

_IPV4_RE = re.compile(r"^(?:\d{1,3}\.){3}\d{1,3}$")
_MD5_RE = re.compile(r"^[a-f0-9]{32}$", re.IGNORECASE)
_SHA256_RE = re.compile(r"^[a-f0-9]{64}$", re.IGNORECASE)
_CVE_RE = re.compile(r"^CVE-\d{4}-\d{4,}$", re.IGNORECASE)


def classify_indicator(value: str) -> str:
    """Infer an indicator type from the raw token."""
    token = value.strip()
    if _IPV4_RE.match(token):
        return "ipv4"
    if token.lower().startswith(("http://", "https://")):
        return "url"
    if _MD5_RE.match(token):
        return "md5"
    if _SHA256_RE.match(token):
        return "sha256"
    if _CVE_RE.match(token):
        return "cve"
    return "domain"


def parse_plaintext(document: FeedDocument) -> List[FeedRecord]:
    """One indicator per non-comment line."""
    records: List[FeedRecord] = []
    for line in document.body.splitlines():
        token = line.strip()
        if not token or token.startswith("#"):
            continue
        records.append(FeedRecord(
            feed_name=document.descriptor.name,
            category=document.descriptor.category,
            source_type=document.descriptor.source_type,
            indicator_type=classify_indicator(token),
            value=token,
            observed_at=document.fetched_at,
        ))
    return records


def parse_csv(document: FeedDocument, value_column: Optional[str] = None) -> List[FeedRecord]:
    """Header-ed CSV; indicator column auto-detected when not named."""
    reader = csv.DictReader(io.StringIO(document.body))
    if reader.fieldnames is None:
        raise ParseError(f"feed {document.descriptor.name}: empty CSV body")
    fieldnames = [name.strip() for name in reader.fieldnames]
    candidates = ("value", "indicator", "url", "domain", "ip", "md5", "sha256", "cve")
    column = value_column
    if column is None:
        for candidate in candidates:
            if candidate in fieldnames:
                column = candidate
                break
    if column is None or column not in fieldnames:
        raise ParseError(
            f"feed {document.descriptor.name}: no indicator column in {fieldnames}")
    records: List[FeedRecord] = []
    for row in reader:
        row = {(k or "").strip(): (v or "").strip() for k, v in row.items()}
        value = row.pop(column, "")
        if not value:
            continue
        observed = None
        for ts_key in ("date", "timestamp", "first_seen", "observed"):
            if row.get(ts_key):
                try:
                    observed = parse_timestamp(row[ts_key])
                except ValueError:
                    observed = None
                break
        records.append(FeedRecord(
            feed_name=document.descriptor.name,
            category=document.descriptor.category,
            source_type=document.descriptor.source_type,
            indicator_type=classify_indicator(value),
            value=value,
            fields=row,
            observed_at=observed or document.fetched_at,
        ))
    return records


def load_json(document: FeedDocument) -> Any:
    """Decode a JSON-based body with :func:`~repro.errors.decode_json`:
    malformed JSON, nesting past the recursion limit and a string holding a
    lone surrogate are each a :class:`ParseError`."""
    return decode_json(document.body, f"feed {document.descriptor.name}")


def parse_json(document: FeedDocument) -> List[FeedRecord]:
    """A JSON list of entry objects (or ``{"entries": [...]}``).

    Recognized entry keys: ``value``/``indicator``/``cve`` for the
    indicator, ``type`` to override classification; everything else becomes
    ``fields``.  Entries with neither an indicator nor a ``title``/``text``
    body are rejected.
    """
    data = load_json(document)
    if isinstance(data, Mapping):
        entries = data.get("entries")
        if not isinstance(entries, list):
            raise ParseError(
                f"feed {document.descriptor.name}: JSON object without 'entries' list")
    elif isinstance(data, list):
        entries = data
    else:
        raise ParseError(f"feed {document.descriptor.name}: JSON body must be list/object")

    records: List[FeedRecord] = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise ParseError(
                f"feed {document.descriptor.name}: entry {index} is not an object")
        fields: Dict[str, Any] = dict(entry)
        value = None
        matched_key = None
        for key in ("value", "indicator", "cve"):
            if entry.get(key):
                value = str(fields.pop(key))
                matched_key = key
                break
        if value is not None:
            indicator_type = (str(fields.pop("type", ""))
                              or ("cve" if matched_key == "cve" else "")
                              or classify_indicator(value))
        elif entry.get("title") or entry.get("text"):
            indicator_type = "text"
            value = str(entry.get("title") or entry.get("text"))[:200]
        else:
            raise ParseError(
                f"feed {document.descriptor.name}: entry {index} has no indicator or text")
        observed = None
        raw_ts = entry.get("date") or entry.get("published") or entry.get("timestamp")
        if raw_ts:
            try:
                observed = parse_timestamp(str(raw_ts))
            except ValueError:
                observed = None
        records.append(FeedRecord(
            feed_name=document.descriptor.name,
            category=document.descriptor.category,
            source_type=document.descriptor.source_type,
            indicator_type=indicator_type,
            value=value,
            fields=fields,
            observed_at=observed or document.fetched_at,
        ))
    return records


def parse_misp_json(document: FeedDocument) -> List[FeedRecord]:
    """A MISP feed: a JSON list of MISP event documents (or a single one).

    Each correlatable attribute of each event becomes one record; the
    event's ``info`` rides along in ``fields`` for traceability.
    """
    from ..misp.model import MispEvent

    data = load_json(document)
    if isinstance(data, Mapping):
        data = [data]
    if not isinstance(data, list):
        raise ParseError(
            f"feed {document.descriptor.name}: MISP feed must be a list of events")
    type_map = {"domain": "domain", "hostname": "domain", "url": "url",
                "ip-src": "ipv4", "ip-dst": "ipv4", "md5": "md5",
                "sha1": "sha1", "sha256": "sha256", "vulnerability": "cve"}
    records: List[FeedRecord] = []
    for entry in data:
        event = MispEvent.from_dict(entry)
        for attribute in event.all_attributes():
            indicator_type = type_map.get(attribute.type)
            if indicator_type is None:
                continue
            records.append(FeedRecord(
                feed_name=document.descriptor.name,
                category=document.descriptor.category,
                source_type=document.descriptor.source_type,
                indicator_type=indicator_type,
                value=attribute.value,
                fields={"event_info": event.info,
                        "comment": attribute.comment},
                observed_at=attribute.timestamp or document.fetched_at,
            ))
    return records


def parse_stix2(document: FeedDocument) -> List[FeedRecord]:
    """A STIX 2.0 feed: one bundle whose indicators/vulnerabilities become
    records.  Indicator patterns are unpacked through the pattern parser —
    only single-equality comparisons yield a typed indicator; anything more
    complex is kept as a raw ``pattern`` record so no intel is dropped.
    """
    from ..stix.bundle import Bundle
    from ..stix.pattern import CompiledPattern

    data = load_json(document)
    if not isinstance(data, Mapping):
        raise ParseError(
            f"feed {document.descriptor.name}: STIX feed must be a bundle")
    bundle = Bundle.from_dict(data)
    path_map = {
        "ipv4-addr:value": "ipv4",
        "domain-name:value": "domain",
        "url:value": "url",
        "file:hashes.MD5": "md5",
        "file:hashes.'MD5'": "md5",
        "file:hashes.'SHA-1'": "sha1",
        "file:hashes.'SHA-256'": "sha256",
    }
    records: List[FeedRecord] = []
    for obj in bundle:
        if obj["type"] == "vulnerability":
            records.append(FeedRecord(
                feed_name=document.descriptor.name,
                category=document.descriptor.category,
                source_type=document.descriptor.source_type,
                indicator_type="cve",
                value=obj["name"],
                fields={"summary": obj.get("description", "")},
                observed_at=obj.get("modified") or document.fetched_at,
            ))
        elif obj["type"] == "indicator":
            compiled = CompiledPattern(obj["pattern"])
            comparisons = compiled.comparisons()
            typed = None
            if len(comparisons) == 1 and comparisons[0].operator == "=":
                typed = path_map.get(str(comparisons[0].path))
            records.append(FeedRecord(
                feed_name=document.descriptor.name,
                category=document.descriptor.category,
                source_type=document.descriptor.source_type,
                indicator_type=typed or "pattern",
                value=(str(comparisons[0].value) if typed else obj["pattern"]),
                fields={"summary": obj.get("description", ""),
                        "pattern": obj["pattern"]},
                observed_at=obj.get("valid_from") or document.fetched_at,
            ))
    return records


_PARSERS = {
    FeedFormat.PLAINTEXT: parse_plaintext,
    FeedFormat.CSV: parse_csv,
    FeedFormat.JSON: parse_json,
    FeedFormat.MISP_JSON: parse_misp_json,
    FeedFormat.STIX2: parse_stix2,
}


def parse_document(document: FeedDocument) -> List[FeedRecord]:
    """Dispatch on the descriptor's format.

    What a format parser raises on malformed content, as listed in
    :data:`~repro.errors.MALFORMED_ERRORS`, and a recursion past the
    limit are raised as :class:`ParseError`, so the collector quarantines
    the document instead of failing the stage or the cycle.
    """
    parser = _PARSERS.get(document.descriptor.format)
    if parser is None:
        raise ParseError(
            f"no parser for feed format {document.descriptor.format!r}")
    try:
        return parser(document)
    except ParseError:
        raise
    except RecursionError as exc:
        raise ParseError(f"feed {document.descriptor.name}: document nested"
                         " deeper than the recursion limit") from exc
    except MALFORMED_ERRORS as exc:
        raise ParseError(f"feed {document.descriptor.name}: malformed"
                         f" document: {exc!r}") from exc
