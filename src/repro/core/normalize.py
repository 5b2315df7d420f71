"""Normalization of parsed feed records into the common event model.

"Normalization is required since OSINT data comes in various formats, such
as plaintext and csv.  Therefore, to process correctly the security events
received, it is necessary that they should be in a common format" (§III-A1).

Free-text records additionally go through the NLP substrate: threat-category
tagging, relevance classification (with confidence) and entity extraction —
the §II-A enhancements.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..feeds import FeedRecord
from ..ids import content_uuid
from ..nlp import GazetteerExtractor, RelevanceClassifier, ThreatTagger, extract_iocs


@dataclass(frozen=True)
class NormalizedEvent:
    """The platform's common security-event format.

    ``uid`` is *content-derived*: the same indicator reported by two feeds
    maps to the same uid, which is what makes deduplication a set lookup.
    """

    uid: str
    category: str
    indicator_type: str
    value: str
    description: str
    feed_name: str
    source_type: str
    observed_at: Optional[_dt.datetime]
    fields: Mapping[str, Any] = field(default_factory=dict)
    #: NLP annotations (only populated for text events).
    threat_categories: Tuple[str, ...] = ()
    relevant: Optional[bool] = None
    relevance_confidence: Optional[float] = None
    extracted: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def is_text(self) -> bool:
        """Whether this is a free-text (news) event."""
        return self.indicator_type == "text"


def _title(record: FeedRecord) -> str:
    """A news record's headline."""
    return str(record.fields.get("title", "")) or record.value


def _value(record: FeedRecord) -> str:
    """An indicator record's value in its canonical case, trimmed."""
    value = record.value.strip()
    if record.indicator_type in ("domain", "url", "md5", "sha1", "sha256"):
        value = value.lower()
    if record.indicator_type == "cve":
        value = value.upper()
    return value


class Normalizer:
    """Stateless-per-record normalizer with shared NLP components."""

    def __init__(self, tagger: Optional[ThreatTagger] = None,
                 classifier: Optional[RelevanceClassifier] = None,
                 gazetteer: Optional[GazetteerExtractor] = None) -> None:
        self._tagger = tagger or ThreatTagger()
        self._classifier = classifier or RelevanceClassifier()
        self._gazetteer = gazetteer or GazetteerExtractor()

    def uid(self, record: FeedRecord) -> str:
        """The content uid :meth:`normalize` gives ``record``, without NLP.

        News is keyed on its lower-cased title, so two feeds carrying the
        same story (same headline) deduplicate even if the body differs
        slightly; any other record on its normalized value.  The collector
        deduplicates on this before it normalizes, so the NLP runs only for
        a story not seen before.
        """
        if record.indicator_type == "text":
            return content_uuid("text", _title(record).lower())
        return content_uuid(record.indicator_type, _value(record))

    def normalize(self, record: FeedRecord) -> NormalizedEvent:
        """Map one parsed feed record onto the common format."""
        uid = self.uid(record)
        if record.indicator_type == "text":
            return self._normalize_text(record, uid)
        description = str(record.fields.get("summary", "")) or \
            f"{record.indicator_type} indicator from feed {record.feed_name}"
        return NormalizedEvent(
            uid=uid,
            category=record.category,
            indicator_type=record.indicator_type,
            value=_value(record),
            description=description,
            feed_name=record.feed_name,
            source_type=record.source_type,
            observed_at=record.observed_at,
            fields=dict(record.fields),
        )

    def _normalize_text(self, record: FeedRecord, uid: str) -> NormalizedEvent:
        text = str(record.fields.get("text", "")) or record.value
        title = _title(record)
        blob = f"{title}. {text}"
        tags = self._tagger.categories(blob)
        prediction = self._classifier.predict(blob)
        entities = extract_iocs(blob)
        named = self._gazetteer.extract(blob)
        extracted: Dict[str, Tuple[str, ...]] = {
            k: v for k, v in entities.as_dict().items() if v
        }
        for kind, names in named.items():
            extracted[kind] = tuple(names)
        return NormalizedEvent(
            uid=uid,
            category=record.category,
            indicator_type="text",
            value=title,
            description=text,
            feed_name=record.feed_name,
            source_type=record.source_type,
            observed_at=record.observed_at,
            fields=dict(record.fields),
            threat_categories=tuple(tags),
            relevant=prediction.label == RelevanceClassifier.RELEVANT,
            relevance_confidence=prediction.confidence,
            extracted=extracted,
        )

    def normalize_all(self, records: List[FeedRecord]) -> List[NormalizedEvent]:
        """Normalize a batch of feed records."""
        return [self.normalize(record) for record in records]
