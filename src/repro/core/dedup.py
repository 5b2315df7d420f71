"""The deduplicator (§III-A1).

"To circumvent and avoid getting duplicate data, the component resorts of a
deduplicator mechanism that compares the data received with the data already
stored in the database, looking for security events equals to the received
ones, and erases the duplicated ones."

Duplicates are detected on the *content-derived uid* of the normalized
event, both within a batch and against everything seen in prior batches.
When a duplicate arrives from a *new feed*, the feed name is remembered —
that cross-feed sighting count is exactly what the ``osint_source`` /
``source_diversity`` heuristic features consume later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..obs import MetricsRegistry, NULL_REGISTRY
from .normalize import NormalizedEvent


@dataclass
class DedupStats:
    """Counters describing a deduplicator's history."""
    received: int = 0
    unique: int = 0
    duplicates: int = 0
    cross_feed_duplicates: int = 0

    @property
    def reduction_ratio(self) -> float:
        """Fraction of received events removed as duplicates."""
        if self.received == 0:
            return 0.0
        return self.duplicates / self.received


class Deduplicator:
    """Stateful duplicate filter keyed on the content uid."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._seen_feeds: Dict[str, Set[str]] = {}
        self.stats = DedupStats()
        metrics = metrics or NULL_REGISTRY
        self._m_events = metrics.counter(
            "caop_dedup_events_total",
            "Normalized events partitioned by dedup outcome")
        self._m_ratio = metrics.gauge(
            "caop_dedup_hit_ratio",
            "Lifetime fraction of received events removed as duplicates")

    def seen(self, uid: str) -> bool:
        """Whether this content uid has been observed before."""
        return uid in self._seen_feeds

    def feeds_for(self, uid: str) -> Set[str]:
        """Every feed that has ever reported this event."""
        return set(self._seen_feeds.get(uid, set()))

    def admit(self, keys: Iterable[Tuple[str, str]]) -> List[bool]:
        """Whether each ``(uid, feed name)`` of a batch is fresh.

        Updates the seen set as it goes, so a uid repeated within the batch
        is fresh only the first time.  The collector calls this with
        :meth:`~repro.core.Normalizer.uid` keys before it normalizes, so
        only fresh records pay for the NLP.
        """
        flags: List[bool] = []
        for uid, feed_name in keys:
            feeds = self._seen_feeds.get(uid)
            if feeds is None:
                self._seen_feeds[uid] = {feed_name}
                flags.append(True)
            else:
                if feed_name not in feeds:
                    feeds.add(feed_name)
                    self.stats.cross_feed_duplicates += 1
                flags.append(False)
        fresh = sum(flags)
        duplicates = len(flags) - fresh
        self.stats.received += len(flags)
        self.stats.unique += fresh
        self.stats.duplicates += duplicates
        if fresh:
            self._m_events.inc(fresh, outcome="unique")
        if duplicates:
            self._m_events.inc(duplicates, outcome="duplicate")
        self._m_ratio.set(self.stats.reduction_ratio)
        return flags

    def filter(self, events: Iterable[NormalizedEvent]
               ) -> Tuple[List[NormalizedEvent], List[NormalizedEvent]]:
        """Split a batch into (fresh, duplicates); updates the seen set."""
        events = list(events)
        flags = self.admit((event.uid, event.feed_name) for event in events)
        fresh = [event for event, new in zip(events, flags) if new]
        duplicates = [event for event, new in zip(events, flags) if not new]
        return fresh, duplicates

    def known_events(self) -> int:
        """Number of distinct events ever observed."""
        return len(self._seen_feeds)
