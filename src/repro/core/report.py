"""Intelligence report generation.

SIEM platforms carry a *reporting* module (§I lists it among the platform
modules); the CAOP equivalent digests the MISP store into an analyst-facing
periodic report: top threats by score, category volumes, infrastructure
exposure, sightings — rendered as markdown and exportable as a STIX 2.0
``report`` object whose ``object_refs`` point at the underlying intelligence.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..clock import Clock, SimulatedClock, ensure_utc, format_timestamp
from ..ids import content_stix_id
from ..misp import MispEvent, MispStore, to_stix2_bundle
from ..stix import Report, StixObject
from .compose import tags_to_category
from .decay import ScoreDecayEngine
from .deltas import StoreRollup
from .ioc import is_eioc, threat_score_of


@dataclass(frozen=True)
class ReportEntry:
    """One eIoC line in the report."""

    event_uuid: str
    info: str
    category: Optional[str]
    base_score: float
    current_score: float
    cve: Optional[str]


@dataclass
class IntelReport:
    """The digested state of the platform at one instant."""

    generated_at: _dt.datetime
    period: _dt.timedelta
    total_events: int
    total_eiocs: int
    category_volumes: Dict[str, int]
    top_threats: List[ReportEntry]
    expired_count: int
    mean_score: float
    #: Whole-store totals from the O(1) maintained counters (not windowed).
    store_events: int = 0
    store_attributes: int = 0

    def to_markdown(self) -> str:
        """Render the report as a markdown document."""
        lines = [
            "# CAOP intelligence report",
            f"_generated {self.generated_at.isoformat()} — "
            f"covering the last {self.period.days} days_",
            "",
            "## Summary",
            f"- events in store: **{self.total_events}** "
            f"({self.total_eiocs} enriched)",
            f"- store totals: {self.store_events} events, "
            f"{self.store_attributes} attributes",
            f"- mean live threat score: **{self.mean_score:.2f} / 5**",
            f"- expired IoCs swept: {self.expired_count}",
            "",
            "## Volume by category",
        ]
        for category, count in sorted(self.category_volumes.items(),
                                      key=lambda pair: -pair[1]):
            lines.append(f"- {category}: {count}")
        lines.append("")
        lines.append("## Top threats (by current score)")
        lines.append("| score | now | category | CVE | summary |")
        lines.append("|---|---|---|---|---|")
        for entry in self.top_threats:
            lines.append(
                f"| {entry.base_score:.2f} | {entry.current_score:.2f} "
                f"| {entry.category or '-'} | {entry.cve or '-'} "
                f"| {entry.info[:60]} |")
        return "\n".join(lines)


def summarize_event(event: MispEvent) -> Dict[str, Any]:
    """The report-relevant facts of one event, JSON-serializable.

    Everything :meth:`IntelReportBuilder.build` needs — window timestamp,
    eIoC flag, category, base score, first CVE, title — extracted once at
    write time so report generation never re-reads payloads.  Stored event
    timestamps are integer epoch seconds (the MISP wire format), so the
    epoch round trip is lossless.
    """
    vulnerabilities = event.attributes_of_type("vulnerability")
    return {
        "ts": int(event.timestamp.timestamp()),
        "eioc": is_eioc(event),
        "category": tags_to_category(event),
        "base": threat_score_of(event),
        "cve": vulnerabilities[0].value if vulnerabilities else None,
        "info": event.info,
    }


class IntelSummaryRollup(StoreRollup):
    """Materialized per-event report summaries fed by the change feed.

    Also what compaction reads to find expired events (one row per event
    uuid when persistent).
    """

    def __init__(self, store: MispStore, name: str = "rollup:intel-report",
                 persistent: bool = False) -> None:
        self.summaries: Dict[str, Dict[str, Any]] = {}
        super().__init__(store, name, persistent=persistent)

    def apply_delta(self, events: Sequence[MispEvent],
                    deleted: Sequence[str]) -> None:
        for uuid in deleted:
            self.summaries.pop(uuid, None)
            self.touch(uuid)
        for event in events:
            self.summaries[event.uuid] = summarize_event(event)
            self.touch(event.uuid)

    def row(self, key: str) -> Optional[Dict[str, Any]]:
        return self.summaries.get(key)

    def restore_row(self, key: str, value: Dict[str, Any]) -> None:
        self.summaries[key] = value


class IntelReportBuilder:
    """Builds :class:`IntelReport` digests over a MISP store.

    Two equivalent modes:

    - default: one time-windowed store query (the window's lower bound is
      pushed into SQL; only in-window payloads are fetched and decoded);
    - ``incremental=True``: digests are computed from an
      :class:`IntelSummaryRollup` maintained off the change feed, so
      building a report deserializes no payload at all.

    Both modes produce byte-identical reports: summaries carry exactly the
    fields the windowed scan extracts, in the same deterministic order
    (``timestamp DESC, uuid``).
    """

    def __init__(self, store: MispStore, clock: Optional[Clock] = None,
                 decay: Optional[ScoreDecayEngine] = None,
                 incremental: bool = False,
                 rollup_name: str = "rollup:intel-report",
                 persistent: bool = False) -> None:
        self._store = store
        self._clock = clock or SimulatedClock()
        self._decay = decay or ScoreDecayEngine(clock=self._clock)
        self.rollup: Optional[IntelSummaryRollup] = None
        if incremental:
            self.rollup = IntelSummaryRollup(
                store, name=rollup_name, persistent=persistent)

    def build(self, period: _dt.timedelta = _dt.timedelta(days=7),
              top: int = 10) -> IntelReport:
        """Digest the store into an :class:`IntelReport`."""
        now = self._clock.now()
        if self.rollup is not None:
            self.rollup.refresh()
            ordered = sorted(
                self.rollup.summaries.items(),
                key=lambda kv: (-kv[1]["ts"], kv[0]))
            records = [
                (uuid,
                 _dt.datetime.fromtimestamp(summary["ts"], tz=_dt.timezone.utc),
                 summary)
                for uuid, summary in ordered]
        else:
            # int() floors the cutoff, so the SQL prefilter is a superset
            # of the window; the exact python filter below trims the edge.
            cutoff = now - period
            records = [
                (event.uuid, ensure_utc(event.timestamp),
                 summarize_event(event))
                for event in self._store.list_events(since=cutoff)]
        return self._digest(now, period, top, records)

    def _digest(self, now: _dt.datetime, period: _dt.timedelta, top: int,
                records: Sequence[Tuple[str, _dt.datetime, Dict[str, Any]]]
                ) -> IntelReport:
        recent = [record for record in records if now - record[1] <= period]
        eiocs = [record for record in recent if record[2]["eioc"]]

        volumes: Dict[str, int] = {}
        entries: List[ReportEntry] = []
        expired = 0
        for uuid, timestamp, summary in eiocs:
            category = summary["category"]
            if category is not None:
                volumes[category] = volumes.get(category, 0) + 1
            base = summary["base"]
            if base is None:
                continue
            decayed = self._decay.evaluate_summary(
                uuid, category, base, timestamp)
            if decayed.expired:
                expired += 1
                continue
            entries.append(ReportEntry(
                event_uuid=uuid,
                info=summary["info"],
                category=category,
                base_score=base,
                current_score=decayed.current_score,
                cve=summary["cve"],
            ))
        entries.sort(key=lambda entry: -entry.current_score)
        mean = (sum(entry.current_score for entry in entries) / len(entries)
                if entries else 0.0)
        return IntelReport(
            generated_at=now,
            period=period,
            total_events=len(recent),
            total_eiocs=len(eiocs),
            category_volumes=volumes,
            top_threats=entries[:top],
            expired_count=expired,
            mean_score=mean,
            store_events=self._store.event_count(),
            store_attributes=self._store.attribute_count(),
        )

    def to_stix_report(self, report: IntelReport) -> Tuple[Report, List[StixObject]]:
        """Render the digest as a STIX ``report`` plus its referenced objects."""
        referenced: List[StixObject] = []
        refs: List[str] = []
        for entry in report.top_threats:
            event = self._store.get_event(entry.event_uuid)
            if event is None:
                continue
            for obj in to_stix2_bundle(event):
                referenced.append(obj)
                refs.append(obj["id"])
        stamp = format_timestamp(report.generated_at)
        if not refs:
            # A report must reference at least one object; reference itself
            # being empty is invalid, so synthesize a placeholder identity.
            from ..stix import Identity
            placeholder = Identity(
                id=content_stix_id("identity", "caop-platform"),
                name="CAOP platform", identity_class="organization",
                created=stamp, modified=stamp)
            referenced.append(placeholder)
            refs.append(placeholder["id"])
        stix_report = Report(
            id=content_stix_id("report", "caop", stamp),
            name=f"CAOP intelligence report {report.generated_at.date()}",
            published=stamp,
            labels=["threat-report"],
            object_refs=refs,
            created=stamp,
            modified=stamp,
        )
        return stix_report, referenced
