"""The paper's contribution: the Context-Aware OSINT Platform core."""

from .aggregate import Aggregator
from .collector import CollectionReport, OsintDataCollector
from .compaction import (
    COMPACTION_SECONDS_BUCKETS,
    CompactionReport,
    CompactionStage,
)
from .compose import (
    CiocComposer,
    IRRELEVANT_TAG,
    OSINT_SOURCE_TAG,
    RELEVANT_TAG,
    category_tag,
    feed_tag,
    tags_to_category,
    tags_to_feeds,
)
from .correlate import Connection, EventCorrelator
from .decay import (
    CATEGORY_MODELS,
    DEFAULT_MODEL,
    DecayedScore,
    DecayModel,
    ScoreDecayEngine,
)
from .dedup import DedupStats, Deduplicator
from .deltas import (
    DeltaBatch,
    DeltaCursor,
    RollupGroup,
    StoreRollup,
    collapse_changes,
    load_delta_events,
)
from .enrich import (
    BREAKDOWN_COMMENT,
    EnrichmentResult,
    HeuristicComponent,
)
from .ioc import (
    FeatureScore,
    ReducedIoc,
    TAG_CIOC,
    TAG_EIOC,
    THREAT_SCORE_COMMENT,
    ThreatScoreResult,
    is_cioc,
    is_eioc,
    threat_score_of,
)
from .normalize import NormalizedEvent, Normalizer
from .platform import ContextAwareOSINTPlatform, CycleReport, PlatformConfig
from .reduce import RIocGenerator, event_text_blob
from .report import (
    IntelReport,
    IntelReportBuilder,
    IntelSummaryRollup,
    ReportEntry,
    summarize_event,
)
from .sightings import (
    SIGHTING_TAG,
    RescoreOutcome,
    SightingProcessor,
    SightingRecord,
)

__all__ = [
    "Aggregator",
    "CollectionReport",
    "OsintDataCollector",
    "COMPACTION_SECONDS_BUCKETS",
    "CompactionReport",
    "CompactionStage",
    "CiocComposer",
    "IRRELEVANT_TAG",
    "OSINT_SOURCE_TAG",
    "RELEVANT_TAG",
    "category_tag",
    "feed_tag",
    "tags_to_category",
    "tags_to_feeds",
    "Connection",
    "EventCorrelator",
    "CATEGORY_MODELS",
    "DEFAULT_MODEL",
    "DecayedScore",
    "DecayModel",
    "ScoreDecayEngine",
    "DedupStats",
    "Deduplicator",
    "DeltaBatch",
    "DeltaCursor",
    "RollupGroup",
    "StoreRollup",
    "collapse_changes",
    "load_delta_events",
    "BREAKDOWN_COMMENT",
    "EnrichmentResult",
    "HeuristicComponent",
    "FeatureScore",
    "ReducedIoc",
    "TAG_CIOC",
    "TAG_EIOC",
    "THREAT_SCORE_COMMENT",
    "ThreatScoreResult",
    "is_cioc",
    "is_eioc",
    "threat_score_of",
    "NormalizedEvent",
    "Normalizer",
    "ContextAwareOSINTPlatform",
    "CycleReport",
    "PlatformConfig",
    "RIocGenerator",
    "event_text_blob",
    "IntelReport",
    "IntelReportBuilder",
    "IntelSummaryRollup",
    "ReportEntry",
    "summarize_event",
    "SIGHTING_TAG",
    "RescoreOutcome",
    "SightingProcessor",
    "SightingRecord",
]
