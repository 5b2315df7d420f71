"""Observability layer: metrics, tracing, provenance, logs, and SLOs.

Every pipeline component accepts an optional :class:`MetricsRegistry`; the
platform wiring (`ContextAwareOSINTPlatform.build_with_feeds`) creates one
registry + one :class:`Tracer` and threads them through the whole Fig. 1
architecture.  On top of that substrate sit three subsystems (PR 6):

- :mod:`repro.obs.provenance` — stable per-IoC trace ids and typed
  lineage events, persisted in the store and stitched cross-org;
- :mod:`repro.obs.log` — structured JSON logging with deterministic
  emission order across any worker count;
- :mod:`repro.obs.slo` / :mod:`repro.obs.timeseries` — per-cycle metric
  snapshots and declarative SLO rules evaluated with fast/slow burn-rate
  windows.

See ``docs/OBSERVABILITY.md`` for the metric catalog, the log record
schema, the provenance model, and SLO semantics.
"""

from .log import (
    LOG_LEVELS,
    LOG_RECORD_SCHEMA,
    NULL_LOG,
    StructuredLog,
    validate_record,
    validate_records,
)
from .metrics import (
    BYTES_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    OVERFLOW_KEY,
    SCORE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    NULL_REGISTRY,
)
from .provenance import (
    LINEAGE_KINDS,
    NULL_RECORDER,
    ProvenanceEvent,
    ProvenanceRecorder,
    origin_path,
    render_lineage,
    share_context,
    share_contexts,
    stitch_lineage,
    trace_id_for,
)
from .slo import SloEngine, SloRule, SloStatus, default_slo_rules
from .timeseries import CycleSnapshot, MetricTimeSeries
from .trace import SPAN_METRIC, Span, Tracer

__all__ = [
    "BYTES_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "LINEAGE_KINDS",
    "LOG_LEVELS",
    "LOG_RECORD_SCHEMA",
    "NULL_LOG",
    "NULL_RECORDER",
    "NULL_REGISTRY",
    "OVERFLOW_KEY",
    "SCORE_BUCKETS",
    "SPAN_METRIC",
    "Counter",
    "CycleSnapshot",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricTimeSeries",
    "MetricsRegistry",
    "ProvenanceEvent",
    "ProvenanceRecorder",
    "SloEngine",
    "SloRule",
    "SloStatus",
    "Span",
    "StructuredLog",
    "Tracer",
    "default_slo_rules",
    "origin_path",
    "render_lineage",
    "share_context",
    "share_contexts",
    "stitch_lineage",
    "trace_id_for",
    "validate_record",
    "validate_records",
]
