"""Delta-sync machinery for the sharing fan-out.

MISP's server-to-server protocol and TAXII 2.0's collection pulls are both
*incremental*: a consumer only receives what changed since its last
successful sync.  This module gives the :class:`~repro.sharing.SharingGateway`
the same shape over the local store:

- :func:`event_digest` — canonical content digest of one event (sha256 over
  the sorted-key MISP JSON), the identity the ledger and render cache key on;
- :func:`terminal_digest` / :func:`digest_matches` — the entries of the
  per-entity digest ledger that :class:`~repro.misp.MispStore` persists next
  to each entity's audit-seq watermark (``sync_state``/``sync_digests``).
  Each cycle the gateway reads the store's change feed once, from the
  lowest entity watermark up to the cycle's cursor, and collapses it with
  :func:`~repro.core.deltas.collapse_changes`; every live event changed
  after an entity's watermark is a candidate for it, and the digest ledger
  then drops candidates whose content the entity already holds — so a
  steady-state cycle shares (and renders) nothing;
- :class:`RenderCache` — per-cycle payload cache keyed on ``(digest,
  format)``: a STIX bundle or MISP JSON document is serialized once per
  cycle no matter how many entities receive it.  The MISP JSON render is
  the wire copy a peer receives (:meth:`~repro.misp.MispInstance.wire_form`,
  the hop downgrade applied), which both MISP transports send as is;
- :class:`ShareCycleReport` — what one ``sync_cycle`` accomplished.

Order (docs/SHARING.md): candidates are ordered by their last audit change
(then uuid), payloads are rendered while the plan is built, and ledger
writes are committed entity by entity, in registration order, after every
entity's shares have run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..misp import MispEvent, MispInstance, to_stix2_bundle
from ..misp.export import canonical_json, to_misp_json
from ..misp.store import blob_digest
from ..obs import MetricsRegistry, NULL_REGISTRY

#: Share outcome labels (the ``caop_share_outcomes_total`` counter values).
OUTCOME_OK = "ok"
OUTCOME_FAILED = "failed"
OUTCOME_REFUSED = "refused"
OUTCOME_SKIPPED = "skipped"
OUTCOME_UNCHANGED = "unchanged"

#: Render formats the cache understands.
FORMAT_MISP_JSON = "misp-json"
FORMAT_STIX = "stix"


def event_digest(event: MispEvent) -> str:
    """Canonical content digest of one event.

    The sha256 of :func:`~repro.misp.export.canonical_json`, the bytes the
    store keeps as the event's blob, so any two events whose ``to_dict``
    forms are equal share a digest regardless of attribute object identity
    or construction order, and :meth:`~repro.misp.MispStore.event_digests`
    reads it without decoding.
    """
    return blob_digest(canonical_json(event))


@dataclass
class RenderedPayload:
    """One cached serialization: the wire bytes plus transport-ready form."""

    format: str
    text: str
    #: For :data:`FORMAT_STIX`: the bundle's object dicts (what a TAXII
    #: push posts); empty for MISP JSON.
    objects: Tuple[Dict[str, Any], ...] = ()

    @property
    def size(self) -> int:
        """Payload size in bytes (what ``SharingRecord.payload_bytes`` carries)."""
        return len(self.text)


class RenderCache:
    """Payload render cache keyed on ``(content identity, format)``.

    The gateway calls ``get_or_render`` while it builds the cycle's plan,
    so a payload needed by N entities is serialized exactly once per
    cycle; the hit/miss counters land on ``caop_share_renders_total``.
    Other fan-out paths (the dashboard's snapshot+delta hub) reuse the
    same cache shape through :meth:`get_or_build` under their own metric
    name.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 metric_name: str = "caop_share_renders_total",
                 metric_help: str = "Render-cache lookups by the sharing "
                                    "fan-out, labelled hit/miss") -> None:
        self._cache: Dict[Tuple[str, str], RenderedPayload] = {}
        self.hits = 0
        self.misses = 0
        metrics = metrics or NULL_REGISTRY
        self._m_renders = metrics.counter(metric_name, metric_help)

    def get_or_build(self, key: Tuple[str, str],
                     builder: Callable[[], RenderedPayload]
                     ) -> RenderedPayload:
        """The cached payload for ``key``, calling ``builder`` on first use."""
        payload = self._cache.get(key)
        if payload is not None:
            self.hits += 1
            self._m_renders.inc(result="hit")
            return payload
        payload = builder()
        self._cache[key] = payload
        self.misses += 1
        self._m_renders.inc(result="miss")
        return payload

    def get_or_render(self, event: MispEvent, digest: str,
                      render_format: str) -> RenderedPayload:
        """The cached payload for (digest, format), rendering on first use."""
        return self.get_or_build(
            (digest, render_format),
            lambda: self._render(event, render_format))

    def reset(self) -> None:
        """Drop every cached payload (the hit/miss counters are kept)."""
        self._cache.clear()

    @staticmethod
    def _render(event: MispEvent, render_format: str) -> RenderedPayload:
        if render_format == FORMAT_MISP_JSON:
            return RenderedPayload(
                format=render_format,
                text=to_misp_json(MispInstance.wire_form(event)))
        bundle = to_stix2_bundle(event)
        return RenderedPayload(
            format=FORMAT_STIX,
            text=bundle.to_json(),
            objects=tuple(obj.to_dict() for obj in bundle))

    @property
    def renders(self) -> int:
        """Actual serializations performed this cycle (cache misses)."""
        return self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 with no lookups)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: Digest-ledger marker prefixes for terminal non-ok outcomes.  A refused
#: or distribution-skipped share is *handled* for that content version (it
#: will not be re-attempted until the event changes), but the marker keeps
#: the ledger honest about what actually crossed the gateway.
def terminal_digest(outcome: str, digest: str) -> str:
    """The ledger entry recording a terminal non-ok outcome for a digest."""
    return f"{outcome}:{digest}"


def digest_matches(ledger_entry: Optional[str], digest: str) -> bool:
    """Whether a ledger entry covers this content digest (ok or terminal)."""
    if ledger_entry is None:
        return False
    return ledger_entry.rsplit(":", 1)[-1] == digest


@dataclass
class PlannedShare:
    """One entity×event unit of a sync cycle, in candidate order."""

    #: "share" (needs transport), or an outcome decided at plan time with
    #: no transport: "refused" (policy) or "skipped" (the entity holds it).
    kind: str
    event: Any
    seq: int
    digest: str
    payload: Optional[RenderedPayload] = None
    detail: str = ""
    #: Provenance trace context (``{"trace_id", "path"}``) computed at plan
    #: time; rides *alongside* the payload so the shared content (and its
    #: digest) never changes.
    trace: Optional[Dict[str, Any]] = None


@dataclass
class EntityCycle:
    """One entity's slice of a sync cycle (the gateway's internal plan)."""

    entity: Any
    watermark: int
    target_seq: int
    #: Planned units in deterministic candidate (last-change seq) order.
    items: List[PlannedShare] = field(default_factory=list)
    #: Candidates dropped because the entity already holds their digest.
    unchanged: int = 0


@dataclass
class ShareCycleReport:
    """Aggregate outcome of one ``SharingGateway.sync_cycle``."""

    entities: int = 0
    events_considered: int = 0
    shared: int = 0
    failed: int = 0
    refused: int = 0
    skipped: int = 0
    unchanged: int = 0
    breaker_skipped: int = 0
    renders: int = 0
    render_hits: int = 0
    payload_bytes: int = 0
    #: The SharingRecords appended to the gateway audit log this cycle.
    records: List[Any] = field(default_factory=list)

    @property
    def render_hit_rate(self) -> float:
        """Render-cache hit rate across this cycle's payload lookups."""
        total = self.renders + self.render_hits
        return self.render_hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary (CLI/report surface)."""
        return {
            "entities": self.entities,
            "events_considered": self.events_considered,
            "shared": self.shared,
            "failed": self.failed,
            "refused": self.refused,
            "skipped": self.skipped,
            "unchanged": self.unchanged,
            "breaker_skipped": self.breaker_skipped,
            "renders": self.renders,
            "render_hits": self.render_hits,
            "payload_bytes": self.payload_bytes,
        }
