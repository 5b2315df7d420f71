"""Sharing: TAXII-lite, external entities, SIEM connector + detection metrics."""

from .external import ExternalEntity, SharingGateway, SharingRecord
from .policy import DEFAULT_TLP, SharingPolicy, Tlp, mark_tlp, tlp_of
from .siem import CorrelationRule, DetectionReport, SiemAlert, SiemConnector
from .sync import (
    FORMAT_MISP_JSON,
    FORMAT_STIX,
    RenderCache,
    RenderedPayload,
    ShareCycleReport,
    digest_matches,
    event_digest,
    terminal_digest,
)
from .taxii import TaxiiClient, TaxiiCollection, TaxiiServer

__all__ = [
    "ExternalEntity",
    "DEFAULT_TLP",
    "FORMAT_MISP_JSON",
    "FORMAT_STIX",
    "RenderCache",
    "RenderedPayload",
    "ShareCycleReport",
    "SharingPolicy",
    "Tlp",
    "digest_matches",
    "event_digest",
    "mark_tlp",
    "terminal_digest",
    "tlp_of",
    "SharingGateway",
    "SharingRecord",
    "CorrelationRule",
    "DetectionReport",
    "SiemAlert",
    "SiemConnector",
    "TaxiiCollection",
    "TaxiiClient",
    "TaxiiServer",
]
