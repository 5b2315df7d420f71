"""The remaining five heuristics of §III-B2a (Table II feature sets).

attack-pattern, identity, indicator, malware and tool.  The paper only
tabulates attribute scores for the vulnerability heuristic (Table IV); for
the others it lists the feature names (Table II) and leaves values "assigned
... based on expert knowledge".  The score tables below follow the same
design language as Table IV (0 = no info, 5 = strongest signal) and are
documented constants so they can be audited and ablated.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from ...stix import vocab
from .context import EvaluationContext
from .engine import CriteriaPoints, FeatureDefinition, Heuristic
from . import features as shared

# -- attack-pattern -----------------------------------------------------------

ATTACK_TYPE_SCORES: Mapping[str, int] = {
    "named_capec": 5, "named": 3, "unnamed": 0,
}

DETECTION_TOOL_SCORES: Mapping[str, int] = {
    "detection_deployed": 4, "no_detection": 1,
}


def attack_type(context: EvaluationContext) -> Tuple[Optional[int], str]:
    """Is the TTP identified (ideally cross-referenced to CAPEC)?"""
    name = context.stix_object.get("name")
    if not name:
        return 0, "unnamed"
    for reference in context.stix_object.get("external_references") or []:
        if reference.source_name.lower() == "capec":
            return ATTACK_TYPE_SCORES["named_capec"], "named_capec"
    return ATTACK_TYPE_SCORES["named"], "named"


def detection_tool(context: EvaluationContext) -> Tuple[Optional[int], str]:
    """Does the infrastructure run IDS tooling able to detect the TTP?"""
    if context.inventory is None:
        return None, "no_info"
    terms = context.inventory.all_software_terms()
    if terms & {"nids", "hids", "snort", "suricata", "ossec"}:
        return DETECTION_TOOL_SCORES["detection_deployed"], "detection_deployed"
    return DETECTION_TOOL_SCORES["no_detection"], "no_detection"


def build_attack_pattern_heuristic() -> Heuristic:
    """The attack-pattern heuristic (Table II features)."""
    return Heuristic(
        name="attack_pattern",
        stix_type="attack-pattern",
        features=[
            FeatureDefinition("attack_type", "TTP identified / CAPEC-referenced",
                              attack_type,
                              CriteriaPoints(5, 3, 1, 1), ATTACK_TYPE_SCORES),
            FeatureDefinition("detection_tool", "IDS tooling deployed that can catch it",
                              detection_tool,
                              CriteriaPoints(5, 5, 1, 1), DETECTION_TOOL_SCORES),
            FeatureDefinition("modified_created", "object recency",
                              shared.modified_created,
                              CriteriaPoints(1, 1, 1, 1), shared.MODIFIED_CREATED_SCORES),
            FeatureDefinition("valid_from", "validity start recency",
                              shared.valid_from,
                              CriteriaPoints(1, 1, 1, 1), shared.VALID_FROM_SCORES),
            FeatureDefinition("external_references", "known reference backing",
                              shared.external_references,
                              CriteriaPoints(5, 7, 10, 1), shared.EXTERNAL_REFERENCES_SCORES),
            FeatureDefinition("kill_chain_phases", "kill-chain coverage",
                              shared.kill_chain_phases,
                              CriteriaPoints(3, 1, 1, 1), shared.KILL_CHAIN_SCORES),
            FeatureDefinition("osint_source", "distinct OSINT feeds reporting",
                              shared.osint_source,
                              CriteriaPoints(1, 1, 1, 4), shared.OSINT_SOURCE_SCORES),
            FeatureDefinition("source_type", "source family variety",
                              shared.source_type,
                              CriteriaPoints(1, 1, 1, 5), shared.SOURCE_TYPE_SCORES),
        ],
    )


# -- identity ---------------------------------------------------------------------

IDENTITY_CLASS_SCORES: Mapping[str, int] = {"recommended": 3, "non_standard": 1}
NAME_SCORES: Mapping[str, int] = {"named": 2, "unnamed": 0}
SECTORS_SCORES: Mapping[str, int] = {"sector_overlap": 5, "sectors_listed": 2,
                                     "no_sectors": 0}
LOCATION_SCORES: Mapping[str, int] = {"known_location": 2, "no_location": 0}

#: Sectors the monitored organization belongs to; identities targeting the
#: same sectors matter more.  Configurable via the registry builder.
DEFAULT_MONITORED_SECTORS = frozenset({"technology", "telecommunications"})


def identity_class(context: EvaluationContext) -> Tuple[Optional[int], str]:
    """Score whether the identity class is standard."""
    value = context.stix_object.get("identity_class")
    if not value:
        return None, "no_info"
    if value in vocab.IDENTITY_CLASS:
        return IDENTITY_CLASS_SCORES["recommended"], "recommended"
    return IDENTITY_CLASS_SCORES["non_standard"], "non_standard"


def identity_name(context: EvaluationContext) -> Tuple[Optional[int], str]:
    """Score whether the identity is named."""
    name = context.stix_object.get("name")
    if name:
        return NAME_SCORES["named"], "named"
    return 0, "unnamed"


def make_sectors_extractor(monitored_sectors: frozenset):
    """Build a sectors extractor bound to monitored sectors."""
    def sectors(context: EvaluationContext) -> Tuple[Optional[int], str]:
        listed = context.stix_object.get("sectors") or []
        if not listed:
            return 0, "no_sectors"
        if set(listed) & monitored_sectors:
            return SECTORS_SCORES["sector_overlap"], "sector_overlap"
        return SECTORS_SCORES["sectors_listed"], "sectors_listed"
    return sectors


def location(context: EvaluationContext) -> Tuple[Optional[int], str]:
    """Is a location present (custom property or gazetteer hit in the text)?"""
    custom = context.stix_object.get("x_caop_location")
    if custom:
        return LOCATION_SCORES["known_location"], "known_location"
    from ...nlp import GazetteerExtractor
    hits = GazetteerExtractor().extract(context.text_blob())
    if hits.get("location"):
        return LOCATION_SCORES["known_location"], "known_location"
    return 0, "no_location"


def build_identity_heuristic(
        monitored_sectors: frozenset = DEFAULT_MONITORED_SECTORS) -> Heuristic:
    """The identity heuristic (Table II features)."""
    return Heuristic(
        name="identity",
        stix_type="identity",
        features=[
            FeatureDefinition("identity_class", "standard identity class",
                              identity_class,
                              CriteriaPoints(3, 1, 1, 1), IDENTITY_CLASS_SCORES),
            FeatureDefinition("name", "identity is named",
                              identity_name, CriteriaPoints(2, 1, 1, 1), NAME_SCORES),
            FeatureDefinition("sectors", "sector overlap with the monitored org",
                              make_sectors_extractor(monitored_sectors),
                              CriteriaPoints(5, 5, 1, 1), SECTORS_SCORES),
            FeatureDefinition("modified_created", "object recency",
                              shared.modified_created,
                              CriteriaPoints(1, 1, 1, 1), shared.MODIFIED_CREATED_SCORES),
            FeatureDefinition("valid_from", "validity start recency",
                              shared.valid_from,
                              CriteriaPoints(1, 1, 1, 1), shared.VALID_FROM_SCORES),
            FeatureDefinition("location", "location identified",
                              location, CriteriaPoints(3, 1, 1, 1), LOCATION_SCORES),
            FeatureDefinition("osint_source", "distinct OSINT feeds reporting",
                              shared.osint_source,
                              CriteriaPoints(1, 1, 1, 4), shared.OSINT_SOURCE_SCORES),
            FeatureDefinition("source_type", "source family variety",
                              shared.source_type,
                              CriteriaPoints(1, 1, 1, 5), shared.SOURCE_TYPE_SCORES),
        ],
    )


# -- indicator -----------------------------------------------------------------------

INDICATOR_TYPE_SCORES: Mapping[str, int] = {"recommended_label": 3, "other_label": 1,
                                            "no_label": 0}
PATTERN_SCORES: Mapping[str, int] = {"valid_pattern": 5, "invalid_pattern": 1}


def indicator_type(context: EvaluationContext) -> Tuple[Optional[int], str]:
    """Score the indicator's label against the vocabulary."""
    labels = context.stix_object.get("labels") or []
    if not labels:
        return 0, "no_label"
    if any(label in vocab.INDICATOR_LABEL for label in labels):
        return INDICATOR_TYPE_SCORES["recommended_label"], "recommended_label"
    return INDICATOR_TYPE_SCORES["other_label"], "other_label"


def pattern(context: EvaluationContext) -> Tuple[Optional[int], str]:
    """Does the indicator carry a parseable STIX pattern?"""
    text = context.stix_object.get("pattern")
    if not text:
        return None, "no_info"
    from ...stix.pattern import is_valid_pattern
    if not is_valid_pattern(text):
        return PATTERN_SCORES["invalid_pattern"], "invalid_pattern"
    return PATTERN_SCORES["valid_pattern"], "valid_pattern"


def build_indicator_heuristic() -> Heuristic:
    """The indicator heuristic (Table II features)."""
    return Heuristic(
        name="indicator",
        stix_type="indicator",
        features=[
            FeatureDefinition("indicator_type", "recommended indicator label",
                              indicator_type,
                              CriteriaPoints(3, 1, 1, 1), INDICATOR_TYPE_SCORES),
            FeatureDefinition("modified_created", "object recency",
                              shared.modified_created,
                              CriteriaPoints(1, 1, 1, 1), shared.MODIFIED_CREATED_SCORES),
            FeatureDefinition("valid_from", "validity start recency",
                              shared.valid_from,
                              CriteriaPoints(1, 1, 1, 1), shared.VALID_FROM_SCORES),
            FeatureDefinition("external_references", "known reference backing",
                              shared.external_references,
                              CriteriaPoints(5, 7, 10, 1), shared.EXTERNAL_REFERENCES_SCORES),
            FeatureDefinition("kill_chain_phases", "kill-chain coverage",
                              shared.kill_chain_phases,
                              CriteriaPoints(3, 1, 1, 1), shared.KILL_CHAIN_SCORES),
            FeatureDefinition("pattern", "machine-actionable detection pattern",
                              pattern, CriteriaPoints(5, 5, 1, 1), PATTERN_SCORES),
            FeatureDefinition("osint_source", "distinct OSINT feeds reporting",
                              shared.osint_source,
                              CriteriaPoints(1, 1, 1, 4), shared.OSINT_SOURCE_SCORES),
            FeatureDefinition("source_type", "source family variety",
                              shared.source_type,
                              CriteriaPoints(1, 1, 1, 5), shared.SOURCE_TYPE_SCORES),
        ],
    )


# -- malware -----------------------------------------------------------------------------

MALWARE_CATEGORY_SCORES: Mapping[str, int] = {"recommended_label": 3, "other_label": 1,
                                              "no_label": 0}
MALWARE_STATUS_SCORES: Mapping[str, int] = {"active_campaign": 4, "documented": 2,
                                            "unknown": 0}


def malware_category(context: EvaluationContext) -> Tuple[Optional[int], str]:
    """Score the malware label against the vocabulary."""
    labels = context.stix_object.get("labels") or []
    if not labels:
        return 0, "no_label"
    if any(label in vocab.MALWARE_LABEL for label in labels):
        return MALWARE_CATEGORY_SCORES["recommended_label"], "recommended_label"
    return MALWARE_CATEGORY_SCORES["other_label"], "other_label"


def malware_status(context: EvaluationContext) -> Tuple[Optional[int], str]:
    """Is the family in an active campaign (recent modification) or archival?"""
    value, label = shared.modified_created(context)
    if value is None:
        return 0, "unknown"
    if label in ("last_24h", "last_week", "last_month"):
        return MALWARE_STATUS_SCORES["active_campaign"], "active_campaign"
    return MALWARE_STATUS_SCORES["documented"], "documented"


def build_malware_heuristic() -> Heuristic:
    """The malware heuristic (Table II features)."""
    return Heuristic(
        name="malware",
        stix_type="malware",
        features=[
            FeatureDefinition("category", "recommended malware label",
                              malware_category,
                              CriteriaPoints(3, 1, 1, 1), MALWARE_CATEGORY_SCORES),
            FeatureDefinition("status", "active campaign vs archival",
                              malware_status,
                              CriteriaPoints(3, 1, 3, 1), MALWARE_STATUS_SCORES),
            FeatureDefinition("operating_system", "targeted operating system",
                              shared.operating_system,
                              CriteriaPoints(5, 1, 1, 1), shared.OPERATING_SYSTEM_SCORES),
            FeatureDefinition("modified_created", "object recency",
                              shared.modified_created,
                              CriteriaPoints(1, 1, 1, 1), shared.MODIFIED_CREATED_SCORES),
            FeatureDefinition("valid_from", "validity start recency",
                              shared.valid_from,
                              CriteriaPoints(1, 1, 1, 1), shared.VALID_FROM_SCORES),
            FeatureDefinition("external_references", "known reference backing",
                              shared.external_references,
                              CriteriaPoints(5, 7, 10, 1), shared.EXTERNAL_REFERENCES_SCORES),
            FeatureDefinition("kill_chain_phases", "kill-chain coverage",
                              shared.kill_chain_phases,
                              CriteriaPoints(3, 1, 1, 1), shared.KILL_CHAIN_SCORES),
            FeatureDefinition("osint_source", "distinct OSINT feeds reporting",
                              shared.osint_source,
                              CriteriaPoints(1, 1, 1, 4), shared.OSINT_SOURCE_SCORES),
            FeatureDefinition("source_type", "source family variety",
                              shared.source_type,
                              CriteriaPoints(1, 1, 1, 5), shared.SOURCE_TYPE_SCORES),
        ],
    )


# -- tool ---------------------------------------------------------------------------------

TOOL_TYPE_SCORES: Mapping[str, int] = {"recommended_label": 3, "other_label": 1,
                                       "no_label": 0}
TOOL_NAME_SCORES: Mapping[str, int] = {"well_known": 4, "named": 2, "unnamed": 0}

#: Dual-use tooling commonly abused by attackers.
WELL_KNOWN_TOOLS = frozenset({
    "mimikatz", "cobalt strike", "metasploit", "nmap", "psexec",
    "powershell empire", "bloodhound", "responder",
})


def tool_type(context: EvaluationContext) -> Tuple[Optional[int], str]:
    """Score the tool label against the vocabulary."""
    labels = context.stix_object.get("labels") or []
    if not labels:
        return 0, "no_label"
    if any(label in vocab.TOOL_LABEL for label in labels):
        return TOOL_TYPE_SCORES["recommended_label"], "recommended_label"
    return TOOL_TYPE_SCORES["other_label"], "other_label"


def tool_name(context: EvaluationContext) -> Tuple[Optional[int], str]:
    """Score whether the tool is a known dual-use name."""
    name = (context.stix_object.get("name") or "").lower()
    if not name:
        return 0, "unnamed"
    if name in WELL_KNOWN_TOOLS:
        return TOOL_NAME_SCORES["well_known"], "well_known"
    return TOOL_NAME_SCORES["named"], "named"


def build_tool_heuristic() -> Heuristic:
    """The tool heuristic (Table II features)."""
    return Heuristic(
        name="tool",
        stix_type="tool",
        features=[
            FeatureDefinition("tool_type", "recommended tool label",
                              tool_type, CriteriaPoints(3, 1, 1, 1), TOOL_TYPE_SCORES),
            FeatureDefinition("name", "known dual-use tool",
                              tool_name, CriteriaPoints(4, 3, 1, 1), TOOL_NAME_SCORES),
            FeatureDefinition("modified_created", "object recency",
                              shared.modified_created,
                              CriteriaPoints(1, 1, 1, 1), shared.MODIFIED_CREATED_SCORES),
            FeatureDefinition("valid_from", "validity start recency",
                              shared.valid_from,
                              CriteriaPoints(1, 1, 1, 1), shared.VALID_FROM_SCORES),
            FeatureDefinition("kill_chain_phases", "kill-chain coverage",
                              shared.kill_chain_phases,
                              CriteriaPoints(3, 1, 1, 1), shared.KILL_CHAIN_SCORES),
            FeatureDefinition("osint_source", "distinct OSINT feeds reporting",
                              shared.osint_source,
                              CriteriaPoints(1, 1, 1, 4), shared.OSINT_SOURCE_SCORES),
            FeatureDefinition("source_type", "source family variety",
                              shared.source_type,
                              CriteriaPoints(1, 1, 1, 5), shared.SOURCE_TYPE_SCORES),
        ],
    )
