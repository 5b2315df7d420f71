"""MISP substrate: events, store, correlation, export modules, sync, client."""

from .client import PyMispClient
from .export import (
    EXPORT_MODULES,
    from_misp_json,
    from_stix2_bundle,
    to_csv,
    to_misp_json,
    to_plaintext_values,
    to_stix1_xml,
    to_stix2_bundle,
)
from .galaxy import (
    BUILTIN_GALAXIES,
    Galaxy,
    GalaxyCluster,
    GalaxyMatcher,
    THREAT_ACTOR_GALAXY,
    TOOL_GALAXY,
    clusters_of,
)
from .instance import TOPIC_ATTRIBUTE, TOPIC_EVENT, MispInstance, SyncStats
from .sharing_groups import SharingGroup
from .model import (
    ATTRIBUTE_TYPES,
    CORRELATABLE_TYPES,
    Analysis,
    Distribution,
    MispAttribute,
    MispEvent,
    MispObject,
    MispTag,
    ThreatLevel,
)
from .storage import SQLiteBackend
from .store import MispStore, StoreChange
from .warninglists import (
    Warninglist,
    WarninglistHit,
    WarninglistIndex,
    builtin_warninglists,
)
from .taxonomy import (
    BUILTIN_TAXONOMIES,
    MachineTag,
    Taxonomy,
    TaxonomyPredicate,
    TaxonomyRegistry,
    parse_machine_tag,
)

__all__ = [
    "PyMispClient",
    "EXPORT_MODULES",
    "from_misp_json",
    "from_stix2_bundle",
    "to_csv",
    "to_misp_json",
    "to_plaintext_values",
    "to_stix1_xml",
    "to_stix2_bundle",
    "TOPIC_ATTRIBUTE",
    "TOPIC_EVENT",
    "MispInstance",
    "BUILTIN_GALAXIES",
    "Galaxy",
    "GalaxyCluster",
    "GalaxyMatcher",
    "THREAT_ACTOR_GALAXY",
    "TOOL_GALAXY",
    "clusters_of",
    "SharingGroup",
    "SyncStats",
    "ATTRIBUTE_TYPES",
    "CORRELATABLE_TYPES",
    "Analysis",
    "Distribution",
    "MispAttribute",
    "MispEvent",
    "MispObject",
    "MispTag",
    "ThreatLevel",
    "MispStore",
    "SQLiteBackend",
    "StoreChange",
    "Warninglist",
    "WarninglistHit",
    "WarninglistIndex",
    "builtin_warninglists",
    "BUILTIN_TAXONOMIES",
    "MachineTag",
    "Taxonomy",
    "TaxonomyPredicate",
    "TaxonomyRegistry",
    "parse_machine_tag",
]
