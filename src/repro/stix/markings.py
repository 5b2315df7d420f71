"""STIX 2.0 data markings: the TLP marking-definition objects.

The STIX 2.0 specification fixes the ids of the four TLP
``marking-definition`` objects (Part 1, section 4.1.4.1) so every producer
references the *same* objects.  Exports attach these via
``object_marking_refs``; importers map them back onto ``tlp:*`` tags.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

#: Spec-fixed marking-definition ids (STIX 2.0 Part 1 §4.1.4.1).
TLP_MARKING_IDS: Mapping[str, str] = {
    "white": "marking-definition--613f2e26-407d-48c7-9eca-b8e91df99dc9",
    "green": "marking-definition--34098fce-860f-48ae-8e50-ebd3cc5e41da",
    "amber": "marking-definition--f88d31f6-486f-44da-b317-01333bde0b82",
    "red": "marking-definition--5e57c739-391a-4eb3-b6be-7d15ca92d5ed",
}

#: TLP levels from most to least restrictive.
_STRICTEST_FIRST = ("red", "amber", "green", "white")

#: Reverse lookup: marking id -> TLP level.
TLP_LEVEL_BY_ID: Mapping[str, str] = {v: k for k, v in TLP_MARKING_IDS.items()}

_CREATED = "2017-01-20T00:00:00.000Z"


def tlp_marking_definition(level: str) -> Dict:
    """The full marking-definition object dict for a TLP level."""
    marking_id = TLP_MARKING_IDS.get(level)
    if marking_id is None:
        raise KeyError(f"unknown TLP level {level!r}")
    return {
        "type": "marking-definition",
        "id": marking_id,
        "created": _CREATED,
        "definition_type": "tlp",
        "definition": {"tlp": level},
    }


def marking_ref_for(level: str) -> str:
    """The ``object_marking_refs`` entry for a TLP level."""
    marking_id = TLP_MARKING_IDS.get(level)
    if marking_id is None:
        raise KeyError(f"unknown TLP level {level!r}")
    return marking_id


def tlp_from_marking_refs(refs: Optional[List[str]]) -> Optional[str]:
    """Recover the TLP level from an object's marking refs (first TLP wins)."""
    for ref in refs or ():
        level = TLP_LEVEL_BY_ID.get(ref)
        if level is not None:
            return level
    return None


def strictest_tlp(tag_names: Iterable[str]) -> Optional[str]:
    """The most restrictive TLP level named by ``tlp:<level>`` tags.

    The level is matched case-insensitively; other tags and unknown levels
    are ignored.  None when no tag names a known level.  The STIX export
    marks an event with this level and the sharing gate refuses by it, so
    what leaves the platform is never marked looser than it was gated.
    """
    levels = {name[4:].lower() for name in tag_names if name.startswith("tlp:")}
    return next((level for level in _STRICTEST_FIRST if level in levels), None)
