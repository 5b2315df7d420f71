"""Traffic Light Protocol (TLP) markings and the sharing policy.

Real threat-intel exchanges are governed by TLP: the paper's "trusted
partners, public or private shared repositories" (§I) receive different
slices of intelligence.  MISP conventionally carries TLP as event tags
(``tlp:amber``); this module adds the marking helpers plus a
:class:`SharingPolicy` the gateway consults before anything leaves the
platform:

- **tlp:red** never leaves the organisation;
- **tlp:amber** only reaches entities explicitly cleared for amber;
- **tlp:green** reaches any registered (trusted) entity;
- **tlp:white** is unrestricted.

Unmarked events default to amber (the conservative reading MISP communities
use).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..errors import SharingError, ValidationError
from ..misp import MispEvent
from ..stix.markings import strictest_tlp


class Tlp:
    """TLP levels ordered from most to least restrictive."""

    RED = "red"
    AMBER = "amber"
    GREEN = "green"
    WHITE = "white"

    ALL = (RED, AMBER, GREEN, WHITE)
    _ORDER = {RED: 0, AMBER: 1, GREEN: 2, WHITE: 3}

    @classmethod
    def tag_for(cls, level: str) -> str:
        """The tlp:* tag string for a level."""
        if level not in cls.ALL:
            raise ValidationError(f"unknown TLP level {level!r}")
        return f"tlp:{level}"

    @classmethod
    def from_tag(cls, tag_name: str) -> Optional[str]:
        """Parse a TLP level out of a tag name; None otherwise."""
        if tag_name.startswith("tlp:"):
            level = tag_name[4:].lower()
            if level in cls.ALL:
                return level
        return None

    @classmethod
    def at_most(cls, level: str, ceiling: str) -> bool:
        """True when ``level`` is shareable under a ``ceiling`` clearance.

        A ceiling of ``amber`` admits amber, green and white — everything
        *at least as permissive* as the marking requires.
        """
        if level not in cls.ALL or ceiling not in cls.ALL:
            raise ValidationError("unknown TLP level")
        return cls._ORDER[level] >= cls._ORDER[ceiling]


#: The marking assumed when an event carries no TLP tag at all.
DEFAULT_TLP = Tlp.AMBER


def tlp_of(event: MispEvent) -> str:
    """Read the event's TLP marking (most restrictive tag wins)."""
    return strictest_tlp(tag.name for tag in event.tags) or DEFAULT_TLP


def mark_tlp(event: MispEvent, level: str) -> MispEvent:
    """Stamp a TLP marking on an event (replacing any existing TLP tags)."""
    if level not in Tlp.ALL:
        raise ValidationError(f"unknown TLP level {level!r}")
    event.tags = [tag for tag in event.tags if Tlp.from_tag(tag.name) is None]
    event.add_tag(Tlp.tag_for(level))
    return event


class SharingPolicy:
    """Per-entity TLP clearances consulted before any share operation.

    ``default_marking`` is the level assumed for events carrying no TLP
    tag at all.  It defaults to the module-wide conservative amber, but a
    deployment can pin it tighter (red: unmarked intelligence never
    leaves) or looser.  Unmarked events are *never* silently shared as if
    unrestricted — they always pass through this fallback.
    """

    def __init__(self, default_clearance: str = Tlp.GREEN,
                 default_marking: str = DEFAULT_TLP) -> None:
        if default_clearance not in Tlp.ALL:
            raise ValidationError(f"unknown TLP level {default_clearance!r}")
        if default_marking not in Tlp.ALL:
            raise ValidationError(f"unknown TLP level {default_marking!r}")
        self._default = default_clearance
        self._default_marking = default_marking
        self._clearances: Dict[str, str] = {}
        self.refusals = 0

    def marking_of(self, event: MispEvent) -> str:
        """The event's effective TLP marking under this policy.

        Tagged events keep their most restrictive tag; untagged events
        fall back to the policy's configured ``default_marking``.
        """
        return (strictest_tlp(tag.name for tag in event.tags)
                or self._default_marking)

    def set_clearance(self, entity_name: str, ceiling: str) -> None:
        """Clear an entity up to (and including) the given marking."""
        if ceiling not in Tlp.ALL:
            raise ValidationError(f"unknown TLP level {ceiling!r}")
        self._clearances[entity_name] = ceiling

    def clearance_of(self, entity_name: str) -> str:
        """The TLP ceiling configured for an entity."""
        return self._clearances.get(entity_name, self._default)

    def allows(self, event: MispEvent, entity_name: str) -> bool:
        """May this event be shared with this entity?"""
        marking = self.marking_of(event)
        if marking == Tlp.RED:
            # RED is recipients-in-the-room only: it never crosses the
            # gateway regardless of clearance.
            self.refusals += 1
            return False
        allowed = Tlp.at_most(marking, self.clearance_of(entity_name))
        if not allowed:
            self.refusals += 1
        return allowed

    def check(self, event: MispEvent, entity_name: str) -> None:
        """Raise :class:`SharingError` when the share is not allowed."""
        if not self.allows(event, entity_name):
            raise SharingError(
                f"TLP policy refuses sharing {self.marking_of(event)}-marked "
                f"event {event.uuid} with {entity_name!r} "
                f"(clearance: {self.clearance_of(entity_name)})")
