"""Identifier helpers.

Two id styles coexist in the platform:

- *random-looking* ids for freshly created objects (STIX ids, MISP event
  uuids).  A seeded generator makes them reproducible; an unseeded one
  draws them from the operating system.
- *content-derived* ids (uuid5) for normalized events, so the deduplicator
  can recognize the same security event arriving from two different feeds.
"""

from __future__ import annotations

import hashlib
import random
import uuid
from typing import Optional

#: Namespace for content-derived uuids (uuid5).  Fixed so that the same
#: canonical content always maps to the same id across processes.
CONTENT_NAMESPACE = uuid.UUID("6ba7b810-9dad-11d1-80b4-00c04fd430c8")

_NAMESPACE_BYTES = CONTENT_NAMESPACE.bytes

#: Backs every unseeded generator.  It keeps no state of its own (each
#: draw reads ``os.urandom``), so sharing it is thread- and fork-safe and
#: spares seeding a fresh Mersenne Twister per id.
_SYSTEM_RANDOM = random.SystemRandom()


class IdGenerator:
    """uuid4-shaped id factory.

    With a ``seed`` the ids come from a private seeded RNG and repeat run
    to run; without one they are random, drawn from the operating system.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = _SYSTEM_RANDOM if seed is None else random.Random(seed)

    def uuid(self) -> str:
        """Return a new RFC-4122 version-4 uuid string."""
        return str(uuid.UUID(int=self._rng.getrandbits(128), version=4))

    def stix_id(self, object_type: str) -> str:
        """Return a STIX 2.0 identifier, e.g. ``indicator--<uuid4>``."""
        return f"{object_type}--{self.uuid()}"


def content_uuid(*parts: str) -> str:
    """Derive a stable uuid from canonical content parts.

    The parts are joined with an unambiguous separator so that
    ``("ab", "c")`` and ``("a", "bc")`` never collide.  The result is
    ``str(uuid.uuid5(CONTENT_NAMESPACE, joined))``, computed straight from
    the sha1 digest: the version nibble becomes 5 and the variant bits 10.
    A lone surrogate (which ``json.loads`` makes of a ``"\\ud800"`` escape,
    and which ``uuid5`` cannot encode) is hashed as its code unit, so every
    string has an id.
    """
    digest = hashlib.sha1(_NAMESPACE_BYTES + "\x1f".join(parts).encode(
        "utf-8", "surrogatepass")).hexdigest()
    variant = "89ab"[int(digest[16], 16) & 3]
    return (f"{digest[:8]}-{digest[8:12]}-5{digest[13:16]}-"
            f"{variant}{digest[17:20]}-{digest[20:32]}")


def content_stix_id(object_type: str, *parts: str) -> str:
    """Derive a stable STIX identifier from canonical content parts."""
    return f"{object_type}--{content_uuid(object_type, *parts)}"
