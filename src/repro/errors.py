"""Exception hierarchy shared by every CAOP subsystem.

All library errors derive from :class:`ReproError` so callers can catch one
base type at an integration boundary while still discriminating on the
specific failure when they need to.

The parse seams' shared pieces live here too, below every package that
decodes outside input: :data:`MALFORMED_ERRORS` and :func:`decode_json`,
the one text-level JSON decoder of the feed parsers, the MISP JSON import
(and so the federation receiver) and the STIX bundle import.
"""

from __future__ import annotations

import json
import re
from typing import Any


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ValidationError(ReproError):
    """An object violates its schema (missing/typed-wrong/out-of-range field)."""


class ParseError(ReproError):
    """Raw input (feed line, STIX JSON, CVSS vector, pattern) could not be parsed."""


class PatternError(ParseError):
    """A STIX pattern expression is syntactically or semantically invalid."""


class StorageError(ReproError):
    """The store rejected an operation (duplicate key, missing row...)."""


class TransientStorageError(StorageError):
    """A storage failure that may succeed on retry (lock contention, injected
    fault...).  Retry policies act on this subtype only; plain
    :class:`StorageError` stays permanent."""


class FeedError(ReproError):
    """An OSINT feed could not be fetched or decoded."""


class TransientFeedError(FeedError):
    """A fetch failure worth retrying (flaky transport, timeout)."""


class PermanentFeedError(FeedError):
    """A fetch failure that can never succeed (unknown URL, malformed
    descriptor) — retrying it only burns attempts."""


class BreakerOpenError(TransientFeedError):
    """A fetch was skipped because the feed's circuit breaker is open."""


class SharingError(ReproError):
    """An exchange with an external entity (MISP sync, TAXII, SIEM) failed."""


class ConfigurationError(ReproError):
    """A component was wired with an invalid or incomplete configuration."""


#: What decoding a wrong-shaped document raises besides a ParseError: a
#: model's own :class:`ReproError`, or a builtin error from a value of the
#: wrong type or range (``{"Event": 5}``, ``"timestamp": "abc"``).  The
#: parse seams turn each into a :class:`ParseError`.
MALFORMED_ERRORS = (ReproError, ValueError, TypeError, AttributeError,
                    KeyError, IndexError, OverflowError)


#: A surrogate, raw or as a JSON escape.  Only a prefilter: an escaped
#: pair decodes to one valid character.
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]|\\u[dD][89a-fA-F]")


def decode_json(text: str, source: str) -> Any:
    """Decode JSON text that must be storable, or raise :class:`ParseError`.

    Besides invalid JSON and a value that is not text, that refuses text
    nested deeper than the recursion limit and a string holding a lone
    surrogate, which decodes fine but which no UTF-8 store can bind.
    ``source`` names the text in the message (``feed <name>``,
    ``MISP JSON``).

    Only non-ASCII text or text holding a ``\\u`` escape can decode to a
    surrogate, so only such text is searched for one.
    """
    if not isinstance(text, str):
        raise ParseError(f"{source}: not JSON text but"
                         f" {type(text).__name__}")
    try:
        data = json.loads(text)
        if (not text.isascii() or "\\u" in text) and \
                _SURROGATE_RE.search(text):
            json.dumps(data, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{source}: document nested deeper than the"
                         " recursion limit") from exc
    except UnicodeEncodeError as exc:
        raise ParseError(f"{source}: JSON string holds a lone surrogate:"
                         f" {exc}") from exc
    return data
