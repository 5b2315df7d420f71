"""Exception hierarchy shared by every CAOP subsystem.

All library errors derive from :class:`ReproError` so callers can catch one
base type at an integration boundary while still discriminating on the
specific failure when they need to.
"""

from __future__ import annotations


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
