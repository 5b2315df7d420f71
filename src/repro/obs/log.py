"""Structured JSON logging with deterministic emission order.

Every record is a flat JSON object carrying a monotonically increasing
``seq``, the simulated-clock timestamp, the cycle number, the pipeline
``stage``, a short ``event`` name, and any scalar fields the call site
adds (``trace_id``, ``event_uuid``, counts, scores).  Records land on a
bounded ring buffer (:class:`StructuredLog`) and, optionally, a JSONL
file sink.

Determinism contract (docs/OBSERVABILITY.md): log emission follows the
same discipline as metrics and sync ledger writes in PRs 2/4/5 — worker
pools never emit directly.  Coordinating threads emit over drain-ordered
results, and code that *must* log from inside a pool task writes into a
per-task :class:`LogBuffer` that the coordinator flushes post-drain in
registration order, assigning ``seq`` and ``ts`` at flush time.  The
result: ``fetch_workers``/``share_workers`` of 1 or 4 produce
byte-identical ``to_jsonl()`` output.

:data:`LOG_RECORD_SCHEMA` is a JSON-Schema subset describing every
record; :func:`validate_record` checks it without external dependencies.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from ..clock import SimulatedClock, format_timestamp
from ..errors import ValidationError

#: Log severity vocabulary, least to most severe.
LOG_LEVELS: Tuple[str, ...] = ("debug", "info", "warn", "error")

#: JSON-Schema (subset) for one emitted record.  ``additionalProperties``
#: restricts every call-site field to JSON scalars — no nested payloads
#: in the log stream.
LOG_RECORD_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["seq", "ts", "level", "cycle", "stage", "event"],
    "properties": {
        "seq": {"type": "integer", "minimum": 0},
        "ts": {"type": "string"},
        "level": {"enum": list(LOG_LEVELS)},
        "cycle": {"type": "integer", "minimum": 0},
        "stage": {"type": "string"},
        "event": {"type": "string"},
        "span": {"type": "string"},
        "trace_id": {"type": "string"},
        "event_uuid": {"type": "string"},
    },
    "additionalProperties": {
        "type": ["string", "integer", "number", "boolean", "null"]},
}

_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": (lambda v: isinstance(v, (int, float))
               and not isinstance(v, bool)),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "object": lambda v: isinstance(v, dict),
}


def _matches_type(value: Any, allowed: Any) -> bool:
    types = [allowed] if isinstance(allowed, str) else list(allowed)
    return any(_TYPE_CHECKS[t](value) for t in types)


def validate_record(record: Any) -> List[str]:
    """Errors in ``record`` against :data:`LOG_RECORD_SCHEMA` (empty = valid)."""
    schema = LOG_RECORD_SCHEMA
    if not _matches_type(record, schema["type"]):
        return ["record is not an object"]
    errors = []
    for name in schema["required"]:
        if name not in record:
            errors.append(f"missing required field {name!r}")
    for name, value in record.items():
        spec = schema["properties"].get(name)
        if spec is None:
            if not _matches_type(value, schema["additionalProperties"]["type"]):
                errors.append(f"field {name!r} is not a JSON scalar")
            continue
        if "enum" in spec and value not in spec["enum"]:
            errors.append(f"field {name!r} value {value!r} not in enum")
            continue
        if "type" in spec and not _matches_type(value, spec["type"]):
            errors.append(f"field {name!r} has wrong type")
            continue
        if "minimum" in spec and value < spec["minimum"]:
            errors.append(f"field {name!r} below minimum")
    return errors


class LogBuffer:
    """Per-task log staging for worker-pool code.

    A pool task emits into its buffer; the coordinating thread flushes
    buffers post-drain in registration order via
    :meth:`StructuredLog.flush_buffer`, which assigns ``seq``/``ts`` then
    — so record order never depends on pool scheduling.
    """

    def __init__(self, log: "StructuredLog") -> None:
        self._log = log
        self.entries: List[Tuple[str, str, str, Dict[str, Any]]] = []

    def emit(self, stage: str, event: str, level: str = "info",
             **fields: Any) -> None:
        """Stage one record for the coordinator to flush."""
        if not self._log.enabled:
            return
        self.entries.append((stage, event, level, fields))


class StructuredLog:
    """Bounded ring buffer of JSON log records, with an optional file sink."""

    def __init__(self, clock: Any = None, capacity: int = 4096,
                 sink_path: Optional[str] = None,
                 enabled: bool = True) -> None:
        self._clock = clock if clock is not None else SimulatedClock()
        self.enabled = enabled
        self._records: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self._cycle = 0
        self._lock = threading.Lock()
        self._sink_path = sink_path
        self._sink: Any = None

    @property
    def capacity(self) -> int:
        """Ring-buffer size (older records fall off the front)."""
        return self._records.maxlen or 0

    def begin_cycle(self, cycle: int) -> None:
        """Stamp subsequently emitted records with this cycle number."""
        self._cycle = cycle

    def emit(self, stage: str, event: str, level: str = "info",
             **fields: Any) -> Optional[Dict[str, Any]]:
        """Append one record; returns it (or None when disabled)."""
        if not self.enabled:
            return None
        if level not in LOG_LEVELS:
            raise ValidationError(f"unknown log level {level!r}")
        with self._lock:
            record: Dict[str, Any] = {
                "seq": self._seq,
                "ts": format_timestamp(self._clock.now()),
                "level": level,
                "cycle": self._cycle,
                "stage": stage,
                "event": event,
            }
            for name in sorted(fields):
                record[name] = fields[name]
            self._seq += 1
            self._records.append(record)
            self._write_sink(record)
        return record

    def buffer(self) -> LogBuffer:
        """A fresh per-task staging buffer (see :class:`LogBuffer`)."""
        return LogBuffer(self)

    def flush_buffer(self, buffer: LogBuffer) -> int:
        """Emit a task buffer's staged records, in their staged order."""
        for stage, event, level, fields in buffer.entries:
            self.emit(stage, event, level, **fields)
        count = len(buffer.entries)
        buffer.entries = []
        return count

    def records(self) -> List[Dict[str, Any]]:
        """Every buffered record, oldest first."""
        with self._lock:
            return [dict(record) for record in self._records]

    def tail(self, count: int = 20) -> List[Dict[str, Any]]:
        """The newest ``count`` records, oldest of them first."""
        with self._lock:
            return [dict(r) for r in list(self._records)[-count:]]

    def to_jsonl(self) -> str:
        """The buffer as canonical JSONL (sorted keys — byte-comparable)."""
        return "\n".join(json.dumps(record, sort_keys=True)
                         for record in self.records())

    def _write_sink(self, record: Dict[str, Any]) -> None:
        if self._sink_path is None:
            return
        if self._sink is None:
            self._sink = open(self._sink_path, "a", encoding="utf-8")
        self._sink.write(json.dumps(record, sort_keys=True) + "\n")
        self._sink.flush()

    def close(self) -> None:
        """Close the file sink, if one was opened."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None


#: Shared always-disabled log (mirrors ``NULL_REGISTRY``).
NULL_LOG = StructuredLog(enabled=False)


def validate_records(records: Iterable[Dict[str, Any]]) -> List[str]:
    """Schema errors across many records, prefixed with their seq."""
    errors: List[str] = []
    for record in records:
        for error in validate_record(record):
            errors.append(f"seq {record.get('seq', '?')}: {error}")
    return errors
