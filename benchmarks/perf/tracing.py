"""Outside-in span recording for the traced benchmark run.

The benchmark never edits the program: it replaces public methods on the
*instances* it built (``platform.heuristics.process_pending``,
``platform.misp.add_events``, the transport it owns, ...) with thin
wrappers that record one :class:`SpanRecord` per call, then puts the
original attributes back.  Every record carries its layer, start and end
(``perf_counter`` seconds), thread, parent and the cycle index as trace id.
A call on a pool thread that has no open span of its own takes the
coordinating thread's innermost open span as its parent, which is the
call that is blocked waiting for the pool.

Self time uses interval arithmetic rather than subtraction of summed
durations: a span's self intervals are its interval minus the union of its
children's intervals, and a layer's time is the union of its spans' self
intervals.  Overlapping pool-thread spans are therefore counted once, and
the layer times of one cycle add up to the cycle's wall time.
``CycleReport.timings`` is deliberately not used: ``Span.flatten()`` sums
same-named spans across pool threads.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from stats import Interval, subtract, union_length

#: Layer name of the span the harness opens around each traced cycle.
ROOT = "platform"


class SpanRecord:
    """One recorded call."""

    __slots__ = ("layer", "start", "end", "thread", "parent", "trace",
                 "result")

    def __init__(self, layer: str, start: float, thread: int,
                 parent: Optional["SpanRecord"], trace: int) -> None:
        self.layer = layer
        self.start = start
        self.end = start
        self.thread = thread
        self.parent = parent
        self.trace = trace
        self.result: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Wraps instance methods and keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self.trace = 0
        self._main = threading.get_ident()
        self._stacks: Dict[int, List[SpanRecord]] = {}
        self._installed: List[Tuple[Any, str, bool, Any]] = []

    def _stack(self) -> List[SpanRecord]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks.setdefault(ident, [])
        return stack

    def _open(self, layer: str) -> SpanRecord:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        span = SpanRecord(layer, time.perf_counter(),
                          threading.get_ident(), parent, self.trace)
        stack.append(span)
        return span

    def _close(self, span: SpanRecord) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def root(self, trace: int) -> Iterator[SpanRecord]:
        """The span around one whole traced cycle."""
        self.trace = trace
        span = self._open(ROOT)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, function: Callable, layer: str,
             keep_result: bool = False) -> Callable:
        """``function`` wrapped to record a span per call."""
        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(span)
            if keep_result:
                span.result = result
            return result
        return traced

    def install(self, targets) -> None:
        """Wrap every ``(obj, attribute, layer, keep_result)`` target."""
        for obj, attribute, layer, keep_result in targets:
            own = vars(obj)
            self._installed.append(
                (obj, attribute, attribute in own, own.get(attribute)))
            setattr(obj, attribute,
                    self.wrap(getattr(obj, attribute), layer, keep_result))

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        for obj, attribute, had_own, previous in reversed(self._installed):
            if had_own:
                setattr(obj, attribute, previous)
            else:
                delattr(obj, attribute)
        self._installed.clear()

    def dump(self, path: str, workload: str) -> None:
        """Write every span, start-ordered, as JSON."""
        ordered = sorted(self.spans, key=lambda span: span.start)
        index = {id(span): number for number, span in enumerate(ordered)}
        origin = ordered[0].start if ordered else 0.0
        rows = [{
            "id": index[id(span)],
            "name": span.layer,
            "start_ms": round((span.start - origin) * 1000, 4),
            "end_ms": round((span.end - origin) * 1000, 4),
            "thread": span.thread,
            "parent": (index.get(id(span.parent))
                       if span.parent is not None else None),
            "trace_id": span.trace,
        } for span in ordered]
        with open(path, "w") as handle:
            json.dump({"workload": workload, "spans": rows}, handle)


class LayerTimes:
    """Per-layer totals over a set of spans (seconds)."""

    def __init__(self, spans: List[SpanRecord]) -> None:
        children: Dict[int, List[Interval]] = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[id(span.parent)].append((span.start, span.end))
        self_intervals: Dict[str, List[Interval]] = defaultdict(list)
        own_intervals: Dict[str, List[Interval]] = defaultdict(list)
        self.durations: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.results: Dict[str, List[Any]] = defaultdict(list)
        for span in spans:
            self_intervals[span.layer].extend(
                subtract((span.start, span.end), children[id(span)]))
            own_intervals[span.layer].append((span.start, span.end))
            self.durations[span.layer] += span.duration
            self.calls[span.layer] += 1
            if span.result is not None:
                self.results[span.layer].append(span.result)
        #: layer -> union of its spans' self intervals.
        self.self_time = {layer: union_length(intervals)
                          for layer, intervals in self_intervals.items()}
        #: layer -> union of its spans' whole intervals.
        self.wall = {layer: union_length(intervals)
                     for layer, intervals in own_intervals.items()}

    def self_of(self, *layers: str) -> float:
        """Summed self time of ``layers`` (0.0 for layers never called)."""
        return sum(self.self_time.get(layer, 0.0) for layer in layers)
