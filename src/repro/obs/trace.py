"""Lightweight span tracing for the platform pipeline.

Each :meth:`Tracer.span` use opens a named span timed on the monotonic
clock (``time.perf_counter``); spans nest via a thread-local stack, so the
``run_cycle()`` root span ends up owning a stage-by-stage timing tree
(fetch -> parse -> normalize -> dedup -> ... -> push).  Completed root
spans are kept on a bounded deque for export; when a
:class:`~repro.obs.metrics.MetricsRegistry` is attached, every span also
feeds the ``caop_span_seconds`` histogram so per-stage latency shows up in
the ``/metrics`` exposition without extra wiring.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterator, List, Optional

from .metrics import MetricsRegistry

#: Histogram fed by every completed span (label ``span`` = span name).
SPAN_METRIC = "caop_span_seconds"


class Span:
    """One timed pipeline stage; children are stages opened inside it."""

    __slots__ = ("name", "tags", "children", "duration_seconds", "error",
                 "work", "_started")

    def __init__(self, name: str, tags: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.tags: Dict[str, Any] = dict(tags or {})
        self.children: List["Span"] = []
        self.duration_seconds: float = 0.0
        self.error = False
        #: Set on spans :func:`~repro.parallel.ordered_map` opens for its
        #: tasks: their time is worker time, not the caller's wall time.
        self.work = False
        self._started = time.perf_counter()

    def finish(self) -> None:
        """Freeze the duration (idempotent use is the tracer's job)."""
        self.duration_seconds = time.perf_counter() - self._started

    def to_dict(self) -> Dict[str, Any]:
        """Nested JSON-able view of this span and its children."""
        data: Dict[str, Any] = {
            "name": self.name,
            "duration_seconds": self.duration_seconds,
        }
        if self.error:
            data["error"] = True
        if self.tags:
            data["tags"] = dict(self.tags)
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    def flatten(self) -> Dict[str, float]:
        """name -> seconds over this subtree (same names sum).

        Spans on the coordinating thread report wall time under their own
        name, so none can exceed the root.  Work spans, and every span
        beneath one, report summed worker time under ``"<name>.work"``:
        four pool threads fetching for 100 ms each give
        ``fetch_feed.work`` = 0.4 inside a ``fetch`` of about 0.1.
        """
        totals: Dict[str, float] = {}
        stack = [(self, False)]
        while stack:
            span, work = stack.pop()
            work = work or span.work
            key = f"{span.name}.work" if work else span.name
            totals[key] = totals.get(key, 0.0) + span.duration_seconds
            stack.extend((child, work) for child in span.children)
        return totals

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for the first descendant named ``name``."""
        stack = list(self.children)
        while stack:
            span = stack.pop(0)
            if span.name == name:
                return span
            stack.extend(span.children)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration_seconds * 1000:.2f}ms, "
                f"children={len(self.children)})")


class Tracer:
    """Collects nested spans; completed root spans land on ``traces``."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 max_traces: int = 64, enabled: bool = True) -> None:
        self.enabled = enabled
        self.traces: Deque[Span] = deque(maxlen=max_traces)
        self._local = threading.local()
        self._attach_lock = threading.Lock()
        self._metrics = metrics
        self._span_hist = (
            metrics.histogram(SPAN_METRIC, "Duration of pipeline stage spans")
            if metrics is not None else None)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[Optional[Span]]:
        """Open a child span of the current one (or a new root span).

        Exception-safe: the span is closed and recorded (flagged
        ``error=True``) even when the body raises, and the exception
        propagates unchanged.
        """
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        span = Span(name, tags)
        stack.append(span)
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            span.finish()
            stack.pop()
            if stack:
                # Pool threads attached to the same parent append
                # concurrently; the lock keeps the children list intact
                # (ordering there reflects completion and is timing data,
                # not part of any determinism contract).
                with self._attach_lock:
                    stack[-1].children.append(span)
            else:
                self.traces.append(span)
            if self._span_hist is not None:
                self._span_hist.observe(span.duration_seconds, span=span.name)

    def capture(self) -> Optional[Span]:
        """The current span, for reattachment inside a worker-pool task.

        The span stack is thread-local, so a span opened inside a pool
        thread would otherwise become an orphan root trace instead of
        nesting under the cycle that spawned the work.  The coordinating
        thread calls ``capture()`` before submitting tasks and each task
        wraps its body in :meth:`attach`; :func:`~repro.parallel.ordered_map`
        does both for every worker pool in the platform.
        """
        return self.current()

    @contextmanager
    def attach(self, parent: Optional[Span]) -> Iterator[None]:
        """Run the body with ``parent`` as this thread's span context.

        Spans opened inside the body become children of ``parent``; the
        thread's previous span stack is restored on exit.  A ``None``
        parent (tracing disabled, or no span open at capture time) leaves
        the thread's context untouched.
        """
        if not self.enabled or parent is None:
            yield
            return
        saved = getattr(self._local, "stack", None)
        self._local.stack = [parent]
        try:
            yield
        finally:
            self._local.stack = saved if saved is not None else []

    def last_trace(self) -> Optional[Span]:
        """The most recently completed root span."""
        return self.traces[-1] if self.traces else None

    def clear(self) -> None:
        """Drop every recorded trace (open spans are unaffected)."""
        self.traces.clear()
