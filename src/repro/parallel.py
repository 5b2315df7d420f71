"""The one worker pool: ``ordered_map`` for the feed-fetch stage.

Feed fetching is a list of independent items that wait on I/O, a bounded
worker count, results needed in input order, and per-item spans that must
nest under the stage that spawned the work.  :func:`ordered_map` is that
shape; :meth:`~repro.feeds.FeedFetcher.fetch_many` is its one caller.

Spans opened for the tasks are flagged as *work* spans on every path (pool
or serial), so :meth:`~repro.obs.trace.Span.flatten` reports them as summed
worker time under ``"<name>.work"`` keys, apart from the coordinating
thread's wall time, and the key set never depends on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional, TypeVar

from .obs import Tracer

T = TypeVar("T")
R = TypeVar("R")


def pool_width(workers: Optional[int], count: int) -> int:
    """Threads :func:`ordered_map` uses for ``count`` items (at least 1).

    ``workers`` None: one worker per due feed; an integer caps the pool.
    """
    return max(1, count if workers is None else min(workers, count))


def ordered_map(fn: Callable[[T], R], items: Iterable[T],
                workers: Optional[int],
                tracer: Optional[Tracer] = None, span_name: str = "task",
                tags: Optional[Callable[[T], Dict[str, Any]]] = None
                ) -> List[R]:
    """``[fn(item) for item in items]``, on up to ``workers`` threads.

    ``workers`` None: one worker per due feed; an integer caps the pool.
    Results come back in input order whatever order the tasks finish in.
    If several tasks raise, the exception of the earliest failing item is
    re-raised (after every task has finished).  With one worker, or one
    item, everything runs serially on the calling thread.

    When ``tracer`` is given, each task runs inside a ``span_name`` span
    (tagged with ``tags(item)``), attached under the caller's current span
    and marked as work.
    """
    items = list(items)
    parent = tracer.capture() if tracer is not None else None

    def run(item: T) -> R:
        if tracer is None:
            return fn(item)
        with tracer.attach(parent), tracer.span(
                span_name, **(tags(item) if tags else {})) as span:
            if span is not None:
                span.work = True
            return fn(item)

    width = pool_width(workers, len(items))
    if width == 1:
        return [run(item) for item in items]
    with ThreadPoolExecutor(max_workers=width) as pool:
        futures = [pool.submit(run, item) for item in items]
        return [future.result() for future in futures]
