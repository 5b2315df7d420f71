"""Rate-limited decay compaction over the report summaries.

The decaying-IoC model (PAPERS.md) ages every stored indicator with
nothing but time passing, so no change feed says when one expires.  What
does not change is *when* it will: expiry is the event's timestamp plus
its category's lifetime.  Compaction therefore does not sweep the decoded
store.  It reads the :class:`~repro.core.report.IntelSummaryRollup`
(epoch ``ts``, ``category`` and base score per event, kept current off
the change feed) and asks :meth:`ScoreDecayEngine.sweep_summaries
<repro.core.decay.ScoreDecayEngine.sweep_summaries>` which events are
past their lifetime:

- it runs only when **due** — every ``every_cycles`` platform cycles AND at
  least ``min_interval_seconds`` apart on the platform clock (virtual time
  under :class:`~repro.clock.SimulatedClock`);
- a run first brings its summaries current, then purges the expired
  events in ``list_events()`` order (``timestamp DESC, uuid``), so the
  store converges to byte-identical state (same audit seqs) as a full
  sweep + purge every cycle — the purges just land on compaction cadence;
- the platform passes its report rollup (``summaries=``) and refreshes its
  whole rollup group just before the run, so the run decodes nothing; a
  standalone stage keeps a private in-memory rollup whose first run
  decodes the store once and whose later runs decode only what changed;
- its cost is metered (``caop_compaction_*`` counters + a duration
  histogram) so the budget shows up in dashboards instead of hiding
  inside cycle time.

Purged events land in the audit log as ``deleted`` rows, so downstream
rollups hear about them through the ordinary change feed — the platform
orders its ``compact`` stage before its ``rollup`` stage for exactly that
reason.
"""

from __future__ import annotations

import datetime as _dt
import time
from dataclasses import dataclass
from typing import Optional

from ..clock import Clock, SimulatedClock
from ..misp import MispStore
from ..obs import MetricsRegistry, NULL_REGISTRY
from .decay import ScoreDecayEngine
from .report import IntelSummaryRollup

#: Compaction run duration buckets (seconds).
COMPACTION_SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)


@dataclass(frozen=True)
class CompactionReport:
    """What one compaction opportunity did (or why it did nothing)."""

    ran: bool
    cycle: int
    #: Stored events when the run started (0 when skipped).
    scanned: int = 0
    #: Scored events still live after re-scoring.
    live: int = 0
    #: Scored events found past their lifetime.
    expired: int = 0
    #: Expired events actually deleted (0 when purging is disabled).
    purged: int = 0
    #: Wall-clock seconds the run took (0.0 when skipped).
    duration: float = 0.0


class CompactionStage:
    """Purges decay-expired events on a cycle/interval budget.

    ``summaries`` is the :class:`IntelSummaryRollup` a run reads; without
    one the stage keeps its own, in memory only.
    """

    def __init__(self, store: MispStore,
                 decay: Optional[ScoreDecayEngine] = None,
                 clock: Optional[Clock] = None,
                 every_cycles: int = 25,
                 min_interval_seconds: float = 0.0,
                 purge: bool = True,
                 metrics: Optional[MetricsRegistry] = None,
                 summaries: Optional[IntelSummaryRollup] = None) -> None:
        self.store = store
        self._clock = clock or SimulatedClock()
        self.decay = decay or ScoreDecayEngine(clock=self._clock)
        self.summaries = summaries if summaries is not None \
            else IntelSummaryRollup(store, name="compaction:summaries")
        #: Run every N cycles (cycle numbers divisible by N); <= 0 disables.
        self.every_cycles = every_cycles
        #: Minimum platform-clock seconds between runs (0 = cycles only).
        self.min_interval_seconds = min_interval_seconds
        self.purge = purge
        self._last_run_at: Optional[_dt.datetime] = None
        metrics = metrics or NULL_REGISTRY
        self._m_runs = metrics.counter(
            "caop_compaction_runs_total",
            "Decay compaction runs executed")
        self._m_skipped = metrics.counter(
            "caop_compaction_skipped_total",
            "Compaction opportunities skipped, labelled by reason")
        self._m_scanned = metrics.counter(
            "caop_compaction_events_scanned_total",
            "Stored events when each compaction run started")
        self._m_purged = metrics.counter(
            "caop_compaction_purged_total",
            "Expired events deleted by compaction")
        self._m_seconds = metrics.histogram(
            "caop_compaction_seconds",
            "Wall-clock duration of one compaction run",
            buckets=COMPACTION_SECONDS_BUCKETS)

    @property
    def last_run_at(self) -> Optional[_dt.datetime]:
        """Platform-clock instant of the last run (None if never)."""
        return self._last_run_at

    def due(self, cycle: int) -> bool:
        """Whether the budget allows a run at this cycle."""
        if self.every_cycles <= 0:
            return False
        if cycle % self.every_cycles != 0:
            return False
        if self.min_interval_seconds > 0 and self._last_run_at is not None:
            elapsed = (self._clock.now()
                       - self._last_run_at).total_seconds()
            if elapsed < self.min_interval_seconds:
                return False
        return True

    def maybe_run(self, cycle: int) -> CompactionReport:
        """Run if due; otherwise record the skip."""
        if not self.due(cycle):
            reason = "cadence" if (
                self.every_cycles <= 0
                or cycle % self.every_cycles != 0) else "interval"
            self._m_skipped.inc(reason=reason)
            return CompactionReport(ran=False, cycle=cycle)
        return self.run(cycle)

    def run(self, cycle: int = 0) -> CompactionReport:
        """The unconditional run: find every expired event, purge them."""
        started = time.perf_counter()
        scanned = self.store.event_count()
        self.summaries.refresh()
        live, expired = self.decay.sweep_summaries(self.summaries.summaries)
        purged = 0
        if self.purge:
            for event_uuid in expired:
                if self.store.delete_event(event_uuid):
                    purged += 1
        duration = time.perf_counter() - started
        self._last_run_at = self._clock.now()
        self._m_runs.inc()
        self._m_scanned.inc(scanned)
        if purged:
            self._m_purged.inc(purged)
        self._m_seconds.observe(duration)
        return CompactionReport(
            ran=True, cycle=cycle, scanned=scanned, live=live,
            expired=len(expired), purged=purged, duration=duration)
