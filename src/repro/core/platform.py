"""The Context-Aware OSINT Platform: the full Fig. 1 architecture.

Wires the three modules together:

- **Input**: the OSINT Data Collector (feeds -> cIoCs) and the
  Infrastructure Data Collector (sensors -> internal events);
- **Operational**: the MISP instance (store/correlate/share) and the
  Heuristic Component (threat score -> eIoC);
- **Output**: the rIoC generator + dashboard (socket.io push) and external
  sharing (MISP peers).

``run_cycle()`` advances the whole platform one collection round, one
:class:`Stage` of :attr:`ContextAwareOSINTPlatform.STAGES` after another,
and returns a :class:`CycleReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..clock import Clock, SimulatedClock
from ..cvss import CveDatabase
from ..dashboard.server import DashboardServer
from ..errors import ReproError
from ..feeds import (
    FeedDescriptor,
    FeedFetcher,
    IndicatorPool,
    SimulatedTransport,
    standard_feed_set,
)
from ..infra import (
    InfrastructureDataCollector,
    Inventory,
    SensorNetwork,
    paper_inventory,
)
from ..misp import MispInstance
from ..obs import (
    MetricsRegistry,
    NULL_LOG,
    NULL_RECORDER,
    ProvenanceRecorder,
    SloEngine,
    StructuredLog,
    Tracer,
)
from ..resilience import (
    HEALTH_DEGRADED,
    HEALTH_FAILING,
    HEALTH_OK,
    BreakerState,
    CircuitBreakerBoard,
    ComponentHealth,
    DeadLetterQueue,
    FaultInjector,
    PlatformHealth,
    ReplayReport,
    RetryPolicy,
    sleeper_for,
)
from .collector import CollectionReport, OsintDataCollector
from .enrich import EnrichmentResult, HeuristicComponent
from .ioc import ReducedIoc
from .reduce import RIocGenerator

#: Breaker state -> component health (closed is ok).
_BREAKER_HEALTH = {BreakerState.OPEN: HEALTH_FAILING,
                   BreakerState.HALF_OPEN: HEALTH_DEGRADED}


@dataclass
class CycleReport:
    """Everything one ``run_cycle`` produced."""

    collection: CollectionReport
    new_alarms: int = 0
    infrastructure_events: int = 0
    eiocs_created: int = 0
    riocs_created: int = 0
    riocs_suppressed: int = 0
    dashboard_pushes: int = 0
    #: eIoC shares delivered / failed by the sharing fan-out this cycle
    #: (both 0 when no external entities are registered).
    shares_sent: int = 0
    share_failures: int = 0
    scores: List[float] = field(default_factory=list)
    #: Change-feed rows the rollups consumed this cycle, in the compact and
    #: rollup stages together (0 when the store didn't change — the
    #: steady-state signature).
    deltas_consumed: int = 0
    #: Whether the rate-limited decay compaction ran this cycle, and how
    #: many expired events it purged.
    compacted: bool = False
    events_purged: int = 0
    #: Snapshot+delta fan-out activity this cycle: room versions flushed,
    #: messages shed off lagging subscribers, snapshot resyncs delivered
    #: (docs/FANOUT.md).
    fanout_deltas: int = 0
    fanout_shed: int = 0
    fanout_resyncs: int = 0
    #: Span name -> seconds, flattened from the cycle's span trace (empty
    #: when the platform runs with telemetry disabled).  ``<name>.work``
    #: keys hold summed worker-pool time; see docs/OBSERVABILITY.md.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Stage name -> error message, for every stage that failed this cycle
    #: (stage isolation: the remaining stages still ran).
    stage_errors: Dict[str, str] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """Whether any stage failed this cycle."""
        return bool(self.stage_errors)

    @property
    def mean_score(self) -> float:
        """Mean threat score across this cycle's eIoCs."""
        return sum(self.scores) / len(self.scores) if self.scores else 0.0

    def to_record(self) -> Dict[str, Any]:
        """The cycle's outcome as one flat record.

        The ``cycle_end`` log record and the SLO snapshot carry exactly
        these fields.  ``idle`` is true when every other field is zero or
        false: a quiet cycle, the steady state the incremental pipeline
        keeps near-free (docs/PERFORMANCE.md).
        """
        record: Dict[str, Any] = {
            "ciocs_created": self.collection.ciocs_created,
            "eiocs_created": self.eiocs_created,
            "riocs_created": self.riocs_created,
            "new_alarms": self.new_alarms,
            "shares_sent": self.shares_sent,
            "deltas_consumed": self.deltas_consumed,
            "fanout_deltas": self.fanout_deltas,
            "compacted": self.compacted,
            "degraded": self.degraded,
        }
        record["idle"] = not any(record.values())
        return record

    @property
    def idle(self) -> bool:
        """Quiet cycle: nothing collected, changed, shared or compacted."""
        return self.to_record()["idle"]


@dataclass
class PlatformConfig:
    """Build-time knobs for the default wiring."""

    seed: int = 7
    feed_entries: int = 60
    sensor_alarm_rate: float = 0.25
    sensor_steps_per_cycle: int = 6
    drop_irrelevant_text: bool = False
    #: Worker threads for the collector's feed-fetch stage.  The transport's
    #: per-request RNG keeps results identical to workers=1; see
    #: docs/PERFORMANCE.md.
    fetch_workers: int = 4
    #: Ignored: scoring runs in drain order on the cycle's thread at any
    #: value.  Kept only because the benchmark smoke test
    #: (``benchmarks/perf/test_smoke.py``) still passes ``enrich_workers=1``;
    #: it goes, with ``store_shards``, once that test stops passing it.
    enrich_workers: int = 1
    #: Ignored: the sharing fan-out runs entity by entity on the cycle's
    #: thread at any value.  Kept only because the benchmark smoke test
    #: still passes ``share_workers=1``; it goes with ``enrich_workers``.
    share_workers: int = 1
    org: str = "CAOP"
    #: Record metrics, per-stage spans, per-IoC lineage, structured log
    #: records and SLO burn rates (disable only to measure the telemetry
    #: overhead itself; see bench_x13_obs_overhead).
    metrics_enabled: bool = True
    #: Optional JSONL sink the structured log also appends to.
    log_file: Optional[str] = None
    #: Optional SQLite path for the MISP store (``None`` keeps it in-memory).
    #: Built here — not rewired post-build — so the sharing ledger and the
    #: provenance recorder point at the same persistent store.
    store_path: Optional[str] = None
    #: Ignored: the store is one file at any value.  Kept only because the
    #: committed ``large_store`` benchmark workload still passes
    #: ``store_shards=4``; it goes once that workload stops passing it.
    store_shards: int = 1
    #: How retry backoff is applied: "virtual" advances the SimulatedClock,
    #: "real" sleeps wall-clock, "none" records without moving any clock.
    backoff_mode: str = "virtual"
    #: Consecutive fetch failures before a feed's breaker opens, and how
    #: long (on the platform clock) it stays open before a half-open probe.
    breaker_failure_threshold: int = 3
    breaker_cooldown_seconds: float = 900.0
    #: Optional scripted fault injector threaded through transport, store,
    #: parse and broker seams (chaos testing; see docs/RESILIENCE.md).
    fault_injector: Optional[FaultInjector] = None
    #: Run decay compaction every N cycles (<= 0 disables the compact stage
    #: entirely; see docs/PERFORMANCE.md).
    compaction_every_cycles: int = 25
    #: Simulated fan-out subscribers attached to the rIoC room at build
    #: time (``caop run --subscribers``); pumped once per cycle.
    fanout_subscribers: int = 0


@dataclass
class _Cycle:
    """What one ``run_cycle`` hands from stage to stage."""

    number: int
    report: CycleReport
    enrichments: List[EnrichmentResult] = field(default_factory=list)
    riocs: List[ReducedIoc] = field(default_factory=list)


@dataclass(frozen=True)
class Stage:
    """One isolated step of ``run_cycle``.

    ``run(platform, cycle)`` looks its collaborators up on the platform
    each time it runs, so a collaborator replaced after build is the one
    called.  ``also`` names further health slots the stage reports into
    (``collect`` owns ``store``).  When ``when(platform)`` is false the
    stage is skipped without opening a span.
    """

    name: str
    run: Callable[["ContextAwareOSINTPlatform", _Cycle], None]
    also: Tuple[str, ...] = ()
    when: Optional[Callable[["ContextAwareOSINTPlatform"], bool]] = None


class ContextAwareOSINTPlatform:
    """Facade over the whole platform; see :func:`build_default`."""

    def __init__(self, osint_collector: OsintDataCollector,
                 infra_collector: InfrastructureDataCollector,
                 sensors: SensorNetwork,
                 misp: MispInstance,
                 heuristics: HeuristicComponent,
                 rioc_generator: RIocGenerator,
                 dashboard: DashboardServer,
                 clock: Clock,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 deadletters: Optional[DeadLetterQueue] = None,
                 breakers: Optional[CircuitBreakerBoard] = None,
                 gateway=None,
                 sensor_steps_per_cycle: int = 6,
                 provenance: Optional[ProvenanceRecorder] = None,
                 log: Optional[StructuredLog] = None,
                 slo: Optional[SloEngine] = None,
                 compaction_every_cycles: int = 25,
                 fanout_subscribers: int = 0) -> None:
        from ..dashboard.geo import GeoSummaryView
        from ..dashboard.views import CorrelationGraphView, KeywordSummaryView
        from .compaction import CompactionStage
        from .decay import ScoreDecayEngine
        from .deltas import RollupGroup
        from .report import IntelReportBuilder
        from .sightings import SightingProcessor

        self.osint_collector = osint_collector
        self.infra_collector = infra_collector
        self.sensors = sensors
        self.misp = misp
        self.heuristics = heuristics
        self.rioc_generator = rioc_generator
        self.dashboard = dashboard
        self.clock = clock
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or Tracer(metrics=self.metrics)
        self.sightings = SightingProcessor(misp, heuristics, clock=clock)
        self.decay = ScoreDecayEngine(clock=clock)
        #: Incrementally-maintained materialized views over the store's
        #: change feed, brought current once per cycle (``rollup`` stage)
        #: and checkpointed at :meth:`checkpoint`.
        self.rollups = RollupGroup(misp.store)
        self.graph_view = self.rollups.add(
            CorrelationGraphView(misp.store, persistent=True))
        self.keyword_view = self.rollups.add(
            KeywordSummaryView(misp.store, persistent=True))
        self.geo_view = GeoSummaryView()
        self.rollups.add(self.geo_view.store_rollup(misp.store, persistent=True))
        self.report_builder = IntelReportBuilder(
            misp.store, clock=clock, decay=self.decay,
            incremental=True, persistent=True)
        self.rollups.add(self.report_builder.rollup)
        #: Rate-limited decay compaction (the ``compact`` cycle stage); it
        #: reads the report rollup's summaries instead of the store.
        self.compaction = CompactionStage(
            misp.store, decay=self.decay, clock=clock,
            every_cycles=compaction_every_cycles, metrics=self.metrics,
            summaries=self.report_builder.rollup)
        #: Simulated protocol-driving subscribers on the rIoC fan-out room
        #: (``caop run --subscribers``), pumped once per fanout stage.
        self.fanout_clients = dashboard.attach_subscribers(fanout_subscribers)
        self.deadletters = deadletters
        self.breakers = breakers
        #: The sharing gateway (delta-sync fan-out to external entities);
        #: the share stage is a no-op until entities are registered on it.
        self.gateway = gateway
        self.sensor_steps_per_cycle = sensor_steps_per_cycle
        #: End-to-end IoC lineage recorder (no-op unless wired to a store).
        self.provenance = provenance or NULL_RECORDER
        #: Structured JSON log (disabled unless built with one).
        self.log = log or NULL_LOG
        #: Optional SLO burn-rate engine, evaluated once per cycle.
        self.slo = slo
        #: Consecutive cycles in which the share stage delivered nothing
        #: while failing/skipping at least one share (SLO staleness signal).
        self._share_stale_cycles = 0
        self.history: List[CycleReport] = []
        self._m_cycles = self.metrics.counter(
            "caop_cycles_total", "Completed platform cycles")
        self._m_cycle_seconds = self.metrics.histogram(
            "caop_cycle_seconds", "Wall time of one full platform cycle")
        self._m_degraded = self.metrics.counter(
            "caop_degraded_cycles_total",
            "Cycles that completed with at least one failed stage")
        self._m_idle = self.metrics.counter(
            "caop_cycle_idle_total",
            "Quiet cycles: nothing collected, changed, shared or compacted")

    @classmethod
    def build_default(cls, config: Optional[PlatformConfig] = None,
                      inventory: Optional[Inventory] = None,
                      clock: Optional[Clock] = None) -> "ContextAwareOSINTPlatform":
        """The standard wiring over synthetic feeds and the paper inventory."""
        config = config or PlatformConfig()
        clock = clock or SimulatedClock()
        pool = IndicatorPool(seed=config.seed)
        transport = SimulatedTransport(clock=clock, seed=config.seed)
        descriptors: List[FeedDescriptor] = []
        for generator, name in standard_feed_set(
                pool, entries=config.feed_entries, seed=config.seed):
            descriptor = generator.descriptor(name)
            transport.register_generator(descriptor, generator)
            descriptors.append(descriptor)
        return cls.build_with_feeds(descriptors, transport, config=config,
                                    inventory=inventory, clock=clock)

    @classmethod
    def build_from_feed_config(cls, path: str,
                               config: Optional[PlatformConfig] = None,
                               inventory: Optional[Inventory] = None,
                               clock: Optional[Clock] = None
                               ) -> "ContextAwareOSINTPlatform":
        """Wire the platform from a JSON feed-configuration file."""
        from ..feeds import load_feed_config, register_configured_feeds

        config = config or PlatformConfig()
        clock = clock or SimulatedClock()
        entries = load_feed_config(path)
        transport = SimulatedTransport(clock=clock, seed=config.seed)
        descriptors = register_configured_feeds(
            entries, transport, pool=IndicatorPool(seed=config.seed))
        return cls.build_with_feeds(descriptors, transport, config=config,
                                    inventory=inventory, clock=clock)

    @classmethod
    def build_with_feeds(cls, descriptors: Sequence[FeedDescriptor],
                         transport: SimulatedTransport,
                         config: Optional[PlatformConfig] = None,
                         inventory: Optional[Inventory] = None,
                         clock: Optional[Clock] = None
                         ) -> "ContextAwareOSINTPlatform":
        """Common wiring once feeds and their transport exist."""
        from ..misp.warninglists import WarninglistIndex
        from ..sharing import SharingGateway

        config = config or PlatformConfig()
        clock = clock or SimulatedClock()
        # ``is None``, not ``or``: an empty inventory is falsy.
        inventory = paper_inventory() if inventory is None else inventory
        descriptors = list(descriptors)
        telemetry = config.metrics_enabled
        metrics = MetricsRegistry(enabled=telemetry)
        tracer = Tracer(metrics=metrics, enabled=telemetry)
        log = StructuredLog(clock=clock, sink_path=config.log_file,
                            enabled=telemetry)
        if config.fault_injector is not None and transport.fault_injector is None:
            transport.fault_injector = config.fault_injector
        sleeper = sleeper_for(config.backoff_mode, clock)
        # Stateless: delays depend only on (seed, key, attempt), so the
        # fetcher, the store and the gateway share one policy.
        retry = RetryPolicy(seed=config.seed)
        deadletters = DeadLetterQueue(clock=clock, metrics=metrics)

        def breaker_board() -> CircuitBreakerBoard:
            return CircuitBreakerBoard(
                clock=clock,
                failure_threshold=config.breaker_failure_threshold,
                cooldown_seconds=config.breaker_cooldown_seconds,
                metrics=metrics)

        breakers = breaker_board()
        fetcher = FeedFetcher(
            transport, clock=clock, metrics=metrics,
            workers=config.fetch_workers, retry_policy=retry,
            breakers=breakers, sleeper=sleeper, tracer=tracer)

        store = None
        if config.store_path is not None:
            from ..misp.store import MispStore
            store = MispStore(config.store_path, metrics=metrics,
                              clock=clock,
                              fault_injector=config.fault_injector)
        misp = MispInstance(
            org=config.org, store=store, metrics=metrics, clock=clock,
            store_retry_policy=retry, sleeper=sleeper,
            deadletters=deadletters, fault_injector=config.fault_injector)
        provenance = ProvenanceRecorder(
            store=misp.store, clock=clock, org=config.org, enabled=telemetry)
        slo = SloEngine(metrics=metrics) if telemetry else None
        sensors = SensorNetwork(inventory, clock=clock, seed=config.seed,
                                alarm_rate=config.sensor_alarm_rate)
        infra_collector = InfrastructureDataCollector(
            inventory, sensors, misp=misp, clock=clock)
        osint_collector = OsintDataCollector(
            fetcher, descriptors, misp=misp, clock=clock,
            drop_irrelevant_text=config.drop_irrelevant_text,
            warninglists=WarninglistIndex(),
            metrics=metrics, tracer=tracer,
            deadletters=deadletters,
            fault_injector=config.fault_injector,
            provenance=provenance, log=log)
        heuristics = HeuristicComponent(
            misp, inventory=inventory,
            alarm_manager=sensors.alarm_manager,
            cve_db=CveDatabase(), clock=clock, metrics=metrics,
            provenance=provenance, log=log)
        rioc_generator = RIocGenerator(inventory, clock=clock, metrics=metrics)
        dashboard = DashboardServer(inventory, metrics=metrics)
        if config.fault_injector is not None:
            dashboard.sio.broker.fault_injector = config.fault_injector
        gateway = SharingGateway(
            misp, retry_policy=retry,
            breakers=breaker_board(), deadletters=deadletters,
            metrics=metrics, clock=clock, sleeper=sleeper,
            fault_injector=config.fault_injector,
            provenance=provenance, log=log)
        return cls(
            osint_collector=osint_collector, infra_collector=infra_collector,
            sensors=sensors, misp=misp, heuristics=heuristics,
            rioc_generator=rioc_generator, dashboard=dashboard, clock=clock,
            metrics=metrics, tracer=tracer, deadletters=deadletters,
            breakers=breakers, gateway=gateway,
            sensor_steps_per_cycle=config.sensor_steps_per_cycle,
            provenance=provenance, log=log, slo=slo,
            compaction_every_cycles=config.compaction_every_cycles,
            fanout_subscribers=config.fanout_subscribers)

    # -- the stages, in cycle order -------------------------------------------

    def _sense(self, cycle: _Cycle) -> None:
        # Infrastructure side: sensors tick, alarms reach the dashboard,
        # internal IoCs reach MISP (stored only; no zmq feed).
        alarms = self.sensors.tick(steps=self.sensor_steps_per_cycle)
        cycle.report.new_alarms = len(alarms)
        for alarm in alarms:
            self.dashboard.push_alarm(alarm)
        if self.infra_collector.ship_to_misp() is not None:
            cycle.report.infrastructure_events = 1

    def _collect(self, cycle: _Cycle) -> None:
        # OSINT side: feeds into cIoCs (MISP publishes each on zmq).  The
        # collector opens its own child spans (fetch -> normalize -> dedup
        # -> filter -> correlate -> compose -> store).  A store failure is
        # absorbed inside collect() (the events are quarantined) and
        # surfaces in the ``store`` slot.
        _ciocs, collection = self.osint_collector.collect()
        cycle.report.collection = collection
        if collection.store_error is not None:
            cycle.report.stage_errors["store"] = collection.store_error

    def _enrich(self, cycle: _Cycle) -> None:
        # Heuristic analysis: drain the feed, score, enrich.
        cycle.enrichments = self.heuristics.process_pending()
        cycle.report.eiocs_created = len(cycle.enrichments)

    def _reduce(self, cycle: _Cycle) -> None:
        report = cycle.report
        for enrichment in cycle.enrichments:
            report.scores.append(enrichment.score.score)
            rioc = self.rioc_generator.generate(enrichment.eioc)
            if rioc is None:
                report.riocs_suppressed += 1
                continue
            cycle.riocs.append(rioc)
            if self.provenance.enabled:
                self.provenance.record(
                    "reduced-into", enrichment.eioc.uuid,
                    actor="rioc-generator",
                    detail=f"nodes={','.join(rioc.nodes)} "
                           f"term={rioc.matched_term}")

    def _push(self, cycle: _Cycle) -> None:
        # Visualization: rIoCs to the dashboard sockets.
        for rioc in cycle.riocs:
            cycle.report.riocs_created += 1
            cycle.report.dashboard_pushes += self.dashboard.push_rioc(rioc)

    def _sharing(self) -> bool:
        return self.gateway is not None and bool(self.gateway.entities)

    def _share(self, cycle: _Cycle) -> None:
        # Delta-sync fan-out of new/changed eIoCs to external entities.
        shared = self.gateway.sync_cycle()
        cycle.report.shares_sent = shared.shared
        cycle.report.share_failures = shared.failed + shared.breaker_skipped

    def _compact(self, cycle: _Cycle) -> None:
        # Rate-limited decay compaction (usually a skip).  When due, the
        # whole rollup group first folds this cycle's writes in: the
        # summaries compaction reads are then current, the four rollups
        # stay aligned and the cycle decodes its changes once.  Runs
        # *before* the rollup stage so any purge lands in the change feed
        # the rollups consume this same cycle.
        if self.compaction.due(cycle.number):
            cycle.report.deltas_consumed += self.rollups.refresh()
        compaction = self.compaction.maybe_run(cycle.number)
        cycle.report.compacted = compaction.ran
        cycle.report.events_purged = compaction.purged

    def _rollup(self, cycle: _Cycle) -> None:
        # Bring the materialized dashboard and report views current off the
        # change feed; on a quiet cycle a single empty changes_since query.
        cycle.report.deltas_consumed += self.rollups.refresh()
        if cycle.report.compacted:
            # Compaction cadence doubles as the checkpoint cadence: persist
            # rollup state while the store is already paying a write burst.
            self.rollups.save_all()

    def _fanout(self, cycle: _Cycle) -> None:
        # Flush the snapshot+delta rooms (one delta render per dirty room,
        # however many subscribers).  View-room syncing is gated on actual
        # activity so a quiet cycle adds no SQL, and flushing clean rooms
        # renders nothing.
        report = cycle.report
        if report.deltas_consumed or report.new_alarms or report.riocs_created:
            self.dashboard.sync_view_rooms(self.graph_view, self.keyword_view)
        flush = self.dashboard.flush_fanout()
        report.fanout_deltas = flush.deltas
        report.fanout_shed = flush.shed_messages
        report.fanout_resyncs = flush.resyncs
        for client in self.fanout_clients:
            client.pump()

    #: The cycle (Fig. 1: input -> operational -> output, plus sharing).
    #: Order matters: compact runs before rollup so a purge is consumed in
    #: the same cycle.
    STAGES: Tuple[Stage, ...] = (
        Stage("sense", _sense),
        Stage("collect", _collect, also=("store",)),
        Stage("enrich", _enrich),
        Stage("reduce", _reduce),
        Stage("push", _push),
        Stage("share", _share, when=_sharing),
        Stage("compact", _compact),
        Stage("rollup", _rollup),
        Stage("fanout", _fanout),
    )

    def run_cycle(self) -> CycleReport:
        """One full platform round: every stage of :attr:`STAGES` in order.

        Each stage runs inside a span named after it; the resulting timing
        breakdown lands on :attr:`CycleReport.timings` and in the
        ``caop_span_seconds`` histogram of :attr:`metrics`.

        Stages are *isolated*: a stage that raises
        :class:`~repro.errors.ReproError` is recorded under
        :attr:`CycleReport.stage_errors` and the remaining stages still run,
        so one failing component degrades the cycle instead of aborting it.
        Unexpected (non-``ReproError``) exceptions still propagate — those
        are bugs, not faults.
        """
        report = CycleReport(collection=CollectionReport())
        cycle = _Cycle(number=len(self.history) + 1, report=report)
        self.log.begin_cycle(cycle.number)
        self.provenance.begin_cycle(cycle.number)
        self.log.emit("cycle", "cycle_start")
        with self.tracer.span("cycle") as cycle_span:
            for stage in self.STAGES:
                if stage.when is not None and not stage.when(self):
                    continue
                try:
                    with self.tracer.span(stage.name):
                        stage.run(self, cycle)
                except ReproError as exc:
                    report.stage_errors[stage.name] = str(exc)
        record = report.to_record()
        if record["idle"]:
            self._m_idle.inc()
        cycle_seconds = 0.0
        if cycle_span is not None:
            report.timings = cycle_span.flatten()
            cycle_seconds = cycle_span.duration_seconds
            self._m_cycle_seconds.observe(cycle_seconds)
        self._m_cycles.inc()
        if report.degraded:
            self._m_degraded.inc()
        self.history.append(report)
        for stage, error in sorted(report.stage_errors.items()):
            self.log.emit(stage, "stage_error", level="error", error=error)
        self.log.emit("cycle", "cycle_end", **record)
        # Share staleness streak: cycles in which the fan-out only failed.
        if self._sharing():
            if report.shares_sent > 0:
                self._share_stale_cycles = 0
            elif report.share_failures > 0:
                self._share_stale_cycles += 1
        self.provenance.flush()
        if self.slo is not None:
            fetched = report.collection.feeds_fetched
            failed = report.collection.feeds_failed
            self.slo.observe_cycle(cycle.number, self.clock.now(), {
                **record,
                "cycle_seconds": cycle_seconds,
                "drop_ratio": failed / (fetched + failed)
                if fetched + failed else 0.0,
                "share_stale_cycles": self._share_stale_cycles,
            })
            self.slo.evaluate()
        health = self.health()
        health.export(self.metrics)
        self.dashboard.update_health(health)
        return report

    def health(self) -> PlatformHealth:
        """Snapshot component health: feed breakers, pipeline stages, DLQ.

        Breaker states map directly (closed -> ok, half-open -> degraded,
        open -> failing).  A stage that failed in the last cycle is degraded;
        failing if it failed in the last *two*.  The dead-letter queue is
        degraded while anything sits quarantined.
        """
        components: List[ComponentHealth] = []
        boards = {"feed": self.breakers,
                  "entity": self.gateway.breakers
                  if self.gateway is not None else None}
        for prefix, board in boards.items():
            if board is None:
                continue
            for name, state in sorted(board.states().items()):
                components.append(ComponentHealth(
                    component=f"{prefix}:{name}",
                    status=_BREAKER_HEALTH.get(state, HEALTH_OK),
                    detail=f"breaker {state}"))
        last = self.history[-1].stage_errors if self.history else {}
        prev = self.history[-2].stage_errors if len(self.history) > 1 else {}
        for stage in self.STAGES:
            for slot in (stage.name, *stage.also):
                status = HEALTH_OK
                if slot in last:
                    status = HEALTH_FAILING if slot in prev else HEALTH_DEGRADED
                components.append(ComponentHealth(
                    component=f"stage:{slot}", status=status,
                    detail=last.get(slot, "")))
        if self.deadletters is not None:
            depth = len(self.deadletters)
            components.append(ComponentHealth(
                component="deadletter",
                status=HEALTH_DEGRADED if depth else HEALTH_OK,
                detail=f"{depth} quarantined" if depth else ""))
        if self.slo is not None:
            # SloStatus severities are spelled exactly like the HEALTH_*
            # constants, so they map without obs importing resilience.
            for status in self.slo.last_statuses():
                components.append(ComponentHealth(
                    component=f"slo:{status.rule.name}",
                    status=status.severity,
                    detail=status.detail))
        return PlatformHealth(components=components)

    def checkpoint(self) -> int:
        """Persist every rollup's position and changed rows.

        Call before shutting down a platform built over a file-backed
        store: a reopened platform then resumes its rollups from the
        checkpoint, and its first quiet cycle consumes zero deltas.
        Returns how many rollups actually wrote.
        """
        return self.rollups.save_all()

    def replay_deadletters(self) -> ReplayReport:
        """Re-drive quarantined documents and events through the pipeline.

        Call after the underlying fault clears (e.g. the store recovers):
        documents go back through the collector's parse->compose->store
        chain, events go straight to MISP, quarantined shares re-drive
        their transport through the gateway, and anything the heuristic
        component now sees is scored into eIoCs.
        """
        if self.deadletters is None:
            return ReplayReport()
        report = self.deadletters.replay(
            collector=self.osint_collector, misp=self.misp,
            gateway=self.gateway)
        enrichments = self.heuristics.process_pending()
        report.eiocs_created = len(enrichments)
        return report

    def run(self, cycles: int) -> List[CycleReport]:
        """Run several cycles and return their reports."""
        return [self.run_cycle() for _ in range(cycles)]
