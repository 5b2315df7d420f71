"""The four seeded, closed-loop workloads the perf harness drives.

Each workload builds its inputs from the seed with the repository's own
generators (``IndicatorPool``, ``standard_feed_set``,
``SimulatedTransport``), wires the program through its public API
(``ContextAwareOSINTPlatform.build_with_feeds``, ``Federation``), and then
runs one cycle at a time: the next cycle starts only when the previous one
returned, which is how ``run_cycle`` is driven in production.

Why these four (each stresses a different layer):

- ``ingest`` — write-heavy and CPU-bound: heuristic scoring, collector
  parse/compose and store writes do the work; fetch wait, sharing, fan-out
  and compaction are close to idle;
- ``large_store`` — read-heavy and proportional to store size: a
  pre-loaded sharded file store, 1,000 fan-out subscribers and compaction
  on a fixed cadence, so rollups, view sync and compaction dominate and a
  gain for ``ingest`` that costs reads shows up here;
- ``remote`` — latency-bearing feeds and eight TAXII partners: the only
  workload where the fetch, enrich and share thread pools pay off;
- ``federate`` — org-to-org sharing over the federation backbone with
  periodic anti-entropy; the platform cycle is not involved.

A workload also owns the *consumers* whose view defines visibility: an
analyst dashboard client (``rioc`` handler), the partners' TAXII servers,
and the federation backbone.  ``visible`` collects, per delivered item,
the seconds from the start of its cycle to its arrival.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import time
from typing import Any, Dict, List, Optional

from repro import ContextAwareOSINTPlatform, PlatformConfig
from repro.clock import PAPER_NOW, SimulatedClock
from repro.core.ioc import TAG_EIOC, THREAT_SCORE_COMMENT
from repro.federation import (
    KIND_EVENT,
    Federation,
    SimulatedNetworkBackbone,
    hub_and_spoke,
)
from repro.federation.fingerprint import store_fingerprint
from repro.feeds import IndicatorPool, SimulatedTransport, standard_feed_set
from repro.ids import content_uuid
from repro.misp import Distribution, MispAttribute, MispEvent
from repro.resilience import FaultInjector
from repro.sharing import ExternalEntity, TaxiiServer, mark_tlp

#: Timed cycles in ``--quick`` mode (the smoke test).
QUICK_CYCLES = 3


class Workload:
    """Common shape: set up once, then run timed cycles one at a time."""

    name = ""
    #: Untimed cycles run as the last part of set-up.
    warmup = 2
    #: Timed cycles per second of ``--seconds``.  The cycle count is fixed
    #: from this nominal rate, so both sides of a comparison do identical
    #: work and a seed always ends in the same store state.
    rate = 2.5

    def __init__(self, seed: int, cycles: int, quick: bool = False,
                 work_dir: Optional[str] = None,
                 overrides: Optional[Dict[str, Any]] = None) -> None:
        self.seed = seed
        self.cycles = cycles
        self.quick = quick
        self.work_dir = work_dir
        #: Config fields a test may pin (e.g. one worker per pool).
        self.overrides = overrides or {}
        self.visible: List[float] = []
        self.cycle_start = 0.0

    @classmethod
    def cycles_for(cls, seconds: float, quick: bool) -> int:
        """Timed cycles for a run of ``seconds``."""
        return QUICK_CYCLES if quick else max(1, round(seconds * cls.rate))

    def _seen(self, *_args) -> None:
        self.visible.append(time.perf_counter() - self.cycle_start)

    def setup(self) -> None:
        """Inputs, build, pre-load and warm-up."""
        raise NotImplementedError

    def cycle(self) -> Dict[str, int]:
        """One closed-loop cycle; returns its counters."""
        raise NotImplementedError

    def trace_targets(self) -> list:
        """``(obj, attribute, layer, keep_result)`` for the traced run."""
        raise NotImplementedError

    def gate(self, infos: List[Dict[str, int]]) -> List[str]:
        """Correctness failures over the timed cycles' counters."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Full-store fingerprint of the end state."""
        raise NotImplementedError

    def event_count(self) -> int:
        """Events stored at the end of the run (all orgs)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release stores and temporary files."""
        if self.work_dir:
            shutil.rmtree(self.work_dir, ignore_errors=True)


class PlatformWorkload(Workload):
    """A workload over one ``ContextAwareOSINTPlatform``."""

    pool_size = 20000
    entries = 30
    #: Whether visibility is an rIoC reaching the analyst's dashboard.
    riocs_visible = True
    transport_options: Dict[str, Any] = {}

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.platform: Optional[ContextAwareOSINTPlatform] = None
        self.partners: List[TaxiiServer] = []

    def build(self, clock: SimulatedClock) -> None:
        """Feeds from the shared indicator pool, then the platform."""
        pool = IndicatorPool(seed=self.seed,
                             size=2000 if self.quick else self.pool_size)
        self.transport = SimulatedTransport(clock=clock, seed=self.seed,
                                            **self.transport_options)
        descriptors = []
        for generator, name in standard_feed_set(
                pool, entries=10 if self.quick else self.entries,
                seed=self.seed, overlap=0.5):
            descriptor = generator.descriptor(name)
            self.transport.register_generator(descriptor, generator)
            descriptors.append(descriptor)
        self.platform = ContextAwareOSINTPlatform.build_with_feeds(
            descriptors, self.transport, config=self.platform_config(),
            clock=clock)
        self.pool = pool

    def platform_config(self, **fields) -> PlatformConfig:
        """Shipped defaults plus the workload's and a test's fields."""
        fields.update(self.overrides)
        return PlatformConfig(seed=self.seed, **fields)

    def setup(self) -> None:
        self.build(SimulatedClock())
        self.prepare()
        if self.riocs_visible:
            self.platform.dashboard.connect_client().on("rioc", self._seen)
        self.stages = sum(1 for component in self.platform.health().components
                          if component.component.startswith("stage:"))
        for _ in range(self.warmup):
            self.cycle()
        self.visible.clear()

    def prepare(self) -> None:
        """Workload-specific wiring between build and warm-up."""

    def cycle(self) -> Dict[str, int]:
        store = self.platform.misp.store
        sql, payloads = store.sql_statements, store.payloads_deserialized
        report = self.platform.run_cycle()
        collection = report.collection
        return {
            "indicators": collection.records_parsed,
            "records": collection.records_parsed,
            "attempted": (collection.feeds_fetched + collection.feeds_failed
                          + report.shares_sent + report.share_failures
                          + self.stages),
            "failed": (collection.feeds_failed + report.share_failures
                       + len(report.stage_errors)),
            "sql": store.sql_statements - sql,
            "payloads": store.payloads_deserialized - payloads,
            "ciocs": collection.ciocs_created,
            "eiocs": report.eiocs_created,
            "riocs": report.riocs_created,
            "infra_events": report.infrastructure_events,
            "deltas": report.deltas_consumed,
            "fanout_deltas": report.fanout_deltas,
            "fanout_shed": report.fanout_shed,
            "compacted": int(report.compacted),
            "shares": report.shares_sent,
        }

    def trace_targets(self) -> list:
        platform = self.platform
        dashboard = platform.dashboard
        targets = [
            (self.transport, "get", "feeds", False),
            (platform.osint_collector, "collect", "collector", False),
            (platform.heuristics, "process_pending", "heuristics", True),
            (platform.misp, "add_events", "misp.add_events", False),
            (platform.misp, "apply_enrichments", "misp.apply_enrichments",
             False),
            (platform.sensors, "tick", "infra", False),
            (platform.infra_collector, "ship_to_misp", "infra", False),
            (platform.rioc_generator, "generate", "reduce", False),
            (dashboard, "push_rioc", "dashboard.push", False),
            (dashboard, "push_alarm", "dashboard.push", False),
            (dashboard, "sync_view_rooms", "dashboard.sync_view", False),
            (dashboard, "flush_fanout", "dashboard.flush", False),
            (platform.rollups, "refresh", "deltas", False),
            (platform.rollups, "save_all", "deltas", False),
            (platform.compaction, "maybe_run", "compaction", True),
            (platform.gateway, "sync_cycle", "sharing", True),
        ]
        targets += [(client, "pump", "dashboard.pump", False)
                    for client in platform.fanout_clients]
        targets += [(server, "add_objects", "sharing.taxii", False)
                    for server in self.partners]
        return targets

    def gate(self, infos: List[Dict[str, int]]) -> List[str]:
        failures = []
        if not sum(info["riocs"] for info in infos):
            failures.append("no rIoC reached the dashboard")
        return failures

    def fingerprint(self) -> str:
        return store_fingerprint(self.platform.misp.store)

    def event_count(self) -> int:
        return self.platform.misp.store.event_count()

    def close(self) -> None:
        if self.platform is not None:
            self.platform.misp.store.close()
        super().close()


class Ingest(PlatformWorkload):
    """12 feeds x 30 entries over a 20k-indicator pool, in-memory store."""

    name = "ingest"


class LargeStore(PlatformWorkload):
    """Pre-loaded 4-shard file store, 1,000 subscribers, cadenced compaction."""

    name = "large_store"
    rate = 1.5
    pool_size = 2000
    preload = 12000
    preload_batch = 500
    subscribers = 1000
    compaction_every = 10
    #: Events sharing one drop host, so the pre-load has correlation edges.
    drop_group = 8

    def platform_config(self, **fields) -> PlatformConfig:
        os.makedirs(self.work_dir, exist_ok=True)
        return super().platform_config(
            store_path=os.path.join(self.work_dir, "store.db"),
            store_shards=4,
            fanout_subscribers=50 if self.quick else self.subscribers,
            compaction_every_cycles=2 if self.quick else self.compaction_every,
            **fields)

    def prepare(self) -> None:
        """Load scored eIoCs through the public batch-ingest API."""
        rng = random.Random(self.seed)
        now = self.platform.clock.now()
        total = 300 if self.quick else self.preload
        for first in range(0, total, self.preload_batch):
            batch = []
            for index in range(first, min(total, first + self.preload_batch)):
                event = MispEvent(info=f"archived intel {index}",
                                  published=True, timestamp=now)
                event.uuid = content_uuid("perf-preload", str(self.seed),
                                          str(index))
                attributes = [
                    # Every domain of the feeds' pool is archived equally
                    # often, so new intel correlates with the archive the
                    # same way whatever the seed.
                    MispAttribute(type="domain",
                                  value=self.pool.domains[
                                      index % len(self.pool.domains)],
                                  timestamp=now),
                    MispAttribute(type="domain",
                                  value=f"drop-{self.seed}-"
                                        f"{index // self.drop_group}.example",
                                  timestamp=now),
                    MispAttribute(type="float",
                                  value=f"{rng.uniform(1.0, 5.0):.4f}",
                                  comment=THREAT_SCORE_COMMENT,
                                  timestamp=now),
                ]
                for number, attribute in enumerate(attributes):
                    attribute.uuid = content_uuid(
                        "perf-preload-attr", event.uuid, str(number))
                    event.add_attribute(attribute)
                event.add_tag(TAG_EIOC)
                event.add_tag('caop:category="phishing"')
                batch.append(event)
            self.platform.misp.add_events(batch, publish_feed=False)

    def gate(self, infos: List[Dict[str, int]]) -> List[str]:
        failures = super().gate(infos)
        every = self.platform.compaction.every_cycles
        off_cadence = [number for number, report
                       in enumerate(self.platform.history, start=1)
                       if report.compacted != (number % every == 0)]
        if off_cadence:
            failures.append(f"compaction off its every-{every} cadence at "
                            f"cycles {off_cadence}")
        if not sum(info["compacted"] for info in infos):
            failures.append("no compaction ran in the timed cycles")
        return failures


class Remote(PlatformWorkload):
    """Latency-bearing feeds and eight TAXII partners."""

    name = "remote"
    entries = 15
    partner_count = 8
    riocs_visible = False
    transport_options = {"realtime": True, "latency_range": (0.01, 0.03)}

    def prepare(self) -> None:
        for index in range(self.partner_count):
            server = TaxiiServer(title=f"partner-{index}",
                                 clock=self.platform.clock)
            server.create_collection("indicators", "Shared indicators")
            server.add_objects = self._arrival(server.add_objects)
            self.partners.append(server)
            self.platform.gateway.register(ExternalEntity(
                name=f"partner-{index}", transport="taxii",
                taxii_server=server))

    def _arrival(self, add_objects):
        def timed(*args, **kwargs):
            status = add_objects(*args, **kwargs)
            self._seen()
            return status
        return timed

    def gate(self, infos: List[Dict[str, int]]) -> List[str]:
        failures = super().gate(infos)
        # Every eIoC of a cycle, and its infrastructure event, goes to
        # every partner exactly once.
        wrong = [index for index, info in enumerate(infos)
                 if info["shares"] != self.partner_count
                 * (info["eiocs"] + info["infra_events"])]
        if wrong:
            failures.append(f"shares != {self.partner_count} partners x "
                            f"(eIoCs + infrastructure event) in timed "
                            f"cycles {wrong}")
        return failures


class Federate(Workload):
    """Six orgs, hub and spoke, five new TLP:GREEN events per org per round."""

    name = "federate"
    orgs = 6
    events_per_org = 5
    anti_entropy_every = 10
    pool_size = 2000

    def setup(self) -> None:
        names = [f"org-{index}" for index in range(self.orgs)]
        self.org_names = names
        pool = IndicatorPool(seed=self.seed, size=self.pool_size)
        rng = random.Random(self.seed)
        rounds = self.warmup + self.cycles
        # Inputs are made up front so the timed rounds measure only the
        # program's work.
        self.inputs = [
            {org: [self._event(rng, pool, org, number, index)
                   for index in range(self.events_per_org)]
             for org in names}
            for number in range(1, rounds + 1)]
        self.backbone = SimulatedNetworkBackbone(FaultInjector())
        self.backbone.transmit = self._delivery(self.backbone.transmit)
        self.federation = Federation(
            hub_and_spoke(names[0], names[1:]), backbone=self.backbone,
            clock=SimulatedClock(PAPER_NOW), **self.overrides)
        self.round = 0
        self.repairs = 0
        for _ in range(self.warmup):
            self.cycle()
        self.visible.clear()

    def _event(self, rng: random.Random, pool: IndicatorPool, org: str,
               number: int, index: int) -> MispEvent:
        event = MispEvent(
            info=f"{org} intel {number}-{index}",
            uuid=content_uuid("perf-federate", str(self.seed), org,
                              str(number), str(index)),
            distribution=Distribution.ALL_COMMUNITIES,
            timestamp=PAPER_NOW)
        kind, values = rng.choice((("ip-src", pool.ipv4),
                                   ("domain", pool.domains)))
        event.add_attribute(MispAttribute(
            type=kind, value=rng.choice(values),
            uuid=content_uuid("perf-federate-attr", event.uuid),
            timestamp=PAPER_NOW))
        mark_tlp(event, "green")
        return event

    def _delivery(self, transmit):
        # Anti-entropy repairs (the serial ``reconcile`` pass) race the
        # next relay and land when the O(store) digest scan reaches them;
        # they count as delivered, but visibility times the sync path.
        def timed(src, dst, kind, payload):
            response = transmit(src, dst, kind, payload)
            if kind == KIND_EVENT and response.get("accepted"):
                if payload.get("reconcile"):
                    self.repairs += 1
                else:
                    self._seen()
            return response
        return timed

    def _nodes(self):
        return [self.federation.node(org) for org in self.org_names]

    def cycle(self) -> Dict[str, int]:
        self.round += 1
        delivered = len(self.visible) + self.repairs
        stores = [node.misp.store for node in self._nodes()]
        sql = sum(store.sql_statements for store in stores)
        payloads = sum(store.payloads_deserialized for store in stores)
        stats = self.backbone.stats.values()
        sent = sum(link.bytes for link in stats)
        messages = sum(link.messages for link in stats)
        batch = self.inputs[self.round - 1]
        for node in self._nodes():
            node.misp.add_events(batch[node.name])
            node.heuristics.process_pending()
        anti_entropy = self.round % (
            2 if self.quick else self.anti_entropy_every) == 0
        reports = self.federation.run_round(anti_entropy=anti_entropy)
        stats = self.backbone.stats.values()
        delivered = len(self.visible) + self.repairs - delivered
        failed = sum(report.failed + report.breaker_skipped
                     for report in reports)
        attempted = sum(report.shared + report.failed + report.refused
                        + report.skipped + report.breaker_skipped
                        for report in reports)
        return {
            "indicators": delivered,
            # Every org's store, enrich and sync stage count as attempts.
            "attempted": attempted + 3 * len(reports),
            "failed": failed,
            "sql": sum(store.sql_statements for store in stores) - sql,
            "payloads": (sum(store.payloads_deserialized
                             for store in stores) - payloads),
            "bytes": sum(link.bytes for link in stats) - sent,
            "messages": sum(link.messages for link in stats) - messages,
        }

    def trace_targets(self) -> list:
        targets = [
            (self.backbone, "transmit", "federation.transmit", False),
            (self.federation, "reconcile", "federation.reconcile", False),
        ]
        for node in self._nodes():
            targets += [
                (node.misp, "add_events", "misp.add_events", False),
                (node.misp, "receive_events", "misp.receive_events", False),
                (node.misp, "apply_enrichments", "misp.apply_enrichments",
                 False),
                (node.heuristics, "process_pending", "heuristics", True),
                (node.gateway, "sync_cycle", "federation.sync", False),
                (node, "flush_sightings", "federation.sync", False),
            ]
        return targets

    def gate(self, infos: List[Dict[str, int]]) -> List[str]:
        failures = []
        if not sum(info["indicators"] for info in infos):
            failures.append("no event reached a remote org")
        # One quiet round relays the last round's events through the hub;
        # after it every org must hold the same shareable content.
        self.federation.run_round()
        if not self.federation.converged():
            failures.append("federation did not converge")
        return failures

    def event_count(self) -> int:
        return sum(node.misp.store.event_count() for node in self._nodes())

    def fingerprint(self) -> str:
        prints = self.federation.fingerprints()
        return hashlib.sha256("".join(
            f"{org}={prints[org]};" for org in sorted(prints)
        ).encode()).hexdigest()


WORKLOADS = {cls.name: cls for cls in (Ingest, LargeStore, Remote, Federate)}
