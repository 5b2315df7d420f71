"""Command-line interface for the Context-Aware OSINT Platform.

Subcommands::

    caop run        run N platform cycles (optionally persisting the MISP
                    store to a SQLite file) and print the dashboard
    caop deadletter run cycles under injected faults and inspect/replay the
                    dead-letter quarantine
    caop rce-demo   the paper's §IV use case (Table V + Figures 3/4)
    caop fanout     snapshot+delta fan-out demo (many subscribers, one
                    render per room, laggards shed into snapshot resyncs)
    caop show       render views over a persisted MISP store
    caop trace      print an IoC's (cross-org) lineage tree from store(s)
    caop slo        run cycles and print SLO burn-rate status
    caop federation drive an N-org federation through a partition/heal
                    scenario and print the convergence verdict
    caop cvss       score a CVSS v3 vector
    caop pattern    validate a STIX pattern

``python -m repro.cli --help`` works without the console script.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .errors import ReproError


def _cmd_run(args: argparse.Namespace) -> int:
    from .core import ContextAwareOSINTPlatform, PlatformConfig
    from .dashboard import render_topology

    config = PlatformConfig(
        seed=args.seed,
        feed_entries=args.entries,
        drop_irrelevant_text=args.drop_irrelevant,
        fetch_workers=args.fetch_workers,
        # Built into the wiring (not rewired post-build) so the sharing
        # ledger and the provenance recorder land in the same file.
        store_path=args.store,
        compaction_every_cycles=args.compact_every,
        fanout_subscribers=args.subscribers,
    )
    if args.feeds:
        platform = ContextAwareOSINTPlatform.build_from_feed_config(
            args.feeds, config=config)
    else:
        platform = ContextAwareOSINTPlatform.build_default(config)
    if args.share_entities:
        from .sharing import ExternalEntity, TaxiiServer
        server = TaxiiServer(clock=platform.clock)
        for index in range(args.share_entities):
            name = f"partner-{index}"
            server.create_collection(name, f"Partner {index} indicators")
            platform.gateway.register(ExternalEntity(
                name=name, transport="taxii", taxii_server=server,
                taxii_collection=name))
    for cycle in range(1, args.cycles + 1):
        report = platform.run_cycle()
        shares = (f", {report.shares_sent} shares"
                  if args.share_entities else "")
        print(f"cycle {cycle}: {report.collection.ciocs_created} cIoCs, "
              f"{report.eiocs_created} eIoCs "
              f"(mean TS {report.mean_score:.2f}), "
              f"{report.riocs_created} rIoCs, {report.new_alarms} alarms"
              + shares
              + (f" [degraded: {', '.join(sorted(report.stage_errors))}]"
                 if report.degraded else ""))
    health = platform.health()
    degraded_cycles = sum(1 for r in platform.history if r.degraded)
    print(f"platform health: {health.overall()} "
          f"({degraded_cycles} degraded cycle(s))")
    if args.subscribers:
        deltas = sum(r.fanout_deltas for r in platform.history)
        current = sum(1 for c in platform.fanout_clients
                      if c.version == platform.dashboard.fanout.room(
                          "riocs").version)
        print(f"fan-out: {args.subscribers} subscribers, {deltas} room "
              f"deltas, {current} clients current")
    print()
    print(render_topology(platform.dashboard.state))
    if args.store:
        # Checkpoint rollup cursors so a reopened platform resumes its
        # materialized views without rescanning the store.
        platform.checkpoint()
        print(f"\nMISP store persisted to {args.store}")
    return 0


def _cmd_fanout(args: argparse.Namespace) -> int:
    """Snapshot+delta fan-out demo: many subscribers, one render per room."""
    from .core import ContextAwareOSINTPlatform, PlatformConfig
    from .dashboard import FanoutClient, canonical_json, render_fanout

    config = PlatformConfig(seed=args.seed, feed_entries=args.entries)
    platform = ContextAwareOSINTPlatform.build_default(config)
    hub = platform.dashboard.fanout
    clients: List[FanoutClient] = []
    laggards: List[FanoutClient] = []
    for index in range(args.subscribers):
        lagging = bool(args.laggard_every) \
            and (index + 1) % args.laggard_every == 0
        client = FanoutClient(hub, "riocs",
                              max_pending=2 if lagging else None)
        (laggards if lagging else clients).append(client)
    print(f"subscribers: {len(clients)} draining, {len(laggards)} lagging")
    for cycle in range(1, args.cycles + 1):
        report = platform.run_cycle()
        for client in clients:
            client.pump()
        print(f"cycle {cycle}: {report.riocs_created} rIoCs -> "
              f"{report.fanout_deltas} room deltas, "
              f"shed={report.fanout_shed} msgs, "
              f"resyncs={report.fanout_resyncs}")
    # Let the laggards finally drain; gaps degrade them to snapshot
    # resyncs which the extra flush delivers.
    for client in laggards:
        client.pump()
    flush = hub.flush()
    for client in clients + laggards:
        client.pump()
    print()
    print(render_fanout(hub, flush))
    expected = canonical_json(hub.room("riocs").state())
    converged = sum(1 for c in clients + laggards
                    if c.state_text() == expected)
    print(f"converged: {converged}/{args.subscribers} subscribers "
          f"byte-identical to snapshot(v{hub.room('riocs').version})")
    return 0 if converged == args.subscribers else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .core import ContextAwareOSINTPlatform, PlatformConfig

    config = PlatformConfig(seed=args.seed, feed_entries=args.entries,
                            fetch_workers=args.fetch_workers)
    platform = ContextAwareOSINTPlatform.build_default(config)
    for cycle in range(1, args.cycles + 1):
        report = platform.run_cycle()
        stages = {name: seconds for name, seconds in report.timings.items()
                  if name != "cycle"}
        breakdown = "  ".join(
            f"{name}={seconds * 1000:.1f}ms"
            for name, seconds in sorted(stages.items(),
                                        key=lambda item: -item[1])[:6])
        print(f"cycle {cycle}: {report.timings.get('cycle', 0.0) * 1000:.1f}ms "
              f"[{breakdown}]")
    print()
    if args.format in ("prometheus", "both"):
        print("# ---- Prometheus text exposition " + "-" * 38)
        print(platform.dashboard.render_metrics(), end="")
    if args.format in ("json", "both"):
        print("# ---- JSON snapshot " + "-" * 51)
        print(platform.dashboard.render_metrics(accept="application/json"))
    return 0


def _cmd_init_feeds(args: argparse.Namespace) -> int:
    import json

    from .feeds import default_feed_config

    with open(args.path, "w") as handle:
        json.dump(default_feed_config(), handle, indent=2)
    print(f"feed configuration written to {args.path}")
    return 0


def _cmd_deadletter(args: argparse.Namespace) -> int:
    from .core import ContextAwareOSINTPlatform, PlatformConfig
    from .resilience import FaultInjector, FaultPlan, FaultRule

    rules = []
    if args.failure_rate > 0:
        rules.append(FaultRule(component="transport", rate=args.failure_rate,
                               reason="transport fault (cli)"))
    if args.parse_fault:
        rules.append(FaultRule(component="parse", key=args.parse_fault,
                               rate=1.0, reason="parse fault (cli)"))
    injector = (FaultInjector(FaultPlan(rules=tuple(rules), seed=args.seed))
                if rules else None)
    config = PlatformConfig(seed=args.seed, feed_entries=args.entries,
                            fault_injector=injector)
    platform = ContextAwareOSINTPlatform.build_default(config)
    reports = platform.run(args.cycles)
    degraded = sum(1 for report in reports if report.degraded)
    print(f"{args.cycles} cycle(s) run, {degraded} degraded")
    entries = platform.deadletters.entries()
    if not entries:
        print("dead-letter queue is empty")
    else:
        print(f"dead-letter queue: {len(entries)} entries")
        print(f"  {'kind':<10} {'source':<24} {'attempts':>8}  reason")
        for letter in entries:
            print(f"  {letter.kind:<10} {letter.source:<24} "
                  f"{letter.attempts:>8}  {letter.reason[:60]}")
    if args.save:
        platform.deadletters.save(args.save)
        print(f"dead-letter queue written to {args.save}")
    if args.replay:
        if injector is not None:
            injector.clear()
        outcome = platform.replay_deadletters()
        print(f"replay: {outcome.attempted} attempted, "
              f"{outcome.documents_replayed} document(s) and "
              f"{outcome.events_replayed} event(s) re-driven, "
              f"{outcome.ciocs_created} cIoCs, {outcome.eiocs_created} eIoCs, "
              f"{outcome.requeued} re-queued")
        print(f"queue depth after replay: {len(platform.deadletters)}")
    return 0


def _cmd_rce_demo(_args: argparse.Namespace) -> int:
    from .dashboard import render_issue_details, render_node_details
    from .workloads import RCE_PAPER_SCORE, rce_use_case

    scenario = rce_use_case()
    result = scenario.heuristics.process_pending()[0]
    score = result.score
    print("Table V reproduction (CVE-2017-9805 vs the Table III inventory)")
    for feature in score.features:
        xi = "-" if feature.value is None else feature.value
        print(f"  {feature.feature:<22} Xi={xi!s:<2} Pi={feature.weight:.4f} "
              f"({feature.attribute_label})")
    print(f"  threat score = {score.score:.4f} (paper: {RCE_PAPER_SCORE})")
    rioc = scenario.rioc_generator.generate(result.eioc)
    if rioc is not None:
        scenario.dashboard.push_rioc(rioc)
        print()
        print(render_node_details(scenario.dashboard.state, rioc.nodes[0]))
        print()
        print(render_issue_details(rioc))
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    from .dashboard.geo import GeoSummaryView
    from .dashboard.views import (
        CorrelationGraphView,
        EventJourneyView,
        KeywordSummaryView,
    )
    from .misp import MispStore

    store = MispStore(args.store)
    print(f"store: {args.store}")
    print(f"  events:     {store.event_count()}")
    print(f"  attributes: {store.attribute_count()}")
    print()
    print(CorrelationGraphView(store).render())
    print()
    print(KeywordSummaryView(store).render())
    if store.provenance_count():
        print()
        print(EventJourneyView(store).render())
    geo = GeoSummaryView()
    if geo.ingest_store(store):
        print()
        print(geo.render())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    import os

    from .misp import MispStore
    from .obs import render_lineage, stitch_lineage

    if args.latest:
        store_paths = list(args.targets)
    else:
        if len(args.targets) < 2:
            print("error: need an event uuid followed by at least one "
                  "store path (or --latest with store paths only)",
                  file=sys.stderr)
            return 2
        store_paths = list(args.targets[1:])
    stores = [(os.path.basename(path), MispStore(path))
              for path in store_paths]
    if args.latest:
        event_uuid = stores[0][1].latest_traced_event()
        if event_uuid is None:
            print(f"error: no provenance recorded in {store_paths[0]}",
                  file=sys.stderr)
            return 1
    else:
        event_uuid = args.targets[0]
    tree = stitch_lineage(stores, event_uuid)
    if args.json:
        print(json.dumps(tree, indent=2, sort_keys=True))
    else:
        print(render_lineage(tree))
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from .core import ContextAwareOSINTPlatform, PlatformConfig
    from .obs import SloEngine, SloRule

    config = PlatformConfig(seed=args.seed, feed_entries=args.entries)
    platform = ContextAwareOSINTPlatform.build_default(config)
    if args.rules:
        import json

        with open(args.rules) as handle:
            rules = [SloRule.from_dict(entry) for entry in json.load(handle)]
        platform.slo = SloEngine(rules=rules, metrics=platform.metrics)
    for _ in range(args.cycles):
        platform.run_cycle()
    print(f"{args.cycles} cycle(s) observed")
    print(f"  {'rule':<18} {'severity':<9} {'fast':>8} {'slow':>8} "
          f"{'compliance':>11}")
    for status in platform.slo.last_statuses():
        print(f"  {status.rule.name:<18} {status.severity:<9} "
              f"{status.fast_burn_rate:>7.2f}x {status.slow_burn_rate:>7.2f}x "
              f"{status.compliance:>10.0%}")
    alerts = platform.slo.alerts()
    if alerts:
        print()
        for status in alerts:
            print(f"  ALERT [{status.severity}] {status.rule.name}: "
                  f"{status.detail}")
    else:
        print("  no SLO alerts")
    return 0


def _cmd_sight(args: argparse.Namespace) -> int:
    from .core import HeuristicComponent, SightingProcessor
    from .infra import paper_inventory
    from .misp import MispInstance, MispStore

    store = MispStore(args.store)
    misp = MispInstance(store=store)
    heuristics = HeuristicComponent(misp, inventory=paper_inventory())
    processor = SightingProcessor(misp, heuristics)
    try:
        outcome = processor.report(args.event_uuid, args.value, args.node)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    print(f"sighting of {args.value!r} on {args.node} recorded")
    old = f"{outcome.old_score:.4f}" if outcome.old_score is not None else "-"
    print(f"threat score: {old} -> {outcome.new_score:.4f} "
          f"({outcome.delta:+.4f})")
    return 0


def _cmd_federation(args: argparse.Namespace) -> int:
    import datetime

    from .clock import PAPER_NOW, SimulatedClock
    from .federation import (
        Federation, SimulatedNetworkBackbone, hub_and_spoke, mesh)
    from .misp import Distribution, MispAttribute, MispEvent
    from .resilience import FaultInjector
    from .sharing import mark_tlp

    if args.orgs < 3:
        print("error: a federation needs at least 3 orgs", file=sys.stderr)
        return 1
    orgs = [f"org-{i:02d}" for i in range(args.orgs)]
    split = max(1, min(args.orgs - 1, args.orgs * 3 // 5))

    def run(fault: bool) -> "Federation":
        injector = FaultInjector()
        topology = (mesh(orgs) if args.topology == "mesh"
                    else hub_and_spoke(orgs[0], orgs[1:]))
        federation = Federation(
            topology, backbone=SimulatedNetworkBackbone(injector),
            clock=SimulatedClock(PAPER_NOW))
        node = federation.node(orgs[0])
        for index in range(args.events):
            event = MispEvent(
                info=f"intel {index}",
                uuid=f"11111111-1111-4111-8111-{index:012d}",
                distribution=Distribution.ALL_COMMUNITIES,
                timestamp=PAPER_NOW)
            event.add_attribute(MispAttribute(
                type="ip-src", value=f"203.0.113.{index + 1}",
                uuid=f"22222222-2222-4222-8222-{index:012d}",
                timestamp=PAPER_NOW))
            mark_tlp(event, "green")
            node.misp.add_event(event)
        node.heuristics.process_pending()
        federation.run_round()
        if fault:
            injector.partition(orgs[:split], orgs[split:])
        federation.node(orgs[-2]).observe(
            "11111111-1111-4111-8111-000000000000", "203.0.113.1",
            "edge-fw",
            observed_at=PAPER_NOW + datetime.timedelta(seconds=60))
        federation.run(args.rounds)
        if fault:
            quarantined = sum(
                len(federation.node(org).deadletters) for org in orgs)
            print(f"  partition {orgs[:split]} | {orgs[split:]} held for "
                  f"{args.rounds} round(s); {injector.injected_total()} "
                  f"transmit(s) dropped, {quarantined} share(s) quarantined")
            injector.heal()
            replayed = federation.replay_deadletters()
            print(f"  healed; {sum(replayed.values())} quarantined "
                  f"share(s) replayed")
        federation.run(args.rounds)
        repairs = federation.reconcile()
        federation.run_round()
        repaired = sum(r.get("repaired", 0) for r in repairs.values())
        if fault:
            print(f"  anti-entropy pass repaired {repaired} divergence(s)")
        return federation

    print(f"fault-free baseline ({args.topology}, {args.orgs} orgs, "
          f"{args.events} event(s)):")
    baseline = run(False)
    print(f"  converged: {baseline.converged()}")
    print("partitioned run:")
    faulted = run(True)
    base_prints, fault_prints = baseline.fingerprints(), \
        faulted.fingerprints()
    matching = sum(1 for org in orgs if base_prints[org] == fault_prints[org])
    rescores = len(faulted.node(orgs[0]).rescores)
    base_kib = sum(baseline.bytes_by_org().values()) / 1024
    fault_kib = sum(faulted.bytes_by_org().values()) / 1024
    print(f"  converged: {faulted.converged()}")
    print(f"  store fingerprints matching baseline: "
          f"{matching}/{len(orgs)}")
    print(f"  sighting re-scored the origin eIoC: "
          f"{'yes' if rescores else 'NO'}")
    print(f"  transport: baseline {base_kib:.1f} KiB, "
          f"faulted {fault_kib:.1f} KiB")
    ok = matching == len(orgs) and faulted.converged() and rescores
    print("federation converged byte-identically onto the baseline"
          if ok else "federation FAILED to converge onto the baseline")
    return 0 if ok else 1


def _cmd_match(args: argparse.Namespace) -> int:
    from .core import threat_score_of
    from .misp import MispStore

    store = MispStore(args.store)
    hits = store.search_value(args.value)
    if not hits:
        print(f"no stored event carries the value {args.value!r}")
        return 1
    print(f"{args.value!r} appears in {len(hits)} event(s):")
    seen = set()
    for event_uuid, _attribute_uuid in hits:
        if event_uuid in seen:
            continue
        seen.add(event_uuid)
        event = store.get_event(event_uuid)
        if event is None:
            continue
        score = threat_score_of(event)
        rendered = f"{score:.4f}" if score is not None else "unscored"
        print(f"  {event_uuid}  TS={rendered}  {event.info[:60]}")
    return 0


def _cmd_purge(args: argparse.Namespace) -> int:
    from .core.compaction import CompactionStage
    from .misp import MispStore

    store = MispStore(args.store)
    report = CompactionStage(store, purge=args.apply).run()
    print(f"store: {args.store} — {report.live} live scored events, "
          f"{report.expired} expired")
    if args.apply:
        print(f"purged {report.purged} expired events")
    elif report.expired:
        print("re-run with --apply to delete them")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import datetime as dt

    from .core import IntelReportBuilder
    from .misp import MispStore

    store = MispStore(args.store)
    builder = IntelReportBuilder(store)
    report = builder.build(period=dt.timedelta(days=args.days), top=args.top)
    print(report.to_markdown())
    if args.stix:
        stix_report, objects = builder.to_stix_report(report)
        from .stix import Bundle
        bundle = Bundle([stix_report] + objects)
        with open(args.stix, "w") as handle:
            handle.write(bundle.to_json(indent=1))
        print(f"\nSTIX report bundle written to {args.stix}")
    return 0


def _cmd_cvss(args: argparse.Namespace) -> int:
    from .cvss import CvssVector

    vector = CvssVector.parse(args.vector)
    print(f"vector:        {vector.to_string()}")
    print(f"base score:    {vector.base_score()} ({vector.severity()})")
    print(f"temporal:      {vector.temporal_score()}")
    print(f"environmental: {vector.environmental_score()}")
    return 0


def _cmd_pattern(args: argparse.Namespace) -> int:
    from .stix.pattern import CompiledPattern

    compiled = CompiledPattern(args.pattern)
    print("pattern is valid")
    for comparison in compiled.comparisons():
        print(f"  {comparison}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for the caop CLI."""
    parser = argparse.ArgumentParser(
        prog="caop",
        description="Context-Aware OSINT Platform (DSN 2019 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"caop {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # The simulated-cycle options `run` and `metrics` share.
    cycle_options = argparse.ArgumentParser(add_help=False)
    cycle_options.add_argument("--cycles", type=int, default=3)
    cycle_options.add_argument("--seed", type=int, default=7)
    cycle_options.add_argument("--entries", type=int, default=60,
                               help="entries per synthetic feed")
    cycle_options.add_argument(
        "--fetch-workers", type=int, default=None,
        help="worker threads for the feed-fetch stage (None: one worker "
             "per due feed; an integer caps the pool)")

    run = subparsers.add_parser("run", help="run platform cycles",
                                parents=[cycle_options])
    run.add_argument("--drop-irrelevant", action="store_true",
                     help="filter irrelevant news via the NLP classifier")
    run.add_argument("--share-entities", type=int, default=0,
                     help="register N in-process TAXII partner entities "
                          "and share eIoCs to them each cycle")
    run.add_argument("--store", default=None,
                     help="persist the MISP store to this SQLite file")
    run.add_argument("--compact-every", type=int, default=25,
                     help="run decay compaction every N cycles "
                          "(<= 0 disables it)")
    run.add_argument("--feeds", default=None,
                     help="JSON feed-configuration file (see 'caop init-feeds')")
    run.add_argument("--subscribers", type=int, default=0,
                     help="attach N snapshot+delta fan-out subscribers to "
                          "the rIoC room and pump them each cycle")
    run.set_defaults(func=_cmd_run)

    fanout = subparsers.add_parser(
        "fanout", help="snapshot+delta fan-out protocol demo")
    fanout.add_argument("--cycles", type=int, default=3)
    fanout.add_argument("--seed", type=int, default=7)
    fanout.add_argument("--entries", type=int, default=60,
                        help="entries per synthetic feed")
    fanout.add_argument("--subscribers", type=int, default=1000,
                        help="fan-out subscribers on the rIoC room")
    fanout.add_argument("--laggard-every", type=int, default=0,
                        help="make every Nth subscriber a non-draining "
                             "laggard (0 = none) to exercise load-shedding")
    fanout.set_defaults(func=_cmd_fanout)

    metrics = subparsers.add_parser(
        "metrics",
        help="run simulated cycles and print the platform telemetry",
        parents=[cycle_options])
    metrics.add_argument("--format", choices=("prometheus", "json", "both"),
                         default="both",
                         help="exposition format(s) to print")
    metrics.set_defaults(func=_cmd_metrics)

    init_feeds = subparsers.add_parser(
        "init-feeds", help="write a ready-to-edit feed configuration file")
    init_feeds.add_argument("path")
    init_feeds.set_defaults(func=_cmd_init_feeds)

    deadletter = subparsers.add_parser(
        "deadletter",
        help="run cycles under injected faults and inspect the quarantine")
    deadletter.add_argument("--cycles", type=int, default=3)
    deadletter.add_argument("--seed", type=int, default=7)
    deadletter.add_argument("--entries", type=int, default=60,
                            help="entries per synthetic feed")
    deadletter.add_argument("--failure-rate", type=float, default=0.3,
                            help="injected transport fault rate (0..1)")
    deadletter.add_argument("--parse-fault", default=None, metavar="FEED",
                            help="make this feed's documents fail parsing")
    deadletter.add_argument("--save", default=None,
                            help="write the queue to this JSON file")
    deadletter.add_argument("--replay", action="store_true",
                            help="clear the faults and replay the queue")
    deadletter.set_defaults(func=_cmd_deadletter)

    rce = subparsers.add_parser("rce-demo", help="the paper's §IV use case")
    rce.set_defaults(func=_cmd_rce_demo)

    show = subparsers.add_parser("show", help="inspect a persisted MISP store")
    show.add_argument("store", help="path to the SQLite store")
    show.set_defaults(func=_cmd_show)

    trace = subparsers.add_parser(
        "trace",
        help="print one IoC's lineage tree from persisted store(s)")
    trace.add_argument(
        "targets", nargs="+",
        help="event uuid followed by store path(s); with --latest, "
             "store path(s) only")
    trace.add_argument("--latest", action="store_true",
                       help="trace the most recently traced event of the "
                            "first store")
    trace.add_argument("--json", action="store_true",
                       help="print the stitched lineage as JSON")
    trace.set_defaults(func=_cmd_trace)

    slo = subparsers.add_parser(
        "slo", help="run cycles and print SLO burn-rate status")
    slo.add_argument("--cycles", type=int, default=8)
    slo.add_argument("--seed", type=int, default=7)
    slo.add_argument("--entries", type=int, default=60,
                     help="entries per synthetic feed")
    slo.add_argument("--rules", default=None,
                     help="JSON file with a list of SLO rule objects "
                          "(see docs/OBSERVABILITY.md)")
    slo.set_defaults(func=_cmd_slo)

    sight = subparsers.add_parser(
        "sight", help="record an infrastructure sighting and re-score an eIoC")
    sight.add_argument("store", help="path to the SQLite store")
    sight.add_argument("event_uuid")
    sight.add_argument("value", help="the sighted indicator value")
    sight.add_argument("node", help="the node it was sighted on")
    sight.set_defaults(func=_cmd_sight)

    federation = subparsers.add_parser(
        "federation",
        help="drive an N-org federation through a partition/heal scenario")
    federation.add_argument("--orgs", type=int, default=10,
                            help="federation size (default 10)")
    federation.add_argument("--topology", choices=("mesh", "hub"),
                            default="mesh")
    federation.add_argument("--events", type=int, default=3,
                            help="events seeded at the first org")
    federation.add_argument("--rounds", type=int, default=3,
                            help="rounds per phase (partitioned, recovery)")
    federation.set_defaults(func=_cmd_federation)

    match = subparsers.add_parser(
        "match", help="look an indicator value up in a persisted store")
    match.add_argument("store", help="path to the SQLite store")
    match.add_argument("value", help="the indicator value to look up")
    match.set_defaults(func=_cmd_match)

    purge = subparsers.add_parser(
        "purge", help="sweep a store for decay-expired eIoCs")
    purge.add_argument("store", help="path to the SQLite store")
    purge.add_argument("--apply", action="store_true",
                       help="actually delete expired events")
    purge.set_defaults(func=_cmd_purge)

    report = subparsers.add_parser(
        "report", help="build an intelligence report from a persisted store")
    report.add_argument("store", help="path to the SQLite store")
    report.add_argument("--days", type=int, default=7)
    report.add_argument("--top", type=int, default=10)
    report.add_argument("--stix", default=None,
                        help="also write a STIX report bundle to this path")
    report.set_defaults(func=_cmd_report)

    cvss = subparsers.add_parser("cvss", help="score a CVSS v3 vector")
    cvss.add_argument("vector")
    cvss.set_defaults(func=_cmd_cvss)

    pattern = subparsers.add_parser("pattern", help="validate a STIX pattern")
    pattern.add_argument("pattern")
    pattern.set_defaults(func=_cmd_pattern)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
