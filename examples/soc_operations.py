#!/usr/bin/env python3
"""A day in the SOC: sightings, decay, TLP-governed sharing, analytics views.

Runs the platform through several monitoring cycles and then exercises the
operational features around the core pipeline:

1. the SIEM confirms an eIoC's indicator inside the infrastructure — a
   **sighting** re-scores the eIoC (source diversity now includes the
   infrastructure) and the dashboard sees the higher score;
2. the **decay engine** sweeps the store to show what each score is worth
   today vs a year from now;
3. a **TLP-governed gateway** shares green OSINT intelligence with a
   partner while the red internal telemetry never leaves;
4. the §II-B analytics views summarize the run: timeline, correlation
   graph, threat keywords, geography and analyst sessions.

Run with::

    python examples/soc_operations.py
"""

import datetime as dt

from repro.core import ContextAwareOSINTPlatform, PlatformConfig, is_eioc, threat_score_of
from repro.dashboard import (
    Action,
    CorrelationGraphView,
    GeoSummaryView,
    KeywordSummaryView,
    SessionRecorder,
    TimelineView,
)
from repro.misp import MispInstance
from repro.sharing import ExternalEntity, SharingGateway, SharingPolicy, Tlp


def main() -> None:
    platform = ContextAwareOSINTPlatform.build_default(
        PlatformConfig(seed=33, feed_entries=50, sensor_alarm_rate=0.3))
    for _ in range(3):
        platform.run_cycle()

    eiocs = [e for e in platform.misp.store.list_events() if is_eioc(e)]
    print(f"after 3 cycles: {len(eiocs)} eIoCs in the MISP store")

    # 1. Sighting feedback -------------------------------------------------
    # Pick the strongest *vulnerability* eIoC: unlike attacking IPs, a CVE
    # is not something the sensors have already correlated, so the sighting
    # visibly lifts its score.
    vuln_eiocs = [e for e in eiocs if e.attributes_of_type("vulnerability")]
    target = max(vuln_eiocs, key=lambda e: threat_score_of(e) or 0.0)
    value = target.attributes_of_type("vulnerability")[0].value
    outcome = platform.sightings.report(target.uuid, value, "Node 1")
    print("\nsighting feedback")
    print(f"  sighted {outcome.sighting.value[:40]} on {outcome.sighting.node}")
    print(f"  threat score: {outcome.old_score:.3f} -> {outcome.new_score:.3f} "
          f"({outcome.delta:+.3f})")

    # 2. Score decay -------------------------------------------------------------
    live, expired = platform.decay.sweep(platform.misp.store)
    mean_now = sum(d.current_score for d in live) / len(live)
    platform.clock.advance(dt.timedelta(days=365))
    live_later, expired_later = platform.decay.sweep(platform.misp.store)
    print("\nscore decay")
    print(f"  today:       {len(live)} live eIoCs, mean decayed score {mean_now:.2f}")
    print(f"  +365 days:   {len(live_later)} live, {len(expired_later)} expired")

    # 3. TLP-governed sharing ------------------------------------------------------
    partner = MispInstance(org="PartnerCERT")
    policy = SharingPolicy()  # default clearance: green
    gateway = SharingGateway(platform.misp, policy=policy)
    gateway.register(ExternalEntity(name="partner", transport="misp",
                                    misp_instance=partner))
    shared = refused = 0
    for record in gateway.sync_cycle().records:
        shared += int(record.ok)
        refused += int(not record.ok and "TLP" in record.detail)
    print("\nTLP-governed sharing")
    print(f"  shared with partner: {shared} events (green OSINT)")
    print(f"  refused by policy:   {refused} (red internal telemetry)")

    # 4. Analytics views -----------------------------------------------------------
    timeline = TimelineView(bucket=dt.timedelta(minutes=30))
    for alarm in platform.sensors.alarm_manager.all():
        timeline.ingest_alarm(alarm)
    for rioc in platform.dashboard.state.all_riocs():
        timeline.ingest_rioc(rioc)
    print("\n" + timeline.render())

    print("\n" + CorrelationGraphView(platform.misp.store).render(top=3))
    print("\n" + KeywordSummaryView(platform.misp.store).render(width=30))

    geo = GeoSummaryView()
    geo.ingest_store(platform.misp.store)
    print("\n" + geo.render())

    # Analyst sessions on the dashboard.
    recorder = SessionRecorder(clock=platform.clock)
    for analyst in ("alice", "bob"):
        session = recorder.start_session(analyst)
        recorder.record(session, Action.VIEW_TOPOLOGY)
        recorder.record(session, Action.VIEW_NODE, "Node 1")
        recorder.record(session, Action.VIEW_ISSUE, "top rIoC")
        recorder.record(session, Action.ACK_ALARM, "alarm-1")
    bulk = recorder.start_session("night-shift")
    for _ in range(3):
        recorder.record(bulk, Action.EXPORT, "all-events")
        recorder.record(bulk, Action.SHARE, "external")
    print("\n" + recorder.render_summary())


if __name__ == "__main__":
    main()
