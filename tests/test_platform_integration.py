"""End-to-end integration tests of the whole platform (Fig. 1)."""

import pytest

from repro.core import ContextAwareOSINTPlatform, PlatformConfig, is_eioc, threat_score_of
from repro.dashboard import render_html, render_topology
from repro.errors import ReproError
from repro.infra import Inventory, Severity
from repro.misp import MispInstance
from repro.sharing import ExternalEntity, SharingGateway, SiemConnector


@pytest.fixture(scope="module")
def platform():
    platform = ContextAwareOSINTPlatform.build_default(
        PlatformConfig(seed=13, feed_entries=40, sensor_alarm_rate=0.3))
    platform.run_cycle()
    return platform


class TestFullCycle:
    def test_cycle_produces_every_stage(self, platform):
        report = platform.history[0]
        assert report.collection.feeds_fetched == 12
        assert report.collection.ciocs_created > 0
        assert report.eiocs_created > 0
        assert report.riocs_created > 0
        assert report.new_alarms > 0
        assert report.dashboard_pushes == report.riocs_created

    def test_scores_in_range(self, platform):
        report = platform.history[0]
        assert all(0.0 <= s <= 5.0 for s in report.scores)
        assert 0.0 < report.mean_score <= 5.0

    def test_eiocs_carry_scores_in_misp(self, platform):
        enriched = [e for e in platform.misp.store.list_events() if is_eioc(e)]
        assert len(enriched) == platform.history[0].eiocs_created
        for event in enriched[:20]:
            assert threat_score_of(event) is not None

    def test_dashboard_state_consistent_with_report(self, platform):
        report = platform.history[0]
        badges = platform.dashboard.state.badges()
        assert sum(b.alarm_count for b in badges) == report.new_alarms
        riocs = platform.dashboard.state.all_riocs()
        assert len(riocs) == report.riocs_created

    def test_renderers_work_on_live_state(self, platform):
        text = render_topology(platform.dashboard.state)
        assert "Node 1" in text
        html = render_html(platform.dashboard.state)
        assert "<h1>" in html

    def test_second_cycle_dedups_most_osint(self, platform):
        second = platform.run_cycle()
        ratio = second.collection.duplicates_removed / max(
            1, second.collection.events_normalized)
        # Same feeds re-fetched with a new RNG draw: substantial overlap
        # with the first cycle's pool samples.
        assert ratio > 0.2

    @pytest.mark.parametrize("inventory, riocs, alarms", [
        (None, [7, 7], [8, 10]),        # the paper inventory
        (Inventory(), [0, 0], [0, 0]),  # an empty one is used, not replaced
    ])
    def test_given_inventory_is_used(self, inventory, riocs, alarms):
        platform = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(feed_entries=10), inventory=inventory)
        reports = platform.run(2)
        assert [report.riocs_created for report in reports] == riocs
        assert [report.new_alarms for report in reports] == alarms
        assert not any(report.stage_errors for report in reports)

    def test_determinism_across_builds(self):
        a = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(seed=99, feed_entries=20))
        b = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(seed=99, feed_entries=20))
        ra = a.run_cycle()
        rb = b.run_cycle()
        assert ra.collection.records_parsed == rb.collection.records_parsed
        assert ra.collection.ciocs_created == rb.collection.ciocs_created
        assert ra.eiocs_created == rb.eiocs_created
        assert sorted(ra.scores) == pytest.approx(sorted(rb.scores))


class TestDownstreamIntegration:
    def test_eiocs_feed_the_siem(self, platform):
        siem = SiemConnector(min_threat_score=1.0)
        for event in platform.misp.store.list_events():
            if is_eioc(event):
                score = threat_score_of(event)
                if score is not None:
                    siem.add_rules_from_eioc(event, score)
        assert siem.rule_count() > 0

    def test_sharing_published_eiocs_with_peer(self, platform):
        peer = MispInstance(org="Partner")
        gateway = SharingGateway(platform.misp)
        gateway.register(ExternalEntity(name="partner", transport="misp",
                                        misp_instance=peer))
        enriched = [e for e in platform.misp.store.list_events() if is_eioc(e)]
        gateway.sync_cycle()
        assert peer.store.event_count() > 0
        # Peer received the threat score attribute intact.
        received = peer.store.get_event(enriched[0].uuid)
        assert threat_score_of(received) is not None


STAGE_ORDER = ["sense", "collect", "enrich", "reduce", "push", "share",
               "compact", "rollup", "fanout"]

#: stage -> (collaborator attribute, method) the stage calls every cycle.
STAGE_COLLABORATORS = {
    "sense": ("sensors", "tick"),
    "collect": ("osint_collector", "collect"),
    "enrich": ("heuristics", "process_pending"),
    "reduce": ("rioc_generator", "generate"),
    "push": ("dashboard", "push_rioc"),
    "share": ("gateway", "sync_cycle"),
    "compact": ("compaction", "maybe_run"),
    "rollup": ("rollups", "refresh"),
    "fanout": ("dashboard", "flush_fanout"),
}


def sharing_platform():
    """A small platform with one sharing partner, so every stage runs."""
    platform = ContextAwareOSINTPlatform.build_default(
        PlatformConfig(seed=13, feed_entries=20, sensor_alarm_rate=0.3))
    platform.gateway.register(ExternalEntity(
        name="partner", transport="misp",
        misp_instance=MispInstance(org="Partner")))
    return platform


class TestStageTable:
    def test_stage_order_matches_the_table(self):
        assert [stage.name for stage in ContextAwareOSINTPlatform.STAGES] \
            == STAGE_ORDER
        platform = sharing_platform()
        platform.run_cycle()
        spans = [span.name for span in platform.tracer.last_trace().children]
        assert spans == STAGE_ORDER

    def test_health_rows_follow_the_table(self, platform):
        rows = [component.component
                for component in platform.health().components
                if component.component.startswith("stage:")]
        assert rows == ["stage:sense", "stage:collect", "stage:store",
                        "stage:enrich", "stage:reduce", "stage:push",
                        "stage:share", "stage:compact", "stage:rollup",
                        "stage:fanout"]

    @pytest.mark.parametrize("stage", STAGE_ORDER)
    def test_every_stage_is_isolated(self, stage):
        platform = sharing_platform()
        owner, method = STAGE_COLLABORATORS[stage]

        def fail(*_args, **_kwargs):
            raise ReproError(f"{stage} is down")

        setattr(getattr(platform, owner), method, fail)
        report = platform.run_cycle()
        assert report.stage_errors == {stage: f"{stage} is down"}
        spans = platform.tracer.last_trace().children
        assert [span.name for span in spans] == STAGE_ORDER
        failed = STAGE_ORDER.index(stage)
        assert spans[failed].error
        assert not any(span.error for span in spans[failed + 1:])
        health = {component.component: component.status
                  for component in platform.health().components}
        assert health[f"stage:{stage}"] == "degraded"

    def test_collaborator_replaced_after_build_is_called(self):
        platform = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(seed=13, feed_entries=12))
        calls = []
        original = platform.heuristics.process_pending

        def traced():
            calls.append("process_pending")
            return original()

        platform.heuristics.process_pending = traced
        report = platform.run_cycle()
        assert calls == ["process_pending"]
        assert report.eiocs_created > 0

    def test_cycle_end_record_is_the_report_record(self):
        platform = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(seed=13, feed_entries=12))
        report = platform.run_cycle()
        end = [record for record in platform.log.records()
               if record["event"] == "cycle_end"][-1]
        assert {key: end[key] for key in report.to_record()} \
            == report.to_record()
        assert report.idle is False
        assert platform.slo.timeseries.latest("eiocs_created") \
            == report.eiocs_created
