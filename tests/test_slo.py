"""SLO rules, burn-rate evaluation, time series, platform/health wiring."""

import datetime as dt

import pytest

from repro.clock import PAPER_NOW, SimulatedClock
from repro.core import ContextAwareOSINTPlatform, PlatformConfig
from repro.errors import ValidationError
from repro.obs import (
    CycleSnapshot,
    MetricsRegistry,
    MetricTimeSeries,
    SloEngine,
    SloRule,
    default_slo_rules,
)
from repro.resilience import FaultInjector, FaultPlan, FaultRule


class TestMetricTimeSeries:
    def test_append_and_series(self):
        series = MetricTimeSeries()
        for cycle in range(4):
            series.append(cycle, PAPER_NOW, {"latency": float(cycle)})
        assert series.series("latency", window=2) == [2.0, 3.0]
        assert series.latest("latency") == 3.0
        assert len(series) == 4

    def test_capacity_bounds_the_buffer(self):
        series = MetricTimeSeries(capacity=3)
        for cycle in range(10):
            series.append(cycle, PAPER_NOW, {"v": float(cycle)})
        assert series.series("v", window=10) == [7.0, 8.0, 9.0]

    def test_missing_keys_are_skipped_not_zero_filled(self):
        series = MetricTimeSeries()
        series.append(1, PAPER_NOW, {"a": 1.0})
        series.append(2, PAPER_NOW, {"b": 2.0})
        assert series.series("a", window=5) == [1.0]

    def test_percentile_nearest_rank(self):
        series = MetricTimeSeries()
        for cycle, value in enumerate([1.0, 2.0, 3.0, 4.0]):
            series.append(cycle, PAPER_NOW, {"v": value})
        assert series.percentile("v", 0.5, window=4) == 2.0
        assert series.percentile("v", 0.99, window=4) == 4.0
        assert series.percentile("v", 0.99, window=0) == 0.0

    def test_snapshot_get(self):
        snapshot = CycleSnapshot(cycle=1, at=PAPER_NOW, values={"v": 2.0})
        assert snapshot.get("v") == 2.0
        assert snapshot.get("missing", -1.0) == -1.0


class TestSloRule:
    def test_round_trips_through_dict(self):
        rule = default_slo_rules()[0]
        assert SloRule.from_dict(rule.to_dict()) == rule

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError):
            SloRule.from_dict({"name": "r", "metric": "m", "objective": 1.0,
                               "severity": "page"})

    def test_bad_comparison_rejected(self):
        with pytest.raises(ValidationError):
            SloRule(name="r", metric="m", objective=1.0, comparison="~=")

    def test_bad_budget_rejected(self):
        with pytest.raises(ValidationError):
            SloRule(name="r", metric="m", objective=1.0, budget=0.0)

    def test_windows_must_nest(self):
        with pytest.raises(ValidationError):
            SloRule(name="r", metric="m", objective=1.0,
                    fast_window=10, slow_window=5)

    def test_is_good_comparisons(self):
        rule = SloRule(name="r", metric="m", objective=2.0, comparison="<=")
        assert rule.is_good(2.0) and not rule.is_good(2.1)
        floor = SloRule(name="f", metric="m", objective=2.0, comparison=">=")
        assert floor.is_good(2.0) and not floor.is_good(1.9)


def feed(engine, values, metric="latency"):
    for cycle, value in enumerate(values, start=len(engine.timeseries) + 1):
        engine.observe_cycle(cycle, PAPER_NOW, {metric: value})


class TestBurnRates:
    def rule(self, **overrides):
        params = dict(name="latency", metric="latency", objective=1.0,
                      comparison="<=", budget=0.25, fast_window=4,
                      slow_window=8, fast_burn=2.0, slow_burn=1.0)
        params.update(overrides)
        return SloRule(**params)

    def test_all_good_cycles_are_ok(self):
        engine = SloEngine(rules=[self.rule()])
        feed(engine, [0.5] * 8)
        (status,) = engine.evaluate()
        assert status.severity == "ok"
        assert status.fast_burn_rate == 0.0
        assert status.compliance == 1.0
        assert not status.alerting

    def test_fast_and_slow_burn_together_fail(self):
        engine = SloEngine(rules=[self.rule()])
        # Every cycle violates: fast bad-fraction 1.0 / budget 0.25 = 4x.
        feed(engine, [5.0] * 8)
        (status,) = engine.evaluate()
        assert status.severity == "failing"
        assert status.fast_burn_rate == pytest.approx(4.0)
        assert status.slow_burn_rate == pytest.approx(4.0)
        assert status.compliance == 0.0

    def test_recovered_fast_window_downgrades_to_degraded(self):
        engine = SloEngine(rules=[self.rule()])
        # Old violations still burn the slow window, but the last 4 cycles
        # are clean: degraded (ticket), not failing (page).
        feed(engine, [5.0] * 4 + [0.5] * 4)
        (status,) = engine.evaluate()
        assert status.severity == "degraded"
        assert status.fast_burn_rate == 0.0
        assert status.slow_burn_rate == pytest.approx(2.0)

    def test_single_spike_within_budget_stays_ok(self):
        engine = SloEngine(rules=[self.rule(budget=0.5)])
        feed(engine, [0.5] * 7 + [5.0])
        (status,) = engine.evaluate()
        assert status.severity == "ok"

    def test_status_detail_is_human_readable(self):
        engine = SloEngine(rules=[self.rule()])
        feed(engine, [5.0] * 8)
        (status,) = engine.evaluate()
        assert "burn fast=4.00x" in status.detail
        assert "over 8 cycle(s)" in status.detail

    def test_alert_counter_and_gauges_exported(self):
        registry = MetricsRegistry()
        engine = SloEngine(rules=[self.rule()], metrics=registry)
        feed(engine, [5.0] * 8)
        engine.evaluate()
        assert registry.get("caop_slo_burn_rate").value(
            rule="latency", window="fast") == pytest.approx(4.0)
        assert registry.get("caop_slo_compliance").value(
            rule="latency") == 0.0
        assert registry.get("caop_slo_alert_cycles_total").value(
            rule="latency", severity="failing") == 1

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValidationError):
            SloEngine(rules=[self.rule(), self.rule()])

    def test_alerts_lists_only_alerting_rules(self):
        quiet = self.rule(name="quiet", metric="other")
        engine = SloEngine(rules=[self.rule(), quiet])
        for cycle in range(1, 9):
            engine.observe_cycle(cycle, PAPER_NOW,
                                 {"latency": 5.0, "other": 0.0})
        engine.evaluate()
        assert [status.rule.name for status in engine.alerts()] == ["latency"]


class TestPlatformSlo:
    def test_healthy_run_keeps_every_slo_ok(self):
        platform = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(feed_entries=12))
        platform.run(3)
        statuses = platform.slo.last_statuses()
        assert {status.rule.name for status in statuses} == \
            {rule.name for rule in default_slo_rules()}
        assert all(status.severity == "ok" for status in statuses)

    def test_slo_statuses_surface_in_platform_health(self):
        platform = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(feed_entries=12))
        platform.run_cycle()
        components = {component.component: component.status
                      for component in platform.health().components}
        for rule in default_slo_rules():
            assert components[f"slo:{rule.name}"] == "ok"

    def test_sustained_feed_faults_burn_the_drop_ratio_budget(self):
        injector = FaultInjector(FaultPlan(rules=[FaultRule(
            component="transport", rate=1.0, reason="injected outage")]))
        platform = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(feed_entries=12, fault_injector=injector))
        platform.run(5)
        statuses = {status.rule.name: status
                    for status in platform.slo.last_statuses()}
        assert statuses["drop-ratio"].alerting
        assert statuses["drop-ratio"].severity == "failing"
        health = {component.component: component.status
                  for component in platform.health().components}
        assert health["slo:drop-ratio"] == "failing"

    def test_slo_disabled_skips_engine_and_health_rows(self):
        platform = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(feed_entries=12, metrics_enabled=False))
        platform.run_cycle()
        assert platform.slo is None
        assert not any(component.component.startswith("slo:")
                       for component in platform.health().components)

    def test_cycle_snapshots_land_in_the_timeseries(self):
        platform = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(feed_entries=12))
        platform.run(2)
        series = platform.slo.timeseries
        assert len(series) == 2
        assert series.latest("ciocs_created") is not None
        assert series.latest("degraded") == 0.0
