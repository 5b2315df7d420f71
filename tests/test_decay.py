"""Tests for the IoC score decay engine."""

import datetime as dt

import pytest

from repro.clock import PAPER_NOW, SimulatedClock
from repro.core import (
    CATEGORY_MODELS,
    DecayModel,
    ScoreDecayEngine,
)
from repro.errors import ValidationError
from repro.misp import MispStore
from repro.workloads import rce_use_case


class TestDecayModel:
    def test_fresh_score_undecayed(self):
        model = DecayModel()
        assert model.factor(dt.timedelta(0)) == 1.0
        assert model.current_score(3.0, dt.timedelta(0)) == 3.0

    def test_expired_score_is_zero(self):
        model = DecayModel(lifetime=dt.timedelta(days=10))
        assert model.current_score(5.0, dt.timedelta(days=10)) == 0.0
        assert model.current_score(5.0, dt.timedelta(days=100)) == 0.0
        assert model.is_expired(dt.timedelta(days=10))

    def test_monotone_decreasing(self):
        model = DecayModel(lifetime=dt.timedelta(days=100), decay_speed=3.0)
        scores = [model.current_score(5.0, dt.timedelta(days=d))
                  for d in range(0, 110, 10)]
        assert scores == sorted(scores, reverse=True)

    def test_decay_speed_shapes_curve(self):
        age = dt.timedelta(days=50)
        lifetime = dt.timedelta(days=100)
        fast = DecayModel(lifetime=lifetime, decay_speed=5.0)
        slow = DecayModel(lifetime=lifetime, decay_speed=0.5)
        # As in MISP, larger decay_speed decays faster at mid-life.
        assert fast.factor(age) < slow.factor(age)
        # decay_speed = 1 is exactly linear.
        linear = DecayModel(lifetime=lifetime, decay_speed=1.0)
        assert linear.factor(age) == pytest.approx(0.5)

    def test_negative_age_clamped(self):
        model = DecayModel()
        assert model.factor(dt.timedelta(days=-5)) == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            DecayModel(lifetime=dt.timedelta(0))
        with pytest.raises(ValidationError):
            DecayModel(decay_speed=0)
        with pytest.raises(ValidationError):
            DecayModel().current_score(6.0, dt.timedelta(0))

    def test_category_models_cover_feed_categories(self):
        from repro.feeds import FEED_CATEGORIES
        assert set(CATEGORY_MODELS) == set(FEED_CATEGORIES)
        # Vulnerabilities must outlive network indicators.
        assert CATEGORY_MODELS["vulnerability-exploitation"].lifetime > \
            CATEGORY_MODELS["ip-blocklist"].lifetime


class TestScoreDecayEngine:
    def build(self):
        scenario = rce_use_case()
        scenario.heuristics.process_pending()
        return scenario

    def test_fresh_eioc_slightly_decayed(self):
        scenario = self.build()
        engine = ScoreDecayEngine(clock=scenario.clock)
        eioc = scenario.misp.store.get_event(scenario.cioc.uuid)
        decayed = engine.evaluate(eioc)
        assert decayed is not None
        # The RCE event is ~9 months old against a 3-year vuln lifetime.
        assert 0.0 < decayed.current_score < decayed.base_score
        assert not decayed.expired

    def test_unscored_event_returns_none(self, misp):
        from repro.misp import MispEvent
        event = MispEvent(info="no score")
        misp.add_event(event, publish_feed=False)
        engine = ScoreDecayEngine()
        assert engine.evaluate(event) is None

    def test_sweep_partitions_live_and_expired(self):
        scenario = self.build()
        clock = SimulatedClock(PAPER_NOW)
        engine = ScoreDecayEngine(clock=clock)
        live, expired = engine.sweep(scenario.misp.store)
        assert len(live) == 1 and expired == []
        # 10 years later everything is expired.
        clock.advance(dt.timedelta(days=3650))
        live, expired = engine.sweep(scenario.misp.store)
        assert live == [] and len(expired) == 1

    def test_category_model_selection(self):
        scenario = self.build()
        engine = ScoreDecayEngine(clock=scenario.clock)
        eioc = scenario.misp.store.get_event(scenario.cioc.uuid)
        model = engine.model_for(eioc)
        assert model is CATEGORY_MODELS["vulnerability-exploitation"]


class TestPurgeExpired:
    """Store maintenance through :meth:`CompactionStage.run`: only scored
    events past their lifetime are purged."""

    def test_purge_removes_only_expired(self):
        import datetime as dt
        from repro.clock import PAPER_NOW, SimulatedClock
        from repro.core.compaction import CompactionStage
        scenario_clock = SimulatedClock(PAPER_NOW)
        scenario = rce_use_case()
        scenario.heuristics.process_pending()
        store = scenario.misp.store
        before = store.event_count()

        # Fresh: nothing purged.
        stage = CompactionStage(store, clock=scenario_clock)
        assert stage.run().purged == 0
        assert store.event_count() == before

        # A decade later the scored eIoC expires; unscored events survive.
        scenario_clock.advance(dt.timedelta(days=3650))
        removed = stage.run().purged
        assert removed == 1
        assert store.event_count() == before - 1
        assert not store.has_event(scenario.cioc.uuid)

    def test_purge_is_idempotent(self):
        import datetime as dt
        from repro.clock import PAPER_NOW, SimulatedClock
        from repro.core.compaction import CompactionStage
        clock = SimulatedClock(PAPER_NOW + dt.timedelta(days=3650))
        scenario = rce_use_case()
        scenario.heuristics.process_pending()
        stage = CompactionStage(scenario.misp.store, clock=clock)
        assert stage.run().purged == 1
        assert stage.run().purged == 0
