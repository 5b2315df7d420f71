"""Tests for the other five heuristics and the registry."""

from unittest import mock

import pytest

from repro.clock import PAPER_NOW, SimulatedClock
from repro.core.heuristics import (
    EvaluationContext,
    HeuristicRegistry,
    build_attack_pattern_heuristic,
    build_identity_heuristic,
    build_indicator_heuristic,
    build_malware_heuristic,
    build_tool_heuristic,
    build_vulnerability_heuristic,
    default_registry,
)
from repro.errors import ConfigurationError
from repro.infra import AlarmManager, Inventory, Node, paper_inventory
from repro.misp import MispAttribute, MispEvent, to_stix2_bundle
from repro.misp.export import _TYPE_TO_OBJECT_PATH
from repro.stix import (
    AttackPattern,
    ExternalReference,
    Identity,
    Indicator,
    KillChainPhase,
    Malware,
    Tool,
    vocab,
)


def make_context(obj, **overrides):
    defaults = dict(
        stix_object=obj,
        inventory=paper_inventory(),
        alarm_manager=AlarmManager(clock=SimulatedClock()),
        clock=SimulatedClock(),
        source_types=frozenset({"osint"}),
        osint_feeds=frozenset({"feed-a", "feed-b"}),
    )
    defaults.update(overrides)
    return EvaluationContext(**defaults)


class TestRegistry:
    def test_default_registry_has_six_heuristics(self):
        registry = default_registry()
        assert len(registry) == 6
        assert registry.supported_types() == [
            "attack-pattern", "identity", "indicator", "malware",
            "tool", "vulnerability"]

    def test_feature_sets_match_table_ii(self):
        registry = default_registry()
        assert registry.for_type("attack-pattern").feature_names == [
            "attack_type", "detection_tool", "modified_created", "valid_from",
            "external_references", "kill_chain_phases", "osint_source",
            "source_type"]
        assert registry.for_type("identity").feature_names == [
            "identity_class", "name", "sectors", "modified_created",
            "valid_from", "location", "osint_source", "source_type"]
        assert registry.for_type("indicator").feature_names == [
            "indicator_type", "modified_created", "valid_from",
            "external_references", "kill_chain_phases", "pattern",
            "osint_source", "source_type"]
        assert registry.for_type("malware").feature_names == [
            "category", "status", "operating_system", "modified_created",
            "valid_from", "external_references", "kill_chain_phases",
            "osint_source", "source_type"]
        assert registry.for_type("tool").feature_names == [
            "tool_type", "name", "modified_created", "valid_from",
            "kill_chain_phases", "osint_source", "source_type"]

    def test_duplicate_registration_rejected(self):
        registry = HeuristicRegistry()
        registry.register(build_tool_heuristic())
        with pytest.raises(ConfigurationError):
            registry.register(build_tool_heuristic())
        registry.register(build_tool_heuristic(), replace=True)  # explicit ok

    def test_unknown_type_returns_none(self):
        assert default_registry().for_type("campaign") is None


class TestAttackPattern:
    def test_capec_reference_maxes_attack_type(self):
        ap = AttackPattern(
            name="HTTP Request Splitting",
            external_references=[
                ExternalReference(source_name="capec", external_id="CAPEC-105")],
            created=PAPER_NOW, modified=PAPER_NOW)
        result = build_attack_pattern_heuristic().evaluate(make_context(ap))
        assert result.feature("attack_type").value == 5
        assert result.feature("attack_type").attribute_label == "named_capec"

    def test_detection_tool_deployed(self):
        ap = AttackPattern(name="Scan", created=PAPER_NOW, modified=PAPER_NOW)
        result = build_attack_pattern_heuristic().evaluate(make_context(ap))
        assert result.feature("detection_tool").value == 4

    def test_detection_tool_absent(self):
        bare = Inventory(nodes=[Node(name="pc", applications=("notepad",))])
        ap = AttackPattern(name="Scan", created=PAPER_NOW, modified=PAPER_NOW)
        result = build_attack_pattern_heuristic().evaluate(
            make_context(ap, inventory=bare))
        assert result.feature("detection_tool").value == 1

    def test_kill_chain_scoring(self):
        phases = [KillChainPhase(vocab.LOCKHEED_MARTIN_KILL_CHAIN, p)
                  for p in ("delivery", "exploitation")]
        ap = AttackPattern(name="x", kill_chain_phases=phases,
                           created=PAPER_NOW, modified=PAPER_NOW)
        result = build_attack_pattern_heuristic().evaluate(make_context(ap))
        assert result.feature("kill_chain_phases").value == 4

    def test_score_bounds(self):
        ap = AttackPattern(name="x", created=PAPER_NOW, modified=PAPER_NOW)
        result = build_attack_pattern_heuristic().evaluate(make_context(ap))
        assert 0.0 <= result.score <= 5.0


class TestIdentity:
    def test_sector_overlap_scores_highest(self):
        ident = Identity(name="TargetCo", identity_class="organization",
                         sectors=["technology"],
                         created=PAPER_NOW, modified=PAPER_NOW)
        result = build_identity_heuristic().evaluate(make_context(ident))
        assert result.feature("sectors").value == 5

    def test_non_overlapping_sectors(self):
        ident = Identity(name="FarmCo", identity_class="organization",
                         sectors=["agriculture"],
                         created=PAPER_NOW, modified=PAPER_NOW)
        result = build_identity_heuristic().evaluate(make_context(ident))
        assert result.feature("sectors").value == 2

    def test_location_from_gazetteer(self):
        ident = Identity(name="EuroCERT", identity_class="organization",
                         description="Coordinating response across Spain",
                         created=PAPER_NOW, modified=PAPER_NOW)
        result = build_identity_heuristic().evaluate(make_context(ident))
        assert result.feature("location").value == 2

    def test_nonstandard_identity_class(self):
        ident = Identity(name="x", identity_class="hive-mind",
                         created=PAPER_NOW, modified=PAPER_NOW)
        result = build_identity_heuristic().evaluate(make_context(ident))
        assert result.feature("identity_class").value == 1


class TestIndicator:
    def make(self, **overrides):
        data = dict(
            pattern="[ipv4-addr:value = '198.51.100.1']",
            valid_from=PAPER_NOW,
            labels=["malicious-activity"],
            created=PAPER_NOW, modified=PAPER_NOW)
        data.update(overrides)
        return Indicator(**data)

    def test_valid_pattern_scores_five(self):
        result = build_indicator_heuristic().evaluate(make_context(self.make()))
        assert result.feature("pattern").value == 5

    def test_invalid_pattern_scores_one(self):
        broken = self.make(pattern="[not a pattern")
        result = build_indicator_heuristic().evaluate(make_context(broken))
        assert result.feature("pattern").value == 1

    def test_exporter_patterns_score_without_parsing(self):
        event = MispEvent(info="x")
        for kind in _TYPE_TO_OBJECT_PATH:
            event.add_attribute(MispAttribute(type=kind, value="it's a \\ b"))
        indicators = to_stix2_bundle(event).by_type("indicator")
        assert len(indicators) == len(_TYPE_TO_OBJECT_PATH)
        heuristic = build_indicator_heuristic()
        with mock.patch("repro.stix.pattern.parse_pattern") as parser:
            results = [heuristic.evaluate(make_context(indicator))
                       for indicator in indicators]
        assert parser.call_count == 0
        assert {result.feature("pattern").value for result in results} == {5}

    def test_recommended_label(self):
        result = build_indicator_heuristic().evaluate(make_context(self.make()))
        assert result.feature("indicator_type").value == 3

    def test_custom_label(self):
        odd = self.make(labels=["something-else"])
        result = build_indicator_heuristic().evaluate(make_context(odd))
        assert result.feature("indicator_type").value == 1

    def test_multi_feed_osint_source(self):
        result = build_indicator_heuristic().evaluate(make_context(self.make()))
        assert result.feature("osint_source").value == 4  # two feeds

    def test_single_feed_osint_source(self):
        result = build_indicator_heuristic().evaluate(
            make_context(self.make(), osint_feeds=frozenset({"only"})))
        assert result.feature("osint_source").value == 2


class TestMalware:
    def make(self, **overrides):
        data = dict(name="emotet", labels=["trojan"],
                    description="banking trojan targeting windows hosts",
                    created=PAPER_NOW, modified=PAPER_NOW)
        data.update(overrides)
        return Malware(**data)

    def test_recommended_label(self):
        result = build_malware_heuristic().evaluate(make_context(self.make()))
        assert result.feature("category").value == 3

    def test_fresh_means_active_campaign(self):
        result = build_malware_heuristic().evaluate(make_context(self.make()))
        assert result.feature("status").attribute_label == "active_campaign"

    def test_old_means_documented(self):
        old = self.make(created="2016-01-01T00:00:00Z",
                        modified="2016-01-01T00:00:00Z")
        result = build_malware_heuristic().evaluate(make_context(old))
        assert result.feature("status").attribute_label == "documented"

    def test_targeted_os(self):
        result = build_malware_heuristic().evaluate(make_context(self.make()))
        assert result.feature("operating_system").value == 5  # windows


class TestTool:
    def test_well_known_tool(self):
        tool = Tool(name="mimikatz", labels=["credential-exploitation"],
                    created=PAPER_NOW, modified=PAPER_NOW)
        result = build_tool_heuristic().evaluate(make_context(tool))
        assert result.feature("name").value == 4

    def test_obscure_tool(self):
        tool = Tool(name="custom-scanner-x", labels=["vulnerability-scanning"],
                    created=PAPER_NOW, modified=PAPER_NOW)
        result = build_tool_heuristic().evaluate(make_context(tool))
        assert result.feature("name").value == 2

    def test_source_type_variety(self):
        tool = Tool(name="nmap", labels=["vulnerability-scanning"],
                    created=PAPER_NOW, modified=PAPER_NOW)
        both = build_tool_heuristic().evaluate(make_context(
            tool, source_types=frozenset({"osint", "infrastructure"})))
        assert both.feature("source_type").value == 5
        infra_only = build_tool_heuristic().evaluate(make_context(
            tool, source_types=frozenset({"infrastructure"})))
        assert infra_only.feature("source_type").value == 3


class TestAllHeuristicsBounds:
    @pytest.mark.parametrize("builder,obj_factory", [
        (build_attack_pattern_heuristic,
         lambda: AttackPattern(name="x", created=PAPER_NOW, modified=PAPER_NOW)),
        (build_identity_heuristic,
         lambda: Identity(name="x", identity_class="organization",
                          created=PAPER_NOW, modified=PAPER_NOW)),
        (build_indicator_heuristic,
         lambda: Indicator(pattern="[a:b = 'c']", valid_from=PAPER_NOW,
                           labels=["benign"], created=PAPER_NOW,
                           modified=PAPER_NOW)),
        (build_malware_heuristic,
         lambda: Malware(name="x", labels=["bot"], created=PAPER_NOW,
                         modified=PAPER_NOW)),
        (build_tool_heuristic,
         lambda: Tool(name="x", labels=["remote-access"], created=PAPER_NOW,
                      modified=PAPER_NOW)),
        (build_vulnerability_heuristic,
         lambda: __import__("repro.stix", fromlist=["Vulnerability"])
         .Vulnerability(name="x", created=PAPER_NOW, modified=PAPER_NOW)),
    ])
    def test_bounds_and_weight_sum(self, builder, obj_factory):
        heuristic = builder()
        result = heuristic.evaluate(make_context(obj_factory()))
        assert 0.0 <= result.score <= 5.0
        live = [f.weight for f in result.features if not f.empty]
        if live:
            assert sum(live) == pytest.approx(1.0)
