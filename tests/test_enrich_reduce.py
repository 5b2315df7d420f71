"""Tests for the heuristic component (eIoC) and rIoC generation."""

import json

import pytest

from repro.clock import SimulatedClock
from repro.core import (
    BREAKDOWN_COMMENT,
    HeuristicComponent,
    RIocGenerator,
    TAG_CIOC,
    TAG_EIOC,
    THREAT_SCORE_COMMENT,
    is_cioc,
    is_eioc,
    threat_score_of,
)
from repro.core.heuristics import HeuristicRegistry
from repro.core.ioc import ReducedIoc
from repro.cvss import CveDatabase
from repro.errors import ValidationError
from repro.infra import INFRASTRUCTURE_TAG, AlarmManager
from repro.misp import MispAttribute, MispEvent
from repro.workloads import RCE_EXPECTED_SCORE, rce_cioc, rce_use_case


class TestHeuristicComponent:
    def test_enrich_adds_score_attribute_and_tag(self):
        scenario = rce_use_case()
        result = scenario.heuristics.process_pending()[0]
        eioc = result.eioc
        assert is_eioc(eioc)
        assert is_cioc(eioc)  # lineage tags accumulate
        score = threat_score_of(eioc)
        assert score == pytest.approx(RCE_EXPECTED_SCORE, abs=1e-4)

    def test_breakdown_attribute_is_json(self):
        scenario = rce_use_case()
        eioc = scenario.heuristics.process_pending()[0].eioc
        breakdown_attrs = [a for a in eioc.all_attributes()
                           if a.comment == BREAKDOWN_COMMENT]
        assert len(breakdown_attrs) == 1
        breakdown = json.loads(breakdown_attrs[0].value)
        assert breakdown["heuristic"] == "vulnerability"
        assert len(breakdown["features"]) == 9

    def test_already_enriched_event_skipped(self):
        scenario = rce_use_case()
        scenario.heuristics.process_pending()
        # enrich() directly on the same uuid must now skip.
        assert scenario.heuristics.enrich(scenario.cioc.uuid) is None
        assert scenario.heuristics.skipped >= 1

    @pytest.mark.parametrize("cve_db, expected", [
        (None, 1.8529),             # the default database knows the CVE
        (CveDatabase([]), 1.3529),  # an empty one is used, not replaced
    ])
    def test_given_cve_database_is_used(self, misp, inventory, clock,
                                        cve_db, expected):
        component = HeuristicComponent(
            misp, inventory=inventory, clock=clock, cve_db=cve_db)
        event = MispEvent(info="struts report")
        event.add_attribute(MispAttribute(type="vulnerability",
                                          value="CVE-2017-9805"))
        misp.add_event(event)
        result = component.enrich(event.uuid)
        assert result.score.score == pytest.approx(expected, abs=1e-4)

    def test_empty_registry_scores_nothing(self, misp, inventory, clock):
        component = HeuristicComponent(
            misp, inventory=inventory, clock=clock,
            registry=HeuristicRegistry())
        event = MispEvent(info="struts report")
        event.add_attribute(MispAttribute(type="vulnerability",
                                          value="CVE-2017-9805"))
        misp.add_event(event)
        assert component.enrich(event.uuid) is None

    def test_infrastructure_events_skipped(self, misp, inventory, clock):
        component = HeuristicComponent(misp, inventory=inventory, clock=clock)
        event = MispEvent(info="internal telemetry")
        event.add_attribute(MispAttribute(type="ip-src", value="203.0.113.5"))
        event.add_tag(INFRASTRUCTURE_TAG)
        misp.add_event(event)
        assert component.process_pending() == []
        assert component.skipped == 1

    def test_event_without_scorable_objects_skipped(self, misp, inventory, clock):
        component = HeuristicComponent(misp, inventory=inventory, clock=clock)
        event = MispEvent(info="pure text")
        event.add_attribute(MispAttribute(type="text", value="nothing structured",
                                          to_ids=False))
        misp.add_event(event)
        assert component.process_pending() == []

    def test_multiple_objects_event_scores_max(self, misp, inventory, clock):
        component = HeuristicComponent(misp, inventory=inventory, clock=clock)
        event = MispEvent(info="rich event about apache on debian")
        event.add_attribute(MispAttribute(type="vulnerability",
                                          value="CVE-2017-9805",
                                          comment="struts RCE on debian"))
        event.add_attribute(MispAttribute(type="domain", value="evil.example"))
        event.add_tag(TAG_CIOC)
        misp.add_event(event)
        result = component.process_pending()[0]
        assert len(result.object_results) == 2
        best = max(r.score for _id, r in result.object_results)
        assert result.score.score == best

    def test_two_objects_of_same_type_both_scored(self, misp, inventory, clock):
        # Scoring dedupe is keyed by STIX object id, not object type: two
        # distinct indicators must both be evaluated.
        component = HeuristicComponent(misp, inventory=inventory, clock=clock)
        event = MispEvent(info="campaign with two domains")
        event.add_attribute(MispAttribute(type="domain", value="evil.example"))
        event.add_attribute(MispAttribute(type="domain", value="bad.example"))
        event.add_tag(TAG_CIOC)
        misp.add_event(event)
        result = component.process_pending()[0]
        assert len(result.object_results) == 2
        ids = [obj_id for obj_id, _score in result.object_results]
        assert len(set(ids)) == 2

    def test_infrastructure_correlation_lifts_source_diversity(
            self, misp, inventory, clock):
        # An infra event sharing a value with the cIoC flips the
        # source-diversity feature to 'osint_and_infrastructure'.
        infra = MispEvent(info="internal sighting")
        infra.add_attribute(MispAttribute(type="domain", value="evil.example"))
        infra.add_tag(INFRASTRUCTURE_TAG)
        misp.add_event(infra, publish_feed=False)

        component = HeuristicComponent(misp, inventory=inventory, clock=clock)
        cioc = MispEvent(info="osint report")
        cioc.add_attribute(MispAttribute(type="domain", value="evil.example"))
        misp.add_event(cioc)
        result = component.process_pending()[0]
        labels = {f.feature: f.attribute_label for f in result.score.features}
        assert labels["source_type"] == "osint_and_infrastructure"


class TestRIocGenerator:
    def make_eioc(self, scenario):
        return scenario.heuristics.process_pending()[0].eioc

    def test_rioc_from_rce_use_case(self):
        scenario = rce_use_case()
        eioc = self.make_eioc(scenario)
        rioc = scenario.rioc_generator.generate(eioc)
        assert rioc is not None
        assert rioc.cve == "CVE-2017-9805"
        assert rioc.nodes == ("Node 4",)
        assert rioc.affected_application == "apache"
        assert not rioc.via_common_keyword
        assert rioc.threat_score == pytest.approx(RCE_EXPECTED_SCORE, abs=1e-4)
        assert rioc.eioc_uuid == eioc.uuid

    def test_no_match_no_rioc(self, misp, inventory, clock):
        component = HeuristicComponent(misp, inventory=inventory, clock=clock)
        event = MispEvent(info="windows-only exploit")
        event.add_attribute(MispAttribute(
            type="vulnerability", value="CVE-2017-0144",
            comment="SMB flaw on windows"))
        misp.add_event(event)
        eioc = component.process_pending()[0].eioc
        generator = RIocGenerator(inventory, clock=clock)
        assert generator.generate(eioc) is None
        assert generator.suppressed == 1

    def test_common_keyword_matches_all_nodes(self, misp, inventory, clock):
        component = HeuristicComponent(misp, inventory=inventory, clock=clock)
        event = MispEvent(info="generic linux kernel local privilege escalation")
        event.add_attribute(MispAttribute(
            type="vulnerability", value="CVE-2016-5195",
            comment="linux kernel race condition"))
        misp.add_event(event)
        eioc = component.process_pending()[0].eioc
        rioc = RIocGenerator(inventory, clock=clock).generate(eioc)
        assert rioc is not None
        assert rioc.via_common_keyword
        assert set(rioc.nodes) == set(inventory.node_names)

    def test_unenriched_event_suppressed(self, inventory, clock):
        generator = RIocGenerator(inventory, clock=clock)
        assert generator.generate(rce_cioc()) is None

    def test_generate_all(self, misp, inventory, clock):
        component = HeuristicComponent(misp, inventory=inventory, clock=clock)
        for info, comment in [("a", "apache issue"), ("b", "windows issue")]:
            event = MispEvent(info=info)
            event.add_attribute(MispAttribute(
                type="vulnerability", value="CVE-2017-9805", comment=comment))
            misp.add_event(event)
        eiocs = [r.eioc for r in component.process_pending()]
        riocs = RIocGenerator(inventory, clock=clock).generate_all(eiocs)
        assert len(riocs) == 1  # only the apache one matches


class TestReducedIocModel:
    def test_requires_nodes(self):
        with pytest.raises(ValidationError):
            ReducedIoc(eioc_uuid="x", threat_score=1.0, nodes=())

    def test_score_bounds(self):
        with pytest.raises(ValidationError):
            ReducedIoc(eioc_uuid="x", threat_score=5.5, nodes=("n",))

    def test_roundtrip(self, clock):
        rioc = ReducedIoc(
            eioc_uuid="e", threat_score=2.74, nodes=("Node 4",),
            cve="CVE-2017-9805", description="d", affected_application="apache",
            matched_term="apache", created_at=clock.now())
        revived = ReducedIoc.from_dict(json.loads(rioc.to_json()))
        assert revived == rioc

    def test_data_reduction_vs_eioc(self):
        # The rIoC payload must be substantially smaller than the eIoC
        # (the whole point of reduction, §III-C).
        scenario = rce_use_case()
        result = scenario.heuristics.process_pending()[0]
        rioc = scenario.rioc_generator.generate(result.eioc)
        eioc_size = len(json.dumps(result.eioc.to_dict()))
        rioc_size = len(rioc.to_json())
        assert rioc_size < eioc_size / 2
