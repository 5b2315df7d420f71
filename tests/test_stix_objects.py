"""Tests for the STIX 2.0 object model and bundle."""

import json

import pytest

from repro.errors import ParseError, ValidationError
from repro.stix import (
    AttackPattern,
    Bundle,
    ExternalReference,
    Identity,
    Indicator,
    KillChainPhase,
    Malware,
    Relationship,
    SDO_CLASSES,
    Sighting,
    Tool,
    Vulnerability,
    parse_object,
)
from repro.stix import vocab


def make_indicator(**overrides):
    data = dict(
        pattern="[ipv4-addr:value = '198.51.100.1']",
        valid_from="2018-01-01T00:00:00Z",
        labels=["malicious-activity"],
    )
    data.update(overrides)
    return Indicator(**data)


class TestCommonBehaviour:
    def test_twelve_sdo_types(self):
        assert len(SDO_CLASSES) == 12
        assert set(SDO_CLASSES) == set(vocab.SDO_TYPES)

    def test_id_is_generated_with_correct_prefix(self):
        obj = make_indicator()
        assert obj["id"].startswith("indicator--")

    def test_explicit_id_is_kept(self):
        obj = make_indicator(id="indicator--00000000-0000-4000-8000-000000000000")
        assert obj["id"].endswith("000000000000")

    def test_wrong_id_prefix_rejected(self):
        with pytest.raises(ValidationError):
            make_indicator(id="malware--00000000-0000-4000-8000-000000000000")

    def test_missing_required_property_rejected(self):
        with pytest.raises(ValidationError):
            Indicator(valid_from="2018-01-01T00:00:00Z")  # no pattern

    def test_unknown_property_rejected(self):
        with pytest.raises(ValidationError):
            make_indicator(bogus_field=1)

    def test_custom_x_properties_accepted(self):
        obj = make_indicator(x_caop_threat_score=2.74)
        assert obj["x_caop_threat_score"] == 2.74
        assert obj.custom_properties() == {"x_caop_threat_score": 2.74}

    def test_objects_are_immutable(self):
        obj = make_indicator()
        with pytest.raises(AttributeError):
            obj.name = "nope"

    def test_attribute_access(self):
        obj = make_indicator()
        assert obj.pattern == obj["pattern"]

    def test_modified_before_created_rejected(self):
        with pytest.raises(ValidationError):
            make_indicator(created="2018-01-02T00:00:00Z",
                           modified="2018-01-01T00:00:00Z")

    def test_serialization_roundtrip(self):
        obj = make_indicator(x_custom="v")
        revived = Indicator.from_dict(json.loads(obj.to_json()))
        assert revived == obj

    def test_new_version_bumps_modified(self):
        obj = make_indicator()
        newer = obj.new_version(name="renamed")
        assert newer["name"] == "renamed"
        assert newer["modified"] > obj["modified"]
        assert newer["id"] == obj["id"]


class TestSpecificObjects:
    def test_vulnerability_with_references(self):
        vuln = Vulnerability(
            name="CVE-2017-9805",
            external_references=[
                ExternalReference(source_name="cve", external_id="CVE-2017-9805")],
        )
        refs = vuln["external_references"]
        assert refs[0].external_id == "CVE-2017-9805"

    def test_external_reference_requires_content(self):
        with pytest.raises(ValidationError):
            ExternalReference(source_name="cve")

    def test_kill_chain_phase_on_attack_pattern(self):
        ap = AttackPattern(
            name="Spear Phishing",
            kill_chain_phases=[KillChainPhase(
                vocab.LOCKHEED_MARTIN_KILL_CHAIN, "delivery")],
        )
        assert ap["kill_chain_phases"][0].phase_name == "delivery"

    def test_identity_class_open_vocab_accepts_unknown(self):
        ident = Identity(name="ACME", identity_class="collective")
        assert ident["identity_class"] == "collective"

    def test_malware_requires_name(self):
        with pytest.raises(ValidationError):
            Malware(labels=["ransomware"])

    def test_tool_version(self):
        tool = Tool(name="nmap", tool_version="7.80", labels=["vulnerability-scanning"])
        assert tool["tool_version"] == "7.80"

    def test_relationship_links_two_ids(self):
        ind = make_indicator()
        mal = Malware(name="emotet", labels=["trojan"])
        rel = Relationship(
            relationship_type="indicates",
            source_ref=ind["id"], target_ref=mal["id"])
        assert rel["source_ref"] == ind["id"]

    def test_sighting_count_non_negative(self):
        ind = make_indicator()
        with pytest.raises(ValidationError):
            Sighting(sighting_of_ref=ind["id"], count=-1)


class TestBundle:
    def test_roundtrip(self):
        bundle = Bundle([make_indicator(), Malware(name="m", labels=["bot"])])
        revived = Bundle.from_json(bundle.to_json())
        assert len(revived) == 2
        assert revived.id == bundle.id
        assert {o["type"] for o in revived} == {"indicator", "malware"}

    def test_by_type(self):
        bundle = Bundle([make_indicator(), make_indicator()])
        assert len(bundle.by_type("indicator")) == 2
        assert bundle.by_type("malware") == []

    def test_get_returns_latest_version(self):
        obj = make_indicator()
        newer = obj.new_version(name="latest")
        bundle = Bundle([obj, newer])
        assert bundle.get(obj["id"])["name"] == "latest"

    def test_get_missing_returns_none(self):
        assert Bundle().get("indicator--00000000-0000-4000-8000-000000000000") is None

    def test_parse_object_unknown_type(self):
        with pytest.raises(ParseError):
            parse_object({"type": "widget", "id": "widget--x"})

    def test_parse_object_missing_type(self):
        with pytest.raises(ParseError):
            parse_object({"id": "indicator--x"})

    def test_from_json_rejects_non_bundle(self):
        with pytest.raises(ParseError):
            Bundle.from_json('{"type": "indicator"}')

    def test_from_json_rejects_bad_json(self):
        with pytest.raises(ParseError):
            Bundle.from_json("{not json")

    @pytest.mark.parametrize("body", [
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000"),
        pytest.param("[]", id="list"),
        pytest.param('{"type": "bundle", "objects": [1]}', id="object-int"),
        pytest.param('"\\ud800"', id="lone-surrogate"),
    ])
    def test_from_json_refuses_what_it_cannot_decode(self, body):
        with pytest.raises(ParseError):
            Bundle.from_json(body)

    def test_spec_version_in_wire_format(self):
        assert Bundle().to_dict()["spec_version"] == "2.0"
