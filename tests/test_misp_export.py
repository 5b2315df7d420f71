"""Tests for the MISP export/import modules."""

import datetime as dt
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import format_timestamp
from repro.errors import ParseError, SharingError
from repro.ids import content_stix_id
from repro.misp import (
    ATTRIBUTE_TYPES,
    EXPORT_MODULES,
    MispAttribute,
    MispEvent,
    MispObject,
    from_misp_json,
    from_stix2_bundle,
    to_csv,
    to_misp_json,
    to_plaintext_values,
    to_stix1_xml,
    to_stix2_bundle,
)
from repro.misp.export import _TYPE_TO_OBJECT_PATH, attribute_to_stix
from repro.stix import Bundle, Relationship, StixObject
from repro.stix.markings import marking_ref_for, strictest_tlp


@pytest.fixture
def event():
    event = MispEvent(info="Struts campaign")
    event.add_attribute(MispAttribute(type="vulnerability", value="CVE-2017-9805",
                                      comment="RCE in Apache Struts"))
    event.add_attribute(MispAttribute(type="domain", value="evil.example"))
    event.add_attribute(MispAttribute(type="ip-src", value="198.51.100.3"))
    event.add_attribute(MispAttribute(type="sha256", value="ab" * 32))
    event.add_attribute(MispAttribute(type="text", value="free text", to_ids=False))
    return event


class TestMispJson:
    def test_roundtrip(self, event):
        revived = from_misp_json(to_misp_json(event))
        assert revived.uuid == event.uuid
        assert len(revived.attributes) == len(event.attributes)

    def test_invalid_json_raises(self):
        with pytest.raises(ParseError):
            from_misp_json("{broken")


class TestStix2Export:
    def test_vulnerability_becomes_sdo(self, event):
        bundle = to_stix2_bundle(event)
        vulns = bundle.by_type("vulnerability")
        assert len(vulns) == 1
        assert vulns[0]["name"] == "CVE-2017-9805"
        refs = vulns[0]["external_references"]
        assert refs[0].source_name == "cve"

    def test_indicators_carry_patterns(self, event):
        bundle = to_stix2_bundle(event)
        patterns = {i["pattern"] for i in bundle.by_type("indicator")}
        assert "[domain-name:value = 'evil.example']" in patterns
        assert "[ipv4-addr:value = '198.51.100.3']" in patterns
        assert "[file:hashes.'SHA-256' = '" + "ab" * 32 + "']" in patterns

    def test_text_attributes_are_not_exported(self, event):
        bundle = to_stix2_bundle(event)
        # vulnerability + 3 indicators + 3 relationships (each indicator
        # related to the vulnerability); the free-text attr has no STIX form.
        assert len(bundle.by_type("vulnerability")) == 1
        assert len(bundle.by_type("indicator")) == 3
        assert len(bundle.by_type("relationship")) == 3
        assert len(bundle) == 7

    def test_relationships_connect_indicators_to_vulnerability(self, event):
        bundle = to_stix2_bundle(event)
        vulnerability = bundle.by_type("vulnerability")[0]
        indicator_ids = {obj["id"] for obj in bundle.by_type("indicator")}
        for relationship in bundle.by_type("relationship"):
            assert relationship["relationship_type"] == "related-to"
            assert relationship["source_ref"] in indicator_ids
            assert relationship["target_ref"] == vulnerability["id"]

    def test_no_relationships_without_vulnerability(self):
        event = MispEvent(info="indicators only")
        event.add_attribute(MispAttribute(type="domain", value="a.example"))
        bundle = to_stix2_bundle(event)
        assert bundle.by_type("relationship") == []

    def test_event_context_rides_as_custom_properties(self, event):
        event.add_tag("caop:category=\"phishing\"")
        bundle = to_stix2_bundle(event)
        for obj in bundle:
            assert obj["x_caop_event_uuid"] == event.uuid
            assert "caop:category=\"phishing\"" in obj["x_caop_tags"]

    def test_content_derived_ids_are_stable(self, event):
        a = to_stix2_bundle(event)
        b = to_stix2_bundle(event)
        assert [o["id"] for o in a] == [o["id"] for o in b]

    def test_capec_link_attribute_becomes_reference(self):
        event = MispEvent(info="x")
        event.add_attribute(MispAttribute(type="vulnerability", value="CVE-2017-9805"))
        event.add_attribute(MispAttribute(
            type="link", value="CAPEC-586 https://capec.mitre.org/x",
            to_ids=False))
        bundle = to_stix2_bundle(event)
        refs = bundle.by_type("vulnerability")[0]["external_references"]
        assert {r.source_name for r in refs} == {"cve", "capec"}

    def test_each_object_is_constructed_once(self, event, monkeypatch):
        constructed = []
        original = StixObject.__init__

        def counting(obj, *args, **kwargs):
            constructed.append(type(obj).__name__)
            original(obj, *args, **kwargs)

        monkeypatch.setattr(StixObject, "__init__", counting)
        mark = MispAttribute(type="url", value="http://evil.example/x")
        event.objects.append(MispObject(name="file", attributes=[mark]))
        event.add_tag("tlp:green")
        bundle = to_stix2_bundle(event)
        assert len(bundle) == 9  # 1 vulnerability, 4 indicators, 4 relationships
        assert len(constructed) == len(bundle)


def two_pass_bundle(event):
    """The exporter's former shape, kept as the reference: each object is
    built and validated, serialized, then rebuilt with the event customs,
    its attribute uuid and the TLP marking added."""
    bundle = Bundle(bundle_id=f"bundle--{event.uuid}")
    customs = {
        "x_caop_event_uuid": event.uuid,
        "x_caop_event_info": event.info,
        "x_caop_tags": [tag.name for tag in event.tags],
    }
    level = strictest_tlp(tag.name for tag in event.tags)
    marking_refs = [marking_ref_for(level)] if level else []
    for attribute in event.all_attributes():
        obj = attribute_to_stix(attribute, event)
        if obj is None:
            continue
        data = obj.to_dict()
        data.update(customs)
        data["x_caop_attribute_uuid"] = attribute.uuid
        if marking_refs:
            data["object_marking_refs"] = marking_refs
        bundle.add(type(obj)(**data))
    for vulnerability in bundle.by_type("vulnerability"):
        for indicator in bundle.by_type("indicator"):
            created = indicator["created"]
            rel_data = {
                "id": content_stix_id("relationship", indicator["id"],
                                      vulnerability["id"]),
                "relationship_type": "related-to",
                "source_ref": indicator["id"],
                "target_ref": vulnerability["id"],
                "created": format_timestamp(created),
                "modified": format_timestamp(created),
                **customs,
            }
            if marking_refs:
                rel_data["object_marking_refs"] = marking_refs
            bundle.add(Relationship(**rel_data))
    return bundle


#: Quotes, backslashes, newlines, non-ASCII text and anything else.
VALUES = st.text(
    alphabet=st.one_of(st.sampled_from("'\\\n\"\u00e9\u65e5\u0130 -._:/"),
                       st.characters()),
    min_size=1, max_size=16)
#: Free text that sometimes names a CAPEC pattern.
REFERENCE_TEXT = st.one_of(
    VALUES,
    st.builds("see {} for details".format,
              st.from_regex(r"[Cc][Aa][Pp][Ee][Cc]-[0-9]{1,4}", fullmatch=True)))
TIMESTAMPS = st.datetimes(
    min_value=dt.datetime(2001, 1, 1), max_value=dt.datetime(2030, 1, 1),
    timezones=st.just(dt.timezone.utc))
EVENT_TAGS = st.sampled_from([
    "tlp:red", "tlp:amber", "tlp:green", "tlp:white", "tlp:AMBER",
    "tlp:purple", "TLP:red", "osint", "caop:category=\"phishing\""])


@st.composite
def attributes(draw):
    kind = draw(st.sampled_from(sorted(ATTRIBUTE_TYPES)))
    value = draw(REFERENCE_TEXT if kind in ("link", "text") else VALUES)
    attribute = MispAttribute(
        type=kind, value=value, comment=draw(st.text(max_size=8)),
        timestamp=draw(TIMESTAMPS))
    for name in draw(st.lists(st.sampled_from(["a", "phishing", "x:y"]),
                              max_size=2)):
        attribute.add_tag(name)
    return attribute


@st.composite
def events(draw):
    event = MispEvent(info=draw(VALUES), timestamp=draw(TIMESTAMPS))
    # Indicator-bearing types first, then a CVE the relationships target,
    # then any type (links and texts carry the CVE's references).
    for kind in draw(st.lists(st.sampled_from(sorted(_TYPE_TO_OBJECT_PATH)),
                              max_size=3)):
        event.add_attribute(MispAttribute(type=kind, value=draw(VALUES)))
    if draw(st.booleans()):
        event.add_attribute(MispAttribute(type="vulnerability",
                                          value="CVE-2017-9805"))
    for attribute in draw(st.lists(attributes(), max_size=5)):
        event.add_attribute(attribute)
    for _ in range(draw(st.integers(0, 2))):
        event.objects.append(MispObject(
            name="file", attributes=draw(st.lists(attributes(), max_size=3))))
    for name in draw(st.lists(EVENT_TAGS, max_size=4)):
        event.add_tag(name)
    return event


@settings(max_examples=150, deadline=None)
@given(events())
def test_single_construction_matches_two_pass_export(event):
    actual = to_stix2_bundle(event)
    expected = two_pass_bundle(event)
    assert actual.id == expected.id
    # Key order too: the bundle's JSON must be byte-identical.
    assert [list(obj.to_dict().items()) for obj in actual] == \
        [list(obj.to_dict().items()) for obj in expected]
    assert actual.to_json() == expected.to_json()


class TestStix2Import:
    def test_reimport_recovers_attributes(self, event):
        bundle = to_stix2_bundle(event)
        revived = from_stix2_bundle(bundle)
        pairs = {(a.type, a.value) for a in revived.attributes}
        assert ("vulnerability", "CVE-2017-9805") in pairs
        assert ("domain", "evil.example") in pairs
        assert ("sha256", "ab" * 32) in pairs


class TestOtherFormats:
    def test_stix1_xml_structure(self, event):
        xml = to_stix1_xml(event)
        assert xml.startswith("<?xml")
        assert "<stix:STIX_Package" in xml
        assert "evil.example" in xml
        assert xml.count("<stix:Indicator ") == len(event.attributes)

    def test_stix1_xml_escapes(self):
        event = MispEvent(info="a <b> & c")
        xml = to_stix1_xml(event)
        assert "a &lt;b&gt; &amp; c" in xml

    def test_csv_header_and_rows(self, event):
        csv_text = to_csv(event)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "uuid,type,category,value,to_ids,comment"
        assert len(lines) == 1 + len(event.attributes)

    def test_plaintext_values(self, event):
        text = to_plaintext_values(event, attribute_type="domain")
        assert text == "evil.example\n"

    def test_plaintext_all_values(self, event):
        assert len(to_plaintext_values(event).strip().splitlines()) == 5

    def test_export_module_registry(self, event):
        for name, module in EXPORT_MODULES.items():
            rendered = module(event)
            assert isinstance(rendered, str) and rendered, name

    def test_stix2_module_produces_valid_bundle_json(self, event):
        text = EXPORT_MODULES["stix2"](event)
        data = json.loads(text)
        assert data["type"] == "bundle"
