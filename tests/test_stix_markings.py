"""Tests for STIX TLP marking-definitions in the export path."""

import pytest

from repro.misp import MispAttribute, MispEvent, from_stix2_bundle, to_stix2_bundle
from repro.sharing import SharingPolicy, Tlp, mark_tlp, tlp_of
from repro.stix import (
    TLP_MARKING_IDS,
    marking_ref_for,
    tlp_from_marking_refs,
    tlp_marking_definition,
)
from repro.stix.markings import strictest_tlp


def make_event(tlp=None):
    event = MispEvent(info="intel")
    event.add_attribute(MispAttribute(type="domain", value="evil.example"))
    if tlp:
        mark_tlp(event, tlp)
    return event


class TestMarkingDefinitions:
    def test_spec_fixed_ids(self):
        # These UUIDs are normative (STIX 2.0 Part 1 §4.1.4.1).
        assert TLP_MARKING_IDS["white"].endswith("b8e91df99dc9")
        assert TLP_MARKING_IDS["amber"].endswith("01333bde0b82")
        assert len(TLP_MARKING_IDS) == 4

    def test_definition_object_shape(self):
        definition = tlp_marking_definition("green")
        assert definition["type"] == "marking-definition"
        assert definition["definition"] == {"tlp": "green"}
        assert definition["id"] == TLP_MARKING_IDS["green"]

    def test_unknown_level_raises(self):
        with pytest.raises(KeyError):
            tlp_marking_definition("purple")
        with pytest.raises(KeyError):
            marking_ref_for("purple")

    @pytest.mark.parametrize("names, expected", [
        ([], None),
        (["osint", "tlp:purple", "TLP:red"], None),
        (["tlp:green", "tlp:amber"], "amber"),
        (["tlp:white", "tlp:RED", "tlp:green"], "red"),
        (["tlp:white", "x", "tlp:green"], "green"),
    ])
    def test_strictest_tlp(self, names, expected):
        assert strictest_tlp(names) == expected

    def test_reverse_lookup(self):
        assert tlp_from_marking_refs([TLP_MARKING_IDS["red"]]) == "red"
        assert tlp_from_marking_refs(["marking-definition--other"]) is None
        assert tlp_from_marking_refs(None) is None
        assert tlp_from_marking_refs([]) is None


class TestExportIntegration:
    @pytest.mark.parametrize("level", Tlp.ALL)
    def test_every_level_exports_and_reimports(self, level):
        bundle = to_stix2_bundle(make_event(level))
        for obj in bundle:
            assert obj["object_marking_refs"] == [TLP_MARKING_IDS[level]]
        revived = from_stix2_bundle(bundle)
        assert tlp_of(revived) == level

    def test_export_marks_the_level_the_gate_refuses_by(self):
        # Gated as amber (the strictest tag), so it must leave marked
        # amber, not green, and arrive as amber at the partner.
        event = make_event()
        event.add_tag("tlp:green")
        event.add_tag("tlp:amber")
        assert tlp_of(event) == SharingPolicy().marking_of(event) == "amber"
        bundle = to_stix2_bundle(event)
        assert len(bundle) == 1
        for obj in bundle:
            assert obj["object_marking_refs"] == [TLP_MARKING_IDS["amber"]]
        revived = from_stix2_bundle(bundle)
        assert [tag.name for tag in revived.tags] == ["tlp:amber"]

    def test_unmarked_event_exports_without_refs(self):
        bundle = to_stix2_bundle(make_event())
        for obj in bundle:
            assert "object_marking_refs" not in obj.to_dict()

    def test_marking_survives_serialization(self):
        from repro.stix import Bundle
        bundle = to_stix2_bundle(make_event("green"))
        revived = Bundle.from_json(bundle.to_json())
        assert revived.objects[0]["object_marking_refs"] == \
            [TLP_MARKING_IDS["green"]]
