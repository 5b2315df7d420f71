"""Tests for TAXII, the sharing gateway and the SIEM connector."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimulatedClock
from repro.errors import SharingError, ValidationError
from repro.misp import (
    Distribution,
    MispAttribute,
    MispEvent,
    MispInstance,
    from_misp_json,
    from_stix2_bundle,
)
from repro.sharing import (
    FORMAT_MISP_JSON,
    FORMAT_STIX,
    DetectionReport,
    ExternalEntity,
    RenderCache,
    SharingGateway,
    SharingPolicy,
    SiemConnector,
    TaxiiClient,
    TaxiiServer,
    event_digest,
)
from repro.stix import Bundle, Indicator, parse_object


def make_indicator(value="198.51.100.9"):
    return Indicator(
        pattern=f"[ipv4-addr:value = '{value}']",
        valid_from="2018-01-01T00:00:00Z",
        labels=["malicious-activity"])


def make_event(value="198.51.100.9",
               distribution=Distribution.ALL_COMMUNITIES):
    event = MispEvent(info="intel", distribution=distribution)
    event.add_attribute(MispAttribute(type="ip-src", value=value))
    return event


class TestTaxii:
    @pytest.fixture
    def server(self, clock):
        server = TaxiiServer(clock=clock)
        server.create_collection("indicators", "Indicators")
        return server

    def test_discovery_and_collections(self, server):
        assert server.discovery()["api_roots"] == ["/intel/"]
        collections = server.get_collections()
        assert collections[0]["id"] == "indicators"

    def test_push_and_poll(self, server, clock):
        client = TaxiiClient(server, clock=clock)
        status = client.push_bundle("indicators", Bundle([make_indicator()]))
        assert status == {"status": "complete", "success_count": 1,
                          "failure_count": 0}
        objects = client.poll("indicators")
        assert len(objects) == 1
        assert objects[0]["type"] == "indicator"

    def test_incremental_poll(self, server, clock):
        client = TaxiiClient(server, clock=clock)
        client.push_bundle("indicators", Bundle([make_indicator()]))
        assert len(client.poll("indicators")) == 1
        clock.advance(dt.timedelta(seconds=10))
        # Nothing new since last poll.
        assert client.poll("indicators") == []
        clock.advance(dt.timedelta(seconds=10))
        client.push_bundle("indicators", Bundle([make_indicator("198.51.100.10")]))
        assert len(client.poll("indicators")) == 1

    def test_object_type_filter(self, server, clock):
        from repro.stix import Malware
        client = TaxiiClient(server, clock=clock)
        client.push_bundle("indicators", Bundle(
            [make_indicator(), Malware(name="m", labels=["bot"])]))
        assert len(server.get_objects("indicators", object_type="malware")) == 1

    def test_invalid_objects_counted_as_failures(self, server):
        status = server.add_objects("indicators", [{"type": "junk"}])
        assert status["failure_count"] == 1

    def test_read_write_permissions(self, clock):
        server = TaxiiServer(clock=clock)
        server.create_collection("ro", "ReadOnly", can_write=False)
        server.create_collection("wo", "WriteOnly", can_read=False)
        with pytest.raises(SharingError):
            server.add_objects("ro", [make_indicator().to_dict()])
        with pytest.raises(SharingError):
            server.get_objects("wo")

    def test_duplicate_collection_rejected(self, server):
        with pytest.raises(SharingError):
            server.create_collection("indicators", "again")

    def test_unknown_collection(self, server):
        with pytest.raises(SharingError):
            server.get_objects("missing")

    def test_manifest(self, server, clock):
        client = TaxiiClient(server, clock=clock)
        client.push_bundle("indicators", Bundle([make_indicator()]))
        manifest = server.get_manifest("indicators")
        assert manifest[0]["id"].startswith("indicator--")


class TestSharingGateway:
    def test_share_to_all_transports(self, clock):
        local = MispInstance(org="Local")
        peer = MispInstance(org="Peer")
        taxii = TaxiiServer(clock=clock)
        taxii.create_collection("indicators", "ind")
        event = make_event()
        local.add_event(event)

        gateway = SharingGateway(local)
        gateway.register(ExternalEntity(name="peer", transport="misp",
                                        misp_instance=peer))
        gateway.register(ExternalEntity(name="cert", transport="taxii",
                                        taxii_server=taxii))
        gateway.register(ExternalEntity(name="legacy", transport="stix-download"))
        records = gateway.sync_cycle().records
        assert all(r.ok for r in records)
        assert peer.store.has_event(event.uuid)
        assert taxii.get_objects("indicators")
        stats = gateway.stats()
        assert stats["shared"] == 3 and stats["failed"] == 0

    def test_distribution_respected_by_misp_transport(self):
        local = MispInstance(org="Local")
        peer = MispInstance(org="Peer")
        event = make_event(distribution=Distribution.ORGANISATION_ONLY)
        local.add_event(event)
        gateway = SharingGateway(local)
        gateway.register(ExternalEntity(name="peer", transport="misp",
                                        misp_instance=peer))
        records = gateway.sync_cycle().records
        assert not records[0].ok
        assert not peer.store.has_event(event.uuid)

    def test_entity_validation(self):
        with pytest.raises(SharingError):
            ExternalEntity(name="x", transport="carrier-pigeon")
        with pytest.raises(SharingError):
            ExternalEntity(name="x", transport="misp")  # missing instance
        with pytest.raises(SharingError):
            ExternalEntity(name="x", transport="taxii")  # missing server

    def test_duplicate_entity_rejected(self):
        gateway = SharingGateway(MispInstance())
        gateway.register(ExternalEntity(name="x", transport="stix-download"))
        with pytest.raises(SharingError):
            gateway.register(ExternalEntity(name="x", transport="stix-download"))


class TestSiemConnector:
    def test_value_rules_from_eioc(self):
        siem = SiemConnector()
        created = siem.add_rules_from_eioc(make_event(), threat_score=3.0)
        assert created == 1
        assert siem.rule_count() == 1

    def test_low_score_events_rejected(self):
        siem = SiemConnector(min_threat_score=2.5)
        assert siem.add_rules_from_eioc(make_event(), threat_score=1.0) == 0
        assert siem.rejected_low_score == 1

    def test_non_correlatable_attributes_skipped(self):
        siem = SiemConnector()
        event = MispEvent(info="x")
        event.add_attribute(MispAttribute(type="text", value="note", to_ids=False))
        assert siem.add_rules_from_eioc(event, threat_score=4.0) == 0

    def test_higher_score_rule_wins(self):
        siem = SiemConnector()
        siem.add_rules_from_eioc(make_event(), threat_score=2.0)
        siem.add_rules_from_eioc(make_event(), threat_score=4.0)
        alert = siem.match({"type": "ipv4-addr", "value": "198.51.100.9"},
                           dt.datetime(2018, 6, 15, tzinfo=dt.timezone.utc))
        assert alert.threat_score == 4.0

    def test_match_is_case_insensitive_on_value(self):
        siem = SiemConnector()
        event = MispEvent(info="x")
        event.add_attribute(MispAttribute(type="domain", value="EVIL.example"))
        siem.add_rules_from_eioc(event, threat_score=3.0)
        alert = siem.match({"type": "domain-name", "value": "evil.EXAMPLE"},
                           dt.datetime(2018, 6, 15, tzinfo=dt.timezone.utc))
        assert alert is not None

    def test_pattern_rules(self):
        siem = SiemConnector()
        siem.add_pattern_rule("r1", "[ipv4-addr:value ISSUBSET '198.51.100.0/24']",
                              threat_score=2.0)
        hit = siem.match({"type": "ipv4-addr", "value": "198.51.100.200"},
                         dt.datetime(2018, 6, 15, tzinfo=dt.timezone.utc))
        miss = siem.match({"type": "ipv4-addr", "value": "10.1.1.1"},
                          dt.datetime(2018, 6, 15, tzinfo=dt.timezone.utc))
        assert hit is not None and miss is None

    def test_replay_confusion_matrix(self):
        siem = SiemConnector()
        siem.add_rules_from_eioc(make_event("198.51.100.9"), threat_score=3.0)
        telemetry = [
            ({"type": "ipv4-addr", "value": "198.51.100.9"}, True),   # TP
            ({"type": "ipv4-addr", "value": "198.51.100.1"}, True),   # FN
            ({"type": "ipv4-addr", "value": "192.0.2.1"}, False),     # TN
        ]
        report = siem.replay(telemetry)
        assert (report.true_positives, report.false_negatives,
                report.true_negatives, report.false_positives) == (1, 1, 1, 0)
        assert report.detection_rate == pytest.approx(0.5)
        assert report.false_positive_rate == 0.0
        assert report.precision == 1.0
        assert 0.0 < report.f1 < 1.0

    def test_empty_report_rates(self):
        report = DetectionReport()
        assert report.detection_rate == 0.0
        assert report.false_positive_rate == 0.0
        assert report.f1 == 0.0

    def test_invalid_threshold(self):
        with pytest.raises(ValidationError):
            SiemConnector(min_threat_score=9.9)


# ---------------------------------------------------------------------------
# Property-based transport round-trips
# ---------------------------------------------------------------------------

#: STIX pattern object paths collapse some MISP aliases (ip-dst shares
#: ipv4-addr:value with ip-src, hostname shares domain-name:value with
#: domain), so STIX round-trips are compared on the canonical type.
STIX_CANONICAL_TYPE = {"ip-dst": "ip-src", "hostname": "domain"}

_hex = "0123456789abcdef"
_name = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789",
                min_size=1, max_size=12)


@st.composite
def attributes(draw):
    kind = draw(st.sampled_from(
        ["ip-src", "ip-dst", "domain", "hostname", "url", "md5", "sha256"]))
    if kind in ("ip-src", "ip-dst"):
        value = ".".join(str(draw(st.integers(1, 254))) for _ in range(4))
    elif kind in ("domain", "hostname"):
        value = f"{draw(_name)}.{draw(_name)}.example"
    elif kind == "url":
        value = f"http://{draw(_name)}.example/{draw(_name)}"
    elif kind == "md5":
        value = "".join(draw(st.sampled_from(_hex)) for _ in range(32))
    else:
        value = "".join(draw(st.sampled_from(_hex)) for _ in range(64))
    return MispAttribute(type=kind, value=value)


@st.composite
def shareable_events(draw):
    event = MispEvent(
        info=f"eIoC {draw(_name)}",
        distribution=Distribution.ALL_COMMUNITIES)
    for attribute in draw(st.lists(attributes(), min_size=1, max_size=6)):
        event.add_attribute(attribute)
    return event


def permitting_policy(entity_name):
    policy = SharingPolicy()
    policy.set_clearance(entity_name, "amber")
    return policy


def attribute_multiset(event, canonical=False):
    out = []
    for attribute in event.attributes:
        kind = attribute.type
        if canonical:
            kind = STIX_CANONICAL_TYPE.get(kind, kind)
        out.append((kind, attribute.value))
    return sorted(out)


class TestTransportRoundTrips:
    @given(shareable_events())
    @settings(max_examples=25, deadline=None)
    def test_misp_transport_round_trip(self, event):
        local = MispInstance(org="Local")
        peer = MispInstance(org="Peer")
        local.add_event(event)
        gateway = SharingGateway(local, permitting_policy("peer"))
        gateway.register(ExternalEntity(name="peer", transport="misp",
                                        misp_instance=peer))
        records = gateway.sync_cycle().records
        assert records[0].ok
        received = peer.store.get_event(event.uuid)
        # MISP-to-MISP sync is lossless: the peer holds the same content.
        assert received.to_dict() == event.to_dict()
        assert event_digest(received) == event_digest(event)

    @given(shareable_events())
    @settings(max_examples=25, deadline=None)
    def test_taxii_transport_round_trip(self, event):
        clock = SimulatedClock()
        local = MispInstance(org="Local")
        local.add_event(event)
        server = TaxiiServer(clock=clock)
        server.create_collection("indicators", "Indicators")
        gateway = SharingGateway(local, permitting_policy("cert"))
        gateway.register(ExternalEntity(name="cert", transport="taxii",
                                        taxii_server=server))
        records = gateway.sync_cycle().records
        assert records[0].ok
        bundle = Bundle([parse_object(obj)
                         for obj in server.get_objects("indicators")
                         if obj["type"] in ("indicator", "vulnerability")])
        reimported = from_stix2_bundle(bundle)
        assert attribute_multiset(reimported, canonical=True) == \
            attribute_multiset(event, canonical=True)

    @given(shareable_events())
    @settings(max_examples=25, deadline=None)
    def test_stix_download_round_trip(self, event):
        cache = RenderCache()
        payload = cache.get_or_render(event, event_digest(event), FORMAT_STIX)
        bundle = Bundle([parse_object(obj) for obj in payload.objects
                         if obj["type"] in ("indicator", "vulnerability")])
        reimported = from_stix2_bundle(bundle)
        assert attribute_multiset(reimported, canonical=True) == \
            attribute_multiset(event, canonical=True)

    @given(shareable_events())
    @settings(max_examples=25, deadline=None)
    def test_misp_json_render_round_trip(self, event):
        cache = RenderCache()
        payload = cache.get_or_render(event, event_digest(event),
                                      FORMAT_MISP_JSON)
        reimported = from_misp_json(payload.text)
        assert reimported.to_dict() == event.to_dict()

    @given(shareable_events())
    @settings(max_examples=25, deadline=None)
    def test_digest_stable_under_rerender(self, event):
        digest = event_digest(event)
        for render_format in (FORMAT_MISP_JSON, FORMAT_STIX):
            first = RenderCache().get_or_render(event, digest, render_format)
            second = RenderCache().get_or_render(event, digest, render_format)
            assert first.text == second.text
        # Rendering never mutates the event: the digest is unchanged.
        assert event_digest(event) == digest

