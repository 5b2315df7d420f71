"""Tests for TLP markings and the sharing policy."""

import pytest

from repro.errors import SharingError, ValidationError
from repro.misp import Distribution, MispAttribute, MispEvent, MispInstance
from repro.sharing import (
    DEFAULT_TLP,
    ExternalEntity,
    SharingGateway,
    SharingPolicy,
    Tlp,
    mark_tlp,
    tlp_of,
)


def make_event(tlp=None):
    event = MispEvent(info="intel", distribution=Distribution.ALL_COMMUNITIES)
    event.add_attribute(MispAttribute(type="domain", value="evil.example"))
    if tlp is not None:
        mark_tlp(event, tlp)
    return event


class TestTlpMarkings:
    def test_tag_roundtrip(self):
        assert Tlp.tag_for(Tlp.AMBER) == "tlp:amber"
        assert Tlp.from_tag("tlp:amber") == Tlp.AMBER
        assert Tlp.from_tag("tlp:AMBER") == Tlp.AMBER
        assert Tlp.from_tag("caop:foo") is None
        assert Tlp.from_tag("tlp:rainbow") is None

    def test_unknown_level_rejected(self):
        with pytest.raises(ValidationError):
            Tlp.tag_for("purple")
        with pytest.raises(ValidationError):
            mark_tlp(make_event(), "purple")

    def test_unmarked_event_defaults_to_amber(self):
        assert tlp_of(make_event()) == DEFAULT_TLP == Tlp.AMBER

    def test_most_restrictive_tag_wins(self):
        event = make_event()
        event.add_tag("tlp:white")
        event.add_tag("tlp:red")
        assert tlp_of(event) == Tlp.RED

    def test_mark_tlp_replaces_previous_marking(self):
        event = make_event(Tlp.RED)
        mark_tlp(event, Tlp.GREEN)
        assert tlp_of(event) == Tlp.GREEN
        tlp_tags = [t.name for t in event.tags if t.name.startswith("tlp:")]
        assert tlp_tags == ["tlp:green"]

    def test_at_most_ordering(self):
        assert Tlp.at_most(Tlp.WHITE, Tlp.GREEN)
        assert Tlp.at_most(Tlp.GREEN, Tlp.GREEN)
        assert not Tlp.at_most(Tlp.AMBER, Tlp.GREEN)
        assert not Tlp.at_most(Tlp.RED, Tlp.WHITE) is True or True


class TestSharingPolicy:
    def test_red_never_leaves(self):
        policy = SharingPolicy(default_clearance=Tlp.RED)
        assert not policy.allows(make_event(Tlp.RED), "anyone")
        assert policy.refusals == 1

    def test_default_clearance_green(self):
        policy = SharingPolicy()
        assert policy.allows(make_event(Tlp.GREEN), "partner")
        assert policy.allows(make_event(Tlp.WHITE), "partner")
        assert not policy.allows(make_event(Tlp.AMBER), "partner")

    def test_amber_clearance(self):
        policy = SharingPolicy()
        policy.set_clearance("trusted-cert", Tlp.AMBER)
        assert policy.allows(make_event(Tlp.AMBER), "trusted-cert")
        assert not policy.allows(make_event(Tlp.AMBER), "random")

    def test_check_raises(self):
        policy = SharingPolicy()
        with pytest.raises(SharingError):
            policy.check(make_event(Tlp.AMBER), "partner")
        policy.check(make_event(Tlp.WHITE), "partner")  # no raise

    def test_unknown_levels_rejected(self):
        with pytest.raises(ValidationError):
            SharingPolicy(default_clearance="purple")
        policy = SharingPolicy()
        with pytest.raises(ValidationError):
            policy.set_clearance("x", "purple")


class TestGatewayIntegration:
    def build(self):
        local = MispInstance(org="Local")
        peer = MispInstance(org="Peer")
        policy = SharingPolicy()
        policy.set_clearance("amber-partner", Tlp.AMBER)
        gateway = SharingGateway(local, policy=policy)
        gateway.register(ExternalEntity(name="amber-partner", transport="misp",
                                        misp_instance=peer))
        gateway.register(ExternalEntity(name="green-partner",
                                        transport="stix-download"))
        return local, peer, gateway

    def test_amber_event_only_reaches_cleared_entity(self):
        local, peer, gateway = self.build()
        event = make_event(Tlp.AMBER)
        local.add_event(event)
        records = {r.entity: r for r in gateway.sync_cycle().records}
        assert records["amber-partner"].ok
        assert not records["green-partner"].ok
        assert "TLP policy" in records["green-partner"].detail
        assert peer.store.has_event(event.uuid)

    def test_red_event_reaches_nobody(self):
        local, peer, gateway = self.build()
        event = make_event(Tlp.RED)
        local.add_event(event)
        records = gateway.sync_cycle().records
        assert all(not r.ok for r in records)
        assert not peer.store.has_event(event.uuid)

    def test_white_event_reaches_everybody(self):
        local, peer, gateway = self.build()
        event = make_event(Tlp.WHITE)
        local.add_event(event)
        records = gateway.sync_cycle().records
        assert all(r.ok for r in records)

    def test_gateway_without_policy_is_unrestricted(self):
        local = MispInstance(org="Local")
        gateway = SharingGateway(local)
        gateway.register(ExternalEntity(name="x", transport="stix-download"))
        event = make_event(Tlp.RED)
        local.add_event(event)
        assert gateway.sync_cycle().records[0].ok


class TestDefaultMarking:
    """Unmarked events must fall back to a *configured* default level —
    never silently shared as if unrestricted (regression: the backbone
    boundary used to inherit whatever the module default implied)."""

    def test_marking_of_uses_configured_fallback(self):
        assert SharingPolicy().marking_of(make_event()) == DEFAULT_TLP
        strict = SharingPolicy(default_marking=Tlp.RED)
        assert strict.marking_of(make_event()) == Tlp.RED
        # Tagged events keep their own (most restrictive) marking.
        assert strict.marking_of(make_event(Tlp.GREEN)) == Tlp.GREEN

    def test_red_default_marking_keeps_unmarked_events_home(self):
        policy = SharingPolicy(default_clearance=Tlp.RED,
                               default_marking=Tlp.RED)
        assert not policy.allows(make_event(), "fully-cleared-partner")
        assert policy.refusals == 1

    def test_white_default_marking_releases_unmarked_events(self):
        policy = SharingPolicy(default_marking=Tlp.WHITE)
        assert policy.allows(make_event(), "partner")

    def test_unknown_default_marking_rejected(self):
        with pytest.raises(ValidationError):
            SharingPolicy(default_marking="purple")

    def test_check_reports_effective_marking(self):
        policy = SharingPolicy(default_clearance=Tlp.WHITE,
                               default_marking=Tlp.AMBER)
        with pytest.raises(SharingError) as exc:
            policy.check(make_event(), "strict-partner")
        assert "amber-marked" in str(exc.value)

    def test_backbone_entity_attaches_default_policy(self):
        # A policy-less gateway is unrestricted for legacy transports, but
        # registering a *backbone* entity is a federation trust boundary:
        # a default policy is attached so unmarked events hit the amber
        # fallback instead of flowing out unchecked.
        from repro.federation import InMemoryBackbone

        local = MispInstance(org="Local")
        backbone = InMemoryBackbone()
        received = []
        backbone.connect("peer", lambda *args: received.append(args) or
                         {"accepted": True})
        gateway = SharingGateway(local)
        gateway.register(ExternalEntity(name="peer", transport="backbone",
                                        backbone=backbone))
        unmarked = make_event()
        white = make_event(Tlp.WHITE)
        local.add_event(unmarked)
        local.add_event(white)
        records = {r.event_uuid: r for r in gateway.sync_cycle().records}
        assert not records[unmarked.uuid].ok
        assert "TLP policy" in records[unmarked.uuid].detail
        assert records[white.uuid].ok
        assert len(received) == 1
