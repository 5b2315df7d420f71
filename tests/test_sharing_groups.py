"""Tests for MISP sharing groups (distribution level 4)."""

import pytest

from repro.errors import SharingError, ValidationError
from repro.misp import (
    Distribution,
    MispAttribute,
    MispEvent,
    MispInstance,
    SharingGroup,
)
from repro.sharing import ExternalEntity, SharingGateway


def make_group_event(group, info="sensitive intel"):
    event = MispEvent(info=info, distribution=Distribution.SHARING_GROUP,
                      sharing_group_id=group.uuid)
    event.add_attribute(MispAttribute(type="domain", value="secret.example"))
    return event


class TestSharingGroupModel:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SharingGroup(name="", organisations={"a"})
        with pytest.raises(ValidationError):
            SharingGroup(name="g", organisations=set())

    def test_membership(self):
        group = SharingGroup(name="g", organisations={"a", "b"})
        assert group.releasable_to("a")
        assert not group.releasable_to("c")
        group.add_organisation("c")
        assert group.releasable_to("c")

    def test_remove_organisation(self):
        group = SharingGroup(name="g", organisations={"a", "b"})
        group.remove_organisation("b")
        assert not group.releasable_to("b")
        with pytest.raises(SharingError):
            group.remove_organisation("b")
        with pytest.raises(SharingError):
            group.remove_organisation("a")  # cannot empty the group

    def test_roundtrip(self):
        group = SharingGroup(name="g", organisations={"a", "b"})
        revived = SharingGroup.from_dict(group.to_dict())
        assert revived.uuid == group.uuid
        assert revived.organisations == {"a", "b"}

    def test_event_requires_group_id(self):
        with pytest.raises(ValidationError):
            MispEvent(info="x", distribution=Distribution.SHARING_GROUP)

    def test_event_roundtrip_keeps_group_id(self):
        group = SharingGroup(name="g", organisations={"a"})
        event = make_group_event(group)
        revived = MispEvent.from_dict(event.to_dict())
        assert revived.sharing_group_id == group.uuid
        assert revived.distribution == Distribution.SHARING_GROUP


def link(instance, *peers):
    """A sharing gateway on ``instance`` with a ``misp`` entity per peer."""
    gateway = SharingGateway(instance)
    for peer in peers:
        gateway.register(ExternalEntity(name=peer.org, transport="misp",
                                        misp_instance=peer))
    return gateway


class TestSyncSemantics:
    def build(self):
        owner = MispInstance(org="Owner")
        member = MispInstance(org="Member")
        outsider = MispInstance(org="Outsider")
        group = owner.create_sharing_group("ops", ["Owner", "Member"])
        return owner, member, outsider, group

    def share(self, owner, member, outsider, event):
        owner.add_event(event)
        return link(owner, member, outsider).sync_cycle()

    def test_push_reaches_members_only(self):
        owner, member, outsider, group = self.build()
        event = make_group_event(group)
        report = self.share(owner, member, outsider, event)
        assert member.store.has_event(event.uuid)
        assert not outsider.store.has_event(event.uuid)
        assert report.skipped == 1
        assert [record.detail for record in report.records
                if record.entity == "Outsider"] == \
            ["skipped (sharing group excludes destination)"]

    def test_group_distribution_not_downgraded(self):
        owner, member, outsider, group = self.build()
        event = make_group_event(group)
        self.share(owner, member, outsider, event)
        received = member.store.get_event(event.uuid)
        assert received.distribution == Distribution.SHARING_GROUP
        assert received.sharing_group_id == group.uuid

    def test_member_cannot_leak_onward(self):
        owner, member, outsider, group = self.build()
        leak_target = MispInstance(org="Leaky")
        event = make_group_event(group)
        self.share(owner, member, outsider, event)
        # The member syncs onward: the group definition travelled with the
        # share, so the non-member target is still refused.
        link(member, leak_target).sync_cycle()
        assert not leak_target.store.has_event(event.uuid)

    def test_member_can_push_to_other_member(self):
        owner, member, outsider, group = self.build()
        other_member = MispInstance(org="Owner")  # same org as owner
        event = make_group_event(group)
        self.share(owner, member, outsider, event)
        link(member, other_member).sync_cycle()
        assert other_member.store.has_event(event.uuid)

    def test_unknown_group_id_never_shared(self):
        owner = MispInstance(org="Owner")
        peer = MispInstance(org="Peer")
        rogue_group = SharingGroup(name="rogue", organisations={"Peer"})
        event = make_group_event(rogue_group)  # group NOT registered on owner
        owner.add_event(event)
        link(owner, peer).sync_cycle()
        assert not peer.store.has_event(event.uuid)
