"""Tests for the MISP instance: correlation, feed, sync, client."""

import pytest

from repro.bus import ZmqSubscriber
from repro.errors import SharingError, StorageError
from repro.misp import (
    Distribution,
    MispAttribute,
    MispEvent,
    MispInstance,
    PyMispClient,
    TOPIC_ATTRIBUTE,
    TOPIC_EVENT,
)
from repro.sharing import ExternalEntity, SharingGateway


def make_event(info="event", value="evil.example",
               distribution=Distribution.CONNECTED_COMMUNITIES):
    event = MispEvent(info=info, distribution=distribution)
    event.add_attribute(MispAttribute(type="domain", value=value))
    return event


class TestIngestionAndFeed:
    def test_add_event_publishes_on_zmq(self, misp):
        subscriber = ZmqSubscriber(misp.broker)
        subscriber.subscribe(TOPIC_EVENT)
        event = make_event()
        misp.add_event(event)
        topic, document = subscriber.recv()
        assert topic == TOPIC_EVENT
        assert document["Event"]["uuid"] == event.uuid

    def test_add_event_without_feed(self, misp):
        subscriber = ZmqSubscriber(misp.broker)
        subscriber.subscribe("")
        misp.add_event(make_event(), publish_feed=False)
        assert subscriber.recv() is None

    def test_add_attribute_appends_and_publishes(self, misp):
        event = make_event()
        misp.add_event(event)
        subscriber = ZmqSubscriber(misp.broker)
        subscriber.subscribe(TOPIC_ATTRIBUTE)
        misp.add_attribute(event.uuid, MispAttribute(type="ip-src", value="198.51.100.2"))
        topic, document = subscriber.recv()
        assert document["event_uuid"] == event.uuid
        stored = misp.store.get_event(event.uuid)
        assert len(stored.attributes) == 2

    def test_add_attribute_to_missing_event(self, misp):
        with pytest.raises(StorageError):
            misp.add_attribute("missing", MispAttribute(type="domain", value="x"))

    def test_tag_event(self, misp):
        event = make_event()
        misp.add_event(event)
        misp.tag_event(event.uuid, "tlp:green")
        assert misp.store.get_event(event.uuid).has_tag("tlp:green")


class TestCorrelation:
    def test_equal_values_correlate_across_events(self, misp):
        first = make_event(info="first")
        second = make_event(info="second")
        misp.add_event(first)
        misp.add_event(second)
        correlations = misp.correlations(first.uuid)
        assert len(correlations) == 1
        assert correlations[0]["value"] == "evil.example"

    def test_non_correlatable_attribute_does_not_link(self, misp):
        first = MispEvent(info="a")
        first.add_attribute(MispAttribute(type="text", value="same", to_ids=False))
        second = MispEvent(info="b")
        second.add_attribute(MispAttribute(type="text", value="same", to_ids=False))
        misp.add_event(first)
        misp.add_event(second)
        assert misp.correlations(first.uuid) == []

    def test_re_adding_same_event_does_not_self_correlate(self, misp):
        event = make_event()
        misp.add_event(event)
        misp.add_event(event)
        assert misp.correlations(event.uuid) == []


def link(instance, *peers):
    """A sharing gateway on ``instance`` with a ``misp`` entity per peer."""
    gateway = SharingGateway(instance)
    for peer in peers:
        gateway.register(ExternalEntity(name=peer.org, transport="misp",
                                        misp_instance=peer))
    return gateway


class TestSync:
    def test_publish_pushes_to_peers(self, misp):
        peer = MispInstance(org="Peer")
        # Two events on one value: the peer stores the edge between them.
        first = make_event(info="first",
                           distribution=Distribution.ALL_COMMUNITIES)
        second = make_event(info="second",
                            distribution=Distribution.ALL_COMMUNITIES)
        misp.add_events([first, second])
        # Publishing marks the event; the gateway's sync cycle delivers it.
        assert misp.publish_event(first.uuid).published
        assert not peer.store.has_event(first.uuid)
        report = link(misp, peer).sync_cycle()
        assert peer.store.has_event(first.uuid)
        assert report.shared == 2
        assert peer.store.correlation_count() == \
            misp.store.correlation_count() == 1

    def test_distribution_blocks_sharing(self, misp):
        peer = MispInstance(org="Peer")
        event = make_event(distribution=Distribution.ORGANISATION_ONLY)
        misp.add_event(event)
        report = link(misp, peer).sync_cycle()
        assert not peer.store.has_event(event.uuid)
        assert report.skipped == 1
        assert report.records[0].detail == \
            "skipped (distribution level withheld)"

    def test_distribution_downgrade_on_hop(self, misp):
        peer = MispInstance(org="Peer")
        far = MispInstance(org="Far")
        event = make_event(distribution=Distribution.CONNECTED_COMMUNITIES)
        misp.add_event(event)
        link(misp, peer).sync_cycle()
        received = peer.store.get_event(event.uuid)
        assert received.distribution == Distribution.COMMUNITY_ONLY
        # Syncing onward from the peer must NOT propagate further.
        link(peer, far).sync_cycle()
        assert not far.store.has_event(event.uuid)

    def test_duplicate_push_skipped(self, misp):
        # The event reaches the peer over two routes: straight from the
        # origin, then again through a relay.  The second copy is skipped.
        peer = MispInstance(org="Peer")
        relay = MispInstance(org="Relay")
        event = make_event(distribution=Distribution.ALL_COMMUNITIES)
        misp.add_event(event)
        assert link(misp, peer, relay).sync_cycle().shared == 2
        report = link(relay, peer).sync_cycle()
        assert (report.shared, report.skipped) == (0, 1)
        assert report.records[0].detail == "skipped (duplicate)"
        assert peer.store.get_event(event.uuid).info == event.info

    def test_duplicate_push_costs_one_receiver_statement(self, misp):
        peer = MispInstance(org="Peer")
        event = make_event(distribution=Distribution.ALL_COMMUNITIES)
        misp.add_event(event)
        peer.receive_event(MispEvent.from_dict(event.to_dict()))
        before = peer.store.sql_statements, peer.store.payloads_deserialized
        report = link(misp, peer).sync_cycle()
        # The held copy's row answers: one statement, and no decode.
        assert (peer.store.sql_statements - before[0],
                peer.store.payloads_deserialized - before[1]) == (1, 0)
        assert report.skipped == 1
        assert report.records[0].detail == "skipped (duplicate)"

    def test_no_copy_goes_back_to_the_sender(self, misp, monkeypatch):
        # Each instance holds a misp entity for the other, named apart
        # from its org.  The receiver's next sync plans the three events
        # it got for their sender as skipped: nothing is rendered or sent.
        peer = MispInstance(org="Peer")
        gateway = SharingGateway(misp)
        gateway.register(ExternalEntity(name="to-peer", transport="misp",
                                        misp_instance=peer))
        back = SharingGateway(peer)
        back.register(ExternalEntity(name="to-origin", transport="misp",
                                     misp_instance=misp))
        # A download consumer named after the sending org holds no copy.
        back.register(ExternalEntity(name=misp.org,
                                     transport="stix-download"))
        events = [make_event(info=f"event {index}",
                             value=f"evil{index}.example",
                             distribution=Distribution.ALL_COMMUNITIES)
                  for index in range(3)]
        misp.add_events(events)
        assert gateway.sync_cycle().shared == 3
        received = []
        receive = misp.receive_message
        monkeypatch.setattr(misp, "receive_message",
                            lambda message, **kwargs: received.append(message)
                            or receive(message, **kwargs))
        report = back.sync_cycle()
        assert [(record.entity, record.ok, record.detail)
                for record in report.records] == \
            [("to-origin", False, "skipped (duplicate)")] * 3 \
            + [(misp.org, True, "")] * 3
        assert (report.skipped, received) == (3, [])
        # Only the download consumer's three STIX payloads are rendered.
        assert report.renders == 3
        digests = peer.store.event_digests([event.uuid for event in events])
        assert peer.store.get_sync_digests(
            "to-origin", [event.uuid for event in events]) == {
            uuid: f"skipped:{digest}" for uuid, (_ts, digest)
            in digests.items()}

    def test_cannot_peer_with_self(self, misp):
        with pytest.raises(SharingError):
            link(misp, misp)


class TestClient:
    def test_client_surface(self, misp):
        client = PyMispClient(misp)
        event = make_event(info="via client")
        client.add_event(event)
        assert client.event_exists(event.uuid)
        assert client.get_event(event.uuid).info == "via client"
        client.tag(event.uuid, "tlp:white")
        client.add_attribute(event.uuid, MispAttribute(type="url", value="http://x/p"))
        hits = client.search(value="evil.example")
        assert [e.uuid for e in hits] == [event.uuid]
        assert client.search(eventinfo="via client")
        assert client.search(type_attribute="url")
        assert client.search(tag="tlp:white")
        exported = client.export(event.uuid, "csv")
        assert "http://x/p" in exported

    def test_get_missing_event_raises(self, misp):
        with pytest.raises(StorageError):
            PyMispClient(misp).get_event("missing")

    def test_unknown_export_format(self, misp):
        client = PyMispClient(misp)
        event = make_event()
        client.add_event(event)
        with pytest.raises(SharingError):
            client.export(event.uuid, "pdf")
