"""Tests for the platform-level wiring of TLP, sightings and decay."""

import pytest

from repro.core import ContextAwareOSINTPlatform, PlatformConfig, is_cioc, is_eioc
from repro.infra import INFRASTRUCTURE_TAG
from repro.sharing import (
    ExternalEntity,
    SharingGateway,
    SharingPolicy,
    Tlp,
    tlp_of,
)
from repro.misp import MispInstance


@pytest.fixture(scope="module")
def platform():
    platform = ContextAwareOSINTPlatform.build_default(
        PlatformConfig(seed=23, feed_entries=30))
    platform.run_cycle()
    return platform


class TestTlpDefaults:
    def test_ciocs_are_green(self, platform):
        ciocs = [e for e in platform.misp.store.list_events() if is_cioc(e)]
        assert ciocs
        assert all(tlp_of(event) == Tlp.GREEN for event in ciocs)

    def test_infrastructure_events_are_red(self, platform):
        infra = [e for e in platform.misp.store.list_events()
                 if e.has_tag(INFRASTRUCTURE_TAG)]
        assert infra
        assert all(tlp_of(event) == Tlp.RED for event in infra)

    def test_policy_gateway_shares_green_blocks_red(self, platform):
        peer = MispInstance(org="Peer")
        gateway = SharingGateway(platform.misp, policy=SharingPolicy())
        gateway.register(ExternalEntity(name="peer", transport="misp",
                                        misp_instance=peer))
        shared = refused = 0
        for record in gateway.sync_cycle().records:
            if record.ok:
                shared += 1
            elif "TLP policy" in record.detail:
                refused += 1
        assert shared > 0
        assert refused > 0  # the red infrastructure events
        for event in peer.store.list_events():
            assert tlp_of(event) != Tlp.RED


class TestPlatformComponents:
    def test_sighting_processor_wired(self, platform):
        eiocs = [e for e in platform.misp.store.list_events() if is_eioc(e)]
        target = eiocs[0]
        value = next(a.value for a in target.all_attributes() if a.correlatable)
        outcome = platform.sightings.report(target.uuid, value, "Node 1")
        assert outcome.new_score >= (outcome.old_score or 0.0)

    def test_decay_engine_wired(self, platform):
        live, expired = platform.decay.sweep(platform.misp.store)
        assert live  # fresh eIoCs are all live
        assert all(0.0 <= d.current_score <= d.base_score for d in live)
