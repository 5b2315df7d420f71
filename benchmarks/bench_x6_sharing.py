"""X6: sharing-path comparison — MISP sync vs TAXII vs STIX download.

§III-C2 positions MISP JSON for MISP-to-MISP exchange and STIX 2.0 for
everyone else.  This bench shares the same eIoC batch over all three
transports in one gateway sync cycle and compares payload sizes and
throughput.
"""

import itertools

import pytest

from repro.core import ContextAwareOSINTPlatform, PlatformConfig, is_eioc
from repro.misp import MispInstance
from repro.sharing import ExternalEntity, SharingGateway, TaxiiServer

from conftest import print_table


def build():
    """The platform's first 50 eIoCs, held alone by an instance of its org,
    so that one sync cycle shares exactly that batch."""
    platform = ContextAwareOSINTPlatform.build_default(
        PlatformConfig(seed=51, feed_entries=60))
    platform.run_cycle()
    eiocs = [e for e in platform.misp.store.list_events() if is_eioc(e)][:50]
    source = MispInstance(org=platform.misp.org)
    source.add_events(eiocs, publish_feed=False)
    return source, eiocs


def share_all(source):
    peer = MispInstance(org="Peer")
    taxii = TaxiiServer()
    taxii.create_collection("indicators", "ind")
    gateway = SharingGateway(source)
    gateway.register(ExternalEntity(name="misp", transport="misp",
                                    misp_instance=peer))
    gateway.register(ExternalEntity(name="taxii", transport="taxii",
                                    taxii_server=taxii))
    gateway.register(ExternalEntity(name="stix", transport="stix-download"))
    gateway.sync_cycle()
    return gateway, peer, taxii


def test_x6_transport_comparison():
    source, eiocs = build()
    gateway, peer, taxii = share_all(source)
    per_transport = {}
    for record in gateway.audit_log:
        bucket = per_transport.setdefault(
            record.transport, {"count": 0, "ok": 0, "bytes": 0})
        bucket["count"] += 1
        bucket["ok"] += int(record.ok)
        bucket["bytes"] += record.payload_bytes
    rows = []
    for transport, bucket in sorted(per_transport.items()):
        mean = bucket["bytes"] / max(1, bucket["ok"])
        rows.append(f"{transport:<14} shared={bucket['ok']}/{bucket['count']}  "
                    f"mean payload={mean / 1024:.2f} KiB")
    print_table("X6: sharing transports over the same eIoC batch",
                "transport / outcome / payload", rows)
    assert per_transport["misp"]["ok"] == len(eiocs)
    assert peer.store.event_count() == len(eiocs)
    assert taxii.get_objects("indicators")
    # STIX bundles strip MISP envelope text; both formats stay non-trivial.
    assert per_transport["taxii"]["bytes"] > 0
    assert per_transport["misp"]["bytes"] > 0


def test_x6_peer_received_scores():
    from repro.core import threat_score_of
    source, eiocs = build()
    _gateway, peer, _taxii = share_all(source)
    sample = peer.store.get_event(eiocs[0].uuid)
    assert threat_score_of(sample) is not None


def test_bench_x6_misp_sync(benchmark):
    source, eiocs = build()
    names = itertools.count()

    def sync_batch():
        # A fresh peer under a new entity name starts at watermark 0, so
        # every round shares the whole batch.
        gateway = SharingGateway(source)
        gateway.register(ExternalEntity(
            name=f"peer-{next(names)}", transport="misp",
            misp_instance=MispInstance(org="Peer")))
        return gateway.sync_cycle().shared

    shared = benchmark(sync_batch)
    assert shared == len(eiocs)


def test_bench_x6_stix_export(benchmark):
    source, eiocs = build()

    def export_batch():
        return [source.export_event(e.uuid, "stix2") for e in eiocs]

    bundles = benchmark(export_batch)
    assert len(bundles) == len(eiocs)
