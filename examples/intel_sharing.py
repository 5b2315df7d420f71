#!/usr/bin/env python3
"""Information-sharing walkthrough: MISP sync, TAXII, STIX 2.0, SIEM.

Demonstrates the Output Module's external-entity paths (§III-C2, §IV-A):

1. the platform collects and enriches OSINT into eIoCs;
2. one sync cycle of the sharing gateway shares the eIoCs with a partner
   MISP instance (MISP JSON sync with distribution-level downgrade), a
   CERT's TAXII collection (STIX 2.0 bundles) and a legacy consumer
   (STIX 2.0 download), while its TLP policy keeps red internal
   telemetry home;
3. a SIEM consumes the eIoCs as correlation rules and replays labelled
   telemetry, reporting detection / false-positive rates (§VI).

Run with::

    python examples/intel_sharing.py
"""

from repro import ContextAwareOSINTPlatform, PlatformConfig
from repro.core import is_eioc, threat_score_of
from repro.feeds import IndicatorPool
from repro.misp import Distribution, MispInstance
from repro.sharing import (
    ExternalEntity,
    SharingGateway,
    SharingPolicy,
    SiemConnector,
    TaxiiClient,
    TaxiiServer,
)
from repro.workloads import siem_telemetry


def main() -> None:
    platform = ContextAwareOSINTPlatform.build_default(
        PlatformConfig(seed=21, feed_entries=80))
    platform.run_cycle()

    eiocs = [e for e in platform.misp.store.list_events() if is_eioc(e)]
    print(f"platform produced {len(eiocs)} eIoCs")

    # -- external entities -------------------------------------------------
    partner = MispInstance(org="PartnerCERT")
    taxii = TaxiiServer(title="National CERT TAXII")
    taxii.create_collection("indicators", "Shared indicators")

    gateway = SharingGateway(platform.misp, policy=SharingPolicy())
    gateway.register(ExternalEntity(name="partner-misp", transport="misp",
                                    misp_instance=partner))
    gateway.register(ExternalEntity(name="cert-taxii", transport="taxii",
                                    taxii_server=taxii))
    gateway.register(ExternalEntity(name="legacy-siem", transport="stix-download"))

    # Events default to connected-communities: shareable one hop.
    gateway.sync_cycle()
    stats = gateway.stats()
    print(f"shared {stats['shared']} deliveries "
          f"({stats['bytes'] / 1024:.1f} KiB total payload), "
          f"{stats['failed']} refused")
    print(f"partner MISP now holds {partner.store.event_count()} events; "
          f"sample distribution after hop: "
          f"{partner.store.list_events()[0].distribution} "
          f"(community-only = {Distribution.COMMUNITY_ONLY})")

    # A TAXII consumer polls the collection incrementally.
    consumer = TaxiiClient(taxii)
    objects = consumer.poll("indicators")
    print(f"TAXII consumer pulled {len(objects)} STIX objects "
          f"({sum(1 for o in objects if o['type'] == 'indicator')} indicators)")

    # -- SIEM integration ------------------------------------------------------
    siem = SiemConnector(min_threat_score=1.5)
    for event in eiocs:
        score = threat_score_of(event)
        if score is not None:
            siem.add_rules_from_eioc(event, score)
    print(f"\nSIEM created {siem.rule_count()} correlation rules "
          f"({siem.rejected_low_score} eIoCs below the score threshold)")

    # Replay labelled telemetry: the malicious IPs are drawn from the same
    # pool the feeds sample, the benign ones from a private range no feed
    # ever lists.
    pool = IndicatorPool(seed=21)
    malicious = pool.ipv4[:120]
    benign = [f"172.16.0.{i}" for i in range(1, 100)]
    report = siem.replay(siem_telemetry(malicious, benign))
    print(f"detection rate:       {report.detection_rate:.1%}")
    print(f"false positive rate:  {report.false_positive_rate:.1%}")
    print(f"precision:            {report.precision:.1%}")
    print(f"F1:                   {report.f1:.3f}")


if __name__ == "__main__":
    main()
