"""Partition-tolerant N-org federation over a pluggable backbone.

Generalizes the point-to-point MISP sync into hub-and-spoke and mesh
topologies over N organisations, Threatbus-style:

- :class:`Topology` + :func:`mesh` / :func:`hub_and_spoke` / :func:`chain`
  — directed link graphs with deterministic BFS routing;
- :class:`Backbone` — the pluggable message fabric
  (:class:`InMemoryBackbone` for perfect delivery,
  :class:`SimulatedNetworkBackbone` for chaos-driven lossy/partitionable
  links via the fault injector's ``link`` seam);
- :class:`FederationNode` — one org's full stack (MISP, delta-sync
  gateway with per-link breakers/retry/DLQ, heuristics, sightings,
  provenance) attached to the backbone;
- :class:`Federation` — wires nodes over a topology and drives
  deterministic rounds, dead-letter replay, and the **anti-entropy**
  reconciliation stage (:mod:`repro.federation.antientropy`) that repairs
  divergence after partitions heal;
- :func:`store_fingerprint` — the canonical full-state fingerprint
  (events, correlations, sync ledger, provenance lineage) convergence is
  measured against.

See ``docs/FEDERATION.md`` for the protocol and guarantees.
"""

from ..misp.instance import prefers_incoming
from .antientropy import build_offer, handle_offer, reconcile
from .backbone import (
    Backbone,
    InMemoryBackbone,
    KIND_DIGEST_OFFER,
    KIND_EVENT,
    KIND_SIGHTING,
    LinkStats,
    SimulatedNetworkBackbone,
)
from .fingerprint import event_blob, store_fingerprint, store_state
from .node import Federation, FederationNode
from .topology import Topology, chain, hub_and_spoke, mesh

__all__ = [
    "Backbone",
    "Federation",
    "FederationNode",
    "InMemoryBackbone",
    "KIND_DIGEST_OFFER",
    "KIND_EVENT",
    "KIND_SIGHTING",
    "LinkStats",
    "SimulatedNetworkBackbone",
    "Topology",
    "build_offer",
    "chain",
    "event_blob",
    "handle_offer",
    "hub_and_spoke",
    "mesh",
    "prefers_incoming",
    "reconcile",
    "store_fingerprint",
    "store_state",
]
