"""The pluggable message fabric federation nodes transmit over.

A :class:`Backbone` carries typed messages (``event``, ``sighting``,
``digest-offer``) between connected organisations and accounts for every
directed link's traffic (``caop_federation_*`` metrics plus
:class:`LinkStats`).  Transports plug in by overriding :meth:`_check_link`:

- :class:`InMemoryBackbone` — perfect delivery (the unit-test fabric);
- :class:`SimulatedNetworkBackbone` — consults a
  :class:`~repro.resilience.FaultInjector`'s ``link`` seam, so scripted
  fault plans and imperative ``partition``/``heal``/``lossy`` calls drop
  messages deterministically.

Delivery is synchronous: ``transmit`` invokes the destination's handler and
returns its response dict, raising :class:`~repro.errors.SharingError` when
the link is down or the handler fails (its store faulted) — the same
retryable contract the sharing gateway's other transports follow, so
per-link circuit breakers, retry backoff and dead-letter quarantine all
compose unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ReproError, SharingError
from ..obs import MetricsRegistry, NULL_REGISTRY

#: Message kinds a backbone carries.
KIND_EVENT = "event"
KIND_SIGHTING = "sighting"
KIND_DIGEST_OFFER = "digest-offer"

#: A node's message handler: (src_org, kind, payload) -> response dict.
Handler = Callable[[str, str, Dict[str, Any]], Dict[str, Any]]


@dataclass
class LinkStats:
    """Per-directed-link transport accounting."""

    messages: int = 0
    bytes: int = 0
    failures: int = 0


class Backbone:
    """Base transport: registration, delivery, accounting, link checks."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._handlers: "Dict[str, Handler]" = {}
        #: (src, dst) -> LinkStats for every link that ever transmitted.
        self.stats: Dict[Tuple[str, str], LinkStats] = {}
        registry = metrics or NULL_REGISTRY
        self._m_messages = registry.counter(
            "caop_federation_messages_total",
            "Messages delivered over federation links, by src/dst/kind")
        self._m_bytes = registry.counter(
            "caop_federation_bytes_total",
            "Payload bytes delivered over federation links, by src/dst")
        self._m_failures = registry.counter(
            "caop_federation_link_failures_total",
            "Transmit attempts dropped by a down federation link")
        self._m_link_up = registry.gauge(
            "caop_federation_link_up",
            "Last observed state of a federation link (1 up, 0 down)")

    def connect(self, org: str, handler: Handler) -> None:
        """Attach one organisation's message handler."""
        if org in self._handlers:
            raise SharingError(f"org {org!r} already connected to backbone")
        self._handlers[org] = handler

    @property
    def orgs(self) -> List[str]:
        """Connected organisations in connection order."""
        return list(self._handlers)

    def _check_link(self, src: str, dst: str) -> None:
        """Raise :class:`SharingError` when the link is down (transport hook)."""

    def transmit(self, src: str, dst: str, kind: str,
                 payload: Dict[str, Any]) -> Dict[str, Any]:
        """Deliver one message; returns the destination handler's response.

        Raises :class:`SharingError` (retryable) when the destination is
        unknown, the link is down, or the handler raises any other
        :class:`~repro.errors.ReproError`.  Link failures are counted
        before the raise so chaos runs can assert on injected drop totals;
        a failed handler's message is not counted as delivered.
        """
        handler = self._handlers.get(dst)
        if handler is None:
            raise SharingError(f"no such federation org {dst!r}")
        size = len(json.dumps(payload, sort_keys=True, default=str))
        stats = self.stats.setdefault((src, dst), LinkStats())
        try:
            self._check_link(src, dst)
        except SharingError:
            stats.failures += 1
            self._m_failures.inc(src=src, dst=dst)
            self._m_link_up.set(0, src=src, dst=dst)
            raise
        try:
            response = handler(src, kind, payload) or {}
        except SharingError:
            raise
        except ReproError as exc:
            raise SharingError(f"delivery to {dst!r} failed: {exc}") from exc
        stats.messages += 1
        stats.bytes += size
        self._m_messages.inc(src=src, dst=dst, kind=kind)
        self._m_bytes.inc(size, src=src, dst=dst)
        self._m_link_up.set(1, src=src, dst=dst)
        return response

    def bytes_sent(self, org: str) -> int:
        """Total payload bytes this org pushed onto the backbone."""
        return sum(stats.bytes for (src, _dst), stats
                   in self.stats.items() if src == org)

    def total_bytes(self) -> int:
        """Payload bytes delivered across every link."""
        return sum(stats.bytes for stats in self.stats.values())


class InMemoryBackbone(Backbone):
    """Perfect in-process delivery — every link is always up."""


class SimulatedNetworkBackbone(Backbone):
    """A lossy, partitionable network driven by the chaos harness.

    Every transmit consults the fault injector's ``link`` seam
    (:meth:`~repro.resilience.FaultInjector.check_link`), so scripted
    :class:`~repro.resilience.FaultPlan` rules over ``src->dst`` keys and
    imperative ``partition``/``heal``/``lossy`` calls decide which
    messages are dropped — deterministically.
    """

    def __init__(self, fault_injector,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(metrics=metrics)
        self.fault_injector = fault_injector

    def _check_link(self, src: str, dst: str) -> None:
        self.fault_injector.check_link(src, dst)
