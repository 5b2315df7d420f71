"""Dashboard server: the socket.io endpoint the platform pushes rIoCs to.

"this related information is extracted and used to build the rIoC, which
will be sent directly to the Dashboard through specific web sockets,
developed relying on the socket.io library" (§IV-A).
"""

from __future__ import annotations

from typing import Any, Optional

from ..bus import MessageBroker, SocketIOClient, SocketIOServer
from ..clock import parse_timestamp
from ..core.ioc import ReducedIoc
from ..infra import Alarm, Inventory
from ..obs import MetricsRegistry, NULL_REGISTRY
from .fanout import FanoutClient, FanoutHub, FlushReport
from .state import DashboardState

EVENT_RIOC = "rioc"
EVENT_ALARM = "alarm"
ROOM_ANALYSTS = "analysts"

#: Fan-out rooms the server materializes (snapshot+delta protocol).
ROOM_RIOCS = "riocs"
ROOM_ALARMS = "alarms"
ROOM_BADGES = "badges"
ROOM_KEYWORDS = "keywords"
ROOM_GRAPH = "graph"


class DashboardServer:
    """Owns the dashboard state and its socket.io transport."""

    def __init__(self, inventory: Inventory,
                 broker: Optional[MessageBroker] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.state = DashboardState(inventory)
        self.sio = SocketIOServer(broker=broker)
        self.metrics = metrics or NULL_REGISTRY
        #: Snapshot+delta hub serving the massive-subscriber rooms; rides
        #: the same broker as the socket.io mirror so its drop accounting
        #: lands in the shared BrokerStats ledger.
        self.fanout = FanoutHub(broker=self.sio.broker, metrics=metrics)
        #: Latest :class:`~repro.resilience.PlatformHealth` snapshot the
        #: platform pushed (None until the first cycle completes).
        self.health: Optional[Any] = None
        self._m_pushes = self.metrics.counter(
            "caop_dashboard_pushes_total",
            "socket.io emits to analyst clients, labelled by event kind")
        # The dashboard web app itself is one socket.io client.
        self._app_client = self.sio.connect()
        self.sio.enter_room(self._app_client, ROOM_ANALYSTS)
        self._app_client.on(EVENT_RIOC, self._on_rioc)
        self._app_client.on(EVENT_ALARM, self._on_alarm)

    # -- push API used by the platform ------------------------------------------

    def push_rioc(self, rioc: ReducedIoc) -> int:
        """Emit an rIoC to every connected analyst client."""
        delivered = self.sio.emit(EVENT_RIOC, rioc.to_dict(), room=ROOM_ANALYSTS)
        self._m_pushes.inc(delivered, event=EVENT_RIOC)
        # Stage the same rIoC into the fan-out room: subscribers receive it
        # as one coalesced delta on the next flush, not one emit per client.
        self.fanout.publish(ROOM_RIOCS, rioc.eioc_uuid, rioc.to_dict())
        return delivered

    def push_alarm(self, alarm: Alarm) -> int:
        """Emit an alarm to every analyst client."""
        payload = {
            "node": alarm.node,
            "severity": alarm.severity,
            "description": alarm.description,
            "ip_src": alarm.ip_src,
            "ip_dst": alarm.ip_dst,
            "signature": alarm.signature,
            "application": alarm.application,
            "count": alarm.count,
            "timestamp": alarm.timestamp.isoformat() if alarm.timestamp else None,
        }
        delivered = self.sio.emit(EVENT_ALARM, payload, room=ROOM_ANALYSTS)
        self._m_pushes.inc(delivered, event=EVENT_ALARM)
        # Last alarm per node, coalesced: a node alarming 50 times between
        # flushes costs one delta entry.
        self.fanout.publish(ROOM_ALARMS, alarm.node, payload)
        return delivered

    def connect_client(self) -> SocketIOClient:
        """Attach an extra analyst browser session."""
        client = self.sio.connect()
        self.sio.enter_room(client, ROOM_ANALYSTS)
        return client

    def update_health(self, health: Any) -> None:
        """Record the platform's latest component-health snapshot."""
        self.health = health

    # -- snapshot+delta fan-out ---------------------------------------------------

    def sync_view_rooms(self, graph_view: Optional[Any] = None,
                        keyword_view: Optional[Any] = None) -> int:
        """Diff the materialized views and badges into their fan-out rooms.

        Each room is synced against a full mapping with pruning, so only
        keys that actually changed since the last sync become delta
        entries — an unchanged view stages nothing.  Returns the number of
        staged keys across all rooms.
        """
        staged = self.fanout.sync_map(ROOM_BADGES, self.state.badge_map())
        if keyword_view is not None:
            staged += self.fanout.sync_map(
                ROOM_KEYWORDS,
                {category: count for category, count
                 in keyword_view.frequencies().items()})
        if graph_view is not None:
            staged += self.fanout.sync_map(ROOM_GRAPH, graph_view.summary())
        return staged

    def flush_fanout(self) -> FlushReport:
        """Flush every dirty fan-out room (one delta render per room)."""
        return self.fanout.flush()

    def attach_subscribers(self, count: int,
                           room: str = ROOM_RIOCS) -> list:
        """Attach ``count`` protocol-driving clients to a fan-out room."""
        return [FanoutClient(self.fanout, room) for _ in range(count)]

    # -- telemetry view -----------------------------------------------------------

    def render_metrics(self, accept: str = "text/plain") -> str:
        """The ``/metrics`` surface: platform telemetry in the asked format.

        ``accept`` follows content negotiation: any media type mentioning
        ``json`` returns the JSON snapshot; everything else (the scraper
        default) returns Prometheus-style text exposition.
        """
        if "json" in accept.lower():
            return self.metrics.render_json(indent=2)
        return self.metrics.render_prometheus()

    # -- event handlers keeping the state current --------------------------------

    def _on_rioc(self, data: Any) -> None:
        self.state.ingest_rioc_dict(data)

    def _on_alarm(self, data: Any) -> None:
        # parse_timestamp tolerates naive and Z-suffixed strings alike and
        # always yields an aware UTC datetime.
        timestamp = None
        if data.get("timestamp"):
            timestamp = parse_timestamp(data["timestamp"])
        self.state.ingest_alarm(Alarm(
            node=data["node"],
            severity=data["severity"],
            description=data.get("description", ""),
            ip_src=data.get("ip_src", ""),
            ip_dst=data.get("ip_dst", ""),
            signature=data.get("signature", ""),
            application=data.get("application", ""),
            count=int(data.get("count", 1)),
            timestamp=timestamp,
        ))
