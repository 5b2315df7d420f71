"""zeroMQ-flavoured PUB/SUB sockets layered on :class:`MessageBroker`.

MISP's real-time feed is a zeroMQ PUB socket publishing JSON documents under
prefix topics such as ``misp_json`` and ``misp_json_attribute``.  This module
reproduces that *prefix-matching* subscription contract (zeroMQ SUB sockets
match on topic prefixes, not globs) so the heuristic component's consumption
code reads exactly like PyMISP/zmq client code.

A frame is the JSON text itself.  A publisher that already holds the text
(the MISP instance publishes the blob it just stored) sends it as is with
:meth:`ZmqPublisher.send_text`, and a consumer that wants the text (the
heuristic component digests it) drains it undecoded with
:meth:`ZmqSubscriber.drain_text`.
"""

from __future__ import annotations

import json
from typing import Any, Iterator, List, Optional, Tuple

from .broker import MessageBroker, Message, Subscription


class ZmqPublisher:
    """PUB-socket façade: ``send(topic, document)`` JSON-encodes the payload."""

    def __init__(self, broker: MessageBroker, endpoint: str = "tcp://*:50000") -> None:
        self._broker = broker
        self.endpoint = endpoint
        self.sent = 0

    def send(self, topic: str, document: Any) -> None:
        """Publish a JSON-serializable document under ``topic``."""
        self.send_text(topic, json.dumps(document, sort_keys=True, default=str))

    def send_text(self, topic: str, text: str) -> None:
        """Publish already-encoded JSON text under ``topic``, as is."""
        self._broker.publish(f"zmq.{topic}", text)
        self.sent += 1


class ZmqSubscriber:
    """SUB-socket façade with zeroMQ prefix-subscription semantics."""

    def __init__(self, broker: MessageBroker, endpoint: str = "tcp://localhost:50000") -> None:
        self._broker = broker
        self.endpoint = endpoint
        self._subscriptions: List[Tuple[str, Subscription]] = []

    def subscribe(self, prefix: str = "") -> None:
        """Subscribe to every topic starting with ``prefix`` (zmq semantics)."""
        subscription = self._broker.subscribe(f"zmq.{prefix}*")
        self._subscriptions.append((prefix, subscription))

    def recv(self) -> Optional[Tuple[str, Any]]:
        """Non-blocking receive: ``(topic, decoded_document)`` or None."""
        for _prefix, subscription in self._subscriptions:
            message = subscription.poll()
            if message is not None:
                return self._decode(message)
        return None

    def drain(self) -> Iterator[Tuple[str, Any]]:
        """Consume every pending message across all subscriptions."""
        for topic, text in self.drain_text():
            yield topic, json.loads(text)

    def drain_text(self) -> Iterator[Tuple[str, str]]:
        """Like :meth:`drain`, but yield each frame's JSON text undecoded."""
        for _prefix, subscription in self._subscriptions:
            for message in subscription.drain():
                yield message.topic[len("zmq."):], message.payload

    def pending(self) -> int:
        """Number of messages waiting to be consumed."""
        return sum(s.pending() for _p, s in self._subscriptions)

    def close(self) -> None:
        """Release the underlying resources."""
        for _prefix, subscription in self._subscriptions:
            self._broker.unsubscribe(subscription)
        self._subscriptions.clear()

    @staticmethod
    def _decode(message: Message) -> Tuple[str, Any]:
        topic = message.topic[len("zmq."):]
        return topic, json.loads(message.payload)
