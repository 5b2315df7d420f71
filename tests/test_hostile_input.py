"""Hostile feed documents are quarantined at the parse seam.

Each JSON-based format gets two hostile bodies: one nested 100,000 levels
deep, and one whose indicator holds the JSON escape of a lone surrogate
(``\\ud800``), which decodes fine but cannot be encoded as UTF-8, so no
store could bind it.  Either must fail as a ``ParseError``: the collector
counts the feed as failed and quarantines the document, and a platform
cycle fetching it completes without a stage error.
"""

import json

import pytest

from repro.clock import SimulatedClock
from repro.core import ContextAwareOSINTPlatform
from repro.core.collector import OsintDataCollector
from repro.feeds import FeedDescriptor, FeedFetcher, SimulatedTransport
from repro.feeds.model import FeedDocument, FeedFormat
from repro.misp import MispInstance
from repro.resilience import DeadLetterQueue

#: An indicator holding the JSON escape of a lone surrogate.
SURROGATE_VALUE = "evil\\ud800.example"
DEPTH = 100_000


def hostile_body(case, fmt):
    if case == "deep":
        return "[" * DEPTH + "]" * DEPTH
    if fmt == FeedFormat.JSON:
        return '[{"value": "%s"}]' % SURROGATE_VALUE
    if fmt == FeedFormat.MISP_JSON:
        return ('[{"Event": {"info": "hostile", "Attribute":'
                ' [{"type": "domain", "value": "%s"}]}}]' % SURROGATE_VALUE)
    bundle = json.dumps({
        "type": "bundle", "spec_version": "2.0",
        "id": "bundle--5b1c8e52-0b5a-4b4e-9c11-000000000001",
        "objects": [{
            "type": "indicator",
            "id": "indicator--5b1c8e52-0b5a-4b4e-9c11-000000000002",
            "created": "2026-01-01T00:00:00.000Z",
            "modified": "2026-01-01T00:00:00.000Z",
            "labels": ["malicious-activity"],
            "valid_from": "2026-01-01T00:00:00Z",
            "pattern": "[domain-name:value = 'VALUE']"}]})
    return bundle.replace("VALUE", SURROGATE_VALUE)


@pytest.mark.parametrize("fmt", [FeedFormat.JSON, FeedFormat.MISP_JSON,
                                 FeedFormat.STIX2])
@pytest.mark.parametrize("case", ["deep", "surrogate"])
def test_hostile_json_is_quarantined(case, fmt):
    descriptor = FeedDescriptor(name="hostile",
                                url="https://feeds.example/hostile",
                                format=fmt, category="phishing")
    body = hostile_body(case, fmt)

    clock = SimulatedClock()
    queue = DeadLetterQueue(clock=clock)
    collector = OsintDataCollector(
        FeedFetcher(SimulatedTransport(clock=clock), clock=clock),
        [descriptor], misp=MispInstance(clock=clock), clock=clock,
        deadletters=queue)
    ciocs, report = collector.process_documents(
        [FeedDocument(descriptor=descriptor, body=body,
                      fetched_at=clock.now())])
    assert ciocs == []
    assert report.feeds_failed == 1
    assert report.documents_quarantined == 1
    assert report.store_error is None
    [entry] = queue.entries()
    assert entry.source == "hostile"
    assert entry.reason.startswith("parse:")

    clock = SimulatedClock()
    transport = SimulatedTransport(clock=clock, seed=0)
    transport.register(descriptor.url, lambda now: body)
    platform = ContextAwareOSINTPlatform.build_with_feeds(
        [descriptor], transport, clock=clock)
    report = platform.run_cycle()
    assert report.stage_errors == {}
    assert report.collection.feeds_failed == 1
    assert report.collection.feeds_fetched == 0
    assert report.collection.documents_quarantined == 1
    assert len(platform.deadletters) == 1
