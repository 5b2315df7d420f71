"""Hostile feed documents are quarantined at the parse seam.

Each JSON-based format gets two hostile bodies: one nested 100,000 levels
deep, and one whose indicator holds the JSON escape of a lone surrogate
(``\\ud800``), which decodes fine but cannot be encoded as UTF-8, so no
store could bind it.  Either must fail as a ``ParseError``: the collector
counts the feed as failed and quarantines the document, and a platform
cycle fetching it completes without a stage error.

Valid JSON of the wrong shape (an event that is not an object, a
timestamp that is not a number, a bundle object that is not a valid
indicator) is quarantined the same way, and the good feed fetched beside
it is stored in the same cycle.

The shared decoder searches for a surrogate only in text that can hold
one; a property test shows it decides every text as a search of every
text does.
"""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clock import SimulatedClock
from repro.core import ContextAwareOSINTPlatform
from repro.core.collector import OsintDataCollector
from repro.errors import ParseError, decode_json
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


#: Valid JSON that a format parser cannot read as its format.
WRONG_SHAPE = [
    pytest.param(FeedFormat.MISP_JSON, '[{"Event": 5}]', id="misp-event-int"),
    pytest.param(FeedFormat.MISP_JSON,
                 '[{"Event": {"info": "x", "timestamp": "abc"}}]',
                 id="misp-timestamp-text"),
    pytest.param(FeedFormat.MISP_JSON,
                 '[{"Event": {"info": "x", "timestamp": 1e30}}]',
                 id="misp-timestamp-out-of-range"),
    pytest.param(FeedFormat.STIX2, '{"type": "bundle", "objects": [1]}',
                 id="stix-object-int"),
    pytest.param(FeedFormat.STIX2,
                 '{"type": "bundle", "objects": [{"type": "indicator"}]}',
                 id="stix-indicator-without-pattern"),
]
#: The good feed's indicators.
GOOD_VALUES = ("login-paypa1.com", "203.0.113.77")


@pytest.mark.parametrize("fmt, body", WRONG_SHAPE)
def test_wrong_shape_is_quarantined_beside_a_good_feed(fmt, body):
    bad = FeedDescriptor(name="hostile", url="https://feeds.example/hostile",
                         format=fmt, category="phishing")
    good = FeedDescriptor(name="good", url="https://feeds.example/good",
                          format=FeedFormat.PLAINTEXT, category="phishing")
    clock = SimulatedClock()
    transport = SimulatedTransport(clock=clock, seed=0)
    transport.register(bad.url, lambda now: body)
    transport.register(good.url, lambda now: "\n".join(GOOD_VALUES))
    platform = ContextAwareOSINTPlatform.build_with_feeds(
        [bad, good], transport, clock=clock)
    report = platform.run_cycle()
    assert report.stage_errors == {}
    assert report.collection.feeds_failed == 1
    assert report.collection.documents_quarantined == 1
    [entry] = platform.deadletters.entries()
    assert entry.source == "hostile"
    assert entry.reason.startswith("parse:")
    assert report.collection.ciocs_created == len(GOOD_VALUES)
    assert all(platform.misp.store.search_value(value)
               for value in GOOD_VALUES)


#: A surrogate, raw or as a JSON escape, searched for in every text.
ANY_SURROGATE = re.compile(r"[\ud800-\udfff]|\\u[dD][89a-fA-F]")
REFUSED = object()


def decode_searching_every_text(text):
    """The decoder's decision with the surrogate search run unconditionally.

    ``JSONDecodeError`` and ``UnicodeEncodeError`` are both ``ValueError``.
    """
    try:
        data = json.loads(text)
        if ANY_SURROGATE.search(text):
            json.dumps(data, ensure_ascii=False).encode("utf-8")
    except (ValueError, RecursionError):
        return REFUSED
    return data


#: Pieces of a JSON string body: ASCII and non-ASCII text, raw and escaped
#: surrogates (lone, and an escaped pair that decodes to one character),
#: escaped backslashes (also one before ``ud800``) and other escapes.
PIECES = st.sampled_from([
    "a", "u", "d8", "00", "\\u00e9", "é", "☃", "\U0001F600",
    "\ud800", "\udfff",
    "\\ud800", "\\uDBFF", "\\udc00", "\\ud83d\\ude00",
    "\\\\", "\\\\ud800", "\\u0041", "\\n", '\\"',
])
JSON_STRINGS = st.lists(PIECES, max_size=12).map(
    lambda pieces: '"' + "".join(pieces) + '"')
DOCUMENTS = st.one_of(
    JSON_STRINGS,
    JSON_STRINGS.map(lambda text: '{"value": [' + text + ', 1]}'),
    st.text(st.characters(exclude_categories=())).map(
        lambda text: json.dumps({"value": text})),
    st.text(st.characters(exclude_categories=())).map(
        lambda text: json.dumps([text], ensure_ascii=False)),
    st.text(st.characters(exclude_categories=())),
)


@given(DOCUMENTS)
@example('"\\ud800"')
@example('"\\ud83d\\ude00"')
@example('"\\\\ud800"')
@example('"\ud800"')
@example('"caf\u00e9"')
@example('"caf\\u00e9"')
@settings(max_examples=300, deadline=None)
def test_surrogate_prefilter_keeps_every_decision(text):
    expected = decode_searching_every_text(text)
    try:
        decoded = decode_json(text, "property")
    except ParseError:
        assert expected is REFUSED
    else:
        assert expected is not REFUSED
        assert repr(decoded) == repr(expected)  # text "NaN" decodes to nan
