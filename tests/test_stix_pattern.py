"""Tests for the STIX patterning parser and evaluator."""

import datetime as dt
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import PAPER_NOW
from repro.core.heuristics import EvaluationContext
from repro.core.heuristics.standard import pattern as pattern_feature
from repro.errors import PatternError
from repro.misp.export import _TYPE_TO_OBJECT_PATH
from repro.stix import Indicator
from repro.stix.pattern import (
    CompiledPattern,
    Observation,
    equals_pattern,
    is_valid_pattern,
    match,
    parse_pattern,
    tokenize,
    validate_pattern,
)


def obs(value_dict, minute=0):
    return Observation.single(
        value_dict, dt.datetime(2018, 6, 15, 12, minute, tzinfo=dt.timezone.utc))


IP = {"type": "ipv4-addr", "value": "198.51.100.3"}
DOMAIN = {"type": "domain-name", "value": "evil.example"}
FILE = {"type": "file", "name": "a.exe",
        "hashes": {"SHA-256": "aa" * 32, "MD5": "bb" * 16}}


class TestTokenizer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("[a:b = 'x']")]
        assert kinds == ["LBRACKET", "PATH", "OP", "STRING", "RBRACKET"]

    def test_keywords_are_case_sensitive_uppercase(self):
        kinds = [t.kind for t in tokenize("AND OR NOT FOLLOWEDBY")]
        assert kinds == ["AND", "OR", "NOT", "FOLLOWEDBY"]

    def test_unexpected_character_raises(self):
        with pytest.raises(PatternError):
            tokenize("[a:b = 'x'] ;")

    def test_timestamp_literal(self):
        tokens = tokenize("t'2018-01-01T00:00:00Z'")
        assert tokens[0].kind == "TIMESTAMP"


class TestParser:
    @pytest.mark.parametrize("pattern", [
        "[ipv4-addr:value = '1.2.3.4']",
        "[file:hashes.'SHA-256' = 'aabb']",
        "[a:b = 1 AND a:c = 2.5]",
        "[a:b = 'x' OR (a:c = 'y' AND a:d != 'z')]",
        "[a:b IN ('x', 'y', 'z')]",
        "[a:b LIKE 'evil%']",
        "[a:b MATCHES '^ev.l$']",
        "[ipv4-addr:value ISSUBSET '198.51.100.0/24']",
        "[a:b = 'x'] AND [c:d = 'y']",
        "[a:b = 'x'] FOLLOWEDBY [c:d = 'y']",
        "[a:b = 'x'] REPEATS 3 TIMES",
        "[a:b = 'x'] WITHIN 300 SECONDS",
        "[a:b = 'x'] START t'2018-01-01T00:00:00Z' STOP t'2018-02-01T00:00:00Z'",
        "([a:b = 'x'] OR [c:d = 'y']) AND [e:f = 'z']",
        "[a:b NOT = 'x']",
        "[network-traffic:src_port > 1024 AND network-traffic:src_port <= 65535]",
    ])
    def test_valid_patterns_parse(self, pattern):
        assert validate_pattern(pattern)

    @pytest.mark.parametrize("pattern", [
        "",
        "   ",
        "[a:b = ]",
        "[a:b]",
        "a:b = 'x'",
        "[a:b = 'x'",
        "[a:b = 'x']]",
        "[a:b == 'x' AND]",
        "[a:b REPEATS 0 TIMES]",
        "[a:b = 'x'] REPEATS 0 TIMES",
        "[= 'x']",
        "[a:b = t'\\\\']",
        "[a:b = 'x'] START t'never' STOP t'2020-01-01T00:00:00Z'",
    ])
    def test_invalid_patterns_raise(self, pattern):
        with pytest.raises(PatternError):
            parse_pattern(pattern)

    def test_quoted_path_component(self):
        compiled = CompiledPattern("[file:hashes.'SHA-256' = 'aa']")
        comparison = compiled.comparisons()[0]
        assert comparison.path.components == ("hashes", "SHA-256")

    def test_comparisons_flattening(self):
        compiled = CompiledPattern("[a:b = 1 AND a:c = 2] OR [d:e = 3]")
        assert len(compiled.comparisons()) == 3


class TestEvaluation:
    def test_simple_equality(self):
        assert match("[ipv4-addr:value = '198.51.100.3']", [obs(IP)])
        assert not match("[ipv4-addr:value = '10.0.0.1']", [obs(IP)])

    def test_type_must_match(self):
        assert not match("[domain-name:value = '198.51.100.3']", [obs(IP)])

    def test_nested_hash_path(self):
        assert match("[file:hashes.'SHA-256' = '" + "aa" * 32 + "']", [obs(FILE)])

    def test_in_operator(self):
        assert match("[domain-name:value IN ('evil.example', 'x.y')]", [obs(DOMAIN)])
        assert not match("[domain-name:value IN ('a.b', 'x.y')]", [obs(DOMAIN)])

    def test_like_operator(self):
        assert match("[domain-name:value LIKE 'evil.%']", [obs(DOMAIN)])
        assert match("[domain-name:value LIKE '%.example']", [obs(DOMAIN)])
        assert not match("[domain-name:value LIKE 'good.%']", [obs(DOMAIN)])

    def test_matches_operator(self):
        assert match("[domain-name:value MATCHES '^evil\\\\.']", [obs(DOMAIN)])

    def test_issubset_cidr(self):
        assert match("[ipv4-addr:value ISSUBSET '198.51.100.0/24']", [obs(IP)])
        assert not match("[ipv4-addr:value ISSUBSET '10.0.0.0/8']", [obs(IP)])

    def test_not_negation(self):
        assert match("[ipv4-addr:value NOT = '10.9.9.9']", [obs(IP)])
        assert not match("[ipv4-addr:value NOT = '198.51.100.3']", [obs(IP)])

    def test_comparison_and_within_one_observation(self):
        both = Observation(
            objects={"0": IP, "1": DOMAIN},
            timestamp=dt.datetime(2018, 6, 15, tzinfo=dt.timezone.utc))
        pattern = "[ipv4-addr:value = '198.51.100.3' AND domain-name:value = 'evil.example']"
        assert match(pattern, [both])
        # Same comparisons split across two observations do NOT satisfy a
        # single observation term.
        assert not match(pattern, [obs(IP), obs(DOMAIN)])

    def test_observation_and_across_observations(self):
        pattern = "[ipv4-addr:value = '198.51.100.3'] AND [domain-name:value = 'evil.example']"
        assert match(pattern, [obs(IP), obs(DOMAIN)])
        assert not match(pattern, [obs(IP)])

    def test_observation_or(self):
        pattern = "[ipv4-addr:value = '1.1.1.1'] OR [domain-name:value = 'evil.example']"
        assert match(pattern, [obs(DOMAIN)])

    def test_followedby_requires_order(self):
        pattern = "[ipv4-addr:value = '198.51.100.3'] FOLLOWEDBY [domain-name:value = 'evil.example']"
        assert match(pattern, [obs(IP, minute=0), obs(DOMAIN, minute=5)])
        assert not match(pattern, [obs(DOMAIN, minute=0), obs(IP, minute=5)])

    def test_repeats_qualifier(self):
        pattern = "[ipv4-addr:value = '198.51.100.3'] REPEATS 2 TIMES"
        assert not match(pattern, [obs(IP)])
        assert match(pattern, [obs(IP, 0), obs(IP, 1)])

    def test_within_qualifier(self):
        pattern = "[ipv4-addr:value = '198.51.100.3'] REPEATS 2 TIMES WITHIN 120 SECONDS"
        assert match(pattern, [obs(IP, 0), obs(IP, 1)])
        assert not match(pattern, [obs(IP, 0), obs(IP, 10)])

    def test_startstop_qualifier(self):
        pattern = ("[ipv4-addr:value = '198.51.100.3'] "
                   "START t'2018-06-15T12:00:00Z' STOP t'2018-06-15T12:03:00Z'")
        assert match(pattern, [obs(IP, 1)])
        assert not match(pattern, [obs(IP, 30)])

    def test_empty_observations_never_match(self):
        assert not match("[ipv4-addr:value = '198.51.100.3']", [])

    def test_list_index_wildcard(self):
        multi = Observation.single(
            {"type": "file", "name": "x", "sections": [{"entropy": 7.9}]},
            dt.datetime(2018, 1, 1, tzinfo=dt.timezone.utc))
        assert match("[file:sections[*].entropy > 7.0]", [multi])


class TestEqualsPattern:
    def test_builds_canonical_form(self):
        assert equals_pattern("url:value", "http://x/y") == "[url:value = 'http://x/y']"

    def test_escapes_quotes(self):
        pattern = equals_pattern("domain-name:value", "it's")
        assert validate_pattern(pattern)
        assert match(pattern, [obs({"type": "domain-name", "value": "it's"})])


#: Every object path the MISP exporter builds patterns over.
EXPORTER_PATHS = sorted(set(_TYPE_TO_OBJECT_PATH.values()))
#: Pieces that change how a pattern tokenizes, and anything else.
PATTERN_PIECES = st.one_of(
    st.sampled_from(["'", "\\", "\\'", "\\\\", "\\\n", "\n", "\t", " ", "[",
                     "]", "(", "=", "!", ".", ":", "-", "_", "A", "a", "0",
                     "\u00e9"]),
    st.characters())
PATTERN_VALUES = st.lists(PATTERN_PIECES, min_size=1, max_size=8).map("".join)
#: Paths the fast path must leave to the parser, or that it may accept.
OTHER_PATHS = [
    "ipv6-addr:value", "file:hashes.SHA-256", "file:hashes.'SHA-256",
    "file:hashes.'SHA 1'", "file:hashes.'SHA-1'.x", "a:b[*].c",
    "network-traffic:src_ref.value", "Domain-name:value", "domain-name:",
    ":value", "domain-name:value ", "domain-name:.value", "t:'x'",
    "domain-name.value", "value", "domain-name::value", "url:value:x",
    "file:hashes..MD5", "file:hashes.'MD5'x", "file:hashes.''",
]
#: Near misses of ``[path = 'value']``; ``{v}`` is filled unescaped.
NEAR_MISS_SHAPES = [
    "[{p} = '{v}']", "[{p}  = '{v}']", "[{p} != '{v}']", "[{p} = '{v}'] ",
    " [{p} = '{v}']", "[{p} = '{v}']x", "[{p}='{v}']", "[ {p} = '{v}' ]",
    "[{p} = {v}]", "[{p} = \"{v}\"]", "[{p} = '{v}'\n]",
    "[{p} = '{v}' AND {p} = '{v}']", "[{p} = '{v}'] AND [{p} = '{v}']",
    "[{p} = '{v}'] REPEATS 2 TIMES", "[{p} IN ('{v}')]",
]
NEAR_MISS_VALUES = ["x", "it's", "it\\'s", "a\\", "a\\\\", "a\\\nb", "a\nb",
                    "a b", "]", "\u00e9"]


@st.composite
def near_misses(draw):
    path = draw(st.one_of(
        st.sampled_from(EXPORTER_PATHS + OTHER_PATHS),
        st.from_regex(r"[a-zA-Z][\w-]*:[\w.'\[\]*\\-]+", fullmatch=True)))
    value = draw(PATTERN_VALUES)
    edit = draw(st.sampled_from(["shape", "insert", "replace", "delete"]))
    if edit == "shape":
        return draw(st.sampled_from(NEAR_MISS_SHAPES)).format(p=path, v=value)
    text = equals_pattern(path, value)
    index = draw(st.integers(0, len(text) - 1))
    if edit == "delete":
        return text[:index] + text[index + 1:]
    char = draw(PATTERN_PIECES)
    return text[:index] + char + text[index + (edit == "replace"):]


def parses(text):
    try:
        parse_pattern(text)
    except PatternError:
        return False
    return True


def checked(text):
    """``is_valid_pattern``'s answer, and whether it called the parser."""
    with mock.patch("repro.stix.pattern.parse_pattern",
                    wraps=parse_pattern) as parser:
        valid = is_valid_pattern(text)
    return valid, parser.called


class TestPointEqualityFastPath:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(EXPORTER_PATHS), PATTERN_VALUES)
    def test_accepts_every_exporter_pattern_without_parsing(self, path, value):
        assert checked(equals_pattern(path, value)) == (True, False)

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(near_misses(), st.text(max_size=24)))
    def test_answers_as_the_parser_does(self, text):
        valid, _ = checked(text)
        assert valid == parses(text)

    def test_near_miss_grid(self):
        for path in EXPORTER_PATHS + OTHER_PATHS:
            for shape in NEAR_MISS_SHAPES:
                for value in NEAR_MISS_VALUES:
                    text = shape.format(p=path, v=value)
                    assert checked(text)[0] == parses(text), text

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.builds(equals_pattern, st.sampled_from(EXPORTER_PATHS),
                  PATTERN_VALUES),
        near_misses().filter(bool)))
    def test_pattern_feature_label_matches_a_parse(self, text):
        indicator = Indicator(pattern=text, valid_from=PAPER_NOW,
                              created=PAPER_NOW, modified=PAPER_NOW)
        _, label = pattern_feature(EvaluationContext(stix_object=indicator))
        expected = "valid_pattern" if parses(text) else "invalid_pattern"
        assert label == expected

    @pytest.mark.parametrize("text", [
        "[domain-name:value = 'it\\'s']",
        "[file:hashes.'SHA-256' = 'a\\\\']",
        "[url:value = 'line\nbreak']",
    ])
    def test_accepts_escapes_and_newlines(self, text):
        assert checked(text) == (True, False)
