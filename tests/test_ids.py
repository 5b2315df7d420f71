"""Tests for identifier generation."""

import random
import uuid

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids import (
    CONTENT_NAMESPACE,
    IdGenerator,
    content_stix_id,
    content_uuid,
)
from repro.misp import MispAttribute


def test_seeded_generator_is_deterministic():
    a = IdGenerator(seed=42)
    b = IdGenerator(seed=42)
    assert [a.uuid() for _ in range(5)] == [b.uuid() for _ in range(5)]


def test_different_seeds_differ():
    assert IdGenerator(seed=1).uuid() != IdGenerator(seed=2).uuid()


def test_uuid_is_valid_v4():
    value = uuid.UUID(IdGenerator(seed=0).uuid())
    assert value.version == 4


def test_stix_id_format():
    stix_id = IdGenerator(seed=0).stix_id("indicator")
    prefix, _, suffix = stix_id.partition("--")
    assert prefix == "indicator"
    assert uuid.UUID(suffix)


def test_content_uuid_is_stable():
    assert content_uuid("a", "b") == content_uuid("a", "b")


def test_content_uuid_separator_prevents_collisions():
    assert content_uuid("ab", "c") != content_uuid("a", "bc")


def test_content_stix_id_incorporates_type():
    assert content_stix_id("indicator", "x") != content_stix_id("malware", "x")
    assert content_stix_id("indicator", "x").startswith("indicator--")


def test_unseeded_ids_seed_no_rng(monkeypatch):
    seeded = []
    original = random.Random.__init__

    def spy(rng, *args, **kwargs):
        seeded.append(args)
        original(rng, *args, **kwargs)

    monkeypatch.setattr(random.Random, "__init__", spy)
    attributes = [MispAttribute(type="domain", value=f"d{i}.example")
                  for i in range(200)]
    assert seeded == []
    ids = [uuid.UUID(attribute.uuid) for attribute in attributes]
    assert all(value.version == 4 for value in ids)
    assert [str(value) for value in ids] == [a.uuid for a in attributes]
    assert len(set(ids)) == len(ids)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.text(), max_size=5))
def test_content_uuid_is_uuid5_of_the_joined_parts(parts):
    assert content_uuid(*parts) == str(
        uuid.uuid5(CONTENT_NAMESPACE, "\x1f".join(parts)))


@pytest.mark.parametrize("parts, expected", [
    ((), "4ebd0208-8328-5d69-8c44-ec50939c0967"),
    (("",), "4ebd0208-8328-5d69-8c44-ec50939c0967"),
    (("a", "b"), "b42bdf96-6017-5813-a1b6-636e98f4543e"),
    (("cioc-object", "6ba7b810-9dad-11d1-80b4-00c04fd430c8", "0"),
     "3e8e52ef-67b2-5ffe-8493-c94803883dc1"),
    (("text", "d\u00e9ni de service \u0130\n"),
     "b7c18bdb-f471-57e9-997f-89455d469f45"),
    (("\ud800",), "d8ae7d2c-d48b-547e-98d2-aa63b0d95f83"),
])
def test_content_uuid_fixed_vectors(parts, expected):
    assert content_uuid(*parts) == expected
