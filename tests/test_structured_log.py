"""Structured logging: schema validity, determinism, buffering, sinks."""

import json

import pytest

from repro.clock import SimulatedClock
from repro.core import ContextAwareOSINTPlatform, PlatformConfig
from repro.errors import ValidationError
from repro.obs import (
    LOG_RECORD_SCHEMA,
    NULL_LOG,
    StructuredLog,
    validate_record,
    validate_records,
)


class TestStructuredLog:
    def test_emit_builds_a_schema_valid_record(self):
        log = StructuredLog(clock=SimulatedClock())
        log.begin_cycle(2)
        log.emit("collect", "feed_fetched", feed="alpha")
        (record,) = log.records()
        assert validate_record(record) == []
        assert record["cycle"] == 2
        assert record["stage"] == "collect"
        assert record["event"] == "feed_fetched"
        assert record["feed"] == "alpha"
        assert record["seq"] == 0

    def test_unknown_level_rejected(self):
        log = StructuredLog()
        with pytest.raises(ValidationError):
            log.emit("collect", "oops", level="fatal")

    def test_ring_buffer_is_bounded(self):
        log = StructuredLog(capacity=4)
        for index in range(10):
            log.emit("s", "e", index=index)
        records = log.records()
        assert len(records) == 4
        assert [record["index"] for record in records] == [6, 7, 8, 9]
        assert log.tail(2)[-1]["seq"] == 9

    def test_disabled_log_emits_nothing(self):
        NULL_LOG.emit("s", "e")
        assert NULL_LOG.records() == []

    def test_to_jsonl_is_sorted_and_parseable(self):
        log = StructuredLog()
        log.emit("s", "b_field", zeta="z", alpha="a")
        line = log.to_jsonl().splitlines()[0]
        parsed = json.loads(line)
        assert list(parsed) == sorted(parsed)
        assert parsed["zeta"] == "z"

    def test_file_sink_appends_jsonl(self, tmp_path):
        path = tmp_path / "platform.jsonl"
        log = StructuredLog(sink_path=str(path))
        log.emit("s", "one")
        log.emit("s", "two")
        log.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["one", "two"]

    def test_buffer_stages_until_flushed(self):
        log = StructuredLog()
        buffer = log.buffer()
        buffer.emit("share", "share_result", entity="b")
        assert log.records() == []
        assert log.flush_buffer(buffer) == 1
        (record,) = log.records()
        assert record["entity"] == "b"

    def test_flush_order_assigns_seq_in_flush_order(self):
        log = StructuredLog()
        first, second = log.buffer(), log.buffer()
        second.emit("s", "late")
        first.emit("s", "early")
        log.flush_buffer(first)
        log.flush_buffer(second)
        assert [r["event"] for r in log.records()] == ["early", "late"]
        assert [r["seq"] for r in log.records()] == [0, 1]


class TestSchemaValidation:
    def test_schema_required_fields_are_enforced(self):
        errors = validate_record({"seq": 0})
        missing = {e for e in errors if e.startswith("missing")}
        assert len(missing) == len(LOG_RECORD_SCHEMA["required"]) - 1

    def test_nested_payloads_rejected(self):
        log = StructuredLog()
        log.emit("s", "e")
        (record,) = log.records()
        record["payload"] = {"nested": True}
        assert any("JSON scalar" in error
                   for error in validate_record(record))

    def test_bad_level_value_rejected(self):
        log = StructuredLog()
        log.emit("s", "e")
        (record,) = log.records()
        record["level"] = "fatal"
        assert any("enum" in error for error in validate_record(record))


def build_platform(workers):
    config = PlatformConfig(feed_entries=12, fetch_workers=workers,
                            share_workers=workers)
    platform = ContextAwareOSINTPlatform.build_default(config)
    from repro.sharing import ExternalEntity, TaxiiServer
    server = TaxiiServer(clock=platform.clock)
    for index in range(3):
        name = f"partner-{index}"
        server.create_collection(name, f"Partner {index}")
        platform.gateway.register(ExternalEntity(
            name=name, transport="taxii", taxii_server=server,
            taxii_collection=name))
    return platform


class TestPlatformLogStream:
    def test_every_platform_record_is_schema_valid(self):
        platform = build_platform(workers=4)
        platform.run(2)
        records = platform.log.records()
        assert records, "platform emitted no log records"
        assert validate_records(records) == []

    def test_log_carries_cycle_and_share_results(self):
        platform = build_platform(workers=4)
        platform.run(2)
        events = [record["event"] for record in platform.log.records()]
        assert events.count("cycle_start") == 2
        assert events.count("cycle_end") == 2
        assert "feed_fetched" in events
        assert "event_scored" in events
        assert "share_result" in events
        cycles = {record["cycle"] for record in platform.log.records()}
        assert cycles == {1, 2}

    def test_scored_records_carry_trace_ids(self):
        from repro.obs import trace_id_for

        platform = build_platform(workers=4)
        platform.run_cycle()
        scored = [record for record in platform.log.records()
                  if record["event"] == "event_scored"]
        assert scored
        for record in scored:
            assert record["trace_id"] == trace_id_for(record["event_uuid"])

    def test_log_stream_is_byte_identical_across_worker_counts(self):
        serial = build_platform(workers=1)
        serial.run(2)
        pooled = build_platform(workers=4)
        pooled.run(2)
        assert serial.log.to_jsonl() == pooled.log.to_jsonl()

    def test_structured_log_disabled_leaves_stream_empty(self):
        config = PlatformConfig(feed_entries=12, metrics_enabled=False)
        platform = ContextAwareOSINTPlatform.build_default(config)
        platform.run_cycle()
        assert platform.log.records() == []
        assert not platform.log.enabled
