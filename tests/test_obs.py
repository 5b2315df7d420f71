"""Tests for the observability layer: registry, tracer, pipeline wiring."""

import json
import threading

import pytest

from repro.errors import ValidationError
from repro.obs import MetricsRegistry, SCORE_BUCKETS, Span, Tracer
from repro.parallel import ordered_map


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "help text")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("feed_events_total")
        counter.inc(3, feed="malware-domains")
        counter.inc(2, feed="phishing-urls")
        assert counter.value(feed="malware-domains") == 3
        assert counter.value(feed="phishing-urls") == 2
        assert counter.value(feed="unknown") == 0
        assert counter.total() == 5

    def test_counter_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError):
            registry.counter("c").inc(-1)

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c")
        with pytest.raises(ValidationError):
            registry.gauge("c")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError):
            registry.counter("bad name")
        with pytest.raises(ValidationError):
            registry.counter("ok").inc(**{"0bad": "x"})

    def test_threaded_increments_sum_correctly(self):
        registry = MetricsRegistry()
        counter = registry.counter("threaded_total")
        per_thread, n_threads = 5_000, 8

        def work():
            for _ in range(per_thread):
                counter.inc(1, worker="shared")

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(worker="shared") == per_thread * n_threads


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12

    def test_disabled_registry_is_a_no_op(self):
        registry = MetricsRegistry(enabled=False)
        gauge = registry.gauge("g")
        counter = registry.counter("c")
        hist = registry.histogram("h")
        gauge.set(5)
        counter.inc()
        hist.observe(1.0)
        assert gauge.value() == 0
        assert counter.value() == 0
        assert hist.count() == 0

    def test_reenabling_resumes_recording(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        counter.inc()
        registry.enable()
        counter.inc()
        assert counter.value() == 1


class TestHistogram:
    def test_bucket_edges_are_le_inclusive(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency", buckets=(0.1, 0.5, 1.0))
        hist.observe(0.1)    # exactly on a bound -> that bucket
        hist.observe(0.09)   # below the first bound
        hist.observe(0.5)
        hist.observe(0.75)
        hist.observe(2.0)    # above every bound -> +Inf only
        pairs = dict(hist.cumulative_buckets())
        assert pairs["0.1"] == 2
        assert pairs["0.5"] == 3
        assert pairs["1"] == 4
        assert pairs["+Inf"] == 5
        assert hist.count() == 5
        assert hist.sum() == pytest.approx(0.1 + 0.09 + 0.5 + 0.75 + 2.0)
        assert hist.mean() == pytest.approx(hist.sum() / 5)

    def test_buckets_must_be_ascending(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError):
            registry.histogram("h", buckets=(1.0, 0.5))
        with pytest.raises(ValidationError):
            registry.histogram("h2", buckets=())

    def test_labelled_histograms(self):
        registry = MetricsRegistry()
        hist = registry.histogram("eval_seconds", buckets=(1.0,))
        hist.observe(0.5, heuristic="vulnerability")
        hist.observe(2.0, heuristic="indicator")
        assert hist.count(heuristic="vulnerability") == 1
        assert hist.count(heuristic="indicator") == 1
        assert hist.count() == 0

    def test_score_buckets_cover_equation_1_range(self):
        assert SCORE_BUCKETS[0] == 0.5
        assert SCORE_BUCKETS[-1] == 5.0


class TestExposition:
    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "Total requests").inc(
            3, feed="malware-domains")
        registry.gauge("depth").set(1.5)
        text = registry.render_prometheus()
        assert "# HELP requests_total Total requests" in text
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{feed="malware-domains"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 1.5" in text

    def test_prometheus_histogram_block(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        text = registry.render_prometheus()
        assert 'h_bucket{le="1"} 0' in text
        assert 'h_bucket{le="2"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 1.5" in text
        assert "h_count 1" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(1, path='a"b\\c\nd')
        text = registry.render_prometheus()
        assert r'c{path="a\"b\\c\nd"} 1' in text

    def test_snapshot_is_json_able(self):
        registry = MetricsRegistry()
        registry.counter("c", "help").inc(2, kind="x")
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        round_tripped = json.loads(json.dumps(snapshot))
        assert round_tripped["c"]["type"] == "counter"
        assert round_tripped["c"]["samples"] == [
            {"labels": {"kind": "x"}, "value": 2}]
        hist_sample = round_tripped["h"]["samples"][0]
        assert hist_sample["count"] == 1
        assert hist_sample["buckets"] == {"1": 1, "+Inf": 1}
        assert json.loads(registry.render_json()) == round_tripped

    def test_reset_zeroes_series_but_keeps_families(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.reset()
        assert registry.get("c") is not None
        assert registry.counter("c").value() == 0


class TestTracer:
    def test_span_nesting(self):
        tracer = Tracer()
        with tracer.span("cycle"):
            with tracer.span("collect"):
                with tracer.span("fetch"):
                    pass
            with tracer.span("enrich"):
                pass
        root = tracer.last_trace()
        assert root.name == "cycle"
        assert [child.name for child in root.children] == ["collect", "enrich"]
        assert [c.name for c in root.children[0].children] == ["fetch"]
        assert root.duration_seconds >= root.children[0].duration_seconds

    def test_span_exception_safety(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("cycle"):
                with tracer.span("boom"):
                    raise RuntimeError("stage failed")
        root = tracer.last_trace()
        assert root is not None and root.error
        assert root.children[0].name == "boom"
        assert root.children[0].error
        # The stack unwound: a new span becomes a fresh root.
        with tracer.span("next"):
            pass
        assert tracer.last_trace().name == "next"

    def test_flatten_sums_same_names(self):
        tracer = Tracer()
        with tracer.span("cycle"):
            for _ in range(3):
                with tracer.span("fetch"):
                    pass
        totals = tracer.last_trace().flatten()
        assert set(totals) == {"cycle", "fetch"}
        assert totals["fetch"] >= 0.0

    def test_flatten_reports_work_spans_apart(self):
        tracer = Tracer()
        with tracer.span("cycle"):
            with tracer.span("enrich"):
                for _ in range(2):
                    with tracer.span("score_event") as span:
                        span.work = True
                        with tracer.span("lookup"):
                            pass
        totals = tracer.last_trace().flatten()
        # Work spans, and everything beneath them, sum under ".work".
        assert set(totals) == {"cycle", "enrich", "score_event.work",
                               "lookup.work"}

    def test_disabled_tracer_yields_none_and_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("cycle") as span:
            assert span is None
        assert tracer.last_trace() is None

    def test_spans_feed_the_registry(self):
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry)
        with tracer.span("collect"):
            pass
        hist = registry.get("caop_span_seconds")
        assert hist is not None
        assert hist.count(span="collect") == 1

    def test_to_dict_and_find(self):
        tracer = Tracer()
        with tracer.span("cycle", seed=7):
            with tracer.span("fetch"):
                pass
        root = tracer.last_trace()
        data = root.to_dict()
        assert data["name"] == "cycle"
        assert data["tags"] == {"seed": 7}
        assert data["children"][0]["name"] == "fetch"
        assert root.find("fetch") is not None
        assert root.find("missing") is None


class TestPlatformTelemetry:
    """End-to-end: run_cycle populates the registry and the trace."""

    @pytest.fixture(scope="class")
    def platform(self):
        from repro import ContextAwareOSINTPlatform, PlatformConfig
        platform = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(seed=7, feed_entries=30))
        platform.run_cycle()
        return platform

    def test_cycle_timings_cover_every_stage(self, platform):
        report = platform.history[-1]
        for stage in ("cycle", "sense", "collect", "fetch", "normalize",
                      "dedup", "correlate", "compose", "store", "enrich",
                      "reduce", "push"):
            assert stage in report.timings, f"missing stage {stage}"
        assert report.timings["cycle"] > 0.0

    def test_fetch_metrics_populated(self, platform):
        snapshot = platform.metrics.snapshot()
        fetch = snapshot["caop_feed_fetch_seconds"]
        assert sum(s["count"] for s in fetch["samples"]) >= 4
        feeds = {s["labels"]["feed"] for s in
                 snapshot["caop_feed_events_total"]["samples"]}
        assert any(feed.startswith("malware-domains") for feed in feeds)

    def test_dedup_metrics_populated(self, platform):
        counter = platform.metrics.counter("caop_dedup_events_total")
        assert counter.value(outcome="unique") > 0
        ratio = platform.metrics.gauge("caop_dedup_hit_ratio").value()
        assert 0.0 <= ratio < 1.0
        assert ratio == pytest.approx(
            platform.osint_collector.deduplicator.stats.reduction_ratio)

    def test_score_metrics_populated(self, platform):
        hist = platform.metrics.get("caop_threat_score")
        total = sum(s["count"] for s in hist._samples())
        assert total > 0
        eval_hist = platform.metrics.get("caop_heuristic_eval_seconds")
        assert sum(s["count"] for s in eval_hist._samples()) == total

    def test_store_and_bus_metrics_agree_with_legacy_counters(self, platform):
        stats = platform.misp.broker.stats
        published = platform.metrics.counter("caop_bus_published_total")
        assert published.total() == stats.published
        stored = platform.metrics.counter("caop_misp_events_stored_total")
        assert stored.total() == platform.misp.store.audit_count()

    def test_dashboard_renders_both_formats(self, platform):
        text = platform.dashboard.render_metrics()
        assert "# TYPE caop_cycles_total counter" in text
        assert "caop_cycles_total 1" in text
        as_json = json.loads(
            platform.dashboard.render_metrics(accept="application/json"))
        assert as_json["caop_cycles_total"]["samples"][0]["value"] == 1

    def test_cycle_report_timings_match_span_metric(self, platform):
        spans = platform.metrics.get("caop_span_seconds")
        assert spans.count(span="cycle") == 1

    def test_disabled_platform_records_nothing(self):
        from repro import ContextAwareOSINTPlatform, PlatformConfig
        platform = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(seed=7, feed_entries=20, metrics_enabled=False))
        report = platform.run_cycle()
        assert report.timings == {}
        snapshot = platform.metrics.snapshot()
        for family in snapshot.values():
            assert family["samples"] == []
        # The pipeline itself still works.
        assert report.collection.ciocs_created > 0


class TestWorkerPoolSpans:
    """Regression: spans opened inside pool threads must nest under the
    cycle root (capture/attach), not become orphan root traces."""

    def build(self, workers):
        from repro import ContextAwareOSINTPlatform, PlatformConfig
        return ContextAwareOSINTPlatform.build_default(
            PlatformConfig(seed=7, feed_entries=20, fetch_workers=workers))

    def test_pool_spans_nest_under_the_cycle_root(self):
        platform = self.build(workers=4)
        platform.run_cycle()
        roots = [span.name for span in platform.tracer.traces]
        assert roots == ["cycle"], f"orphan root traces: {roots}"
        cycle = platform.tracer.last_trace()
        assert cycle.find("fetch_feed") is not None

    def test_per_feed_spans_sit_under_the_fetch_stage(self):
        platform = self.build(workers=4)
        platform.run_cycle()
        fetch = platform.tracer.last_trace().find("fetch")
        names = {child.name for child in fetch.children}
        assert names == {"fetch_feed"}
        feeds = {child.tags["feed"] for child in fetch.children}
        assert len(feeds) == len(fetch.children)

    def test_serial_and_pooled_span_trees_have_equal_shape(self):
        def shape(workers):
            platform = self.build(workers)
            platform.run_cycle()
            trace = platform.tracer.last_trace()
            counts = {}
            stack = [trace]
            while stack:
                span = stack.pop()
                counts[span.name] = counts.get(span.name, 0) + 1
                stack.extend(span.children)
            return counts

        assert shape(1) == shape(4)

    def test_attach_restores_the_previous_stack(self):
        tracer = Tracer()
        with tracer.span("outer"):
            parent = tracer.capture()
            with tracer.attach(parent):
                with tracer.span("inner"):
                    pass
            assert tracer.current().name == "outer"
        assert tracer.last_trace().find("inner") is not None

    def test_attach_none_parent_is_a_noop(self):
        tracer = Tracer()
        with tracer.attach(None):
            with tracer.span("root"):
                pass
        assert tracer.last_trace().name == "root"

    def test_stage_timings_never_exceed_the_cycle(self):
        # Worker time is reported under ".work" keys; every other key is
        # coordinating-thread wall time and so fits inside the cycle.
        platform = self.build(workers=4)
        timings = platform.run_cycle().timings
        assert "fetch_feed.work" in timings
        assert "fetch_feed" not in timings
        for name, seconds in timings.items():
            if not name.endswith(".work"):
                assert seconds <= timings["cycle"], name

    def test_timing_keys_do_not_depend_on_worker_count(self):
        def keys(workers):
            return set(self.build(workers).run_cycle().timings)

        assert keys(1) == keys(4)


class TestOrderedMap:
    """The one worker pool behind fetch and share."""

    def test_results_keep_input_order_under_reversed_completion(self):
        # Item i waits for item i+1, so the last item finishes first.
        done = [threading.Event() for _ in range(4)]
        finished = []

        def work(index):
            if index + 1 < len(done):
                assert done[index + 1].wait(timeout=5)
            finished.append(index)
            done[index].set()
            return index * 10

        assert ordered_map(work, range(4), workers=4) == [0, 10, 20, 30]
        assert finished == [3, 2, 1, 0]

    def test_earliest_failing_item_is_reraised(self):
        # Item 4 fails before item 2 does; item 2's error still wins.
        failed_late = threading.Event()

        def work(index):
            if index == 2:
                assert failed_late.wait(timeout=5)
                raise ValidationError("item 2")
            if index == 4:
                failed_late.set()
                raise ValidationError("item 4")
            return index

        with pytest.raises(ValidationError, match="item 2"):
            ordered_map(work, range(6), workers=6)

    @pytest.mark.parametrize("workers, count", [(1, 5), (4, 1)])
    def test_one_worker_runs_serially_on_the_caller(self, workers, count):
        threads = ordered_map(lambda _: threading.get_ident(), range(count),
                              workers=workers)
        assert threads == [threading.get_ident()] * count

    @pytest.mark.parametrize("workers", [1, 3])
    def test_spans_nest_under_the_captured_parent(self, workers):
        tracer = Tracer()
        with tracer.span("cycle"):
            with tracer.span("stage"):
                ordered_map(lambda item: item, ["a", "b", "c"], workers,
                            tracer=tracer, span_name="task",
                            tags=lambda item: {"item": item})
        assert [span.name for span in tracer.traces] == ["cycle"]
        stage = tracer.last_trace().find("stage")
        tasks = stage.children
        assert [span.name for span in tasks] == ["task"] * 3
        assert sorted(span.tags["item"] for span in tasks) == ["a", "b", "c"]
        assert all(span.work for span in tasks)
        assert set(tracer.last_trace().flatten()) == {
            "cycle", "stage", "task.work"}

    def test_empty_input(self):
        assert ordered_map(lambda item: item, [], workers=4) == []


class TestCardinalityGuard:
    def test_new_series_beyond_limit_clamp_to_overflow(self):
        import warnings

        from repro.obs import OVERFLOW_KEY

        registry = MetricsRegistry(max_label_sets=2)
        counter = registry.counter("caop_requests_total", "help")
        counter.inc(feed="a")
        counter.inc(feed="b")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            counter.inc(feed="c")
            counter.inc(feed="d")
        assert len(caught) == 1  # warned once per family
        assert "caop_requests_total" in str(caught[0].message)
        assert counter.clamped == 2
        assert counter.value(feed="a") == 1
        assert counter.value(feed="c") == 0
        overflow_labels = dict(OVERFLOW_KEY)
        assert counter.value(**overflow_labels) == 2

    def test_existing_series_keep_recording_at_the_limit(self):
        registry = MetricsRegistry(max_label_sets=1)
        gauge = registry.gauge("caop_depth")
        gauge.set(1.0, queue="q")
        gauge.set(7.0, queue="q")
        assert gauge.value(queue="q") == 7.0
        assert gauge.clamped == 0

    def test_zero_limit_disables_the_guard(self):
        registry = MetricsRegistry(max_label_sets=0)
        counter = registry.counter("caop_unbounded_total")
        for index in range(50):
            counter.inc(key=str(index))
        assert counter.clamped == 0
        assert counter.total() == 50

    def test_clear_resets_guard_state(self):
        import warnings

        registry = MetricsRegistry(max_label_sets=1)
        counter = registry.counter("caop_reset_total")
        counter.inc(k="a")
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            counter.inc(k="b")
        assert counter.clamped == 1
        counter.clear()
        assert counter.clamped == 0
        counter.inc(k="z")
        assert counter.value(k="z") == 1

    def test_histogram_observations_clamp_too(self):
        import warnings

        registry = MetricsRegistry(max_label_sets=1)
        hist = registry.histogram("caop_latency_seconds")
        hist.observe(0.1, route="a")
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            hist.observe(0.2, route="b")
        assert hist.clamped == 1
