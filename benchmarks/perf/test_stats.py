"""Unit tests for the harness's statistics, self-time and verdict rules."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from stats import (
    median,
    quartiles,
    subtract,
    tail,
    tail_percentile,
    union_length,
    verdict,
    within_bound,
)
from tracing import ROOT, LayerTimes, Recorder, SpanRecord


@pytest.mark.parametrize("count, percentile", [
    (0, 50), (5, 50), (20, 50), (25, 60), (30, 66), (60, 83), (123, 91),
    (1000, 99), (15688, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(count, percentile):
    assert tail_percentile(count) == percentile


@pytest.mark.parametrize("count", [11, 21, 25, 30, 47, 60, 123, 999])
def test_tail_value_has_ten_samples_above_and_is_not_below_median(count):
    values = [float(value) for value in range(1, count + 1)]
    value, percentile, samples = tail(list(reversed(values)))
    assert samples == count
    if percentile > 50:
        assert sum(1 for other in values if other > value) >= 10
    assert value >= median(values)


def test_tail_with_too_few_samples_is_the_median():
    assert tail([1.0, 2.0, 3.0, 10.0]) == (2.5, 50, 4)
    assert tail([]) == (0.0, 50, 0)


def test_union_counts_overlap_once():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.8)]) == 4
    assert union_length([]) == 0


def test_subtract_leaves_uncovered_pieces():
    assert subtract((0, 10), [(1, 3), (2, 4), (8, 12)]) == [(0, 1), (4, 8)]
    assert subtract((0, 1), [(-1, 2)]) == []
    assert subtract((0, 1), []) == [(0, 1)]


def _span(layer, start, end, parent=None, thread=0):
    span = SpanRecord(layer, start, thread, parent, trace=0)
    span.end = end
    return span


def test_self_time_with_overlapping_worker_spans():
    root = _span(ROOT, 0, 10)
    collect = _span("collector", 1, 6, root)
    workers = [_span("feeds", 2, 4, collect, thread=1),
               _span("feeds", 2.5, 4.5, collect, thread=2),
               _span("feeds", 3, 5, collect, thread=3)]
    store = _span("misp.add_events", 5, 5.5, collect)
    layers = LayerTimes([root, collect, store] + workers)
    assert layers.self_time["collector"] == pytest.approx(1.5)
    assert layers.self_time["feeds"] == pytest.approx(3.0)
    assert layers.durations["feeds"] == pytest.approx(6.0)
    assert layers.wall["feeds"] == pytest.approx(3.0)
    assert layers.self_time[ROOT] == pytest.approx(5.0)
    # Union-based self times add up to the cycle, concurrency or not.
    assert sum(layers.self_time.values()) == pytest.approx(root.duration)


class _Target:
    def work(self, value):
        return value * 2


def test_recorder_restores_attributes_and_parents_pool_spans():
    target = _Target()
    own = _Target()
    own.work = lambda value: value + 1
    recorder = Recorder()
    recorder.install([(target, "work", "layer.class", True),
                      (own, "work", "layer.own", False)])
    with recorder.root(trace=3):
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(target.work, [1, 2, 3])) == [2, 4, 6]
        assert own.work(1) == 2
    recorder.uninstall()
    assert "work" not in vars(target)
    assert own.work(1) == 2 and own.work.__name__ == "<lambda>"
    root = next(span for span in recorder.spans if span.layer == ROOT)
    pooled = [span for span in recorder.spans if span.layer == "layer.class"]
    assert len(pooled) == 3
    assert all(span.parent is root and span.trace == 3 for span in pooled)
    assert {span.thread for span in pooled} != {threading.get_ident()}
    assert sorted(span.result for span in pooled) == [2, 4, 6]


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25)


def test_bounds_respect_direction():
    assert within_bound(100, 109, "lower", 0.10)
    assert not within_bound(100, 111, "lower", 0.10)
    assert within_bound(100, 91, "higher", 0.10)
    assert not within_bound(100, 89, "higher", 0.10)


def test_verdicts():
    steady = [100 + offset for offset in (0, 1, -1, 2, -2, 1, 0, -1, 2, 0)]
    assert verdict([(p, p * 0.8) for p in steady], "lower", 0.1) == "improved"
    assert verdict([(p, p * 1.2) for p in steady], "lower", 0.1) == "worse"
    assert verdict([(p, p * 1.01) for p in steady], "lower", 0.1) \
        == "unchanged"
    assert verdict([(p, p * 1.2) for p in steady], "higher", 0.1) \
        == "improved"
    # 8/10 wins is not enough for a gain, even with a large gap.
    mixed = [(p, p * 0.8) for p in steady[:8]] + \
        [(p, p * 1.01) for p in steady[8:]]
    assert verdict(mixed, "lower", 0.1) == "unchanged"
    noisy = [(100 * (1 + 0.3 * (i % 2)), 100 * (1 + 0.3 * ((i + 1) % 2)))
             for i in range(10)]
    assert verdict(noisy, "lower", 0.1) == "unresolved"
