"""X13: telemetry overhead guard.

The observability layer wires counters, histograms, spans, per-IoC
lineage, structured log records and SLO burn rates through every stage of
``run_cycle()``; ``PlatformConfig.metrics_enabled`` switches all of them.
This bench runs the same workload with the stack on and off and asserts
the instrumented path stays within 10% of the uninstrumented one, so later
changes cannot quietly regress the hot path with expensive
instrumentation.
"""

import time

import pytest

from repro import ContextAwareOSINTPlatform, PlatformConfig

from conftest import print_table

CYCLES = 3
TRIALS = 5
ENTRIES = 40
OVERHEAD_BUDGET = 1.10
ATTEMPTS = 3


def run_trial(metrics_enabled: bool) -> float:
    config = PlatformConfig(seed=13, feed_entries=ENTRIES,
                            metrics_enabled=metrics_enabled)
    platform = ContextAwareOSINTPlatform.build_default(config)
    start = time.perf_counter()
    platform.run(CYCLES)
    return time.perf_counter() - start


def measure() -> tuple:
    """(instrumented_min, bare_min) over interleaved trials.

    Interleaving means background load inflates both variants alike; the
    per-variant minimum is the best estimate of the true floor.
    """
    instrumented, bare = [], []
    for _ in range(TRIALS):
        instrumented.append(run_trial(True))
        bare.append(run_trial(False))
    return min(instrumented), min(bare)


def test_x13_observability_overhead_within_budget():
    # Warm-up: touch every code path once so import/JIT-ish costs are shared.
    run_trial(True)
    run_trial(False)
    # Wall-clock ratios on a loaded machine are noisy; re-measure before
    # declaring a real regression.
    for attempt in range(ATTEMPTS):
        instrumented, bare = measure()
        ratio = instrumented / bare
        if ratio < OVERHEAD_BUDGET:
            break
    print_table(
        f"X13: telemetry overhead ({CYCLES} cycles, best of {TRIALS} "
        f"interleaved trials)",
        "variant / wall time / ratio",
        [
            f"metrics disabled  {bare * 1000:8.1f} ms  1.000",
            f"metrics enabled   {instrumented * 1000:8.1f} ms  {ratio:.3f}",
        ])
    assert ratio < OVERHEAD_BUDGET, (
        f"instrumented run_cycle is {ratio:.2f}x the uninstrumented run "
        f"(budget {OVERHEAD_BUDGET}x) across {ATTEMPTS} measurement attempts")


def test_x13_instrumented_run_actually_recorded():
    """The comparison is honest: the instrumented platform really records."""
    config = PlatformConfig(seed=13, feed_entries=20)
    platform = ContextAwareOSINTPlatform.build_default(config)
    report = platform.run_cycle()
    assert report.timings["cycle"] > 0.0
    assert platform.metrics.counter("caop_cycles_total").value() == 1
    assert platform.misp.store.provenance_count() > 0
    assert platform.log.records()
    assert platform.slo.last_statuses()

    disabled = ContextAwareOSINTPlatform.build_default(
        PlatformConfig(seed=13, feed_entries=20, metrics_enabled=False))
    bare = disabled.run_cycle()
    assert bare.timings == {}
    assert disabled.misp.store.provenance_count() == 0
    assert disabled.log.records() == []
    assert disabled.slo is None
    # The baseline still runs the pipeline for real.
    assert bare.collection.ciocs_created > 0


@pytest.mark.parametrize("metrics_enabled", [True, False])
def test_bench_x13_cycle(benchmark, metrics_enabled):
    def cycle():
        platform = ContextAwareOSINTPlatform.build_default(
            PlatformConfig(seed=13, feed_entries=20,
                           metrics_enabled=metrics_enabled))
        return platform.run_cycle()

    report = benchmark.pedantic(cycle, rounds=3, iterations=1)
    assert report.collection.ciocs_created > 0
