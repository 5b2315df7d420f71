"""Run one benchmark workload and print its metrics.

    python3 benchmarks/perf/run.py --workload ingest --seed 7 --seconds 15 --trace 0

Sets the workload up three times (``setup_s`` is the median), runs its
timed cycles, checks the program's outputs, and prints one line per
metric followed, as the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics, derived from spans recorded
around the calls into each layer (see ``tracing.py``), and every span is
written to ``.bench_build/perf/trace_<workload>.json``.  End-to-end
timings are scaled to a reference host speed (see ``PROBE_REFERENCE_S``).

``--seconds`` fixes the length of the timed phase through each workload's
nominal cycle rate, so a given ``--seconds`` always runs the same cycles
and a seed always ends in the same store fingerprint.  ``--program DIR``
benchmarks the program under ``DIR/src`` instead of this checkout's
(``compare.py`` uses it to run one benchmark against two commits).

Exit status: 0 when the outputs are correct, 1 when the correctness gate
failed, 2 when the program or ``BENCHMARK.json`` cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Times the workload is set up per untraced run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Position of a timed cycle within each group of four that is traced.
#: Traced and untraced cycles alternate in ABBA order, so a cost trend
#: over the run biases neither side of ``bench.trace_overhead``.
TRACED_SLOTS = (1, 2)
#: Calibration probe.  The speed of a shared host drifts by a third in
#: phases lasting seconds (a fixed pure-Python loop varied 15-26 ms per
#: call on a 2-vCPU VM), far more than the changes the benchmark must
#: resolve.  So every end-to-end timing is scaled to a reference speed:
#: multiplied by ``PROBE_REFERENCE_S`` over the mean of the probe times
#: measured just before and just after it.  The probe takes about 3 ms on
#: a quiet host of that kind; the raw values are printed alongside.
PROBE_LOOPS = 40_000
PROBE_REFERENCE_S = 0.003

from stats import median, ratio, tail  # noqa: E402


def load_declared() -> Dict[str, Any]:
    """``BENCHMARK.json`` of the checkout this script belongs to."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


class Result:
    """What one run measured and checked."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.notes: Dict[str, str] = {}
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.fingerprint = ""
        self.cycles = 0

    @property
    def correct(self) -> bool:
        return not self.failures and self.failed == 0


class Cycle:
    """One timed cycle: raw wall and CPU seconds, speed factor, counters,
    and its deliveries' visibility delays at reference speed."""

    __slots__ = ("wall", "cpu", "factor", "info", "visible")

    def __init__(self, wall: float, cpu: float, factor: float,
                 info: Dict[str, int], visible: List[float]) -> None:
        self.wall = wall
        self.cpu = cpu
        self.factor = factor
        self.info = info
        self.visible = visible


def probe() -> float:
    """Seconds the calibration loop takes right now (best of three)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(PROBE_LOOPS):
            total += value * value % 7
        best = min(best, time.perf_counter() - started)
    return best


def speed_factor(before: float, after: float) -> float:
    """Scale from the measured speed to the reference speed."""
    return PROBE_REFERENCE_S / ((before + after) / 2)


def measure(name: str, seed: int, seconds: float, trace: bool,
            quick: bool = False,
            overrides: Optional[Dict[str, Any]] = None) -> Result:
    """Set up, run and check one workload in this process."""
    from tracing import Recorder
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    result = Result()
    result.cycles = count = cls.cycles_for(seconds, quick)
    work_root = ROOT / ".bench_build" / "perf"
    setups: List[Tuple[float, float]] = []
    workload = None
    recorder = Recorder() if trace else None
    cycles: List[Cycle] = []
    traced: List[int] = []
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if workload is not None:
                # A workload holds itself in reference cycles (its
                # consumers' callbacks), so the collection frees the last
                # set-up only once nothing else refers to it.
                workload.close()
                workload = None
                gc.collect()
            workload = cls(seed, count, quick=quick,
                           work_dir=str(work_root / f"{name}-{os.getpid()}"),
                           overrides=overrides)
            before = probe()
            started = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - started
            setups.append((elapsed, speed_factor(before, probe())))
        before = probe()
        for index in range(count):
            tracing = recorder is not None and index % 4 in TRACED_SLOTS
            if tracing:
                recorder.install(workload.trace_targets())
                traced.append(index)
            seen = len(workload.visible)
            cpu_started = time.process_time()
            workload.cycle_start = started = time.perf_counter()
            if tracing:
                with recorder.root(index):
                    info = workload.cycle()
            else:
                info = workload.cycle()
            wall = time.perf_counter() - started
            cpu = time.process_time() - cpu_started
            if tracing:
                recorder.uninstall()
            after = probe()
            factor = speed_factor(before, after)
            before = after
            cycles.append(Cycle(
                wall, cpu, factor, info,
                [delay * factor for delay in workload.visible[seen:]]))
        infos = [cycle.info for cycle in cycles]
        result.attempted = sum(info["attempted"] for info in infos)
        result.failed = sum(info["failed"] for info in infos)
        result.failures = workload.gate(infos)
        if not any(cycle.visible for cycle in cycles):
            result.failures.append("no delivery reached a consumer")
        result.fingerprint = workload.fingerprint()
        if trace:
            per_layer(result, recorder, cycles, traced,
                      workload.event_count())
            work_root.mkdir(parents=True, exist_ok=True)
            recorder.dump(str(work_root / f"trace_{name}.json"), name)
        else:
            end_to_end(result, setups, cycles)
    finally:
        if workload is not None:
            workload.close()
    return result


def end_to_end(result: Result, setups: List[Tuple[float, float]],
               cycles: List[Cycle]) -> None:
    """The metrics a user of the system would see, at reference speed."""
    walls = [cycle.wall * cycle.factor for cycle in cycles]
    cycle_tail, cycle_pct, cycle_n = tail(walls)
    visible = [delay for cycle in cycles for delay in cycle.visible]
    result.metrics.update({
        "setup_s": median([elapsed * factor for elapsed, factor in setups]),
        "cycle_ms_p50": median(walls) * 1000,
        "cycle_ms_tail": cycle_tail * 1000,
        "cpu_ms_per_cycle": 1000 * sum(cycle.cpu * cycle.factor
                                       for cycle in cycles) / len(cycles),
        "indicators_per_s": ratio(
            sum(cycle.info["indicators"] for cycle in cycles), sum(walls)),
        "visible_ms_p50": median(visible) * 1000,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    raw_walls = [cycle.wall for cycle in cycles]
    result.notes.update({
        "setup_s": f"median of {len(setups)}; raw "
                   f"{median([elapsed for elapsed, _ in setups]):.4f}",
        "cycle_ms_p50": f"n={cycle_n}; raw {median(raw_walls) * 1000:.4f}",
        "cycle_ms_tail": f"p{cycle_pct} n={cycle_n}",
        "cpu_ms_per_cycle": "raw " + format(
            1000 * sum(cycle.cpu for cycle in cycles) / len(cycles), ".4f"),
        "visible_ms_p50": f"n={len(visible)}",
    })


def per_layer(result: Result, recorder, timed: List[Cycle],
              traced: List[int], events_end: int) -> None:
    """Per-layer metrics from the traced cycles (per cycle unless noted).

    Layer times are raw milliseconds; only ``bench.trace_overhead``
    compares cycles at reference speed.
    """
    from tracing import ROOT as ROOT_LAYER, LayerTimes

    layers = LayerTimes(recorder.spans)
    cycles = len(traced)
    infos = [cycle.info for cycle in timed]
    traced_infos = [infos[index] for index in traced]

    def per_cycle(key: str) -> float:
        return sum(info.get(key, 0) for info in traced_infos) / cycles

    def ms(seconds: float) -> float:
        return seconds * 1000 / cycles

    enriched = sum(len(batch) for batch in layers.results["heuristics"])
    shares = layers.results["sharing"]
    renders = sum(report.renders + report.render_hits for report in shares)
    compactions = [span.duration for span in recorder.spans
                   if span.layer == "compaction" and span.result.ran]
    reconciles = [span.duration for span in recorder.spans
                  if span.layer == "federation.reconcile"]
    untraced = [cycle for index, cycle in enumerate(timed)
                if index not in traced]
    traced_walls = [timed[index].wall for index in traced]
    # Demoted from the end-to-end metrics: its spread across seeds stayed
    # above 10% at every run length the time budget allows.
    seen_tail, seen_pct, seen_n = tail(
        [delay for cycle in untraced for delay in cycle.visible])
    result.metrics.update({
        "platform.self_ms": ms(layers.self_of(ROOT_LAYER)),
        "feeds.requests": layers.calls["feeds"] / cycles,
        "feeds.wait_ms": ms(layers.durations["feeds"]),
        "feeds.wait_wall_ms": ms(layers.wall.get("feeds", 0.0)),
        "feeds.concurrency": ratio(layers.durations["feeds"],
                                   layers.wall.get("feeds", 0.0)),
        "collector.self_ms": ms(layers.self_of("collector")),
        "collector.records": per_cycle("records"),
        "collector.new_ratio": ratio(per_cycle("ciocs"),
                                     per_cycle("records")),
        "heuristics.self_ms": ms(layers.self_of("heuristics")),
        "heuristics.eiocs": enriched / cycles,
        "heuristics.ms_per_eioc": ratio(
            layers.self_of("heuristics") * 1000, enriched),
        "misp.add_events_ms": ms(layers.self_of("misp.add_events")),
        "misp.apply_enrichments_ms":
            ms(layers.self_of("misp.apply_enrichments")),
        "misp.receive_events_ms": ms(layers.self_of("misp.receive_events")),
        "misp.sql": per_cycle("sql"),
        "misp.payloads": per_cycle("payloads"),
        "misp.events_end": events_end,
        "infra.ms": ms(layers.self_of("infra")),
        "reduce.ms": ms(layers.self_of("reduce")),
        "reduce.rioc_ratio": ratio(per_cycle("riocs"), per_cycle("eiocs")),
        "dashboard.push_ms": ms(layers.self_of("dashboard.push")),
        "dashboard.sync_view_ms": ms(layers.self_of("dashboard.sync_view")),
        "dashboard.flush_ms": ms(layers.self_of("dashboard.flush")),
        "dashboard.pump_ms": ms(layers.self_of("dashboard.pump")),
        "dashboard.fanout_deltas": per_cycle("fanout_deltas"),
        "dashboard.fanout_shed": per_cycle("fanout_shed"),
        "deltas.refresh_ms": ms(layers.self_of("deltas")),
        "deltas.consumed": per_cycle("deltas"),
        "compaction.ms_per_run":
            ratio(sum(compactions) * 1000, len(compactions)),
        "compaction.runs": sum(info.get("compacted", 0) for info in infos),
        "sharing.sync_ms": ms(layers.self_of("sharing")),
        "sharing.taxii_ms": ms(layers.self_of("sharing.taxii")),
        "sharing.shares": sum(report.shared for report in shares) / cycles,
        "sharing.render_hit_rate":
            ratio(sum(report.render_hits for report in shares), renders),
        "sharing.failures": sum(report.failed + report.breaker_skipped
                                for report in shares) / cycles,
        "federation.sync_ms": ms(layers.self_of("federation.sync")),
        "federation.transmit_ms": ms(layers.self_of("federation.transmit")),
        "federation.reconcile_ms_per_run":
            ratio(sum(reconciles) * 1000, len(reconciles)),
        "federation.bytes_per_event":
            ratio(per_cycle("bytes"), per_cycle("indicators")),
        "federation.messages": per_cycle("messages"),
        "bench.trace_overhead": ratio(
            median([timed[index].wall * timed[index].factor
                    for index in traced]),
            median([cycle.wall * cycle.factor for cycle in untraced])),
        "bench.attributed": ratio(sum(layers.self_time.values()),
                                  sum(traced_walls)),
        "bench.traced_cycles": cycles,
        "bench.visible_tail_ms": seen_tail * 1000,
    })
    result.notes.update({
        "compaction.runs": f"whole run, {len(compactions)} traced",
        "federation.reconcile_ms_per_run": f"{len(reconciles)} traced",
        "misp.events_end": "end of run",
        "bench.traced_cycles": f"of {len(timed)}",
        "bench.visible_tail_ms": f"p{seen_pct} n={seen_n}, untraced cycles",
    })


def report(result: Result, declared: List[Dict[str, str]], name: str,
           seed: int, trace: bool) -> str:
    """Human-readable lines, then the JSON result line."""
    units = {metric["name"]: metric["unit"] for metric in declared}
    missing = sorted(set(units) - set(result.metrics))
    if missing:
        raise KeyError(f"declared metrics not measured: {missing}")
    lines = [f"workload {name}  seed {seed}  timed cycles {result.cycles}"
             f"  trace {'on' if trace else 'off'}"]
    for metric in declared:
        metric_name = metric["name"]
        note = result.notes.get(metric_name, "")
        lines.append(f"  {metric_name:<34} {result.metrics[metric_name]:>14.4f}"
                     f" {metric['unit']:<6} {note}".rstrip())
    lines.append(f"fingerprint {result.fingerprint}")
    lines.append(f"attempted {result.attempted}  failed {result.failed}")
    lines.append("gate " + ("ok" if result.correct
                            else "FAILED: " + "; ".join(result.failures)))
    lines.append(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {metric_name: {"value": result.metrics[metric_name],
                                  "unit": units[metric_name]}
                    for metric_name in units},
    }))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="timed phase length (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and 3 timed cycles (smoke test)")
    parser.add_argument("--program", type=Path, default=ROOT,
                        help="checkout whose src/ is benchmarked")
    args = parser.parse_args(argv)
    source = args.program.resolve() / "src"
    if not (source / "repro").is_dir():
        print(f"no program to benchmark: {source / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        declared = load_declared()
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None \
        else declared["run_seconds"]
    result = measure(args.workload, args.seed, seconds,
                     bool(args.trace), quick=args.quick)
    print(report(result, declared["per_layer" if args.trace
                                  else "end_to_end"],
                 args.workload, args.seed, bool(args.trace)))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
