"""Smoke test: every workload, untraced and traced, on tiny inputs.

Runs ``run.py --quick`` (3 timed cycles) as a child process from the
repository root, as any outside harness does, then checks the output
contract, the correctness gate, that every declared metric and span shows
up non-empty on the workload that exercises its layer, and the
determinism the ``compare`` tool relies on.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]

#: Layer -> the workload whose quick run must exercise it.
HEAVY = {
    "platform": "ingest", "bench": "ingest", "collector": "ingest",
    "heuristics": "ingest", "misp": "ingest", "infra": "ingest",
    "reduce": "ingest", "dashboard": "large_store", "deltas": "large_store",
    "compaction": "large_store", "feeds": "remote", "sharing": "remote",
    "federation": "federate",
}
#: Metrics and spans whose layer prefix alone names the wrong workload.
HEAVY_EXCEPTIONS = {"misp.receive_events_ms": "federate",
                    "misp.receive_events": "federate",
                    "sharing.taxii": "remote"}
#: Counts that are legitimately zero on a healthy run.
MAY_BE_ZERO = {"sharing.failures", "dashboard.fanout_shed"}


def heavy_workload(name):
    return HEAVY_EXCEPTIONS.get(name) or HEAVY[name.split(".")[0]]


def run(workload, trace, cwd=ROOT, root=ROOT):
    done = subprocess.run(
        [sys.executable, str(root / "benchmarks/perf/run.py"),
         "--workload", workload, "--seed", "11", "--quick",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run(workload, trace)
            assert done.returncode == 0, done.stdout + done.stderr
            lines = done.stdout.strip().splitlines()
            spans = None
            if trace:
                spans = json.loads((ROOT / ".bench_build/perf"
                                    / f"trace_{workload}.json").read_text())
            out[workload, trace] = {
                "result": json.loads(lines[-1]),
                "fingerprint": next(line.split()[1] for line in lines
                                    if line.startswith("fingerprint ")),
                "spans": spans,
            }
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present_nonzero_and_correct(results, workload):
    result = results[workload, 0]["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    for metric in DECLARED["end_to_end"]:
        measured = result["metrics"][metric["name"]]
        assert measured["unit"] == metric["unit"]
        assert measured["value"] > 0, metric["name"]


def test_per_layer_metrics_nonempty_on_heavy_workload(results):
    for metric in DECLARED["per_layer"]:
        name = metric["name"]
        for workload in WORKLOADS:
            assert name in results[workload, 1]["result"]["metrics"]
        if name not in MAY_BE_ZERO:
            value = results[heavy_workload(name), 1]["result"]["metrics"]
            assert value[name]["value"] > 0, name


def test_traced_layers_add_up_to_cycle_time(results):
    for workload in WORKLOADS:
        metrics = results[workload, 1]["result"]["metrics"]
        assert metrics["bench.attributed"]["value"] == pytest.approx(
            1.0, abs=0.05)


def test_every_span_recorded_on_its_heavy_workload(results):
    layers = {
        "platform", "feeds", "collector", "heuristics", "misp.add_events",
        "misp.apply_enrichments", "misp.receive_events", "infra", "reduce",
        "dashboard.push", "dashboard.sync_view", "dashboard.flush",
        "dashboard.pump", "deltas", "compaction", "sharing", "sharing.taxii",
        "federation.sync", "federation.transmit", "federation.reconcile"}
    for layer in layers:
        spans = results[heavy_workload(layer), 1]["spans"]["spans"]
        named = [span for span in spans if span["name"] == layer]
        assert named, layer
        assert all(span["end_ms"] >= span["start_ms"] for span in named)
        assert all(span["parent"] is not None for span in named
                   if span["name"] != "platform")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_fingerprint_traced_or_not(results, workload):
    assert results[workload, 0]["fingerprint"] == \
        results[workload, 1]["fingerprint"]


@pytest.mark.parametrize("workload, overrides", [
    ("remote", {"fetch_workers": 1, "enrich_workers": 1, "share_workers": 1}),
    ("large_store", {"fetch_workers": 1, "enrich_workers": 1}),
    ("federate", {"workers": 1}),
])
def test_one_worker_config_ends_in_same_store(results, workload, overrides):
    sys.path.insert(0, str(ROOT / "src"))
    from run import measure

    serial = measure(workload, 11, 0, trace=True, quick=True,
                     overrides=overrides)
    assert serial.correct
    assert serial.fingerprint == results[workload, 0]["fingerprint"]


def test_fails_without_result_when_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks/perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("ingest", 0, cwd=tmp_path, root=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
