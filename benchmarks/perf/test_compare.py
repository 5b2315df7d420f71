"""compare.py pairs runs, alternates sides and refuses unequal work."""

from pathlib import Path

import compare

METRICS = [{"name": "cycle_ms_p50", "unit": "ms", "better": "lower",
            "bound": 0.25}]


def fake_runs(monkeypatch, fingerprint_of, value_of, correct=True):
    calls = []

    def invoke(program, workload, seed, seconds, trace=False):
        calls.append((program.name, seed))
        return {"correct": correct, "fingerprint": fingerprint_of(program),
                "metrics": {"cycle_ms_p50": {"value": value_of(program, seed),
                                             "unit": "ms"}}}
    monkeypatch.setattr(compare, "invoke", invoke)
    return calls


def test_pairs_alternate_and_change_that_is_faster_is_improved(monkeypatch):
    calls = fake_runs(monkeypatch, lambda program: "same",
                      lambda program, seed: (100.0 + seed % 3)
                      * (0.7 if program.name == "change" else 1.0))
    rows = compare.compare_workload(Path("parent"), Path("change"), "ingest",
                                    10, 1, 1.0, METRICS)
    assert rows and rows[0].endswith("10/10  improved")
    assert calls[:4] == [("parent", 1), ("change", 1),
                         ("change", 2), ("parent", 2)]


def test_refuses_when_fingerprints_differ(monkeypatch):
    fake_runs(monkeypatch, lambda program: program.name,
              lambda program, seed: 100.0)
    assert compare.compare_workload(Path("parent"), Path("change"), "ingest",
                                    10, 1, 1.0, METRICS) is None


def test_refuses_when_a_run_fails_its_gate(monkeypatch):
    fake_runs(monkeypatch, lambda program: "same",
              lambda program, seed: 100.0, correct=False)
    assert compare.compare_workload(Path("parent"), Path("change"), "ingest",
                                    10, 1, 1.0, METRICS) is None
