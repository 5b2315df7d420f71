"""Compare two checkouts on the benchmark with paired, alternating runs.

    python3 benchmarks/perf/compare.py --parent ../parent --change . \\
        [--workloads ingest remote] [--pairs 10] [--seed 100]

Both sides run *this* checkout's benchmark code with identical settings
(``run.py --program``), pair ``i`` on seed ``seed + i``, and the side that
runs first alternates from pair to pair.  For every end-to-end metric of
``BENCHMARK.json`` and every workload it prints each side's quartiles and a
verdict from :func:`stats.verdict` (improved / worse / unchanged /
unresolved) using the metric's bound.  It refuses to compare — exit 3 —
when a pair's store fingerprints differ or a run fails its correctness
gate, since then the two sides did not do the same work.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

from stats import quartiles, verdict  # noqa: E402

#: Longest a single run may take before it counts as hung.
RUN_TIMEOUT = 900


def invoke(program: Path, workload: str, seed: int, seconds: float,
           trace: bool = False) -> Dict[str, Any]:
    """One ``run.py`` child process; its JSON result plus its fingerprint."""
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--program", str(program)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:"
                           f"\n{done.stderr}")
    result = json.loads(lines[-1])
    result["fingerprint"] = next(
        (line.split()[1] for line in lines if line.startswith("fingerprint ")),
        "")
    return result


def compare_workload(parent: Path, change: Path, workload: str, pairs: int,
                     seed: int, seconds: float,
                     metrics: List[Dict[str, Any]]) -> Optional[List[str]]:
    """Table rows for one workload, or None when the sides differ."""
    values: Dict[str, List[tuple]] = {metric["name"]: [] for metric in metrics}
    for index in range(pairs):
        sides = [("parent", parent), ("change", change)]
        if index % 2:
            sides.reverse()
        runs = {side: invoke(program, workload, seed + index, seconds)
                for side, program in sides}
        for side, run in runs.items():
            if not run["correct"]:
                print(f"{workload}: {side} failed its correctness gate "
                      f"on seed {seed + index}", file=sys.stderr)
                return None
        if runs["parent"]["fingerprint"] != runs["change"]["fingerprint"]:
            print(f"{workload}: store fingerprints differ on seed "
                  f"{seed + index}; the change alters outputs",
                  file=sys.stderr)
            return None
        for name, pair in values.items():
            pair.append((runs["parent"]["metrics"][name]["value"],
                         runs["change"]["metrics"][name]["value"]))
    rows = []
    for metric in metrics:
        pair = values[metric["name"]]
        parent_q = quartiles([p for p, _ in pair])
        change_q = quartiles([c for _, c in pair])
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(1 for p, c in pair if sign * (p - c) > 0)
        rows.append(
            f"{metric['name']:<18} {workload:<12} "
            + " ".join(f"{q:>10.3f}" for q in parent_q) + "  "
            + " ".join(f"{q:>10.3f}" for q in change_q)
            + f"  {wins:>2}/{len(pair)}  "
            + verdict(pair, metric["better"], metric["bound"]))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    args = parser.parse_args(argv)
    metrics = declared["end_to_end"]
    print(f"{'metric':<18} {'workload':<12} "
          f"{'parent q1':>10} {'median':>10} {'q3':>10}  "
          f"{'change q1':>10} {'median':>10} {'q3':>10}  wins  verdict")
    status = 0
    for workload in args.workloads:
        rows = compare_workload(args.parent.resolve(), args.change.resolve(),
                                workload, args.pairs, args.seed,
                                args.seconds, metrics)
        if rows is None:
            status = 3
            continue
        print("\n".join(rows))
    return status


if __name__ == "__main__":
    sys.exit(main())
