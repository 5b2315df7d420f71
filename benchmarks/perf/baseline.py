"""Record the benchmark baseline of this checkout.

    python3 benchmarks/perf/baseline.py [--runs 2] [--seed 7] [--out DIR]

For each workload: ``--runs`` untraced runs on seeds ``seed, seed+1, ...``
and one traced run on ``seed``, written to ``DIR/BENCH_<workload>.json``
(default ``benchmarks/perf/baseline``) with every run's metrics, each
end-to-end metric's median (and, from four runs on, its quartiles and
spread), the tracing overhead, the end-state fingerprints and the host
(CPU count, Python, platform).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

from compare import invoke  # noqa: E402
from stats import quartiles, spread  # noqa: E402

#: Quartiles of fewer runs are extrapolated, so no spread is recorded.
MIN_RUNS_FOR_SPREAD = 4


def main(argv: Optional[List[str]] = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=HERE / "baseline")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in declared["workloads"]])
    args = parser.parse_args(argv)
    seconds = declared["run_seconds"]
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}
    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in args.workloads:
        runs = [invoke(ROOT, workload, args.seed + index, seconds)
                for index in range(args.runs)]
        traced = invoke(ROOT, workload, args.seed, seconds, trace=True)
        summary = {}
        for metric in declared["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            q1, q2, q3 = quartiles(values)
            summary[metric["name"]] = {
                "unit": metric["unit"], "median": q2, "bound": metric["bound"]}
            if len(values) >= MIN_RUNS_FOR_SPREAD:
                summary[metric["name"]].update(
                    q1=q1, q3=q3, spread=spread(values))
        correct = all(run["correct"] for run in runs + [traced])
        record = {
            "workload": workload,
            "seconds": seconds,
            "host": host,
            "correct": correct,
            "runs": [{"seed": args.seed + index,
                      "fingerprint": run["fingerprint"],
                      "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": {name: value["value"] for name, value
                                  in run["metrics"].items()}}
                     for index, run in enumerate(runs)],
            "summary": summary,
            "traced": {"seed": args.seed,
                       "fingerprint": traced["fingerprint"],
                       "matches_untraced": (traced["fingerprint"]
                                            == runs[0]["fingerprint"]),
                       "metrics": {name: value["value"] for name, value
                                   in traced["metrics"].items()}},
            "trace_overhead":
                traced["metrics"]["bench.trace_overhead"]["value"],
        }
        path = args.out / f"BENCH_{workload}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: correct={correct} "
              f"trace_overhead={record['trace_overhead']:.3f} -> {path}")
        for name, item in summary.items():
            print(f"  {name:<18} median {item['median']:>12.4f} {item['unit']:<5}"
                  f" spread {item.get('spread', float('nan')):.4f}"
                  f" (bound {item['bound']})")
        if not correct or not record["traced"]["matches_untraced"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
