"""Repeat the benchmark over seeds and summarise each metric's spread.

Run from the root of a pathstat checkout:

    python3 perfbench/collect.py --seeds 1-10 --workloads analyze_file suite_zoo \
        testbench_offset --out runs.json

For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json.  Runs are
made one after another, never in parallel.  ``--out`` keeps every run's
result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else float("nan"),
            "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--workloads", nargs="+",
                        default=["analyze_file", "suite_zoo", "testbench_offset"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            line = json.loads(lines[-1])
            ops = [t.split(None, 1)[1] for t in lines
                   if t.strip().startswith("ops_failed_frac")]
            runs.setdefault(workload, []).append(
                {"seed": seed, "wall_s": wall, "ops_failed_frac": ops[0], **line})
            print(f"{workload} seed={seed} wall={wall:.1f}s correct={line['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in line["metrics"].items()), flush=True)
    summary = {}
    for workload, results in runs.items():
        summary[workload] = {}
        for name in bounds:
            stats = summarise([r["metrics"][name]["value"] for r in results])
            summary[workload][name] = stats
            print(f"{workload:<17} {name:<24} median={stats['median']:<12.6g} "
                  f"q1={stats['q1']:<12.6g} q3={stats['q3']:<12.6g} "
                  f"iqr/median={stats['iqr_over_median']:.4f} "
                  f"bound={bounds[name]}")
    if args.out:
        Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs},
                                             indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
