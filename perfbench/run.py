"""pathstat benchmark: one workload, end-to-end metrics or a per-layer trace.

Run from the root of a pathstat checkout:

    python3 perfbench/run.py --workload analyze_file --seed 1 --seconds 20 --trace 0

Workloads: analyze_file, suite_zoo, testbench_offset (see LAYERS.md).  With
``--trace 0`` the workload is set up several times, each in a fresh process,
and the last process then measures whole rounds for ``--seconds`` seconds of
item time.  With ``--trace 1`` one process alternates untraced and traced
rounds and reports per-layer figures and the tracing overhead.  Readable
lines come first; the last line of standard output is one JSON object.  The
exit code is 0 when a result was printed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, per_layer  # noqa: E402

WORKLOADS = ("analyze_file", "suite_zoo", "testbench_offset")
SETUPS = 3  # set-ups per untraced run; setup_s is their median
TIME_LIMIT_S = 170.0


def _spawn(args, root: Path, workdir: Path, rep: int, setup_only: bool,
           deadline: float) -> dict | None:
    result = workdir / f"result_{rep}.json"
    log = workdir / f"worker_{rep}.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one thread: the load comes from a single client
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", str(workdir),
           "--result", str(result), "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=root)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-3000:]
        reason = "timed out" if code is None else f"exited with {code}"
        print(f"error: worker {rep} {reason}\n{tail}", file=sys.stderr)
        return None
    return json.loads(result.read_text(encoding="utf-8"))


def _line(name: str, value: str, note: str) -> str:
    return f"  {name:<50} {value:<22} {note}"


def _report(args, setups: list[float], res: dict) -> dict:
    """Print the readable lines; return the metrics of the result line."""
    m = res["machine"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size} nproc={m['nproc']} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']}")
    items = res["items"]
    n = len(items)
    oracle = (f"{res['oracle_failed']}/{res['oracle_attempted']} checks "
              f"over {n} items")
    causes = ", ".join(f"{k}: {v}" for k, v in sorted(res["oracle_causes"].items()))
    frac = res["oracle_failed"] / max(res["oracle_attempted"], 1)
    if args.trace:
        layers = res["per_layer"]
        print(_line("rounds", str(res["rounds"]), "untraced + traced pairs"))
        print(_line("trace.overhead_frac", f"{layers['trace.overhead_frac']:.4f}",
                    "traced / untraced item time - 1"))
        selfs = sorted(((v, k[:-len('.self_s')]) for k, v in layers.items()
                        if k.endswith(".self_s") and v > 0), reverse=True)
        for value, span in selfs:
            print(_line(span, f"{value:.4f} s/round",
                        f"self; total {layers[span + '.s']:.4f} s/round"))
        for name, unit in per_layer().items():
            if unit != "s/round" and name != "trace.overhead_frac" and layers[name]:
                print(_line(name, f"{layers[name]:.6g} {unit}", ""))
        print(_line("ops_failed_frac", f"{frac:.4f}", f"({oracle}) {causes}"))
        return {k: {"value": layers[k], "unit": u} for k, u in per_layer().items()}

    measured = sum(i["seconds"] for i in items)
    print(_line("throughput_values_per_s", f"{res['throughput_values_per_s']:.1f} 1/s",
                f"(median of {res['rounds']} rounds; n={n} items, "
                f"{measured:.2f} s measured)"))
    print(_line("item_p50_s", f"{res['item_p50_s']:.4f} s", f"(n={n} items)"))
    tail = res["item_tail_s"]
    if tail is None:
        print(_line("item_tail_s", "n/a",
                    f"(n={n} items; a tail needs >= 10 items beyond it)"))
    else:
        print(_line("item_tail_s", f"{tail['value']:.4f} s",
                    f"(p{tail['percentile']:g}, {tail['beyond']} of {n} items beyond)"))
    print(_line("setup_s", f"{statistics.median(setups):.4f} s",
                f"(median of {len(setups)} set-ups: "
                + ", ".join(f"{s:.3f}" for s in setups) + ")"))
    print(_line("peak_rss_mb", f"{res['peak_rss_mb']:.1f} MiB", "(n=1 process)"))
    print(_line("ops_failed_frac", f"{frac:.4f}", f"({oracle}) {causes}"))
    for i, item in enumerate(items):
        if item["sha256"]:
            print(f"  item {i} {item['label']} {item['seconds']:.4f} s "
                  f"report.json sha256={item['sha256']}")
    values = {
        "throughput_values_per_s": res["throughput_values_per_s"],
        "item_p50_s": res["item_p50_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "pathstat" / "__init__.py").is_file():
        print(f"error: no pathstat sources under {root / 'src'}; run from the "
              "root of a pathstat checkout", file=sys.stderr)
        return 1
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = root / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    results = []
    reps = 1 if args.trace else SETUPS
    for rep in range(reps):
        res = _spawn(args, root, workdir, rep, rep < reps - 1, deadline)
        if res is None:
            return 1
        results.append(res)

    metrics = _report(args, [r["setup_s"] for r in results], res)
    items = res["items"] + [r["warmup"] for r in results]
    failed = [i for i in items if i["hard_failures"]]
    for item in failed:
        print(f"  FAILED {item['label']}: {'; '.join(item['hard_failures'])}")
    print(json.dumps({"correct": not failed, "attempted": len(items),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
