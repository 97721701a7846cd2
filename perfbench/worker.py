"""One workload in a fresh process: set up, warm up, then measure or trace.

Started by run.py, never by hand.  Set-up time runs from the moment run.py
spawned this process (interpreter start and imports included) to the end of
the warm-up item.  The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path as FsPath

import numpy as np
import scipy

from metrics import per_layer
from tracer import Tracer
from workloads import WORKLOADS, Item, Workload

# percentiles tried for the tail, highest first; a percentile is reported
# only when at least TAIL_BEYOND items lie beyond it
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75)
TAIL_BEYOND = 10


def run_round(wl: Workload) -> list[Item]:
    return [wl.run(slot) for slot in range(wl.round_size)]


def check_round(wl: Workload, items: list[Item]) -> None:
    for slot, item in enumerate(items):
        try:
            wl.check(item, slot)
        except Exception as exc:  # a broken output must not abort the run
            item.hard_failures.append(f"check raised {exc!r}")
        item.context.clear()


def item_tail(times: list[float]) -> dict | None:
    n = len(times)
    for q in TAIL_LADDER:
        beyond = n - int(np.ceil(q * n))
        if beyond >= TAIL_BEYOND:
            return {"value": float(np.quantile(times, q)), "percentile": q * 100,
                    "beyond": beyond}
    return None


def measure(wl: Workload, seconds: float) -> dict:
    """Whole rounds until ``seconds`` of item time; medians resist the bursts
    of a shared machine better than means."""
    items: list[Item] = []
    round_rates = []
    while sum(i.seconds for i in items) < seconds or not items:
        batch = run_round(wl)
        check_round(wl, batch)
        items += batch
        round_rates.append(sum(i.values for i in batch)
                           / sum(i.seconds for i in batch))
    times = [i.seconds for i in items]
    return {
        "items": [{"label": i.label, "seconds": i.seconds, "sha256": i.sha256,
                   "hard_failures": i.hard_failures} for i in items],
        "rounds": len(round_rates),
        "throughput_values_per_s": statistics.median(round_rates),
        "item_p50_s": statistics.median(times),
        "item_tail_s": item_tail(times),
        "oracle_attempted": sum(i.oracle_attempted for i in items),
        "oracle_failed": sum(i.oracle_failed for i in items),
    }


def _round_layers(tracer: Tracer, items: list[Item]) -> dict[str, float]:
    totals = tracer.totals()
    out = {}
    for name, unit in per_layer().items():
        if unit == "s/round":
            span, _, quantity = name.rpartition(".")
            out[name] = totals[span][quantity] if span in totals else 0.0
        else:
            out[name] = tracer.counts.get(name, 0.0)
    for name in ("properties.window_cell_ids", "properties.cell_tail_stats"):
        calls = tracer.counts.get(f"{name}.calls", 0.0)
        out[f"{name}.calls_per_path"] = calls / max(len(tracer.inputs[name]), 1)
    out["cli.bytes_written"] = float(sum(i.bytes_written for i in items))
    return out


def trace(wl: Workload, seconds: float) -> dict:
    """Alternate untraced and traced rounds; per-layer figures per round."""
    plain_s = traced_s = 0.0
    sums: dict[str, float] = defaultdict(float)
    rounds = 0
    items: list[Item] = []
    while plain_s + traced_s < seconds or rounds == 0:
        plain = run_round(wl)
        check_round(wl, plain)
        with Tracer() as tracer:
            traced = run_round(wl)
        check_round(wl, traced)
        for name, value in _round_layers(tracer, traced).items():
            sums[name] += value
        plain_s += sum(i.seconds for i in plain)
        traced_s += sum(i.seconds for i in traced)
        items += plain + traced
        rounds += 1
    layers = {name: sums[name] / rounds for name in per_layer()}
    adv = "contraction.adversarial_contraction"
    layers[f"{adv}.success_ratio"] = (sums[f"{adv}.succeeded"]
                                      / max(sums[f"{adv}.calls"], 1.0))
    layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return {
        "items": [{"label": i.label, "seconds": i.seconds, "sha256": i.sha256,
                   "hard_failures": i.hard_failures} for i in items],
        "rounds": rounds,
        "per_layer": layers,
        "oracle_attempted": sum(i.oracle_attempted for i in items),
        "oracle_failed": sum(i.oracle_failed for i in items),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when run.py spawned this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.size, FsPath(args.workdir))
    wl.setup()
    warm = wl.run(0)
    check_round(wl, [warm])
    wl.oracle_causes.clear()  # the warm-up is set-up, not a measured item
    result: dict = {
        "setup_s": time.monotonic() - args.t0,
        "warmup": {"label": warm.label, "hard_failures": warm.hard_failures},
    }
    if not args.setup_only:
        result.update(trace(wl, args.seconds) if args.trace
                      else measure(wl, args.seconds))
        result["oracle_causes"] = wl.oracle_causes
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["machine"] = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
    FsPath(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
