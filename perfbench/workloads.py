"""The three benchmark workloads: inputs from a seed, one timed item, checks.

Every workload is a closed loop driven from one process and one thread: the
next item starts when the previous one has returned.  Items are grouped in
rounds (one pass over the workload's rotation), and the benchmark always
measures whole rounds, so the mix of item kinds is the same in every run.

Each item has two kinds of check:

* hard checks: the call returned (no exception, exit code 0 or 2), its
  outputs exist and are well formed, and reports of the same input are
  byte-identical.  A hard failure marks the item failed.
* oracle checks, the ``ops_failed_frac`` of the benchmark: verdicts against
  ``expected_profile`` and consistency on ``analyze_file`` and ``suite_zoo``;
  batched against scalar decisions on sampled windows on
  ``testbench_offset``.  These record known defects of the program (moving-
  window statistics that cancel at a mean offset; rare-cell Property E
  verdicts) and are reported, never hidden, but they do not mark the run
  incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path as FsPath

import numpy as np

from pathstat import cli, generators, stattests, suite
from pathstat.generators import expected_profile, parse_spec

# input sizes; "tiny" is for the benchmark's own smoke test
SIZES = {
    "full": {"analyze_length": 1_000_000, "suite_length": 100_000,
             "testbench_length": 1_000_000, "replicates": 2000},
    "tiny": {"analyze_length": 20_000, "suite_length": 20_000,
             "testbench_length": 20_000, "replicates": 1000},
}

# the level-set grid that isolates block_mixture's two levels
LEVEL_EDGES = (-math.inf, -1.0, 1.0, 4.0, 6.0, math.inf)
SUITE_ZOO = (
    ("ar1(0.5)", None),
    ("iid_normal(0,1)", None),
    ("random_phase_sine(theta=1.4142135623730951)", None),
    ("constant(2)", None),
    ("monotone(1)", None),
    ("block_mixture(0,5)", LEVEL_EDGES),
)
TESTBENCH_SPECS = (("threshold_exceedance", 50), ("mean_split", 100),
                   ("variance_split", 200), ("kpss_like", 400))
TESTBENCH_GENERATOR = "iid_normal(100,1)"
ANALYZE_FILES = 2
SAMPLED_WINDOWS = 250
# a batched decision may differ from the scalar one only where the scalar
# statistic lies within this relative distance of tau
TAU_MARGIN = 1e-9


def child_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


@dataclass
class Item:
    """One timed call and what its checks found."""

    label: str
    seconds: float
    values: int
    hard_failures: list[str] = field(default_factory=list)
    oracle_attempted: int = 0
    oracle_failed: int = 0
    bytes_written: int = 0
    sha256: str | None = None
    # what the untimed checks need: the call's result and its inputs
    context: dict = field(default_factory=dict)


def _dir_bytes(path: FsPath) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def _verdict_mismatches(report: dict, profile) -> list[str]:
    got = {
        "propertyE": report["propertyE"]["pass"],
        "propertyT": report["propertyT"]["verdict"],
        "ergodicity": report["ergodicity"]["verdict"] == "ConsistentWithErgodic",
    }
    want = {"propertyE": profile.property_e_pass,
            "propertyT": profile.property_t_pass,
            "ergodicity": profile.ergodicity_pass}
    out = [k for k in got if want[k] is not None and got[k] != want[k]]
    if not all(c["pass"] for c in report["consistency"]):
        out.append("consistency")
    return out


class Workload:
    name = ""
    round_size = 1

    def __init__(self, seed: int, size: str, workdir: FsPath) -> None:
        self.seed = seed
        self.size = SIZES[size]
        self.workdir = workdir
        self.n_items = 0
        # oracle failures by cause, for the printed breakdown
        self.oracle_causes: dict[str, int] = {}

    def setup(self) -> None:
        """Write the inputs; everything the program later reads."""

    def run(self, slot: int) -> Item:
        """One timed item; ``slot`` is its position in the round."""
        raise NotImplementedError

    def check(self, item: Item, slot: int) -> None:
        """Hard and oracle checks on the item's outputs (untimed)."""

    def timed(self, label: str, values: int, call, **context) -> Item:
        item = Item(label=label, seconds=0.0, values=values,
                    context={"index": self.n_items, **context})
        self.n_items += 1
        start = time.perf_counter()
        try:
            item.context["result"] = call()
        except Exception:
            item.hard_failures.append("raised: " + traceback.format_exc(limit=3))
        item.seconds = time.perf_counter() - start
        return item

    def _oracle(self, item: Item, cause: str | None) -> None:
        item.oracle_attempted += 1
        if cause is not None:
            item.oracle_failed += 1
            self.oracle_causes[cause] = self.oracle_causes.get(cause, 0) + 1


class AnalyzeFile(Workload):
    """``pathstat analyze FILE`` on text files of 1e6 ar1(0.5) values."""

    name = "analyze_file"
    round_size = 1  # items alternate between the files

    def setup(self) -> None:
        length = self.size["analyze_length"]
        self.files = []
        self.renders: dict[int, str] = {}
        for j in range(ANALYZE_FILES):
            spec = parse_spec(f"ar1(0.5),L={length}").with_seed(
                child_seed(self.seed, 0, j))
            values = generators.generate(spec).values
            target = self.workdir / f"input_{j}.txt"
            # full repr precision, written in chunks to keep set-up memory small
            with open(target, "w", encoding="utf-8") as fh:
                for start in range(0, values.size, 100_000):
                    chunk = values[start:start + 100_000].tolist()
                    fh.write("\n".join(map(repr, chunk)) + "\n")
            self.files.append(target)
        self.profile = expected_profile(spec)

    def run(self, slot: int) -> Item:
        j = self.n_items % ANALYZE_FILES
        out = self.workdir / f"out_{j}"
        argv = ["analyze", str(self.files[j]), "--out-dir", str(out)]
        item = self.timed(f"file={self.files[j].name}",
                          self.size["analyze_length"], lambda: cli.main(argv),
                          file=j)
        if item.context.get("result", 0) not in (0, 2):
            item.hard_failures.append(f"exit code {item.context['result']}")
        return item

    def check(self, item: Item, slot: int) -> None:
        if item.hard_failures:
            return
        j = item.context["file"]
        out = self.workdir / f"out_{j}"
        raw = (out / "report.json").read_bytes()
        item.sha256 = hashlib.sha256(raw).hexdigest()
        item.bytes_written = _dir_bytes(out)
        first = self.renders.setdefault(j, item.sha256)
        if first != item.sha256:
            item.hard_failures.append("report.json differs between renders")
        report = json.loads(raw)
        bad = _verdict_mismatches(report, self.profile)
        self._oracle(item, "verdicts:" + "+".join(bad) if bad else None)


class SuiteZoo(Workload):
    """``run_suite`` + ``report_dict`` on L = 1e5 paths of six generators."""

    name = "suite_zoo"
    round_size = len(SUITE_ZOO)

    def setup(self) -> None:
        length = self.size["suite_length"]
        self.specs = [(parse_spec(f"{text},L={length}"), edges)
                      for text, edges in SUITE_ZOO]

    def run(self, slot: int) -> Item:
        spec, edges = self.specs[slot]
        spec = spec.with_seed(child_seed(self.seed, 1, self.n_items))

        def call():
            path = generators.generate(spec)
            return suite.report_dict(suite.run_suite(path, edges=edges))

        return self.timed(spec.kind, spec.length, call)

    def check(self, item: Item, slot: int) -> None:
        if item.hard_failures:
            return
        spec, _ = self.specs[slot]
        report = item.context["result"]
        try:
            json.dumps(report, sort_keys=True)
        except (TypeError, ValueError) as exc:
            item.hard_failures.append(f"report is not JSON: {exc}")
            return
        bad = _verdict_mismatches(report, expected_profile(spec))
        self._oracle(item, f"{spec.kind}:" + "+".join(bad) if bad else None)


class OffsetTestbench(Workload):
    """``pathstat testbench`` on iid N(100, 1) paths, one spec per item."""

    name = "testbench_offset"
    round_size = len(TESTBENCH_SPECS)

    def setup(self) -> None:
        self.length = self.size["testbench_length"]
        self.spec_files = []
        for slot, (kind, n) in enumerate(TESTBENCH_SPECS):
            spec = {"kind": kind, "n": n, "alpha": 0.05, "calibration": {
                "generator": f"{TESTBENCH_GENERATOR},L={n}",
                "replicates": self.size["replicates"],
                "seed": child_seed(self.seed, 2, slot)}}
            target = self.workdir / f"spec_{kind}.json"
            target.write_text(json.dumps([spec]), encoding="utf-8")
            self.spec_files.append(target)

    def run(self, slot: int) -> Item:
        kind, _ = TESTBENCH_SPECS[slot]
        out = self.workdir / f"out_{kind}"
        source = (f"{TESTBENCH_GENERATOR},L={self.length},"
                  f"seed={child_seed(self.seed, 3, self.n_items)}")
        argv = ["testbench", "generate:" + source,
                "--tests", str(self.spec_files[slot]), "--out-dir", str(out)]
        item = self.timed(kind, self.length, lambda: cli.main(argv),
                          source=source)
        if item.context.get("result", 0) != 0:
            item.hard_failures.append(f"exit code {item.context['result']}")
        return item

    def check(self, item: Item, slot: int) -> None:
        if item.hard_failures:
            return
        kind, n = TESTBENCH_SPECS[slot]
        out = self.workdir / f"out_{kind}"
        item.bytes_written = _dir_bytes(out)
        summary = json.loads((out / "testbench_summary.json").read_text())
        entry = summary["tests"][0]
        raw = (out / entry["indicators_csv"]).read_bytes()
        # ends[0] closes the header; row r lies between ends[r] and ends[r + 1]
        ends = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n"))
        if ends.size - 1 != self.length - n + 1:
            item.hard_failures.append(
                f"{ends.size - 1} indicator rows, expected {self.length - n + 1}")
            return
        tau = entry["tau"]
        path = generators.generate(parse_spec(item.context["source"]))
        oracle = stattests.make_builtin_test(kind, n, tau, 0.05)
        stat = stattests.builtin_statistic(kind)
        rng = np.random.default_rng(child_seed(self.seed, 4, item.context["index"]))
        for offset in rng.integers(0, ends.size - 1, SAMPLED_WINDOWS):
            row = raw[ends[offset] + 1:ends[offset + 1]].decode()
            off_text, ind_text = row.strip().split(",")
            if int(off_text) != offset:
                item.hard_failures.append(f"row {offset} holds offset {off_text}")
                return
            window = path.values[offset:offset + n]
            agree = int(ind_text) == oracle.decide(window)
            near_tau = abs(stat(window) - tau) <= TAU_MARGIN * max(1.0, abs(tau))
            self._oracle(item, None if agree or near_tau
                         else f"{kind}: batch_decide != decide")


WORKLOADS = {w.name: w for w in (AnalyzeFile, SuiteZoo, OffsetTestbench)}
