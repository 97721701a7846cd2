#!/usr/bin/env python3
"""Fingerprints of the reports over a fixed corpus of generators x seeds.

Prints one JSON object mapping each corpus entry to a sha256:

* ``suite/<spec>``: ``json.dumps(report_dict(run_suite(path, edges=...)),
  sort_keys=True)`` for six generators (block_mixture on its level-set grid)
  at seeds 1-3 and L = 2e4, and for monotone and block_mixture at seeds 1-3
  and L = 1e5, the benchmark's size;
* ``analyze/<file>``: both files ``pathstat analyze`` writes for two
  generated text files (the second one's length ends the trajectory rows on
  a partial block), for a hand-written file of edge tokens in the plain
  one-number-per-line layout (signed zeros, subnormals, a 44-digit
  mantissa, no trailing newline), for a CRLF file with a header row, for a
  file of signed zeros among small integers, whose zero quantile cut
  numpy's selection may return as -0.0, and for a file of the largest
  float and one of its negative, whose fallback cuts would step past it;
* ``contract/<file>``: the payload and the ``--trace`` of ``pathstat
  contract`` on one block_mixture path, with the configured m schedule and
  with one that is not powers of two, of three runs that fail, one at
  each of the search's checks, and of one run on a constant path, whose
  pattern holds at every start;
* ``testbench/<file>``: the summary and the indicator CSVs of one
  ``pathstat testbench`` run (one fixed and one calibrated test), of a
  second run of one test at start 7 and stride 3, of a third run of the
  other three kinds at start 11 and stride 7, and of a fourth run that
  calibrates one test of each kind under its own generator, and of a fifth
  run of ``kpss_like`` at n = 16 on a file holding a 2e5-value random walk,
  where the batched statistic is most exposed to rounding, and of a sixth
  run of ``kpss_like`` and ``variance_split`` at n = 20 on a file holding
  a level shift of 1e4 between two runs of 3000 N(0, 1) values, whose
  chunk centres far from both levels;
* ``montecarlo/<file>``: the table of ``pathstat montecarlo`` (pass rates
  overall and per stage, profile mismatches) over its default generators
  with two replicates;
* ``generate/<spec>``: the text ``pathstat generate --spec <spec>`` writes,
  for one spec per generator kind with non-default parameters;
* ``contractions/<L>``: ``json.dumps`` of the ``to_json_dict()`` list of
  ``alternating_family(L)`` for six horizons, and of the contractions at
  c = 0.9 and c = 1 in both phases at L = 21.

A refactor that must keep every report byte-identical regenerates this and
diffs it against ``tests/data/report_corpus.json``; the tier-1 test
``tests/test_report_corpus.py`` does exactly that.

Usage: python scripts/report_corpus.py > tests/data/report_corpus.json
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

from pathstat.cli import main as cli_main
from pathstat.contraction import (
    alternating_family,
    build_alternating_contraction,
)
from pathstat.generators import generate, parse_spec
from pathstat.pathcore import write_path
from pathstat.suite import report_dict, run_suite

LENGTH = 20_000
SEEDS = (1, 2, 3)
# the level-set grid that isolates block_mixture's two levels
LEVEL_EDGES = (-math.inf, -1.0, 1.0, 4.0, 6.0, math.inf)
GENERATORS = (
    ("ar1(0.5)", None),
    ("iid_normal(0,1)", None),
    ("random_phase_sine(theta=1.4142135623730951)", None),
    ("constant(2)", None),
    ("monotone(1)", None),
    ("block_mixture(0,5)", LEVEL_EDGES),
)
# the escaping and the non-ergodic input, at the benchmark's size
LONG_LENGTH = 100_000
LONG_GENERATORS = (
    ("monotone(1)", None),
    ("block_mixture(0,5)", LEVEL_EDGES),
)
# the trajectory CSV samples every (L // 4000)-th row and the last: L = 20011
# ends on a partial block of 1 value, the row n = 20011
ANALYZE_SPECS = (f"ar1(0.5),L={LENGTH},seed=1", "ar1(0.5),L=20011,seed=1")
ANALYZE_OUTPUTS = ("report.json", "density_trajectories.csv")
# tokens at the edges of the float grammar and of float64 rounding
EDGE_TOKENS = (
    "-0", "-0.0", "-1e-400", "5e-324",
    # the two sides of the halfway point between 0 and the least subnormal
    "2.4703282292062328e-324", "2.4703282292062327e-324",
    "1.2345678901234567890123456789012345678901234",
    ".5", "7.", "1E5", "-.5e-3", "3e+2", "-2.5E-7", "0.1",
)
# zeros of both signs, in each spelling, among small integers: half the
# values are zeros, so the median cut is a zero
SIGNED_ZERO_TOKENS = ("-0.0", "-2", "-0", "-1", "1", "2", "0", "0.0") * 3
# 22 copies of the largest float and one of its negative: one finite
# quantile cut, the largest float, with no finite float above it
FLOAT_LIMIT_TOKENS = ("1.7976931348623157e308",) * 22 + \
    ("-1.7976931348623157e308",)
# (file name, bytes): the plain layout, then a layout only the per-line
# parse reads (header row, CRLF, leading '+'), then signed zeros, then the
# float limit
ANALYZE_FILES = (
    ("edge_tokens.txt", "\n".join(EDGE_TOKENS).encode()),
    ("crlf_header.csv",
     "\r\n".join(("value", *EDGE_TOKENS, "+5", "+.5e-3", "")).encode()),
    ("signed_zeros.txt", "\n".join((*SIGNED_ZERO_TOKENS, "")).encode()),
    ("float_limit.txt", "\n".join((*FLOAT_LIMIT_TOKENS, "")).encode()),
)
CONTRACT_INPUT = f"generate:block_mixture(0,5),L={LENGTH},seed=1"
CONTRACT_IID = f"generate:iid_normal(0,1),L={LENGTH},seed=1"
CONTRACT_MONOTONE = f"generate:monotone(1),L={LENGTH},seed=1"
CONTRACT_CONSTANT = f"generate:constant(2),L={LENGTH}"
# (corpus key, contract arguments): two successes, then a failure at each
# check: no window of length 32 reaches the threshold, qualifying windows
# vanish as m grows, qualifying windows do not recur in the tail; last, a
# cell that holds at every start of a constant path
CONTRACT_RUNS = (
    (CONTRACT_INPUT, [CONTRACT_INPUT, "--cell", "4", "6"]),
    (f"{CONTRACT_INPUT} --m-schedule 3,5,12,20",
     [CONTRACT_INPUT, "--cell", "4", "6", "--m-schedule", "3,5,12,20"]),
    (f"{CONTRACT_IID} --cell -100 0 --threshold 0.9",
     [CONTRACT_IID, "--cell", "-100", "0", "--threshold", "0.9"]),
    (f"{CONTRACT_IID} --cell -100 0", [CONTRACT_IID, "--cell", "-100", "0"]),
    (f"{CONTRACT_MONOTONE} --cell 0 5000",
     [CONTRACT_MONOTONE, "--cell", "0", "5000"]),
    (f"{CONTRACT_CONSTANT} --cell 1.5 2.5",
     [CONTRACT_CONSTANT, "--cell", "1.5", "2.5"]),
)
TESTBENCH_INPUT = f"generate:iid_normal(0,1),L={LENGTH},seed=1"
TESTBENCH_SPECS = (
    {"kind": "mean_split", "n": 20, "tau": 0.9, "alpha": 0.05},
    {"kind": "kpss_like", "n": 50, "alpha": 0.05,
     "calibration": {"generator": "iid_normal(0,1),L=50",
                     "replicates": 1000, "seed": 2}},
)
# a separate run, so that the first run's summary keeps its hash
TESTBENCH_STRIDED_SPECS = (
    {"kind": "variance_split", "n": 30, "tau": 0.8, "alpha": 0.05,
     "start": 7, "stride": 3},
)
TESTBENCH_KINDS_STRIDED_SPECS = (
    {"kind": "threshold_exceedance", "n": 40, "tau": 0.2, "alpha": 0.05,
     "start": 11, "stride": 7},
    {"kind": "mean_split", "n": 24, "tau": 0.5, "alpha": 0.05,
     "start": 11, "stride": 7},
    {"kind": "kpss_like", "n": 60, "tau": 0.4, "alpha": 0.05,
     "start": 11, "stride": 7},
)
# a separate run, so that no existing hash moves; each calibration
# generator's L= is its test's n
TESTBENCH_CALIBRATED_SPECS = (
    {"kind": "threshold_exceedance", "n": 40, "alpha": 0.05,
     "calibration": {"generator": "ar1(0.5),L=40",
                     "replicates": 1000, "seed": 3}},
    {"kind": "mean_split", "n": 24, "alpha": 0.05,
     "calibration": {"generator": "block_mixture(0,5),L=24",
                     "replicates": 1000, "seed": 4}},
    {"kind": "variance_split", "n": 30, "alpha": 0.05,
     "calibration": {"generator": "unique_peak(10),L=30",
                     "replicates": 1000, "seed": 5}},
    {"kind": "kpss_like", "n": 33, "alpha": 0.05,
     "calibration": {
         "generator": "random_phase_sine(theta=1.4142135623730951),L=33",
         "replicates": 1000, "seed": 6}},
)
# a random walk, whose window sums are far from the sums over its prefix;
# tau is about the median kpss_like statistic of its windows at n = 16
WALK_FILE = "walk.txt"
WALK_LENGTH = 200_000
WALK_SPECS = ({"kind": "kpss_like", "n": 16, "tau": 0.85, "alpha": 0.05},)
# 3000 N(0, 1) values, then 3000 of 1e4 + N(0, 1): the chunk holding the
# shift centres on a mean far from both levels, so its prefix sums cancel
LEVEL_SHIFT_FILE = "level_shift.txt"
LEVEL_SHIFT, LEVEL_SHIFT_RUN = 1e4, 3000
LEVEL_SHIFT_SPECS = (
    {"kind": "kpss_like", "n": 20, "tau": 0.4, "alpha": 0.05},
    {"kind": "variance_split", "n": 20, "tau": 0.5, "alpha": 0.05},
)
MONTECARLO_ARGS = ["montecarlo", "--replicates", "2", "--seed", "1"]
# one spec per generator kind, every parameter away from its default
GENERATE_SPECS = tuple(f"{text},L=2000,seed=1" for text in (
    "constant(-2.5)",
    "monotone(0.25)",
    "unique_peak(7)",
    "sine(1.5707,phi0=0.3)",
    "random_phase_sine(2.1)",
    "iid_normal(0.5,2)",
    "ar1(0.9,0.5)",
    "block_mixture(-1,3,0.5)",
))

# horizons of the alternating family: the shortest that builds, primes that
# end on a clipped block, and the benchmark's sizes
FAMILY_HORIZONS = (11, 37, 2000, 20011, 100_000, 1_000_003)
# the densities outside the family, at a horizon that clips the last block
EXTRA_DENSITIES = (0.9, 1.0)
EXTRA_HORIZON = 21


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def _inside(directory: str):
    """Run with ``directory`` as the working directory, so that the relative
    input name recorded in report.json does not depend on where it lives."""
    before = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(before)


def _cli(args: list[str], ok: tuple[int, ...] = (0,)) -> None:
    code = cli_main(args)
    if code not in ok:
        raise RuntimeError(f"{args[0]} exited with {code}")


def _hash_files(out: dict[str, str], prefix: str, names,
                directory: str = "out") -> None:
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            out[f"{prefix}/{name}"] = _sha(fh.read())


def _testbench(out: dict[str, str], prefix: str, specs, directory: str,
               source: str = TESTBENCH_INPUT) -> None:
    """Run ``pathstat testbench`` and hash its summary and every indicator
    CSV the summary names."""
    with open("tests.json", "w", encoding="utf-8") as fh:
        json.dump(list(specs), fh)
    _cli(["testbench", source, "--tests", "tests.json",
          "--out-dir", directory])
    with open(os.path.join(directory, "testbench_summary.json"), "rb") as fh:
        summary = json.load(fh)
    _hash_files(out, prefix, ["testbench_summary.json"] + [
        test["indicators_csv"] for test in summary["tests"]], directory)


def _contractions_sha(family) -> str:
    return _sha(json.dumps([c.to_json_dict() for c in family]).encode())


def corpus() -> dict[str, str]:
    out: dict[str, str] = {}
    for horizon in FAMILY_HORIZONS:
        out[f"contractions/{horizon}"] = _contractions_sha(
            alternating_family(horizon))
    out[f"contractions/{EXTRA_HORIZON} c=0.9,1"] = _contractions_sha(
        build_alternating_contraction(c, EXTRA_HORIZON, phase)
        for c in EXTRA_DENSITIES for phase in (0, 1))
    runs = [(text, edges, LENGTH) for text, edges in GENERATORS] + \
        [(text, edges, LONG_LENGTH) for text, edges in LONG_GENERATORS]
    for text, edges, length in runs:
        for seed in SEEDS:
            spec_text = f"{text},L={length},seed={seed}"
            report = report_dict(run_suite(generate(parse_spec(spec_text)),
                                           edges=edges))
            out[f"suite/{spec_text}"] = _sha(
                json.dumps(report, sort_keys=True).encode())
    with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
        for spec in ANALYZE_SPECS:
            write_path(generate(parse_spec(spec)).values, "path.txt")
            _cli(["analyze", "path.txt", "--out-dir", "out"], ok=(0, 2))
            _hash_files(out, f"analyze/{spec}", ANALYZE_OUTPUTS)
        for name, data in ANALYZE_FILES:
            with open(name, "wb") as fh:
                fh.write(data)
            _cli(["analyze", name, "--out-dir", "out"], ok=(0, 2))
            _hash_files(out, f"analyze/{name}", ANALYZE_OUTPUTS)
        for key, args in CONTRACT_RUNS:
            _cli(["contract", *args, "--out", "out/contraction.json",
                  "--trace", "out/trace.json"])
            _hash_files(out, f"contract/{key}",
                        ("contraction.json", "trace.json"))
        _testbench(out, f"testbench/{TESTBENCH_INPUT}", TESTBENCH_SPECS,
                   "out")
        _testbench(out, f"testbench/{TESTBENCH_INPUT} start=7 stride=3",
                   TESTBENCH_STRIDED_SPECS, "strided")
        _testbench(out, f"testbench/{TESTBENCH_INPUT} start=11 stride=7",
                   TESTBENCH_KINDS_STRIDED_SPECS, "strided_kinds")
        _testbench(out, f"testbench/{TESTBENCH_INPUT} calibrated kinds",
                   TESTBENCH_CALIBRATED_SPECS, "calibrated_kinds")
        write_path(np.cumsum(
            np.random.default_rng(1).standard_normal(WALK_LENGTH)), WALK_FILE)
        _testbench(out, f"testbench/{WALK_FILE}", WALK_SPECS, "walk",
                   WALK_FILE)
        rng = np.random.default_rng(1)
        write_path(np.concatenate([
            rng.normal(size=LEVEL_SHIFT_RUN),
            LEVEL_SHIFT + rng.normal(size=LEVEL_SHIFT_RUN)]), LEVEL_SHIFT_FILE)
        _testbench(out, f"testbench/{LEVEL_SHIFT_FILE}", LEVEL_SHIFT_SPECS,
                   "level_shift", LEVEL_SHIFT_FILE)
        _cli(MONTECARLO_ARGS + ["--out-dir", "out"])
        _hash_files(out, f"montecarlo/{' '.join(MONTECARLO_ARGS[1:])}",
                    ("montecarlo.json",))
        for spec in GENERATE_SPECS:
            _cli(["generate", "--spec", spec, "--out", "path.txt"])
            with open("path.txt", "rb") as fh:
                out[f"generate/{spec}"] = _sha(fh.read())
    return out


def main() -> int:
    with contextlib.redirect_stdout(sys.stderr):  # analyze's status line
        hashes = corpus()
    print(json.dumps(hashes, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
