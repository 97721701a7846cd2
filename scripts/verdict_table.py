#!/usr/bin/env python3
"""The suite's verdicts over a fixed zoo of specs, against their profiles.

Prints one JSON object: the seed, the number of replicates, the total of
``expected_mismatches`` and one ``suite.montecarlo`` summary row per spec
(pass fraction overall and per stage, and the replicates that disagree with
a stage the kind's expected profile asserts).  Every spec runs at L = 1e5
except the last, a short iid path.

The table records defects, it does not hide them: a change that moves a
verdict regenerates it and quotes each moved row.  To keep a rule from being
tuned to the committed seed, quote the table at a held-out seed too.  The
tier-1 test ``tests/test_verdict_table.py`` re-runs it and compares exactly.

Usage: python scripts/verdict_table.py [SEED] > tests/data/verdict_table.json
(SEED defaults to 0, the committed table's seed).
"""

from __future__ import annotations

import json
import sys

from pathstat.generators import parse_spec
from pathstat.suite import montecarlo

SEED = 0
REPLICATES = 10
LENGTH = 100_000
SPECS = tuple(f"{text},L={LENGTH}" for text in (
    "ar1(0.5)",
    "ar1(0.8)",
    "ar1(0.9)",
    "ar1(0.95)",
    "ar1(0.99)",
    "iid_normal(0,1)",
    "iid_normal(0,100)",
    "iid_normal(1000,1)",
    "constant(100)",
    "sine(1.5707,phi0=0)",
    "random_phase_sine(theta=1.4142135623730951)",
    "block_mixture()",
    "monotone(1)",
    "unique_peak(10)",
)) + ("iid_normal(0,1),L=2000",)


def table(seed: int = SEED) -> dict:
    rows = [row.summary() for row in montecarlo(
        [parse_spec(text) for text in SPECS], REPLICATES, seed)]
    return {"seed": seed, "replicates": REPLICATES,
            "expected_mismatches": sum(r["expected_mismatches"] for r in rows),
            "table": rows}


def main(argv: list[str]) -> int:
    seed = int(argv[0]) if argv else SEED
    print(json.dumps(table(seed), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
