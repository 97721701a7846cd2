"""The suite's verdicts over the zoo reproduce the committed table.

``tests/data/verdict_table.json`` is what ``scripts/verdict_table.py``
prints; a change that is meant to move a verdict regenerates it.  The test
checks that the table is reproduced, not that its mismatches are zero.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "verdict_table", ROOT / "scripts" / "verdict_table.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdicts_match_the_committed_table():
    expected = json.loads(
        (ROOT / "tests" / "data" / "verdict_table.json").read_text())
    assert _load_script().table() == expected
