"""Reports stay byte-identical over a fixed corpus of generators x seeds.

``tests/data/report_corpus.json`` holds the sha256 of every report that
``scripts/report_corpus.py`` produces; regenerate it only for a change that
is meant to alter reports.
"""

import importlib.util
import json
from pathlib import Path

from pathstat.generators import KINDS, parse_spec

ROOT = Path(__file__).resolve().parents[1]


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "report_corpus", ROOT / "scripts" / "report_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_match_the_committed_corpus():
    expected = json.loads(
        (ROOT / "tests" / "data" / "report_corpus.json").read_text())
    got = _load_script().corpus()
    assert sorted(got) == sorted(expected)
    assert {k: v for k, v in got.items() if v != expected[k]} == {}


def test_every_generator_kind_is_pinned():
    pinned = {parse_spec(spec).kind
              for spec in _load_script().GENERATE_SPECS}
    assert pinned == set(KINDS)
