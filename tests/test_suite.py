"""The Monte Carlo engine: one run_suite per replicate, on its child seed."""

import json

import numpy as np
import pytest

from pathstat import properties, suite
from pathstat.config import AnalysisConfig
from pathstat.generators import expected_profile, generate, parse_spec
from pathstat.properties import table_fdd
from pathstat.suite import montecarlo, report_dict, run_suite


def test_montecarlo_replays_run_suite_on_each_child_seed():
    specs = [parse_spec("ar1(0.5),L=2000"),
             parse_spec("block_mixture(0,5),L=2000")]
    rows = montecarlo(specs, replicates=2, seed=7)
    for gi, (spec, row) in enumerate(zip(specs, rows)):
        assert (row.spec, row.expected) == (spec, expected_profile(spec))
        assert len(row.stages) == 2
        for r, stages in enumerate(row.stages):
            child = np.random.SeedSequence([7, gi, r]).generate_state(1)[0]
            report = report_dict(run_suite(generate(spec.with_seed(child))))
            assert stages == {
                "propertyE": report["propertyE"]["pass"],
                "propertyT": report["propertyT"]["verdict"],
                "ergodicity": report["ergodicity"]["verdict"]
                == "ConsistentWithErgodic"}
            assert row.passed[r] == report["overall_pass"]


def test_one_grid_family_serves_every_stage():
    result = run_suite(generate(parse_spec("block_mixture(0,5),L=5000,seed=3")))
    diag = result.diagnostics
    grids = diag.table.grids
    fdd = table_fdd(diag.table)
    assert fdd.grids.keys() == grids.keys() == {1, 2}
    for k, grid in grids.items():
        assert fdd.grids[k] is grid
        assert fdd.measures[k].grid is grid
    # the verdicts and the ergodicity records name those grids' own cells
    cells = {id(cell) for grid in grids.values() for cell in grid.cells}
    assert all(id(v.pattern) in cells for v in diag.verdicts)
    assert result.ergodicity.records
    assert all(id(r.pattern) in cells for r in result.ergodicity.records)


def test_report_keeps_the_keys_the_benchmark_reads():
    """perfbench checks each analyze_file and suite_zoo item on these keys;
    a report without one of them fails every such item."""
    result = run_suite(generate(parse_spec("ar1(0.5),L=2000,seed=1")))
    report = json.loads(json.dumps(report_dict(result)))
    assert isinstance(report["propertyE"]["pass"], bool)
    assert isinstance(report["propertyT"]["verdict"], bool)
    assert report["ergodicity"]["verdict"] in ("ConsistentWithErgodic",
                                               "NonErgodicEvidence")
    assert [row["k"] for row in report["consistency"]] == [1]
    assert all(row["pass"] is True for row in report["consistency"])
    # the verdict rests on E, T and ergodicity alone
    assert report["overall_pass"] == (
        report["propertyE"]["pass"] and report["propertyT"]["verdict"]
        and report["ergodicity"]["verdict"] == "ConsistentWithErgodic")


@pytest.mark.parametrize("k_max", [1, 2, 3])
def test_only_the_report_tabulates_the_consistency_rows(monkeypatch, k_max):
    """run_suite, and so every montecarlo replicate, builds no induced FDD;
    report_dict builds one and reads it once per consistency row."""
    calls = {"table_fdd": 0, "consistency_check": 0, "consistency_bound": 0}

    def counted(name):
        original = getattr(properties, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        wrapper = counted(name)
        monkeypatch.setattr(properties, name, wrapper)
        monkeypatch.setattr(suite, name, wrapper)
    result = run_suite(generate(parse_spec("ar1(0.5),L=2000,seed=1")),
                       AnalysisConfig(k_max=k_max))
    assert calls == dict.fromkeys(calls, 0)
    report = report_dict(result)
    assert calls == {"table_fdd": 1, "consistency_check": k_max - 1,
                     "consistency_bound": k_max - 1}
    assert [row["k"] for row in report["consistency"]] == \
        list(range(1, k_max))
