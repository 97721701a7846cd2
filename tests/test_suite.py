"""The Monte Carlo engine: one run_suite per replicate, on its child seed."""

import numpy as np

from pathstat.generators import expected_profile, generate, parse_spec
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
                "consistency": all(c["pass"] for c in report["consistency"]),
                "ergodicity": report["ergodicity"]["verdict"]
                == "ConsistentWithErgodic"}
            assert row.passed[r] == report["overall_pass"]


def test_one_grid_family_serves_every_stage():
    result = run_suite(generate(parse_spec("block_mixture(0,5),L=5000,seed=3")))
    diag = result.diagnostics
    grids = diag.table.grids
    assert diag.fdd.grids.keys() == grids.keys() == {1, 2}
    for k, grid in grids.items():
        assert diag.fdd.grids[k] is grid
        assert diag.fdd.measures[k].grid is grid
    # the verdicts and the ergodicity records name those grids' own cells
    cells = {id(cell) for grid in grids.values() for cell in grid.cells}
    assert all(id(v.pattern) in cells for v in diag.verdicts)
    assert result.ergodicity.records
    assert all(id(r.pattern) in cells for r in result.ergodicity.records)
