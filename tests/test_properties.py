import collections
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from pathstat.config import AnalysisConfig
from pathstat.contraction import (
    Contraction,
    alternating_family,
    ergodicity_diagnostic,
    table_ergodicity,
)
from pathstat.generators import GeneratorSpec, generate, parse_spec
from pathstat.pathcore import (
    IntervalPattern,
    Path,
    density_trajectory,
    estimate_limit_density,
    occurrence_set,
)
from pathstat.properties import (
    K_LEVELS,
    MAX_GRID_CELLS,
    PatternGrid,
    analyze_path,
    cell_table,
    cell_tail_stats,
    check_property_e,
    check_property_t,
    consistency_bound,
    consistency_check,
    empirical_measure,
    grid_family,
    has_violation,
    induced_fdd,
    local_density_deviation,
    quantile_edges,
    scan_property_e,
    table_fdd,
    table_property_e,
    window_cell_ids,
)

CONFIG = AnalysisConfig()


# ---------------------------------------------------------------------------
# grids

def test_quantile_edges_are_infinite_ended_and_increasing():
    rng = np.random.default_rng(0)
    edges = quantile_edges(rng.standard_normal(10000), 8)
    assert edges[0] == -math.inf and edges[-1] == math.inf
    assert list(edges) == sorted(edges)
    assert len(edges) == 9


def test_quantile_edges_constant_fallback():
    edges = quantile_edges(np.full(100, 2.0), 8)
    assert len(edges) == 4
    assert edges[1] < 2.0 < edges[2]


def test_zero_cuts_are_positive_zero():
    """On paths of signed zeros among small integers, numpy's selection
    returned a -0.0 cut on about one path in ten."""
    rng = np.random.default_rng(2014)
    pool = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    zero_cuts = 0
    for _ in range(2000):
        values = rng.choice(pool, int(rng.integers(8, 401)))
        for cut in quantile_edges(values, int(rng.integers(2, 9))):
            if cut == 0.0:
                zero_cuts += 1
                assert math.copysign(1.0, cut) == 1.0
    assert zero_cuts > 1000


def test_pattern_grid_product_cells():
    grid = PatternGrid.from_edges((-math.inf, 0.0, math.inf), 2)
    assert grid.n_cells == 4
    assert grid.marginal_cells == 2
    # first coordinate slowest
    assert grid.cells[1].intervals == ((-math.inf, 0.0), (0.0, math.inf))


def test_pattern_grid_cell_limit_is_checked_before_any_cell():
    assert PatternGrid.from_edges(range(257), 2).n_cells == MAX_GRID_CELLS
    with pytest.raises(ValueError) as info:
        PatternGrid.from_edges(range(9), 6)
    assert str(info.value) == ("a grid of 8 cells per axis at order 6 has "
                               "262144 cells, more than the limit of 65536")


def test_grid_family_refuses_the_top_order_before_building_any_grid():
    with mock.patch.object(PatternGrid, "from_edges",
                           wraps=PatternGrid.from_edges) as from_edges:
        with pytest.raises(ValueError, match="262144 cells"):
            grid_family(range(9), 6)
    # the one call is the refused order 6; no order below it was built
    assert from_edges.call_args_list == [mock.call(range(9), 6)]
    assert list(grid_family(range(9), 3)) == [1, 2, 3]


def test_window_cell_ids_boundary_hits_match_no_cell():
    grid = PatternGrid.from_edges((-math.inf, 0.0, math.inf), 1)
    ids = window_cell_ids(np.array([-1.0, 0.0, 1.0]), grid)
    assert ids.tolist() == [0, -1, 1]


def test_window_cell_ids_finite_range_outside_is_uncovered():
    grid = PatternGrid.from_edges((0.0, 1.0, 2.0), 1)
    ids = window_cell_ids(np.array([-5.0, 0.5, 2.0, 1.5, 7.0]), grid)
    assert ids.tolist() == [-1, 0, -1, 1, -1]


# ---------------------------------------------------------------------------
# batched tail stats agree with the one-cell pipeline exactly

@given(st.lists(st.integers(-1, 3), min_size=1, max_size=200),
       st.floats(0.05, 1.0))
def test_cell_tail_stats_match_naive(ids, tail_fraction):
    ids = np.asarray(ids, dtype=np.int64)
    horizon = ids.size
    stats = cell_tail_stats(ids, 4, tail_fraction)
    for cell in range(4):
        occ_idx = np.flatnonzero(ids == cell)
        counts = np.searchsorted(occ_idx, np.arange(1, horizon + 1))
        ratios = counts / np.arange(1, horizon + 1)
        w = math.ceil(tail_fraction * horizon)
        tail = ratios[horizon - w:]
        st_ = stats[cell]
        assert st_.final_count == counts[-1]
        # the segment-sum mean differs from np.mean only by float rounding
        assert st_.value == pytest.approx(tail.mean(), rel=1e-9, abs=1e-11)
        assert st_.oscillation == pytest.approx(tail.max() - tail.min(), abs=1e-12)
        assert st_.tail_nonincreasing == bool(np.all(np.diff(tail) <= 0))


# ---------------------------------------------------------------------------
# Property E

# tolerances near the median oscillation, so that both outcomes occur
@pytest.mark.parametrize("tail_fraction, tolerance", [(0.5, 0.0015),
                                                      (0.2, 0.0007)])
def test_verdicts_carry_the_trajectory_estimate(tail_fraction, tolerance):
    # the tolerance and the horizon meet the tail measurements in the
    # verdict; each pattern's own trajectory is the reference
    config = AnalysisConfig(tail_fraction=tail_fraction, tolerance=tolerance)
    path = generate(GeneratorSpec("ar1", length=20_000, seed=3,
                                  params={"rho": 0.5}))
    grids = grid_family(quantile_edges(path.values, 8), 2)
    verdicts = scan_property_e(path, 2, grids, config)
    converged = []
    for v in verdicts:
        traj = density_trajectory(occurrence_set(path, v.pattern), v.horizon)
        est = estimate_limit_density(traj, tail_fraction, tolerance)
        assert v.estimate.converged == est.converged
        assert v.estimate.tail_fraction == tail_fraction
        assert v.estimate.value == pytest.approx(est.value, rel=1e-9,
                                                 abs=1e-12)
        assert v.final_ratio == traj.final_count / traj.horizon
        converged.append(est.converged)
    assert any(converged) and not all(converged)


def test_property_e_constant_positive_density():
    path = Path(np.full(1000, 2.0))
    verdict = check_property_e(path, IntervalPattern.of((1.5, 2.5)), CONFIG)
    assert verdict.status == "PositiveDensity"
    assert verdict.estimate.value == 1.0


def test_property_e_single_occurrence_is_violation():
    path = Path(np.arange(1000, dtype=float))
    verdict = check_property_e(path, IntervalPattern.of((2.5, 3.5)), CONFIG)
    assert verdict.status == "Violation"
    assert verdict.final_count == 1


def test_property_e_no_occurrence_is_empty():
    path = Path(np.arange(1000, dtype=float))
    verdict = check_property_e(path, IntervalPattern.of((1e6, 1e6 + 1)), CONFIG)
    assert verdict.status == "Empty"


def test_property_e_rare_but_recurrent_is_not_violation():
    # occurrences keep arriving (every 250 steps): too rare for
    # PositiveDensity at this horizon but not decaying either
    values = np.zeros(2000)
    values[::250] = 1.0
    verdict = check_property_e(Path(values), IntervalPattern.of((0.5, 1.5)), CONFIG)
    assert verdict.status in ("Inconclusive", "PositiveDensity")


def test_scan_unique_peak_flags_the_peak_cell():
    spec = GeneratorSpec("unique_peak", length=10000, seed=3)
    path = generate(spec)
    grids = grid_family((-math.inf, 9.0, 11.0, math.inf), 1)
    verdicts = scan_property_e(path, 1, grids, CONFIG)
    by_cell = {v.pattern.intervals[0]: v for v in verdicts}
    assert by_cell[(9.0, 11.0)].status == "Violation"
    assert has_violation(verdicts)


def test_scan_constant_has_no_violation():
    path = Path(np.full(500, 2.0))
    edges = quantile_edges(path.values, 8)
    verdicts = scan_property_e(path, 2, grid_family(edges, 2), CONFIG)
    assert not has_violation(verdicts)
    assert all(v.status in ("Empty", "PositiveDensity") for v in verdicts)


def test_scan_monotone_k2_crossing_cells_violate():
    path = Path(np.arange(10000, dtype=float))
    edges = quantile_edges(path.values, 8)
    verdicts = scan_property_e(path, 2, grid_family(edges, 2), CONFIG)
    violations = [v for v in verdicts if v.status == "Violation"]
    assert violations
    assert all(v.pattern.k == 2 for v in violations)


# ---------------------------------------------------------------------------
# Property T

def test_tightness_constant():
    path = Path(np.full(100, 2.0))
    profile = check_property_t(path, (1.0, 3.0, 10.0), CONFIG)
    assert profile.fractions == (0.0, 1.0, 1.0)
    assert profile.verdict


def test_tightness_monotone_fails():
    path = Path(np.arange(10000, dtype=float))
    profile = check_property_t(path, (10.0, 100.0, 1000.0), CONFIG)
    # the tail window sits entirely above every level
    assert profile.fractions == (0.0, 0.0, 0.0)
    assert not profile.verdict


def test_tightness_iid_normal_matches_cdf():
    path = generate(GeneratorSpec("iid_normal", length=200000, seed=11))
    profile = check_property_t(path, (1.0, 2.0, 4.0, 8.0), CONFIG)
    for k, frac in zip(profile.levels, profile.fractions):
        expected = 2 * norm.cdf(k) - 1
        assert frac == pytest.approx(expected, abs=0.01)
    assert profile.verdict


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=300))
def test_tightness_fractions_nondecreasing(values):
    profile = check_property_t(Path(np.array(values)), (1.0, 5.0, 25.0), CONFIG)
    assert list(profile.fractions) == sorted(profile.fractions)


@pytest.mark.parametrize("levels", [(), (2.0, 1.0), (0.0, 1.0), (-1.0, 1.0),
                                    (1.0, 1.0, 4.0), (1.0, math.nan),
                                    (math.nan,)])
def test_tightness_levels_must_strictly_increase_from_above_zero(levels):
    with pytest.raises(ValueError, match="strictly increasing and positive"):
        check_property_t(Path(np.zeros(10)), levels, CONFIG)


def test_tightness_default_levels_are_k_levels():
    path = generate(GeneratorSpec("iid_normal", length=1000, seed=2))
    assert check_property_t(path).levels == K_LEVELS
    assert analyze_path(path, CONFIG).tightness == check_property_t(path)


# ---------------------------------------------------------------------------
# empirical measures

def test_empirical_measure_alternating():
    path = Path(np.array([0.0, 1.0, 0.0, 1.0]))
    grid = PatternGrid.from_edges((-0.5, 0.5, 1.5), 1)
    m = empirical_measure(path, grid, 4)
    assert m.masses.tolist() == [0.5, 0.5]
    assert m.uncovered == 0


def test_empirical_measure_single_full_cell():
    path = Path(np.array([3.0, -1.0, 99.0]))
    grid = PatternGrid.from_edges((-math.inf, math.inf), 1)
    m = empirical_measure(path, grid, 3)
    assert m.masses.tolist() == [1.0]


def test_empirical_measure_sine_exact():
    path = Path(np.sin(np.arange(400) * (np.pi / 2)))
    grid = PatternGrid.from_edges((-1.5, -0.5, 0.5, 1.5), 1)
    m = empirical_measure(path, grid, 400)
    assert m.counts.tolist() == [100, 200, 100]
    assert m.masses.tolist() == [0.25, 0.5, 0.25]


def test_empirical_measure_counts_boundary_hits():
    path = Path(np.array([0.0, 0.5, 1.0, 0.2]))
    grid = PatternGrid.from_edges((-0.5, 0.5, 1.5), 1)
    m = empirical_measure(path, grid, 4)
    assert m.uncovered == 1  # the exact 0.5
    assert m.masses.sum() == pytest.approx(1 - 1 / 4)


@given(st.lists(st.floats(-2, 2), min_size=4, max_size=80),
       st.floats(-1.5, 1.4))
def test_refinement_count_identity(values, split):
    # splitting one cell: child counts + hits on the split point = parent
    path = Path(np.array(values))
    n = path.length
    parent = empirical_measure(path, PatternGrid.from_edges((-2.5, 2.5), 1), n)
    child = empirical_measure(path, PatternGrid.from_edges((-2.5, split, 2.5), 1), n)
    hits = int(np.sum(path.values == split))
    assert child.counts.sum() + hits == parent.counts.sum()


# ---------------------------------------------------------------------------
# induced distributions and consistency

def test_induced_fdd_constant_level1():
    path = Path(np.full(400, 2.0))
    stats = cell_table(path, grid_family((-math.inf, 1.5, 2.5, math.inf), 2),
                       CONFIG).stats
    values = [est.value for est in stats[1]]
    assert values == [0.0, 1.0, 0.0]


def test_induced_fdd_sine_transitions():
    path = Path(np.sin(np.arange(400) * (np.pi / 2)))
    stats = cell_table(path, grid_family((-1.5, -0.5, 0.5, 1.5), 2),
                       CONFIG).stats
    # realized transitions 0->1, 1->0, 0->-1, -1->0 (cell ids 5, 7, 3, 1)
    estimates = stats[2]
    realized = {1, 3, 5, 7}
    for idx, est in enumerate(estimates):
        if idx in realized:
            assert abs(est.value - 0.25) <= est.oscillation + 1e-12
        else:
            assert est.value == 0.0


def test_consistency_sine_is_exact_zero():
    path = Path(np.sin(np.arange(400) * (np.pi / 2)))
    fdd = induced_fdd(path, 2, (-1.5, -0.5, 0.5, 1.5), CONFIG)
    assert consistency_check(fdd, 1) == 0.0


def _stage_outputs(verdicts, fdd, erg):
    """Everything the three stages return, in comparable form."""
    measures = {k: (m.grid.edges, m.n, m.uncovered, m.counts.tolist(),
                    m.masses.tolist()) for k, m in fdd.measures.items()}
    return (verdicts, measures, fdd.n_matched, erg.records, erg.verdict,
            erg.worst_discrepancy, erg.offending)


@pytest.mark.parametrize("spec", ["ar1(0.5),L=20000,seed=1",
                                  "block_mixture(0,5),L=20000,seed=1"])
@pytest.mark.parametrize("fixed_edges", [False, True])
@pytest.mark.parametrize("tail_fraction", [0.5, 0.25])
def test_each_path_level_form_equals_its_table_level_form(
        spec, fixed_edges, tail_fraction):
    """The table-level forms read grids, edges, the tail fraction and the
    thresholds from the cell table alone: on a table built under fixed
    edges or another tail fraction they equal the path-level forms called
    with those, and differ from the defaults wherever those do."""
    path = generate(parse_spec(spec))
    config = AnalysisConfig(tail_fraction=tail_fraction)
    edges = (-math.inf, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5, math.inf) \
        if fixed_edges else quantile_edges(path.values, 8)
    grids = grid_family(edges, 2)
    # the whole path as one block: its copy's tail means are the table's
    # own only when both are read over the table's tail fraction
    whole = Contraction([0], [path.length - 1], 1.0, label="whole")
    family = [*alternating_family(path.length), whole]
    table = cell_table(path, grids, config)
    got = _stage_outputs(table_property_e(table), table_fdd(table),
                         table_ergodicity(table, family))
    want = _stage_outputs(scan_property_e(path, 2, grids, config),
                          induced_fdd(path, 2, edges, config),
                          ergodicity_diagnostic(path, family, grids, 2,
                                                config=config))
    assert got == want
    assert all(v.estimate.tail_fraction == tail_fraction for v in got[0])
    assert all(r.discrepancy == 0.0 for r in got[3] if r.contraction_label
               == "whole")
    assert table_fdd(table).grids == grids
    if fixed_edges or tail_fraction != CONFIG.tail_fraction:
        default = cell_table(path, grid_family(
            quantile_edges(path.values, 8), 2), CONFIG)
        assert table_property_e(table) != table_property_e(default)
        assert table_ergodicity(table, family).records != \
            table_ergodicity(default, family).records


def test_consistency_iid_normal_small():
    path = generate(GeneratorSpec("iid_normal", length=100000, seed=5))
    fdd = induced_fdd(path, 2, quantile_edges(path.values, 8), CONFIG)
    assert consistency_check(fdd, 1) < 0.001


@given(st.lists(st.floats(-3, 3), min_size=5, max_size=120))
def test_consistency_bound_holds_exactly(values):
    path = Path(np.array(values))
    edges = (-math.inf, -1.0, 0.0, 1.0, math.inf)
    fdd = induced_fdd(path, 2, edges, CONFIG)
    assert consistency_check(fdd, 1) <= consistency_bound(fdd, 1) + 1e-15


# a finite grid range: values below -1 or above 2 lie in no cell
FINITE_EDGES = (-1.0, 0.0, 0.5, 2.0)


@given(st.lists(st.one_of(st.sampled_from(FINITE_EDGES),
                          st.integers(-2, 3).map(float), st.floats(-3, 3)),
                min_size=3, max_size=60),
       st.sampled_from([None, 2, 3, 4]))
def test_consistency_counts_the_extensions_that_match_no_cell(values, cells):
    """Over the same n window starts, the order-k count of a cell exceeds
    the marginalised order-(k+1) count by the starts in the cell whose
    coordinate k + 1 lies in no cell: an atom on a cut, or a value outside
    a finite range.  So the discrepancy is the largest such count over n,
    and never more than the order-(k+1) uncovered count over n."""
    edges = FINITE_EDGES if cells is None else quantile_edges(
        np.array(values), cells)
    fdd = induced_fdd(Path(np.array(values)), 3, edges, CONFIG)
    n = fdd.n_matched
    marginal = [next((j for j, (a, b) in enumerate(zip(edges, edges[1:]))
                      if a < x < b), None) for x in values]
    for k in (1, 2):
        missed = collections.Counter(
            tuple(marginal[i:i + k]) for i in range(n)
            if None not in marginal[i:i + k] and marginal[i + k] is None)
        worst = max(missed.values(), default=0)
        # count / n is what consistency_check divides, rounded the same way
        assert consistency_check(fdd, k) == worst / n
        assert worst <= fdd.measures[k + 1].uncovered


def test_consistency_requires_both_levels():
    path = Path(np.zeros(50))
    fdd = induced_fdd(path, 1, (-math.inf, 0.5, math.inf), CONFIG)
    with pytest.raises(ValueError):
        consistency_check(fdd, 1)


# ---------------------------------------------------------------------------
# local density deviation

def test_deviation_constant_path_is_zero():
    path = Path(np.full(2000, 2.0))
    report = local_density_deviation(
        path, IntervalPattern.of((1.0, 3.0)), N=25, epsilon=0.1, config=CONFIG)
    assert report.deviation_density == 0.0
    assert report.p_hat == 1.0


def test_deviation_periodic_window_matches_period():
    path = Path(np.sin(np.arange(4000) * (np.pi / 2)))
    report = local_density_deviation(
        path, IntervalPattern.of((0.5, 1.5)), N=4, epsilon=0.01, config=CONFIG)
    # every length-4 window holds exactly one occurrence
    assert report.deviation_density == 0.0


def test_deviation_shrinks_with_window_length():
    rng = np.random.default_rng(9)
    path = Path(np.sign(rng.standard_normal(100000)))
    pattern = IntervalPattern.of((0.5, 1.5))
    small = local_density_deviation(path, pattern, N=10, epsilon=0.1,
                                    config=CONFIG, p_hat=0.5)
    large = local_density_deviation(path, pattern, N=1000, epsilon=0.1,
                                    config=CONFIG, p_hat=0.5)
    assert large.deviation_density < 0.01
    assert large.deviation_density <= small.deviation_density
    # binomial oracle at N=10: P(|B(10,1/2)/10 - 1/2| > 0.1) = 0.34375
    assert small.deviation_density == pytest.approx(0.34375, abs=0.03)


@pytest.mark.parametrize("tail_fraction", [0.1, 0.5, 1.0])
def test_deviation_default_p_hat_is_the_limit_density_estimate(tail_fraction):
    path = generate(GeneratorSpec("ar1", length=20000, seed=4,
                                  params={"rho": 0.9}))
    config = AnalysisConfig(tail_fraction=tail_fraction)
    grids = grid_family(quantile_edges(path.values, 8), 2)
    for cell in grids[1].cells + grids[2].cells:
        occ = occurrence_set(path, cell)
        expected = estimate_limit_density(
            density_trajectory(occ, occ.source_horizon),
            config.tail_fraction, config.tolerance).value
        report = local_density_deviation(path, cell, N=50, epsilon=0.1,
                                         config=config)
        assert report.p_hat.hex() == expected.hex()


def test_deviation_window_too_long():
    path = Path(np.zeros(50))
    with pytest.raises(ValueError):
        local_density_deviation(path, IntervalPattern.of((-1.0, 1.0)),
                                N=51, epsilon=0.1, config=CONFIG)


def test_deviation_doubling_ladder_trend():
    # across a doubling ladder of N the deviation density trends down,
    # with Monte Carlo slack
    path = generate(GeneratorSpec("ar1", length=100000, seed=21,
                                  params={"rho": 0.5}))
    pattern = IntervalPattern.of((0.0, math.inf))
    ladder = [local_density_deviation(path, pattern, N=n, epsilon=0.15,
                                      config=CONFIG).deviation_density
              for n in (16, 32, 64, 128, 256)]
    for earlier, later in zip(ladder, ladder[1:]):
        assert later <= earlier + 0.05


# ---------------------------------------------------------------------------
# combined diagnostics

def test_analyze_path_sine_passes_cleanly():
    path = Path(np.sin(np.arange(1000) * (np.pi / 2)))
    diag = analyze_path(path, CONFIG)
    assert diag.property_e_pass
    assert diag.tightness.verdict
    fdd = table_fdd(diag.table)
    assert all(consistency_check(fdd, k) <= consistency_bound(fdd, k)
               for k in range(1, max(diag.table.grids)))


def test_analyze_path_monotone_fails_e_and_t():
    path = Path(np.arange(10000, dtype=float))
    diag = analyze_path(path, CONFIG)
    assert not diag.property_e_pass
    assert not diag.tightness.verdict
