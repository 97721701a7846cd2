"""Each fast path against its scalar oracle at realistic sizes.

The shared cell table and harmonic prefix, the small-integer sort inside
``cell_tail_stats``, the single-pattern checks on the occurrence mask, the
gathered codes of contracted copies, the running minimum of the adversarial
thinning, its staged join on arrays of window starts, its integer window
counts, the bulk text parse, the batched moving-window statistics, the bulk
indicator CSV writer and the size calibration in blocks of replicate rows
all replace a slower, obviously correct computation; these tests hold them
to it.
"""

import csv
import dataclasses
import functools
import io
import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathstat.cli import INDICATOR_CHUNK_ROWS, _write_indicators
from pathstat.config import AnalysisConfig
from pathstat.contraction import (
    ADVERSARIAL_EPS1,
    ADVERSARIAL_THRESHOLD_CAP,
    M_SCHEDULE,
    _min_count,
    _staged_join,
    _thin_to_density,
    adversarial_contraction,
    alternating_family,
    contract_path,
    contracted_codes,
    default_contraction_family,
    ergodicity_diagnostic,
    table_ergodicity,
)
from pathstat import pathcore, stattests
from pathstat.generators import (
    KINDS,
    GeneratorSpec,
    generate,
    generate_rows,
    parse_spec,
)
from pathstat.pathcore import (
    IntervalPattern,
    OccurrenceSet,
    Path,
    PathParseError,
    _bulk_parse,
    _parse_lines,
    density_trajectory,
    estimate_limit_density,
    occurrence_set,
    read_path_file,
    read_path_text,
    tail_estimate,
    tail_window_size,
)
from pathstat.properties import (
    DIGITIZE_CHUNK,
    DIGITIZE_COMPARE_EDGES,
    _classify,
    _digitize_open,
    _fallback_cuts,
    _linear_quantiles,
    _measure,
    _small_int_dtype,
    cell_table,
    cell_tail_stats,
    check_property_e,
    grid_family,
    harmonic_prefix,
    local_density_deviation,
    quantile_edges,
    scan_property_e,
    table_fdd,
    window_cell_ids,
    window_codes,
)
from pathstat.stattests import (
    BUILTIN_KINDS,
    CALIBRATION_BLOCK_VALUES,
    RejectionRecord,
    _batch_chunk,
    apply_moving_window,
    builtin_statistic,
    calibrate_test_size,
    make_builtin_test,
)
from pathstat.suite import report_dict, run_suite

CONFIG = AnalysisConfig()
LEVEL_EDGES = (-math.inf, -1.0, 1.0, 4.0, 6.0, math.inf)


def _path(text: str) -> Path:
    return generate(parse_spec(text))


# ---------------------------------------------------------------------------
# cell_tail_stats against the per-cell trajectory pipeline

def _assert_equals_trajectories(stats, occurrence_sets, tail_fraction,
                                tolerance):
    """Each cell's stats against density_trajectory + estimate_limit_density
    on its occurrence set."""
    assert len(stats) == len(occurrence_sets)
    for st, occ in zip(stats, occurrence_sets):
        traj = density_trajectory(occ, occ.source_horizon)
        est = estimate_limit_density(traj, tail_fraction, tolerance)
        w = tail_window_size(traj.horizon, tail_fraction)
        tail = traj.ratios[traj.horizon - w:]
        assert st.final_count == traj.final_count
        assert st.value == pytest.approx(est.value, rel=1e-9, abs=1e-12)
        assert st.oscillation == pytest.approx(est.oscillation, rel=1e-9,
                                               abs=1e-12)
        assert (st.oscillation <= tolerance) == est.converged
        assert st.tail_nonincreasing == bool(np.all(np.diff(tail) <= 0))


def _assert_matches_oracle(path, grid, config=CONFIG):
    ids = window_cell_ids(path.values, grid)
    assert ids.dtype.itemsize <= 2  # the small-integer sort runs
    stats = cell_tail_stats(ids, grid.n_cells, config.tail_fraction)
    _assert_equals_trajectories(
        stats, [occurrence_set(path, cell) for cell in grid.cells],
        config.tail_fraction, config.tolerance)
    return ids


def test_tail_stats_oracle_with_uncovered_windows():
    # atoms on the quantile cuts and a finite grid range both give id -1
    rng = np.random.default_rng(3)
    path = Path(np.round(rng.normal(size=200_000), 1))
    grid = grid_family(quantile_edges(path.values, 8), 1)[1]
    ids = _assert_matches_oracle(path, grid)
    assert np.count_nonzero(ids == -1) > 0
    finite = grid_family((-1.0, -0.25, 0.0, 0.35, 1.5), 1)[1]
    ids = _assert_matches_oracle(path, finite)
    assert np.count_nonzero(ids == -1) > 0


def test_tail_stats_oracle_on_256_cells():
    path = _path("ar1(0.5),L=200000,seed=4")
    grid = grid_family(quantile_edges(path.values, 16), 2)[2]
    ids = _assert_matches_oracle(path, grid)
    assert grid.n_cells == 256 and ids.dtype == np.int16


def _id_occurrences(ids, n_cells):
    return [OccurrenceSet(np.flatnonzero(ids == c), ids.size)
            for c in range(n_cells)]


@pytest.mark.parametrize("n_cells, horizon, seed", [
    (8, 200_000, 1), (64, 200_000, 2), (256, 100_000, 3), (3, 50, 4),
    (2, 7, 5), (4, 1, 6)])
def test_tail_stats_oracle_on_random_ids(n_cells, horizon, seed):
    rng = np.random.default_rng(seed)
    ids = rng.integers(-1, n_cells, horizon)
    ids[: horizon // 3] = rng.integers(-1, 2, horizon // 3)  # early-only cells
    ids[horizon // 2: horizon // 2 + 5] = n_cells - 1        # late burst
    occurrences = _id_occurrences(ids, n_cells)
    for tail_fraction, tolerance in ((0.5, 0.02), (0.1, 0.001), (1.0, 0.2)):
        stats = cell_tail_stats(ids, n_cells, tail_fraction)
        _assert_equals_trajectories(stats, occurrences, tail_fraction,
                                    tolerance)


def test_tail_stats_saturated_and_full_cells():
    ids = np.array([0, 0, 0, 0, 1, 1, 0, 1, 1, 1])
    full = np.zeros(10, dtype=np.int64)
    for cell_ids in (ids, full, np.full(10, -1)):
        stats = cell_tail_stats(cell_ids, 3, 0.5)
        _assert_equals_trajectories(stats, _id_occurrences(cell_ids, 3),
                                    0.5, 0.02)


def test_tail_stats_accept_wide_ids():
    ids = np.random.default_rng(5).integers(-1, 64, 50_000)
    narrow = cell_tail_stats(ids.astype(np.int8), 64, 0.5)
    assert cell_tail_stats(ids, 64, 0.5) == narrow


# ---------------------------------------------------------------------------
# the shared table and contracted copies

def _family_with_adversarial_copies(path, edges):
    """The alternating copies and every adversarial copy the search builds
    on a level-1 cell of ``edges``."""
    return alternating_family(path.length) + [
        trace.result for trace in _adversarial_traces(path, edges, M_SCHEDULE)
        if not trace.failed]


@pytest.mark.parametrize("spec, edges", [
    ("ar1(0.5),L=50000,seed=2", None),
    ("block_mixture(0,5),L=50000,seed=1", LEVEL_EDGES),
    ("monotone(1),L=20000", None),
])
def test_gathered_codes_equal_fresh_digitization(spec, edges):
    path = _path(spec)
    if edges is None:
        edges = quantile_edges(path.values, CONFIG.grid_cells)
    grids = grid_family(edges, 2)
    table = cell_table(path, grids, CONFIG)
    family = _family_with_adversarial_copies(path, edges)
    assert len(family) > 6 or not spec.startswith(("block", "mono"))
    for contraction in family:
        marg = contracted_codes(table, contraction)
        values = contract_path(path, contraction).values
        for grid in grids.values():
            assert np.array_equal(window_codes(marg, grid),
                                  window_cell_ids(values, grid))


def test_ergodicity_same_with_and_without_table():
    path = _path("block_mixture(0,5),L=50000,seed=2")
    grids = grid_family(LEVEL_EDGES, 2)
    table = cell_table(path, grids, CONFIG)
    family = default_contraction_family(path, grids[1], CONFIG)
    shared = table_ergodicity(table, family)
    alone = ergodicity_diagnostic(path, family, grids, 2, None, CONFIG)
    assert shared.records == alone.records
    assert shared.worst_discrepancy == alone.worst_discrepancy


def test_shared_harmonic_prefix_equals_a_fresh_one():
    path = _path("block_mixture(0,5),L=50000,seed=1")
    grids = grid_family(LEVEL_EDGES, 2)
    table = cell_table(path, grids, CONFIG)
    fresh = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1.0, 50_001))))
    assert _bits(table.harm) == _bits(fresh)
    family = _family_with_adversarial_copies(path, LEVEL_EDGES)
    assert len(family) > 6
    for contraction in family:
        ids = window_codes(contracted_codes(table, contraction), grids[2])
        assert ids.size < path.length
        assert cell_tail_stats(ids, grids[2].n_cells, CONFIG.tail_fraction,
                               table.harm) == \
            cell_tail_stats(ids, grids[2].n_cells, CONFIG.tail_fraction)


def test_harmonic_prefix_is_read_only_and_kept_per_length():
    """One read-only array per length, kept until a run of another length;
    reports do not depend on which run built it."""
    harm = harmonic_prefix(2000)
    assert not harm.flags.writeable
    with pytest.raises(ValueError):
        harm[1] = 0.0
    assert harmonic_prefix(2000) is harm
    assert harmonic_prefix(2001) is not harm

    def report(length: int) -> str:
        path = _path(f"ar1(0.5),L={length},seed=4")
        return json.dumps(report_dict(run_suite(path)), sort_keys=True,
                          allow_nan=False)

    lengths = (2000, 100_000, 2000)
    interleaved = [report(length) for length in lengths]
    cleared = []
    for length in lengths:
        harmonic_prefix.cache_clear()
        cleared.append(report(length))
    assert interleaved == cleared
    assert interleaved[0] == interleaved[2]


def test_harmonic_prefix_is_built_in_place():
    """The prefix is the one array its build holds: the whole-array form
    (arange, reciprocals, running sum, concatenation) peaked at 15.3 MiB
    at L = 1e6.  Its bits are the direct sum's."""
    length = 10 ** 6
    harmonic_prefix.cache_clear()
    tracemalloc.start()
    try:
        harm = harmonic_prefix(length)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        harmonic_prefix.cache_clear()
    assert harm.nbytes == 8 * (length + 1)
    assert peak <= harm.nbytes + 64 * 2 ** 10
    for n in (1, 2, 3, 1000, 20_011, length):
        direct = np.concatenate(([0.0],
                                 np.cumsum(1.0 / np.arange(1.0, n + 1))))
        assert _bits(harmonic_prefix(n)) == _bits(direct)
        assert not harmonic_prefix(n).flags.writeable


@pytest.mark.parametrize("spec", [
    "ar1(0.5),L=100000,seed=1",
    "iid_normal(0,1),L=100000,seed=1",
    "block_mixture(0,5),L=100000,seed=1",
])
def test_single_pattern_verdict_equals_the_scan(spec):
    path = _path(spec)
    grids = grid_family(quantile_edges(path.values, 8), 2)
    scanned = scan_property_e(path, 2, grids, CONFIG)
    assert len(scanned) == 8 + 64
    for verdict in scanned:
        assert check_property_e(path, verdict.pattern, CONFIG) == verdict


# ---------------------------------------------------------------------------
# quantile cuts from a sorted copy against numpy's selection on the values

def _quantile_edges_by_selection(values, cells):
    """``quantile_edges`` with ``np.quantile`` selecting from the values
    themselves, zero cuts made +0.0."""
    v = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        qs = np.quantile(v, np.linspace(0.0, 1.0, cells + 1)[1:-1])
    cuts = np.unique(qs[np.isfinite(qs)]) + 0.0
    if cuts.size < 2:
        cuts = _fallback_cuts(v, cuts)
    return (-math.inf, *(float(c) for c in cuts), math.inf)


TINY = 5e-324
HUGE = 1.7976931348623157e308
# ties and atoms: signed zeros, subnormals, the least normal, values at and
# next to the ends of the float range, and small integers
ATOMS = (0.0, -0.0, TINY, -TINY, 1e-310, -1e-310, 2.2250738585072014e-308,
         HUGE, -HUGE, np.nextafter(HUGE, 0.0), -np.nextafter(HUGE, 0.0),
         1.0, -1.0, 2.0)
QUANTILE_VALUES = st.one_of(
    st.sampled_from(ATOMS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e308, max_value=HUGE),
    st.floats(min_value=-HUGE, max_value=-1e308),
    st.floats(min_value=-1e-307, max_value=1e-307))


@settings(max_examples=300)
@given(st.lists(QUANTILE_VALUES, min_size=1, max_size=300),
       st.integers(2, 24), st.integers(1, 4))
@example([-0.0, -2.0, -0.0, -1.0, 1.0, 2.0, 0.0, 0.0] * 3, 8, 1)
@example([HUGE, -HUGE, HUGE, -HUGE], 3, 1)
def test_quantile_edges_equal_numpys_selection(values, cells, repeat):
    """Tied values (``repeat`` copies of each) and atoms, at every scale.
    A fallback centred on the largest float keeps its one finite cut, with
    no overflow warning, on both sides."""
    v = np.repeat(np.array(values), repeat)
    assert [x.hex() for x in quantile_edges(v, cells)] == \
        [x.hex() for x in _quantile_edges_by_selection(v, cells)]


@pytest.mark.parametrize("spec", ["ar1(0.5),L=1000000,seed=2",
                                  "block_mixture(0,5),L=100000,seed=1",
                                  "constant(2),L=1000"])
@pytest.mark.parametrize("cells", [2, 8, 257])
def test_quantile_edges_equal_numpys_selection_on_paths(spec, cells):
    values = _path(spec).values
    assert quantile_edges(values, cells) == \
        _quantile_edges_by_selection(values, cells)


def _quantile_inputs(count):
    """Seeded inputs of 1..300 values at 2..70 cells, so many hold fewer
    values than cells: normals, normals rounded to a few atoms, the atoms
    above, and runs of atoms long enough that cuts fall on them."""
    rng = np.random.default_rng(35)
    atoms = np.array(ATOMS)
    for i in range(count):
        size, cells = int(rng.integers(1, 301)), int(rng.integers(2, 71))
        which = i % 4
        if which == 0:
            values = rng.standard_normal(size)
        elif which == 1:
            values = np.round(rng.standard_normal(size), i % 3)
        elif which == 2:
            values = rng.choice(atoms, size)
        else:
            runs = rng.choice(atoms, int(rng.integers(1, 6)))
            values = np.repeat(runs, size // runs.size + 1)[:size]
            rng.shuffle(values)
        yield values, cells


def test_linear_quantiles_equal_numpys_bytes():
    for values, cells in _quantile_inputs(5000):
        q = np.linspace(0.0, 1.0, cells + 1)[1:-1]
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.quantile(values, q) + 0.0
            got = _linear_quantiles(np.sort(values), q) + 0.0
        assert got.tobytes() == want.tobytes(), (values, cells)


@pytest.mark.parametrize("values, cells", [
    ([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0], 3),   # each cut on a run of atoms
    ([0.0, -0.0, -0.0, 0.0, 1.0], 4),           # cuts on signed zeros
    ([2.0, -1.0, 0.5], 8),                       # fewer values than cells
    ([4.0], 5),
    ([1.0, math.nan, 2.0], 4),                   # numpy's cuts are all NaN
])
def test_linear_quantiles_on_atoms_and_short_paths(values, cells):
    v = np.array(values)
    q = np.linspace(0.0, 1.0, cells + 1)[1:-1]
    want = np.quantile(v, q) + 0.0
    assert (_linear_quantiles(np.sort(v), q) + 0.0).tobytes() == \
        want.tobytes()
    assert [x.hex() for x in quantile_edges(v, cells)] == \
        [x.hex() for x in _quantile_edges_by_selection(v, cells)]


# ---------------------------------------------------------------------------
# the chunked digitization against the whole-path form

def _digitize_whole(values, edges):
    """Marginal codes computed over the whole array at once."""
    idx = np.searchsorted(edges, values, side="right") - 1
    in_range = (idx >= 0) & (idx < edges.size - 1)
    safe = np.clip(idx, 0, edges.size - 2)
    on_edge = values == edges[safe]
    return np.where(in_range & ~on_edge, safe, -1).astype(
        _small_int_dtype(edges.size - 1))


@pytest.mark.parametrize("size", [0, 1, DIGITIZE_CHUNK - 1, DIGITIZE_CHUNK,
                                  DIGITIZE_CHUNK + 1, 1_000_000])
@pytest.mark.parametrize("which", ["quantile", "finite", "many",
                                   "compared", "searched"])
def test_chunked_digitization_equals_the_whole_path_form(size, which):
    x = _long_path("ar1(0.99)")[:size].copy()
    if which == "quantile":       # int8 codes, infinite ends
        edges = np.asarray(quantile_edges(x if size else [0.0], 8))
    elif which == "finite":       # values outside the range match no cell
        edges = np.array([-3.0, -1.0, 0.0, 0.5, 2.0])
    elif which == "many":         # int32 codes
        edges = np.linspace(-40.0, 40.0, 40_001)
    else:                         # the most edges compared, and one more
        count = DIGITIZE_COMPARE_EDGES + (which == "searched")
        edges = np.concatenate(
            ([-math.inf], np.linspace(-3.0, 3.0, count - 2), [math.inf]))
    # values on edges, at the ends and not a number
    x[::7] = edges[np.arange(x[::7].size) % edges.size]
    x[3::11] = np.array([-math.inf, math.inf, math.nan])[
        np.arange(x[3::11].size) % 3]
    got = _digitize_open(x, edges)
    want = _digitize_whole(x, edges)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_digitization_memory_is_bounded_by_its_chunks():
    values = _long_path("walk")
    edges = np.asarray(quantile_edges(values, 8))
    tracemalloc.start()
    try:
        marg = _digitize_open(values, edges)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert marg.nbytes == values.size
    # the one-byte codes and a few chunk-sized temporaries; the whole-path
    # form took 25.8 MiB
    assert peak < marg.nbytes + 3 * 2 ** 20


# ---------------------------------------------------------------------------
# the measures of table_fdd against a count of the matched windows

def _assert_fdd_equals_window_counts(table):
    fdd = table_fdd(table)
    assert fdd.n_matched == table.marg.size - max(table.ids) + 1
    for k, measure in fdd.measures.items():
        want = _measure(table.ids[k], table.grids[k], fdd.n_matched)
        assert measure.counts.dtype == want.counts.dtype
        assert measure.counts.tolist() == want.counts.tolist()
        assert [m.hex() for m in measure.masses] == \
            [m.hex() for m in want.masses]
        assert (measure.k, measure.grid, measure.n, measure.uncovered) == \
            (want.k, want.grid, want.n, want.uncovered)


# a finite grid range: values below -1 or above 2 lie in no cell
FINITE_EDGES = (-1.0, 0.0, 0.5, 2.0)


@given(st.lists(st.one_of(st.sampled_from(FINITE_EDGES),
                          st.integers(-2, 3).map(float)),
                min_size=1, max_size=60),
       st.integers(1, 4))
def test_fdd_counts_equal_the_window_counts(values, k_max):
    """Uncovered windows anywhere, the last ones past n_matched too."""
    k_max = min(k_max, len(values))
    table = cell_table(Path(np.array(values)),
                       grid_family(FINITE_EDGES, k_max), CONFIG)
    _assert_fdd_equals_window_counts(table)


@pytest.mark.parametrize("spec, edges", [
    ("ar1(0.5),L=100000,seed=2", None),
    ("block_mixture(0,5),L=100000,seed=1", LEVEL_EDGES),
    ("monotone(1),L=20000", None),
])
@pytest.mark.parametrize("k_max", [1, 2, 3])
def test_fdd_counts_equal_the_window_counts_on_paths(spec, edges, k_max):
    path = _path(spec)
    if edges is None:
        edges = quantile_edges(path.values, CONFIG.grid_cells)
    _assert_fdd_equals_window_counts(
        cell_table(path, grid_family(edges, k_max), CONFIG))


# ---------------------------------------------------------------------------
# the single-pattern checks on the occurrence mask against the index route

def _indices_property_e(path, pattern, config):
    """check_property_e through the occurrence set's indices."""
    occ = occurrence_set(path, pattern)
    ids = np.full(occ.source_horizon, -1, dtype=np.int8)
    ids[occ.indices] = 0
    stats = cell_tail_stats(ids, 1, config.tail_fraction)
    return _classify(stats[0], pattern, occ.source_horizon, config)


def _indices_deviation(path, pattern, N, epsilon, config, p_hat):
    """local_density_deviation's density and p_hat through the occurrence
    set's indices."""
    occ = occurrence_set(path, pattern)
    horizon = occ.source_horizon
    csum = np.zeros(horizon + 1)
    csum[1:][occ.indices] = 1.0
    np.cumsum(csum, out=csum)
    if p_hat is None:
        p_hat = tail_estimate(csum[1:] / np.arange(1, horizon + 1),
                              config.tail_fraction, config.tolerance).value
    deviant = np.abs((csum[N:] - csum[:-N]) / N - p_hat) > epsilon
    w = tail_window_size(deviant.size, config.tail_fraction)
    return float(np.mean(deviant[deviant.size - w:])), float(p_hat)


def _single_patterns(path):
    """Grid cells of orders 1 to 3, merged cells and cells on ±inf."""
    edges = quantile_edges(path.values, 8)
    grids = grid_family(edges, 3)
    return [*grids[1].cells, *grids[2].cells[::9], *grids[3].cells[::97],
            IntervalPattern.of((-math.inf, edges[4])),   # the median split
            IntervalPattern.of((edges[4], math.inf)),
            IntervalPattern.of((edges[2], edges[6])),    # the quartiles
            IntervalPattern.of((-math.inf, math.inf)),
            IntervalPattern.of((edges[4], math.inf), (-math.inf, edges[4]))]


@pytest.mark.parametrize("spec, decimals", [
    ("ar1(0.5),L=100000,seed=1", 1),     # many values on the cell edges
    ("iid_normal(0,1),L=100000,seed=2", None),
    ("block_mixture(0,5),L=100000,seed=1", None),
])
def test_single_pattern_checks_equal_the_index_route(spec, decimals):
    path = _path(spec)
    if decimals is not None:
        path = Path(np.round(path.values, decimals))
    for pattern in _single_patterns(path):
        got = check_property_e(path, pattern, CONFIG)
        want = _indices_property_e(path, pattern, CONFIG)
        assert (got.status, got.final_count, got.horizon) == \
            (want.status, want.final_count, want.horizon)
        for name in ("value", "oscillation"):
            assert getattr(got.estimate, name).hex() == \
                getattr(want.estimate, name).hex()
        assert got.final_ratio.hex() == want.final_ratio.hex()
        for N, p_hat in ((10, None), (1000, None), (100, 0.125)):
            report = local_density_deviation(path, pattern, N, 0.1, CONFIG,
                                             p_hat)
            density, p = _indices_deviation(path, pattern, N, 0.1, CONFIG,
                                            p_hat)
            assert report.deviation_density.hex() == density.hex()
            assert report.p_hat.hex() == p.hex()


# ---------------------------------------------------------------------------
# the adversarial thinning against the greedy loop

def _greedy_thin(indices, target):
    kept = []
    count = 0
    for v in indices:
        if (count + 1) <= target * (v + 1):
            kept.append(int(v))
            count += 1
    return np.asarray(kept, dtype=np.int64)


def test_thinning_equals_the_greedy_loop():
    rng = np.random.default_rng(3)
    for _ in range(500):
        horizon = int(rng.integers(1, 20_000))
        size = int(rng.integers(0, min(horizon, 2_000) + 1))
        indices = np.sort(rng.choice(horizon, size, replace=False))
        for target in (1.0, 1.0 / 3.0, float(rng.random()),
                       float(rng.random()) * 0.01):
            got = _thin_to_density(indices, target)
            assert got.dtype == np.int64
            assert np.array_equal(got, _greedy_thin(indices, target))


def test_thinning_edge_cases():
    empty = np.array([], dtype=np.int64)
    assert _thin_to_density(empty, 0.5).tolist() == []
    assert _thin_to_density(empty, 0.5).dtype == np.int64
    every = np.arange(1_000, dtype=np.int64)
    assert np.array_equal(_thin_to_density(every, 1.0), every)
    sparse = np.array([5, 17, 40, 41, 42, 1_000], dtype=np.int64)
    assert np.array_equal(_thin_to_density(sparse, 1.0), sparse)


# ---------------------------------------------------------------------------
# the adversarial staged join against the join over lists of blocks

def _tuple_join(v2, schedule, target, horizon):
    """The blocks and joint points of the staged join, built from lists of
    (start, end) tuples with coverage by set membership."""
    def coverage(blocks):
        covered = np.zeros(horizon)
        for s, e in blocks:
            covered[s:e + 1] = 1.0
        return np.cumsum(covered) / np.arange(1.0, horizon + 1)

    stages = {m: [(int(j), int(j) + m - 1) for j in v]
              for m, v in v2.items()}
    blocks = stages[schedule[0]]
    markers = []
    for prev_m, next_m in zip(schedule, schedule[1:]):
        ends = np.array([e for _, e in blocks])
        cov_g = np.cumsum([e - s + 1 for s, e in blocks]) / (ends + 1)
        dev = np.abs(coverage(stages[next_m]) - target)
        suffix = np.maximum.accumulate(dev[::-1])[::-1]
        quality = np.maximum(
            np.abs(cov_g - target),
            np.where(ends + 1 < horizon,
                     suffix[np.minimum(ends + 1, horizon - 1)], 0.0))
        close = np.flatnonzero(
            quality <= ADVERSARIAL_EPS1 / prev_m / 3.0)
        join_at = int(close[0]) if close.size else int(np.argmin(quality))
        markers.append(int(ends[join_at]))
        blocks = blocks[:join_at + 1] + \
            [b for b in stages[next_m] if b[0] > markers[-1]]
    return tuple(blocks), tuple(markers)


@pytest.mark.parametrize("spec, edges, schedule", [
    ("block_mixture(0,5),L=100000,seed=1", LEVEL_EDGES, None),
    ("ar1(0.99),L=20000,seed=1", None, None),
    ("monotone(1),L=20000", None, None),
    # a join decided by the coverage of the blocks kept so far
    ("ar1(0.5),L=2000,seed=1", (-math.inf, 0.5, 10.0, math.inf), (2, 3, 5)),
    ("monotone(1),L=1000000,seed=1", None, None),
])
def test_staged_join_equals_the_tuple_join(spec, edges, schedule):
    path = _path(spec)
    joined = 0
    for trace in _adversarial_traces(path, edges, schedule or M_SCHEDULE):
        if trace.failed:
            continue
        blocks, markers = _tuple_join(trace.v2, trace.m_schedule,
                                      trace.target_density, path.length)
        assert trace.result.blocks == blocks
        assert trace.n_markers == markers
        joined += 1
    assert joined


def _adversarial_traces(path, edges, schedule):
    """The search on each level-1 cell: of ``edges``, or of the path's
    quantile edges when None."""
    if edges is None:
        edges = quantile_edges(path.values, CONFIG.grid_cells)
    return [adversarial_contraction(path, cell, schedule, config=CONFIG)
            for cell in grid_family(edges, 1)[1].cells]


@st.composite
def _synthetic_stages(draw):
    """An m schedule, a horizon and one ascending run of disjoint windows
    [j, j + m) per stage: gaps of 0 make adjacent windows, a first gap of
    0 a window at index 0, and the last window may stop at the horizon."""
    schedule = draw(st.sampled_from(((2, 3, 5), M_SCHEDULE, (3, 5, 12, 20))))
    horizon = draw(st.integers(schedule[-1], 400))
    stages = {}
    for m in schedule:
        starts, pos = [], 0
        for gap in draw(st.lists(st.integers(0, 3 * m), min_size=1,
                                 max_size=30)):
            if pos + gap + m > horizon:
                break
            starts.append(pos + gap)
            pos += gap + m
        if (not starts or draw(st.booleans())) and pos <= horizon - m:
            starts.append(horizon - m)
        stages[m] = np.array(starts, dtype=np.int64)
    covered = sum(m * v.size for m, v in stages.items()) / len(schedule)
    target = draw(st.one_of(st.floats(0.01, 1.0),
                            st.just(min(1.0, covered / horizon))))
    return stages, schedule, target, horizon


@given(_synthetic_stages())
@example(({2: np.array([0, 2, 8]), 3: np.array([4]), 5: np.array([5])},
          (2, 3, 5), 0.5, 10))
@settings(max_examples=300, deadline=None)
def test_staged_join_on_synthetic_stages(case):
    stages, schedule, target, horizon = case
    starts, stops, markers = _staged_join(stages, schedule, target, horizon)
    assert (tuple(zip(starts.tolist(), (stops - 1).tolist())), markers) == \
        _tuple_join(stages, schedule, target, horizon)


def test_staged_join_memory_is_bounded_by_its_blocks():
    path = _path("monotone(1),L=1000000,seed=1")
    trace = next(t for t in _adversarial_traces(path, None, M_SCHEDULE)
                 if not t.failed)
    tracemalloc.start()
    try:
        _staged_join(trace.v2, trace.m_schedule, trace.target_density,
                     path.length)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # less than one float64 array over the horizon
    assert peak < 8 * path.length


# ---------------------------------------------------------------------------
# the adversarial search's integer window counts against a float64 front end

ZOO = (
    ("ar1(0.5)", None),
    ("iid_normal(0,1)", None),
    ("random_phase_sine(theta=1.4142135623730951)", None),
    ("constant(2)", None),
    ("monotone(1)", None),
    ("block_mixture(0,5)", LEVEL_EDGES),
)


def test_min_count_is_the_least_count_meeting_the_threshold():
    rng = np.random.default_rng(5)
    for m in range(1, 130):
        exact = [j / m for j in range(m + 1)]
        for threshold in exact + [0.375, 1.0 / 3.0, 0.7, 0.1, 0.0] + \
                rng.random(20).tolist():
            want = next(j for j in range(m + 1) if j / m >= threshold)
            assert _min_count(threshold, m) == want


def _float_front_end(path, pattern, schedule, threshold, config):
    """The threshold and each stage's v0 from a float64 running count of
    the occurrence set, window rates compared by division."""
    occ = occurrence_set(path, pattern)
    horizon = occ.source_horizon
    csum = np.zeros(horizon + 1)
    csum[1:][occ.indices] = 1.0
    np.cumsum(csum, out=csum)
    n0 = horizon - tail_window_size(horizon, config.tail_fraction) + 1
    p = float(np.mean(csum[n0:] / np.arange(n0, horizon + 1)))
    if threshold is None:
        threshold = min((p + 1.0) / 2.0, p + ADVERSARIAL_THRESHOLD_CAP)
    v0 = {}
    for m in schedule:
        qualifying = np.flatnonzero((csum[m:] - csum[:-m]) / m >= threshold)
        if not qualifying.size:
            break
        v0[m] = qualifying
    return threshold, v0


def _search(path, cell, schedule, threshold):
    """The search's trace, or the message of the ValueError it raised."""
    try:
        return adversarial_contraction(path, cell, schedule, threshold, CONFIG)
    except ValueError as exc:
        return str(exc)


def _same_arrays(a, b):
    return list(a) == list(b) and \
        all(np.array_equal(a[m], b[m]) for m in a)


def _assert_same_search(path, edges, schedule, threshold):
    """The search's threshold and v0 equal the float front end's on every
    level-1 cell; returns how many searches succeeded."""
    succeeded = 0
    for cell in grid_family(edges, 1)[1].cells:
        trace = _search(path, cell, schedule, threshold)
        if isinstance(trace, str):
            continue
        want_threshold, want_v0 = _float_front_end(path, cell, schedule,
                                                   threshold, CONFIG)
        assert trace.threshold == want_threshold
        assert _same_arrays(trace.v0, want_v0)
        succeeded += not trace.failed
    return succeeded


@pytest.mark.parametrize("schedule", [M_SCHEDULE, (3, 5, 12, 20)])
@pytest.mark.parametrize("text, edges", ZOO)
def test_search_on_the_codes_equals_the_occurrence_scan(text, edges,
                                                        schedule):
    path = _path(f"{text},L=100000,seed=1")
    if edges is None:
        edges = quantile_edges(path.values, CONFIG.grid_cells)
    succeeded = [_assert_same_search(path, edges, schedule, threshold)
                 for threshold in (None, 0.375, 1.0 / 3.0)]
    # the zoo kinds on which the search builds an adversarial copy
    assert (succeeded[0] > 0) == text.startswith(("block", "monotone"))


def test_search_on_the_codes_equals_the_occurrence_scan_at_1e6():
    path = _path("ar1(0.5),L=1000000,seed=1")
    edges = quantile_edges(path.values, CONFIG.grid_cells)
    assert _assert_same_search(path, edges, M_SCHEDULE, None) == 0


# ---------------------------------------------------------------------------
# bulk text parse against the per-line parse

def test_bulk_parse_bit_identical():
    rng = np.random.default_rng(11)
    values = np.concatenate([
        rng.normal(size=50_000),
        rng.random(50_000) * 10.0 ** rng.integers(-320, 300, 50_000),
    ])
    values[::7] *= -1
    text = "\n".join(map(repr, values.tolist())) + "\n"
    bulk = _bulk_parse(io.BytesIO(text.encode()))
    assert bulk is not None
    assert np.array_equal(bulk.view(np.int64),
                          _parse_lines(text).view(np.int64))
    assert np.array_equal(read_path_text(text).values.view(np.int64),
                          values.view(np.int64))


def test_a_byte_order_mark_keeps_the_bulk_parse(tmp_path):
    rng = np.random.default_rng(12)
    values = rng.normal(size=5_000) * 10.0 ** rng.integers(-300, 300, 5_000)
    values[::3] *= -1
    values[:2] = 0.0, -0.0
    text = "\ufeff" + "\n".join(map(repr, values.tolist())) + "\n"
    bulk = _bulk_parse(io.BytesIO(text.encode()))
    assert bulk is not None
    file = tmp_path / "path.txt"
    file.write_bytes(text.encode())
    for parsed in (bulk, _parse_lines(text), read_path_text(text).values,
                   read_path_file(str(file)).values):
        assert np.array_equal(parsed.view(np.int64), values.view(np.int64))


@pytest.mark.parametrize("text, values", [
    ("value\n1\n2\n", [1.0, 2.0]),             # header row
    ("a,b\n1,9\n2,8\n", [1.0, 2.0]),           # two-column CSV
    ("1\n\n2\n\n", [1.0, 2.0]),                # blank lines
    ("\n1\n2", [1.0, 2.0]),                    # leading blank line
    ("1\r\n2\r\n", [1.0, 2.0]),                # CRLF
    ("1_000\n2\n", [1000.0, 2.0]),             # Python's float reads it
    (" 3\n4 \n", [3.0, 4.0]),                  # padding
    ("+.5e-3\n-0\n7.\n", [0.0005, -0.0, 7.0]),
    ("\ufeff1.5\n2.5\n3.5\n", [1.5, 2.5, 3.5]),   # byte-order mark
    ("\ufeff-1\r\n2\r\n", [-1.0, 2.0]),
    ("\ufeffvalue\n1\n2\n", [1.0, 2.0]),        # and then a header row
])
def test_layouts_parse_as_per_line(tmp_path, text, values):
    file = tmp_path / "path.txt"
    file.write_bytes(text.encode())
    assert read_path_text(text).values.tolist() == values
    assert _parse_lines(text).tolist() == values
    assert read_path_file(str(file)).values.tolist() == values


PARSE_ERRORS = [
    ("1\n2\nnan\n4\n", "line 3: non-finite value: 'nan'"),
    ("1\n1e999\n", "line 2: non-finite value: '1e999'"),
    ("1\n-inf\n", "line 2: non-finite value: '-inf'"),
    ("1\n2 3\n4\n", "line 2: not a number: '2 3'"),
    ("1\n1-2\n", "line 2: not a number: '1-2'"),
    ("1\n\n2\noops\n", "line 4: not a number: 'oops'"),
    ("value\n1\nx,2\n", "line 3: not a number: 'x'"),
    ("1\r\n2\r\n.\r\n", "line 3: not a number: '.'"),
    ("1\n2e\n", "line 2: not a number: '2e'"),
    ("\n\n", "no numeric rows found"),
    ("", "no numeric rows found"),
    # lines the bulk reader alone would read as a prefix: 1, 1.2, 1, 1
    ("1\n1.2.3\n", "line 2: not a number: '1.2.3'"),
    ("1\n2\n1e", "line 3: not a number: '1e'"),
    ("1\n2\n1 2", "line 3: not a number: '1 2'"),
    ("\ufeff1\nx\n", "line 2: not a number: 'x'"),
    ("\ufeff", "no numeric rows found"),
    ("\ufeff\ufeff1\n", "no numeric rows found"),  # one mark is skipped
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_errors_keep_text_and_line(text, message):
    with pytest.raises(PathParseError) as bulk:
        read_path_text(text)
    with pytest.raises(PathParseError) as per_line:
        _parse_lines(text)
    assert str(bulk.value) == str(per_line.value) == message


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_file_parse_errors_keep_text_and_line(tmp_path, text, message):
    file = tmp_path / "path.txt"
    file.write_bytes(text.encode())
    with pytest.raises(PathParseError) as err:
        read_path_file(str(file))
    assert str(err.value) == message


FORTY_FOUR_DIGITS = "1.2345678901234567890123456789012345678901234"


@pytest.mark.parametrize("token, bulk", [
    ("-0", True),
    ("-0.0", True),
    ("-1e-400", True),                   # underflows to -0.0
    ("+5", False),                       # the bulk reader refuses a '+'
    ("+.5e-3", False),
    ("5e-324", True),
    ("2.4703282292062328e-324", True),   # just above half the least
    ("2.4703282292062327e-324", True),   # subnormal, and just below
    (FORTY_FOUR_DIGITS, True),
])
@pytest.mark.parametrize("end", ["\n", ""])
def test_edge_tokens_parse_as_float(tmp_path, token, bulk, end):
    text = f"1\n{token}{end}"
    expected = np.array([1.0, float(token)]).view(np.int64).tolist()
    assert (_bulk_parse(io.BytesIO(text.encode())) is not None) == bulk
    file = tmp_path / "path.txt"
    file.write_bytes(text.encode())
    for values in (read_path_text(text).values, _parse_lines(text),
                   read_path_file(str(file)).values):
        assert values.view(np.int64).tolist() == expected


def test_a_value_the_reader_refuses_takes_the_per_line_parse(monkeypatch):
    def refuse(source):
        raise ValueError("Line 3: Invalid floating-point value.")

    monkeypatch.setattr("scipy.io.mmread", refuse)
    assert _bulk_parse(io.BytesIO(b"1\n-0\n")) is None
    assert read_path_text("1\n-0\n").values.tolist() == [1.0, -0.0]


# the bytes of the bulk grammar and the two that always take the per-line
# parse; a text is any string over them, or lines of mostly number-like
# tokens (long mantissas, exponents past float64's range)
PARSE_ALPHABET = "0123456789.eE+-\n\r "
_DIGITS = st.text("0123456789", max_size=45)
_SIGNS = st.sampled_from(["", "-", "+"])
_MANTISSAS = st.one_of(
    st.builds("{}{}{}".format, st.text("0123456789", min_size=1, max_size=45),
              st.sampled_from(["", "."]), _DIGITS),
    st.builds(".{}".format, st.text("0123456789", min_size=1, max_size=45)))
_EXPONENTS = st.one_of(st.just(""), st.builds(
    "{}{}{}".format, st.sampled_from("eE"), _SIGNS, st.integers(0, 400)))
# a leading '+' (which the bulk reader refuses) on about one token in five
_TOKENS = st.builds("{}{}{}".format, st.sampled_from(["", "-", "", "-", "+"]),
                    _MANTISSAS, _EXPONENTS)
_LINES = st.one_of(st.lists(_TOKENS, min_size=1, max_size=12), st.lists(
    st.one_of(_TOKENS, st.text(PARSE_ALPHABET, max_size=8)),
    min_size=1, max_size=12))
_TEXTS = st.one_of(
    st.text(PARSE_ALPHABET, max_size=40),
    st.builds(lambda lines, end: "\n".join(lines) + end, _LINES,
              st.sampled_from(["", "\n"])),
)


def _parse_outcome(parse, text):
    try:
        return np.asarray(parse(text)).view(np.int64).tolist()
    except PathParseError as err:
        return str(err)


@given(_TEXTS, st.integers(1, 64))
@settings(max_examples=200)
def test_bulk_and_per_line_parse_agree(text, chunk_bytes):
    """Same float64 bits or the same error, over chunks small enough that
    lines straddle them."""
    expected = _parse_outcome(_parse_lines, text)
    with mock.patch.object(pathcore, "_CHUNK_BYTES", chunk_bytes):
        bulk = _bulk_parse(io.BytesIO(text.encode()))
        assert _parse_outcome(lambda t: read_path_text(t).values,
                              text) == expected
    if bulk is not None:
        assert bulk.view(np.int64).tolist() == expected


# ---------------------------------------------------------------------------
# batched moving-window statistics at a mean offset

@pytest.mark.parametrize("offset", [0.0, 1e2, 1e4])
@pytest.mark.parametrize("kind, n", [
    ("threshold_exceedance", 50), ("mean_split", 100),
    ("variance_split", 200), ("kpss_like", 400)])
def test_batch_decide_matches_scalar_at_offset(kind, n, offset):
    rng = np.random.default_rng(7)
    x = rng.normal(size=200_000) + offset
    stat = builtin_statistic(kind)
    starts = rng.integers(0, x.size - n + 1, 400)
    scalar = np.array([stat(x[i:i + n]) for i in starts])
    tau = float(np.quantile(scalar, 0.95))
    test = make_builtin_test(kind, n, tau, 0.05)
    batch = test.batch_decide(x, slice(0, x.size - n + 1))
    assert batch.size == x.size - n + 1
    assert batch[starts].tolist() == [int(s > tau) for s in scalar]


@pytest.mark.parametrize("start, stride", [
    (lambda c: 7, lambda c: 3), (lambda c: 123, lambda c: 997),
    (lambda c: -1, lambda c: 5),
    # the first start ends a chunk, and each next one is one chunk later
    (lambda c: c - 1, lambda c: c + 1),
    # a stride longer than a chunk, so most chunks hold no selected start
    (lambda c: 5, lambda c: 2 * c + 7),
], ids=["7-3", "123-997", "last-5", "C-1_C+1", "5_2C+7"])
@pytest.mark.parametrize("walk", [False, True], ids=["iid+1e4", "walk"])
@pytest.mark.parametrize("kind, n", [
    ("threshold_exceedance", 50), ("mean_split", 100),
    ("variance_split", 200), ("kpss_like", 400)])
def test_strided_run_equals_the_sliced_stride_one_run(kind, n, walk, start,
                                                      stride):
    """start and stride are functions of the run's chunk size C; a start
    of -1 stands for the last window."""
    rng = np.random.default_rng(11)
    noise = rng.normal(size=200_000)
    path = Path(np.cumsum(noise) if walk else noise + 1e4)
    chunk = _batch_chunk(n)
    start, stride = start(chunk), stride(chunk)
    start = path.length - n if start < 0 else start
    stat = builtin_statistic(kind)
    sampled = rng.integers(0, path.length - n + 1, 400)
    tau = float(np.quantile([stat(path.values[i:i + n]) for i in sampled],
                            0.95))
    test = make_builtin_test(kind, n, tau, 0.05)
    expected = apply_moving_window(path, test).indicators[start::stride]
    assert expected.size == len(range(start, path.length - n + 1, stride))
    batch = apply_moving_window(path, test, start, stride).indicators
    assert np.array_equal(batch, expected)
    scalar = apply_moving_window(
        path, dataclasses.replace(test, batch_decide=None), start,
        stride).indicators
    assert np.array_equal(scalar, expected)


@functools.lru_cache(maxsize=None)
def _long_path(name: str) -> np.ndarray:
    """A 1e6-value unit-root or near-unit-root path."""
    if name == "walk":
        return np.cumsum(np.random.default_rng(1).standard_normal(1_000_000))
    return _path("ar1(0.99),L=1000000,seed=1").values


@pytest.mark.parametrize("n", [16, 100, 400])
@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
@pytest.mark.parametrize("name", ["walk", "ar1(0.99)"])
def test_batch_decide_matches_scalar_at_1e6(name, kind, n):
    """On 1e6-value paths whose values wander far from their overall mean,
    with tau at the median statistic, so about half the windows reject."""
    x = _long_path(name)
    stat = builtin_statistic(kind)
    starts = np.random.default_rng(3).integers(0, x.size - n + 1, 3000)
    scalar = stat(x[starts[:, None] + np.arange(n)])
    tau = float(np.median(scalar))
    test = make_builtin_test(kind, n, tau, 0.05)
    batch = test.batch_decide(x, slice(0, x.size - n + 1))
    assert np.array_equal(batch[starts], scalar > tau)


@functools.lru_cache(maxsize=None)
def _flat_run_path(name: str) -> np.ndarray:
    """A 2e5-value path made of runs of equal values."""
    if name == "mixture":
        return _path("block_mixture(0,5,0),L=200000,seed=1").values
    if name == "poisson":
        return np.random.default_rng(3).poisson(0.05, 200_000).astype(float)
    # values whose mean over a window rounds off the value itself
    return np.repeat([0.1, 0.3, 2.7, 123.456], 50_000)


@pytest.mark.parametrize("name, n", [
    ("mixture", 16), ("mixture", 100), ("mixture", 400),
    ("poisson", 16), ("poisson", 100), ("tenths", 16), ("tenths", 100)])
def test_kpss_like_decides_flat_windows_like_the_scalar(name, n):
    """A window of equal values reads 0; on paths of such runs every
    batched decision at tau = 0.5 equals the scalar statistic's."""
    x = _flat_run_path(name)
    stat = builtin_statistic("kpss_like")
    batch = make_builtin_test("kpss_like", n, 0.5, 0.05).batch_decide(
        x, slice(0, x.size - n + 1))
    rows = 4096
    for lo in range(0, batch.size, rows):
        starts = np.arange(lo, min(lo + rows, batch.size))
        windows = x[starts[:, None] + np.arange(n)]
        scalar = stat(windows)
        flat = np.ptp(windows, axis=1) == 0.0
        assert not scalar[flat].any()
        assert np.array_equal(batch[starts], scalar > 0.5)


def _scalar_indicators(x: np.ndarray, n: int, kind: str,
                       tau: float) -> np.ndarray:
    """The scalar statistic of every size-n window, in stacks of rows (each
    row bit for bit its own value), against tau."""
    stat = builtin_statistic(kind)
    starts = np.arange(x.size - n + 1)
    rows = max(1, 2 ** 20 // n)
    return np.concatenate([
        stat(x[block[:, None] + np.arange(n)]) > tau
        for block in np.split(starts, range(rows, starts.size, rows))])


@functools.lru_cache(maxsize=None)
def _level_shift_path(delta: float, m: int) -> np.ndarray:
    """m N(0, 1) values, then m values of delta + N(0, 1)."""
    rng = np.random.default_rng(1)
    return np.concatenate([rng.normal(size=m), delta + rng.normal(size=m)])


@pytest.mark.parametrize("n, m", [(20, 3000), (400, 30_000)])
@pytest.mark.parametrize("delta", [1e2, 1e3, 1e4, 1e5, 1e6, 1e8])
@pytest.mark.parametrize("kind, tau", [
    ("kpss_like", 0.4), ("variance_split", 0.5), ("mean_split", 0.5),
    # added to delta: the windows past the shift straddle tau
    ("threshold_exceedance", 0.0)])
def test_batch_decide_equals_the_scalar_across_a_level_shift(kind, tau,
                                                             delta, n, m):
    """A chunk holding the shift centres on a mean far from both levels,
    so its prefix sums cancel badly; the windows whose decision that
    rounding could flip are decided by the scalar statistic, so every
    batched indicator equals the scalar one (before the deferral,
    kpss_like at n = 20 disagreed on 423 of 5,981 windows at delta = 1e4)."""
    x = _level_shift_path(delta, m)
    tau = tau + delta if kind == "threshold_exceedance" else tau
    test = make_builtin_test(kind, n, tau, 0.05)
    batch = test.batch_decide(x, slice(0, x.size - n + 1))
    assert np.array_equal(batch, _scalar_indicators(x, n, kind, tau))


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160])
@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
def test_batch_decide_equals_the_scalar_at_tiny_scales(kind, scale):
    """Poisson counts times scale, with tau the statistic of one window, so
    tied windows sit on it: where the squares of the values underflow, or
    a margin falls below the normal range, the rounding bound still defers
    every window it cannot vouch for."""
    x = scale * np.random.default_rng(2).poisson(0.5, 5000)
    n = 20
    tau = float(builtin_statistic(kind)(x[7:7 + n]))
    test = make_builtin_test(kind, n, tau, 0.05)
    batch = test.batch_decide(x, slice(0, x.size - n + 1))
    assert np.array_equal(batch, _scalar_indicators(x, n, kind, tau))


def _deferred_windows(monkeypatch, test, x: np.ndarray) -> list[int]:
    """The offsets a batched run over all of x leaves to the scalar
    statistic."""
    deferred: list[int] = []
    real = stattests.decide_stacked

    def counting(kind, stat, tau, values, n, offsets):
        deferred.extend(offsets.tolist())
        return real(kind, stat, tau, values, n, offsets)

    monkeypatch.setattr(stattests, "decide_stacked", counting)
    test.batch_decide(x, slice(0, x.size - test.window + 1))
    return deferred


@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
def test_no_window_of_the_benchmark_path_is_deferred(monkeypatch, kind):
    """On iid N(100, 1) values at L = 1e6 and n = 400, with tau at the 0.95
    quantile, every batched statistic vouches for its window."""
    x = np.random.default_rng(5).normal(100.0, 1.0, 1_000_000)
    n = 400
    sampled = np.random.default_rng(3).integers(0, x.size - n + 1, 2000)
    tau = float(np.quantile(
        builtin_statistic(kind)(x[sampled[:, None] + np.arange(n)]), 0.95))
    test = make_builtin_test(kind, n, tau, 0.05)
    assert _deferred_windows(monkeypatch, test, x) == []


def test_deferred_windows_are_decided_like_decide(monkeypatch):
    """Across a level shift of 1e4, kpss_like at n = 400 defers most of its
    windows; decided in stacks, each of every tenth reads what ``decide``
    reads on it alone."""
    x = _level_shift_path(1e4, 30_000)
    test = make_builtin_test("kpss_like", 400, 0.4, 0.05)
    deferred = _deferred_windows(monkeypatch, test, x)
    assert len(deferred) > 20_000
    batch = test.batch_decide(x, slice(0, x.size - test.window + 1))
    sampled = deferred[::10]
    assert np.array_equal(
        batch[sampled],
        stattests.decide_windows(test.decide, x, test.window, sampled))


@pytest.mark.parametrize("value", [2.5, 0.1, -1e6])
def test_kpss_like_defers_no_window_of_a_constant_path(monkeypatch, value):
    """Equal values read 0 whatever their prefix sums round to."""
    test = make_builtin_test("kpss_like", 16, 0.4, 0.05)
    assert _deferred_windows(monkeypatch, test,
                             np.full(50_000, value)) == []


@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
def test_moving_window_memory_is_bounded_by_its_chunks(kind):
    path = Path(_long_path("walk"))
    test = make_builtin_test(kind, 400, 1.0, 0.05)
    tracemalloc.start()
    try:
        apply_moving_window(path, test)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # less than one float64 array over the path
    assert peak < 8 * path.length


# ---------------------------------------------------------------------------
# the bulk indicator CSV writer against csv.writer

def _indicators_by_csv_writer(start, stride, indicators):
    """The indicator CSV written row by row with csv.writer."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["offset", "indicator"])
    for i, ind in enumerate(indicators):
        writer.writerow([start + stride * i, int(ind)])
    return out.getvalue().encode()


@pytest.mark.parametrize("start, stride, rows", [
    (0, 1, 1),                          # a single row
    (0, 1, 25),                         # 9 -> 10
    (7, 3, 500),
    (0, 1000, 1_200),                   # 999 000 -> 1 000 000
    (99_990, 1, 30),                    # 99 999 -> 100 000
    (999_990, 1, 30),                   # 999 999 -> 1 000 000
    (99_999_990, 1, 30),                # 8 -> 9 digits, two table pieces
    (2**32 - 5, 1, 10),                 # offsets past uint32
    (0, 104_729, 1_000),                # every width from 1 to 9 digits
    (0, 1, INDICATOR_CHUNK_ROWS + 1),   # one row past the first chunk
    (9_990, 7, 2 * INDICATOR_CHUNK_ROWS + 3),  # two seams, 4 to 6 digits
    (9_995, 1, INDICATOR_CHUNK_ROWS + 10),     # 4 -> 5 digits, a chunk seam
])
def test_indicator_csv_equals_csv_writer(tmp_path, start, stride, rows):
    rng = np.random.default_rng(rows)
    indicators = (rng.random(rows) < 0.3).astype(np.uint8)
    record = RejectionRecord("t", 10, 0.05, start, stride, indicators, 0.0, ())
    _write_indicators(tmp_path / "bulk.csv", record)
    expected = _indicators_by_csv_writer(start, stride, indicators)
    assert expected.startswith(b"offset,indicator\r\n")
    assert (tmp_path / "bulk.csv").read_bytes() == expected


@given(st.integers(0, 10**12), st.integers(1, 10**6),
       st.lists(st.integers(0, 1), min_size=1, max_size=200))
@settings(max_examples=200)
def test_indicator_csv_equals_csv_writer_anywhere(tmp_path_factory, start,
                                                  stride, flags):
    indicators = np.array(flags, dtype=np.uint8)
    record = RejectionRecord("t", 10, 0.05, start, stride, indicators, 0.0, ())
    target = tmp_path_factory.getbasetemp() / "indicators.csv"
    _write_indicators(target, record)
    assert target.read_bytes() == _indicators_by_csv_writer(start, stride,
                                                            indicators)


# ---------------------------------------------------------------------------
# size calibration in blocks of replicate rows against the per-replicate loop

ROW_PARAMS = {
    "constant": {"c": 2.0},
    "monotone": {"slope": 0.5},
    "unique_peak": {"peak_height": 10.0},
    "sine": {"theta": 1.4142135623730951, "phi0": 0.5},
    "random_phase_sine": {"theta": 1.4142135623730951},
    "iid_normal": {"mu": 100.0, "sigma": 1.0},
    "ar1": {"rho": 0.5, "sigma": 1.0},
    "block_mixture": {"level_a": 0.0, "level_b": 5.0},
}


# calibration's child seeds, and the ends and middle of the uint32 range
ROW_SEEDS = np.concatenate([
    np.random.SeedSequence(2014).generate_state(64),
    np.array([0, 1, 2 ** 31, 2 ** 32 - 1], dtype=np.uint32)])


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_generated_rows_equal_generate(kind):
    assert set(ROW_PARAMS) == set(KINDS)
    spec = GeneratorSpec(kind=kind, length=37, params=ROW_PARAMS[kind])
    rows = generate_rows(spec, ROW_SEEDS)
    assert rows.shape == (ROW_SEEDS.size, 37)
    for row, seed in zip(rows, ROW_SEEDS):
        assert _bits(row) == _bits(generate(spec.with_seed(int(seed))).values)


def test_generated_rows_build_no_generator_per_seed(monkeypatch):
    spec = GeneratorSpec(kind="ar1", length=37, params=ROW_PARAMS["ar1"])
    expected = [generate(spec.with_seed(int(seed))).values
                for seed in ROW_SEEDS]

    def refuse(*args, **kwargs):
        raise AssertionError("generate_rows built a generator per seed")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert _bits(generate_rows(spec, ROW_SEEDS)) == _bits(expected)


def test_generated_rows_must_be_finite():
    # one error naming the spec, and no RuntimeWarning from the overflow
    spec = GeneratorSpec(kind="monotone", length=3, params={"slope": 1e308})
    for draw in (lambda: generate(spec), lambda: generate_rows(spec, [1, 2])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                draw()
        assert str(info.value) == (
            "generator spec 'monotone(slope=1e+308),L=3' draws values that "
            "overflow; path values must all be finite")


def _stacks():
    rng = np.random.default_rng(5)
    walk = np.cumsum(rng.normal(size=(6, 33)), axis=1)
    mixed = rng.normal(size=(5, 8)) + 1e4
    mixed[[1, 3]] = 7.0                      # constant rows among varying ones
    return {"odd n": walk, "n = 2": rng.normal(size=(4, 2)),
            "constant rows": mixed, "all constant": np.full((3, 9), -2.5),
            "single row": rng.normal(size=(1, 101))}


@pytest.mark.parametrize("stack", sorted(_stacks()))
@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
def test_statistic_of_a_stack_equals_each_row(kind, stack):
    stat = builtin_statistic(kind)
    windows = _stacks()[stack]
    with warnings.catch_warnings():
        warnings.simplefilter("error")       # kpss_like's flat rows included
        batched = stat(windows)
        singles = [stat(row) for row in windows]
    assert all(isinstance(value, float) for value in singles)
    assert batched.shape == (windows.shape[0],)
    assert _bits(batched) == _bits(singles)
    if kind == "kpss_like":
        flat = np.ptp(windows, axis=1) == 0.0
        assert np.all(batched[flat] == 0.0)


def _per_replicate_calibration(kind, window, alpha, generator, replicates,
                               seed):
    """The statistics in replicate order, tau and stderr, one replicate at
    a time."""
    stat = builtin_statistic(kind)
    base = GeneratorSpec(kind=generator.kind, length=window,
                         params=generator.params)
    children = np.random.SeedSequence(seed).generate_state(replicates)
    drawn = np.array([stat(generate(base.with_seed(int(child))).values)
                      for child in children])
    stats = np.sort(drawn)
    rank = (1.0 - alpha) * (replicates - 1)
    spread = math.sqrt(replicates * alpha * (1.0 - alpha))
    lo = int(max(0, math.floor(rank - spread)))
    hi = int(min(replicates - 1, math.ceil(rank + spread)))
    return (drawn, float(np.quantile(stats, 1.0 - alpha)),
            float((stats[hi] - stats[lo]) / 2.0))


@pytest.mark.parametrize("generator", [
    "iid_normal(0,1)", "ar1(0.5)", "block_mixture(0,5)", "unique_peak(10)"])
@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
def test_calibration_equals_the_per_replicate_loop(monkeypatch, kind,
                                                   generator):
    window, replicates = 1000, 1000
    rows = CALIBRATION_BLOCK_VALUES // window
    assert 1 < rows < replicates and replicates % rows != 0  # uneven blocks
    blocks = []

    def recorded(name):
        stat = BUILTIN_KINDS[name][0]

        def record(windows):
            blocks.append(stat(windows))
            return blocks[-1]
        return record

    monkeypatch.setattr(stattests, "builtin_statistic", recorded)
    gen = parse_spec(f"{generator},L={window}")
    result = calibrate_test_size(kind, window, 0.05, gen, replicates, seed=3)
    assert [b.size for b in blocks] == [rows] * (replicates // rows) + [
        replicates % rows]
    drawn, tau, stderr = _per_replicate_calibration(kind, window, 0.05, gen,
                                                    replicates, 3)
    assert _bits(np.concatenate(blocks)) == _bits(drawn)
    assert _bits([result.tau, result.stderr]) == _bits([tau, stderr])


def test_calibration_memory_is_bounded_by_its_blocks():
    gen = parse_spec("iid_normal(0,1),L=5000")
    tracemalloc.start()
    try:
        calibrate_test_size("kpss_like", 5000, 0.05, gen, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
