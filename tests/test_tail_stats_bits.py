"""``cell_tail_stats`` bit for bit against the sort-everything implementation.

``cell_tail_stats`` groups only the tail window by cell: the head is counted
with one ``bincount`` and only the tail's ids are sorted, and the runs of
every cell are laid out in one array.  The oracle below is the earlier
implementation, which sorted every id and built each cell's runs on their
own.  Both sum each cell's terms with one ``np.sum`` over the same array, so
every field must agree exactly, not to a tolerance.  Contracted copies take
only the tail means, which must be the ``value`` of the full statistics.
"""

import dataclasses
import math

import numpy as np
import pytest

from pathstat.config import AnalysisConfig
from pathstat.contraction import (
    adversarial_contraction,
    contracted_codes,
    default_contraction_family,
    table_ergodicity,
)
from pathstat.generators import KINDS, GeneratorSpec, generate
from pathstat.pathcore import occurrence_set, tail_window_size
from pathstat.properties import (
    _CellStats,
    _small_int_dtype,
    cell_table,
    cell_tail_means,
    cell_tail_stats,
    grid_family,
    harmonic_prefix,
    quantile_edges,
    window_codes,
)

CONFIG = AnalysisConfig()
LEVEL_EDGES = (-math.inf, -1.0, 1.0, 4.0, 6.0, math.inf)
ZOO_PARAMS = {
    "constant": {"c": 2.0},
    "monotone": {"slope": 1.0},
    "unique_peak": {"peak_height": 10.0},
    "sine": {"theta": 1.4142135623730951, "phi0": 0.5},
    "random_phase_sine": {"theta": 1.4142135623730951},
    "iid_normal": {"mu": 0.0, "sigma": 1.0},
    "ar1": {"rho": 0.5, "sigma": 1.0},
    "block_mixture": {"level_a": 0.0, "level_b": 5.0},
}


def _sort_everything(cell_ids, n_cells, tail_fraction, harm=None):
    """The oracle: a stable sort of every id, then each cell on its own."""
    horizon = int(cell_ids.size)
    w = tail_window_size(horizon, tail_fraction)
    n0 = horizon - w + 1
    ids = np.asarray(cell_ids).astype(_small_int_dtype(n_cells), copy=False)
    order = np.argsort(ids, kind="stable")
    bounds = np.searchsorted(ids[order], np.arange(n_cells + 1))
    if harm is None:
        harm = harmonic_prefix(horizon)
    out = []
    for c in range(n_cells):
        occ = order[bounds[c]:bounds[c + 1]]
        n_occ = occ.size
        if n_occ == 0 or n_occ == horizon:
            level = float(n_occ == horizon)
            out.append(_CellStats(
                value=level, oscillation=0.0, final_count=int(n_occ),
                tail_nonincreasing=True))
            continue
        before = int(np.searchsorted(occ, n0))
        jumps = occ[before:] + 1
        r = jumps.size
        starts = np.concatenate(([n0], jumps))
        counts_at_start = before + np.arange(r + 1)
        ends = np.concatenate((jumps - 1, [horizon]))
        counts_at_end = np.concatenate((before + np.arange(r), [before + r]))
        osc = float((counts_at_start / starts).max()
                    - (counts_at_end / ends).min())
        total = float(np.sum(counts_at_start * (harm[ends] - harm[starts - 1])))
        final_count = before + r
        saturated = bool(np.all(before + np.arange(r) == jumps - 1))
        out.append(_CellStats(
            value=total / w, oscillation=osc, final_count=int(final_count),
            tail_nonincreasing=(r == 0) or saturated))
    return out


FIELDS = [f.name for f in dataclasses.fields(_CellStats)]


def _bits(stats):
    """Every field with its type, floats by their exact hex form."""
    return [tuple((type(v).__name__, v.hex() if isinstance(v, float) else v)
                  for v in map(s.__getattribute__, FIELDS)) for s in stats]


def _assert_bitwise(ids, n_cells, tail_fraction, harm=None):
    got = cell_tail_stats(ids, n_cells, tail_fraction, harm)
    want = _sort_everything(ids, n_cells, tail_fraction, harm)
    assert _bits(got) == _bits(want)
    means = cell_tail_means(ids, n_cells, tail_fraction, harm)
    assert [v.hex() for v in means] == [s.value.hex() for s in want]
    return got


# ---------------------------------------------------------------------------
# the generator zoo, its contracted copies and the diagnostic

# every kind at L = 1e5, and three at L = 1e6, where a cell's runs between
# jumps and its stretches without a jump are long
@pytest.mark.parametrize("kind, length", [
    *(pytest.param(kind, 100_000, id=kind) for kind in sorted(KINDS)),
    *(pytest.param(kind, 1_000_000, id=f"{kind}-1e6")
      for kind in ("ar1", "block_mixture", "monotone"))])
def test_zoo_tables_and_copies_equal_the_oracle(kind, length):
    assert set(ZOO_PARAMS) == set(KINDS)
    path = generate(GeneratorSpec(kind, length=length, seed=1,
                                  params=ZOO_PARAMS[kind]))
    edges = LEVEL_EDGES if kind == "block_mixture" else \
        quantile_edges(path.values, CONFIG.grid_cells)
    grids = grid_family(edges, 2)
    table = cell_table(path, grids, CONFIG)
    harm = harmonic_prefix(path.length)
    for k, grid in grids.items():
        _assert_bitwise(table.ids[k], grid.n_cells, CONFIG.tail_fraction,
                        harm)
        assert _bits(table.stats[k]) == _bits(_sort_everything(
            table.ids[k], grid.n_cells, CONFIG.tail_fraction))
    family = default_contraction_family(path, grids[1], CONFIG)
    copy_values = []
    for contraction in family:
        marg = contracted_codes(table, contraction)
        for k, grid in grids.items():
            stats = _assert_bitwise(window_codes(marg, grid), grid.n_cells,
                                    CONFIG.tail_fraction, harm)
            copy_values += [s.value.hex() for s in stats]
    verdict = table_ergodicity(table, family)
    assert [r.contracted_value.hex() for r in verdict.records] == copy_values


@pytest.mark.parametrize("kind, edges", [("block_mixture", LEVEL_EDGES),
                                         ("monotone", None)])
def test_the_zoo_has_adversarial_copies(kind, edges):
    path = generate(GeneratorSpec(kind, length=100_000, seed=1,
                                  params=ZOO_PARAMS[kind]))
    if edges is None:
        edges = quantile_edges(path.values, CONFIG.grid_cells)
    grids = grid_family(edges, 2)
    table = cell_table(path, grids, CONFIG)
    traces = [adversarial_contraction(path, cell, config=CONFIG)
              for cell in grids[1].cells]
    copies = [t.result for t in traces if not t.failed]
    assert copies
    for contraction in copies:
        marg = contracted_codes(table, contraction)
        for grid in grids.values():
            _assert_bitwise(window_codes(marg, grid), grid.n_cells,
                            CONFIG.tail_fraction, table.harm)


# ---------------------------------------------------------------------------
# tail windows, uncovered ids, empty, full and saturated cells

# tail_fraction 1e-9 leaves a tail window of one point (w = 1)
TAIL_FRACTIONS = (1.0, 0.5, 0.1, 1e-9)


@pytest.mark.parametrize("tail_fraction", TAIL_FRACTIONS)
@pytest.mark.parametrize("n_cells, horizon, seed", [
    (8, 100_000, 1), (64, 50_000, 2), (5, 37, 3), (2, 2, 4), (3, 1, 5)])
def test_random_ids_equal_the_oracle(tail_fraction, n_cells, horizon, seed):
    rng = np.random.default_rng(seed)
    ids = rng.integers(-1, n_cells, horizon)
    ids[: horizon // 3] = rng.integers(-1, 2, horizon // 3)  # early-only cells
    ids[horizon // 2: horizon // 2 + 5] = n_cells - 1        # late burst
    _assert_bitwise(ids, n_cells, tail_fraction)
    if tail_fraction == 1e-9:
        assert tail_window_size(horizon, tail_fraction) == 1


@pytest.mark.parametrize("tail_fraction", TAIL_FRACTIONS)
def test_edge_cells_equal_the_oracle(tail_fraction):
    horizon = 1_000
    saturated = np.full(horizon, 1)
    saturated[:700] = 0      # d = 1 through the tail's start, then decays
    late = np.full(horizon, -1)
    late[990:] = 2           # occurs only in the tail
    uncovered = np.full(horizon, -1)
    uncovered[::3] = 0
    for ids, n_cells in ((saturated, 2), (saturated, 4), (late, 3),
                         (uncovered, 1), (np.zeros(horizon, np.int64), 1),
                         (np.zeros(horizon, np.int64), 3),
                         (np.full(horizon, -1), 2)):
        stats = _assert_bitwise(ids, n_cells, tail_fraction)
        if ids is saturated and tail_fraction == 0.5:
            # the saturated cell jumps inside the tail and still counts as
            # non-increasing
            assert stats[0].tail_nonincreasing and stats[0].final_count == 700


def test_one_cell_tables_of_check_property_e_equal_the_oracle():
    path = generate(GeneratorSpec("ar1", length=100_000, seed=3,
                                  params=ZOO_PARAMS["ar1"]))
    grids = grid_family(quantile_edges(path.values, 8), 2)
    for grid in grids.values():
        for cell in grid.cells[::5]:
            occ = occurrence_set(path, cell)
            ids = np.full(occ.source_horizon, -1, dtype=np.int8)
            ids[occ.indices] = 0
            for tail_fraction in TAIL_FRACTIONS:
                _assert_bitwise(ids, 1, tail_fraction)


@pytest.mark.parametrize("n_cells", [127, 128, 129, 32_768, 32_769])
def test_small_int_boundaries_equal_the_oracle(n_cells):
    rng = np.random.default_rng(n_cells)
    horizon = 200_000
    ids = rng.integers(-1, 100, horizon)
    ids[-50:] = n_cells - 1  # the largest id, in the tail
    ids[:20] = n_cells - 2   # and the next, in the head
    _assert_bitwise(ids.astype(_small_int_dtype(n_cells)), n_cells, 0.5)
    if n_cells < 1000:  # wide ids, where a second pass stays cheap
        _assert_bitwise(ids, n_cells, 0.5)
