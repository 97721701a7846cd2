"""Finite-sample verdicts on recurrence, tightness, and induced distributions.

The recurrence check (Property E) classifies each interval pattern as Empty,
PositiveDensity, Violation, or Inconclusive from the tail of its density
trajectory.  The tightness check (Property T) watches the fraction of values
inside (-K, K) as K grows.  Grid scans tabulate the empirical window
distributions whose limits define the process a path induces, along with the
marginalization consistency between successive window lengths.

Verdict semantics at a finite horizon:

* Violation fires only when the pattern occurred, its running density has
  fallen below ``violation_floor_count / horizon``, and the density is
  non-increasing across the whole tail window.  Occurred-but-rare patterns
  that do not exhibit decay stay Inconclusive; rarity alone is not evidence
  against recurrence.
* PositiveDensity requires the tail window to have stabilised (oscillation
  within tolerance) at a level of at least ``positive_floor_count / horizon``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, AnalysisConfig
from .pathcore import (
    DensityEstimate,
    IntervalPattern,
    Path,
    check_pattern_order,
    occurrence_mask,
    tail_mean_density,
    tail_window_size,
)

__all__ = [
    "PatternGrid",
    "PropertyEVerdict",
    "TightnessProfile",
    "EmpiricalMeasure",
    "InducedFDD",
    "DeviationReport",
    "PathDiagnostics",
    "CellTable",
    "cell_table",
    "quantile_edges",
    "grid_family",
    "check_property_e",
    "scan_property_e",
    "table_property_e",
    "check_property_t",
    "empirical_measure",
    "induced_fdd",
    "table_fdd",
    "consistency_check",
    "local_density_deviation",
    "analyze_path",
    "has_violation",
]

Status = Literal["Empty", "PositiveDensity", "Violation", "Inconclusive"]


# ---------------------------------------------------------------------------
# pattern grids

# the most cells a grid may have: each is a pattern object, a verdict and a
# report row; 8 cells per axis at order 6 (262,144 cells) take about 2 s and
# 146 MiB to build before the first verdict
MAX_GRID_CELLS = 2 ** 16


@dataclass(frozen=True)
class PatternGrid:
    """Product cells built from one marginal partition used on every axis.

    ``edges`` are the marginal interval boundaries (g + 1 values, usually
    -inf and +inf at the ends).  Cells are ordered with the first coordinate
    slowest, so cell index = sum_j digit_j * g^(k-1-j).
    """

    k: int
    edges: tuple[float, ...]
    cells: tuple[IntervalPattern, ...]

    @classmethod
    def from_edges(cls, edges: Sequence[float], k: int) -> "PatternGrid":
        e = tuple(float(x) for x in edges)
        if len(e) < 2:
            raise ValueError("need at least two edges")
        if any(not a < b for a, b in zip(e, e[1:])):
            raise ValueError("edges must be strictly increasing")
        if k < 1:
            raise ValueError("k must be at least 1")
        g = len(e) - 1
        if g ** k > MAX_GRID_CELLS:
            raise ValueError(
                f"a grid of {g} cells per axis at order {k} has {g ** k} "
                f"cells, more than the limit of {MAX_GRID_CELLS}")
        marginal = tuple(zip(e, e[1:]))
        cells = tuple(
            IntervalPattern(combo)
            for combo in itertools.product(marginal, repeat=k)
        )
        return cls(k=k, edges=e, cells=cells)

    @property
    def marginal_cells(self) -> int:
        return len(self.edges) - 1

    @property
    def n_cells(self) -> int:
        return len(self.cells)


def quantile_edges(values: np.ndarray,
                   cells: int = DEFAULT_CONFIG.grid_cells) -> tuple[float, ...]:
    """Path-adaptive marginal edges: empirical quantile cuts plus +-inf.

    Duplicate cuts (heavy atoms) are collapsed; a path with fewer than two
    distinct cut points takes ``_fallback_cuts`` instead, so the grid is
    never degenerate.
    """
    v = np.asarray(values, dtype=np.float64)
    if cells < 2:
        raise ValueError("cells must be at least 2")
    # numpy selects its order statistics by partition, which a sorted copy
    # already is: the cuts are the same, and numpy's vectorised sort is
    # cheaper than its multi-kth selection.  Interpolating between values
    # near the ends of the float range can overflow to an infinite or NaN
    # cut; such cuts are dropped
    with np.errstate(over="ignore", invalid="ignore"):
        qs = np.quantile(np.sort(v), np.linspace(0.0, 1.0, cells + 1)[1:-1],
                         overwrite_input=True)
    # equal values share their bits except zeros, whose sign follows the
    # order the selection meets them in; adding +0.0 makes every zero +0.0
    cuts = np.unique(qs[np.isfinite(qs)]) + 0.0
    if cuts.size < 2:
        cuts = _fallback_cuts(v, cuts)
    return (-math.inf, *(float(c) for c in cuts), math.inf)


def _fallback_cuts(values: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The cuts of a path whose finite quantile cuts hold fewer than two
    values: a symmetric window around its centre (the one cut, else the
    median), half its standard deviation either side, or 0.5 when that is
    zero or not finite.

    Each cut lies at least one float step from the centre, which a
    half-width of 0.5 does not reach at magnitudes of about 1e16 and
    beyond.  A cut past the largest float is dropped, so a centre at
    +-1.7976931348623157e308 keeps its one finite neighbour and the grid
    has two cells.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        center = float(cuts[0]) if cuts.size else float(np.median(values))
        spread = float(np.std(values))
        half = 0.5 * spread if 0 < spread < math.inf else 0.5
        window = np.array([
            min(center - half, np.nextafter(center, -math.inf)),
            max(center + half, np.nextafter(center, math.inf))])
    return window[np.isfinite(window)]


def grid_family(edges: Sequence[float], k_max: int) -> dict[int, PatternGrid]:
    """The grids of orders 1..k_max on one partition.  The largest is built
    first, so an order over MAX_GRID_CELLS fails before any grid is built."""
    grids = [PatternGrid.from_edges(edges, k) for k in range(k_max, 0, -1)]
    return {grid.k: grid for grid in reversed(grids)}


def grid_orders(grids: Mapping[int, PatternGrid],
                k_max: int) -> dict[int, PatternGrid]:
    """The grids of orders 1..k_max; ValueError when k_max is below 1 or
    ``grids`` has no grid of one of those orders."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    missing = [k for k in range(1, k_max + 1) if k not in grids]
    if missing:
        raise ValueError(f"no grid of order {missing[0]}")
    return {k: grids[k] for k in range(1, k_max + 1)}


def _small_int_dtype(n: int) -> np.dtype:
    """Smallest signed integer type holding -1 and every id below n."""
    for dtype in (np.int8, np.int16, np.int32):
        if n - 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


# values digitized at a time: a chunk's int64 and float64 temporaries take
# 512 KiB each, whatever the length of the path
DIGITIZE_CHUNK = 2 ** 16

# the most edges digitized by comparing each value with every edge; a finer
# grid takes a binary search.  The comparisons cost a pass per edge, the
# search a branch per halving, mispredicted unless the values are sorted.
# On a 2-core AVX-512 VM (numpy 2.4.6), per 1e6 values: on sorted N(0,1)
# values, the search's best case, 3.9 against 7.3 ms at 9 edges, 7.0
# against 8.7 at 17 and 9.3 against 8.7 at 25; on unsorted ones 3.8
# against 24.0 ms at 9 edges and 12.7 against 41.2 at 33
DIGITIZE_COMPARE_EDGES = 17


def _digitize_open(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Marginal cell index per value, -1 for endpoint contact or out of range.

    A value exactly equal to any edge matches no open cell.  Codes come in
    the smallest signed integer type that holds them, written chunk by
    chunk, so that only the output grows with the path.  Up to
    ``DIGITIZE_COMPARE_EDGES`` edges a value's cell counts the edges at or
    below it (``cell += x >= e``) and its edge contact ORs the ``x == e``
    tests, which is ``searchsorted(side="right")`` and its edge test: NaN
    is at or above no edge and reads -1, +-inf reach the end cells.  A
    finer grid takes ``searchsorted``.
    """
    g = edges.size - 1
    out = np.empty(values.size, dtype=_small_int_dtype(g))
    compare = edges.tolist() if edges.size <= DIGITIZE_COMPARE_EDGES else None
    for lo in range(0, values.size, DIGITIZE_CHUNK):
        x = values[lo:lo + DIGITIZE_CHUNK]
        cell = out[lo:lo + x.size]
        if compare is None:
            found = np.searchsorted(edges, x, side="right")
            found -= 1
            # below the first edge (cell -1) or at or past the last (cell
            # g): both are g or more as unsigned numbers.  A value on its
            # cell's left edge is on an edge; cell -1 reads the last edge,
            # harmlessly
            off = found.view(np.uintp) >= g
            off |= x == edges.take(found)
            np.putmask(found, off, -1)
            cell[...] = found
        else:
            # counted in place: the codes are int8 here and hold -1..g
            cell.fill(-1)
            off = np.zeros(x.size, dtype=bool)
            for e in compare:
                cell += x >= e
                off |= x == e
            # at or past the last edge; below the first edge is already -1
            off |= cell == g
            np.putmask(cell, off, -1)
    return out


def window_codes(marg: np.ndarray, grid: PatternGrid) -> np.ndarray:
    """Cell id per window start from marginal codes; -1 where any coordinate
    matched no cell.  Ids take the smallest type holding the grid's cells."""
    k, g = grid.k, grid.marginal_cells
    check_pattern_order(k, marg.size)
    n = marg.size - k + 1
    if k == 1:
        return marg
    # |code| < g**(j+1) after coordinate j, so the small type never wraps
    code = marg[:n].astype(_small_int_dtype(grid.n_cells))
    ok = code >= 0
    for j in range(1, k):
        nxt = marg[j:j + n]
        ok &= nxt >= 0
        code = code * g + nxt
    code[~ok] = -1
    return code


def window_cell_ids(values: np.ndarray, grid: PatternGrid) -> np.ndarray:
    """Cell id per window start for the grid's order k; -1 where no cell matches."""
    marg = _digitize_open(np.asarray(values, dtype=np.float64),
                          np.asarray(grid.edges))
    return window_codes(marg, grid)


# ---------------------------------------------------------------------------
# batched tail statistics

@dataclass(frozen=True)
class _CellStats:
    value: float
    oscillation: float
    final_count: int
    tail_nonincreasing: bool


@functools.lru_cache(maxsize=1)
def harmonic_prefix(horizon: int) -> np.ndarray:
    """harm[m] = sum_{n=1}^{m} 1/n for m = 0..horizon.  The sum runs in
    order, so a longer prefix equals a shorter one bit for bit on its range.

    Read-only, and kept until a call of another horizon replaces it, so the
    runs on paths of one length share one array (8 bytes a value, which
    each run held anyway, and the only array its in-place build holds)."""
    harm = np.ones(horizon + 1)
    harm[0] = 0.0
    tail = harm[1:]
    np.cumsum(tail, out=tail)
    np.reciprocal(tail, out=tail)
    np.cumsum(tail, out=tail)
    harm.flags.writeable = False
    return harm


@dataclass(frozen=True, eq=False)
class _TailSegments:
    """Every cell's tail d(n) = N(n)/n, n0 <= n <= horizon, as runs of
    constant count N, concatenated cell after cell.

    Cell c's runs are [bounds[c], bounds[c + 1]) and its jumps of N are
    ``jumps[jump_bounds[c]:jump_bounds[c + 1]]``: tail indices t, ascending,
    each a jump at n = n0 + 1 + t.  The first run starts at n0 and each
    later one at a jump, so each run but the last ends at n0 + t, the last
    at the horizon.  Run i has N(n) = counts[i], and ``occurrences[c]`` is
    the cell's count over the whole horizon.
    """

    horizon: int
    w: int
    occurrences: np.ndarray
    bounds: np.ndarray
    jump_bounds: np.ndarray
    jumps: np.ndarray
    counts: np.ndarray

    @property
    def n0(self) -> int:
        return self.horizon - self.w + 1


def _tail_segments(cell_ids: np.ndarray, n_cells: int,
                   tail_fraction: float) -> _TailSegments:
    """Group the tail window by cell: the head (indices below n0) is only
    counted, and only the tail's ids are sorted."""
    horizon = int(cell_ids.size)
    if horizon < 1:
        raise ValueError("no windows")
    w = tail_window_size(horizon, tail_fraction)
    n0 = horizon - w + 1
    ids = np.asarray(cell_ids).astype(_small_int_dtype(n_cells), copy=False)
    tail = ids[n0:]
    # per-cell counts before n0 (N(n0)) and from n0 on; slot 0 counts the -1s
    head = np.bincount(np.add(ids[:n0], 1, dtype=np.intp),
                       minlength=n_cells + 1)[1:]
    r = np.bincount(np.add(tail, 1, dtype=np.intp), minlength=n_cells + 1)
    # numpy radix-sorts 8- and 16-bit integers; the stable sort keeps each
    # cell's tail indices ascending
    jumps = np.argsort(tail, kind="stable")[r[0]:]
    r = r[1:]
    jump_bounds = np.concatenate(([0], np.cumsum(r)))
    bounds = jump_bounds + np.arange(n_cells + 1)
    # counts up to the horizon, in 32 bits where they fit
    pos = np.int32 if horizon < np.iinfo(np.int32).max else np.int64
    counts = np.repeat((head - bounds[:-1]).astype(pos), r + 1)
    counts += np.arange(bounds[-1], dtype=pos)
    return _TailSegments(horizon=horizon, w=w, occurrences=head + r,
                         bounds=bounds, jump_bounds=jump_bounds, jumps=jumps,
                         counts=counts)


def _at_run_ends(seg: _TailSegments, at_jumps: np.ndarray,
                 at_horizon: float) -> np.ndarray:
    """One value per run: ``at_jumps`` (one per jump, in order) at the runs
    that end before a jump, ``at_horizon`` at each cell's last run, which
    sits at ``bounds[c + 1] - 1``."""
    out = np.empty(seg.bounds[-1], dtype=at_jumps.dtype)
    last = seg.bounds[1:] - 1
    inner = np.ones(out.size, dtype=bool)
    inner[last] = False
    out[inner] = at_jumps
    out[last] = at_horizon
    return out


def _tail_means(seg: _TailSegments, harm: np.ndarray,
                at_end: np.ndarray) -> list[float]:
    """Each cell's tail mean of d(n): between jumps d(n) decays as N/n, so
    the sum over a run is its count times a harmonic increment.  ``at_end``
    is harm at every run's end.  Each cell sums its own runs, in order,
    with ``np.sum``'s pairwise summation."""
    # a cell's runs abut, so a run's harm[start - 1] is the end of the run
    # before it, and the cell's first run starts at n0
    terms = np.empty_like(at_end)
    np.subtract(at_end[1:], at_end[:-1], out=terms[1:])
    first = seg.bounds[:-1]
    terms[first] = at_end[first] - harm[seg.n0 - 1]
    terms *= seg.counts
    b = seg.bounds.tolist()
    means: list[float] = []
    for c, n_occ in enumerate(seg.occurrences.tolist()):
        if n_occ == 0 or n_occ == seg.horizon:
            # d(n) is identically 0 or identically 1
            means.append(float(n_occ == seg.horizon))
        else:
            # np.add.reduce is np.sum without its Python wrapper
            means.append(float(np.add.reduce(terms[b[c]:b[c + 1]])) / seg.w)
    return means


def cell_tail_means(cell_ids: np.ndarray, n_cells: int, tail_fraction: float,
                    harm: np.ndarray | None = None) -> list[float]:
    """The ``value`` of every cell's ``cell_tail_stats``, and nothing else:
    harm at the runs' ends is read straight from ``harm[n0:]`` at the
    jumps' tail indices, and no start or end is built."""
    seg = _tail_segments(cell_ids, n_cells, tail_fraction)
    if harm is None:
        harm = harmonic_prefix(seg.horizon)
    # n0 + t for each jump at tail index t, and the horizon after each
    # cell's jumps
    at_end = _at_run_ends(seg, np.take(harm[seg.n0:], seg.jumps),
                          harm[seg.horizon])
    return _tail_means(seg, harm, at_end)


def cell_tail_stats(cell_ids: np.ndarray, n_cells: int, tail_fraction: float,
                    harm: np.ndarray | None = None) -> list[_CellStats]:
    """Per-cell tail statistics of d(n) = N(n)/n in one pass.

    Exactly equivalent to building each cell's occurrence set and running
    ``density_trajectory`` + ``estimate_limit_density`` on it, but O(horizon
    + n_cells) instead of O(n_cells * horizon): between jumps d(n) decays as
    N/n, so the tail max sits at run starts, the min at run ends, and the
    mean is a sum of counts times harmonic increments.  Ids lie in [-1,
    n_cells); -1 belongs to no cell.  ``harm`` is a ``harmonic_prefix``
    reaching at least the horizon, shared by the calls on one path; built
    here when absent.
    """
    seg = _tail_segments(cell_ids, n_cells, tail_fraction)
    if harm is None:
        harm = harmonic_prefix(seg.horizon)
    n0 = seg.n0
    ends = _at_run_ends(seg, np.add(seg.jumps, n0, dtype=seg.counts.dtype),
                        seg.horizon)
    # a run after a jump starts one past the run before it, a cell's first
    # run at n0
    first = seg.bounds[:-1]
    starts = np.empty_like(ends)
    np.add(ends[:-1], 1, out=starts[1:])
    starts[first] = n0
    values = _tail_means(seg, harm, np.take(harm, ends))
    osc = np.maximum.reduceat(seg.counts / starts, first) - \
        np.minimum.reduceat(seg.counts / ends, first)
    # a jump at n leaves d flat only when the prefix was saturated
    # (N(n-1) = n-1, so N(n) = n and d stays at 1); any other jump raises d
    rises = seg.counts != starts
    rises[first] = False
    rising = np.logical_or.reduceat(rises, first)

    # an empty or full cell has d = 0 or 1 at every n: no oscillation, no rise
    return [_CellStats(value=values[c], oscillation=float(osc[c]),
                       final_count=n_occ, tail_nonincreasing=not rising[c])
            for c, n_occ in enumerate(seg.occurrences.tolist())]


# ---------------------------------------------------------------------------
# the per-path cell table

@dataclass(frozen=True, eq=False)
class CellTable:
    """The cell-occurrence structure of one path on one marginal partition.

    ``marg`` holds each value's marginal cell (-1 on an edge or outside a
    finite range), ``ids[k]`` the cell of every length-k window and
    ``stats[k]`` the tail statistics of every cell over the last
    ``config.tail_fraction`` of each horizon, for every order k of ``grids``
    (the three share their keys).  ``harm`` is the ``harmonic_prefix`` over
    the path's length, which also serves the tail means of every contracted
    copy: read-only, and the same array for consecutive tables of one
    length.  Built once per path under ``config``, the table is the one
    input of Property E, the induced distributions, the ergodicity
    diagnostic and the trajectory output, which read their thresholds from
    ``config``.
    """

    grids: dict[int, PatternGrid]
    marg: np.ndarray
    ids: dict[int, np.ndarray]
    stats: dict[int, list[_CellStats]]
    harm: np.ndarray
    config: AnalysisConfig


def cell_table(path: Path, grids: Mapping[int, PatternGrid],
               config: AnalysisConfig = DEFAULT_CONFIG) -> CellTable:
    """Digitize the path once and tabulate every order of ``grids``; an
    order longer than the path is refused by ``window_codes``, not skipped."""
    edges = {grid.edges for grid in grids.values()}
    if len(edges) != 1:
        raise ValueError("grids must share one marginal partition")
    marg = _digitize_open(path.values, np.asarray(edges.pop()))
    harm = harmonic_prefix(marg.size)
    ids: dict[int, np.ndarray] = {}
    stats: dict[int, list[_CellStats]] = {}
    for k in sorted(grids):
        grid = grids[k]
        ids[k] = window_codes(marg, grid)
        stats[k] = cell_tail_stats(ids[k], grid.n_cells, config.tail_fraction,
                                   harm)
    return CellTable(grids=dict(grids), marg=marg, ids=ids, stats=stats,
                     harm=harm, config=config)


# ---------------------------------------------------------------------------
# Property E

@dataclass(frozen=True)
class PropertyEVerdict:
    """Recurrence verdict for one pattern.

    Empty: the pattern never occurred.  PositiveDensity: the density
    trajectory stabilised at a clearly positive level.  Violation: the
    pattern occurred but its density decays toward zero.  Inconclusive:
    anything else (slow mixing, rare-but-recurrent, still drifting).
    """

    status: Status
    pattern: IntervalPattern
    estimate: DensityEstimate
    final_count: int
    final_ratio: float
    horizon: int


def _classify(stats: _CellStats, pattern: IntervalPattern, horizon: int,
              config: AnalysisConfig) -> PropertyEVerdict:
    """The verdict of one cell's tail measurements at ``horizon``: the one
    place where the tolerance and the floors meet them."""
    est = DensityEstimate(value=stats.value, oscillation=stats.oscillation,
                          converged=stats.oscillation <= config.tolerance,
                          tail_fraction=config.tail_fraction)
    final_ratio = stats.final_count / horizon
    violation_floor = config.violation_floor_count / horizon
    positive_floor = config.positive_floor_count / horizon
    if stats.final_count == 0:
        status: Status = "Empty"
    elif est.converged and est.value >= positive_floor:
        status = "PositiveDensity"
    elif (final_ratio < violation_floor and stats.tail_nonincreasing):
        status = "Violation"
    else:
        status = "Inconclusive"
    return PropertyEVerdict(status=status, pattern=pattern, estimate=est,
                            final_count=stats.final_count,
                            final_ratio=final_ratio, horizon=horizon)


def check_property_e(path: Path, pattern: IntervalPattern,
                     config: AnalysisConfig = DEFAULT_CONFIG) -> PropertyEVerdict:
    """Recurrence verdict for a single pattern: its occurrences are cell 0 of
    a one-cell table."""
    ids = occurrence_mask(path, pattern).astype(np.int8) - 1
    stats = cell_tail_stats(ids, 1, config.tail_fraction)
    return _classify(stats[0], pattern, ids.size, config)


def scan_property_e(path: Path, k_max: int,
                    grids: Mapping[int, PatternGrid],
                    config: AnalysisConfig = DEFAULT_CONFIG
                    ) -> list[PropertyEVerdict]:
    """One verdict per cell per order k <= k_max; pass means no Violation."""
    return table_property_e(cell_table(path, grid_orders(grids, k_max), config))


def table_property_e(table: CellTable) -> list[PropertyEVerdict]:
    """One verdict per cell per order the table tabulates, under the
    table's own configuration."""
    verdicts: list[PropertyEVerdict] = []
    for k, stats in table.stats.items():
        horizon = table.ids[k].size
        for cell, st in zip(table.grids[k].cells, stats):
            verdicts.append(_classify(st, cell, horizon, table.config))
    return verdicts


def has_violation(verdicts: Sequence[PropertyEVerdict]) -> bool:
    return any(v.status == "Violation" for v in verdicts)


# ---------------------------------------------------------------------------
# Property T

@dataclass(frozen=True)
class TightnessProfile:
    """Tail-window fractions of |x_i| < K across a ladder of levels K."""

    levels: tuple[float, ...]
    fractions: tuple[float, ...]
    verdict: bool


# the ladder of levels K at which tightness is read
K_LEVELS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def check_property_t(path: Path, k_levels: Sequence[float] = K_LEVELS,
                     config: AnalysisConfig = DEFAULT_CONFIG) -> TightnessProfile:
    """Tightness: the top-level fraction must reach 1 - t_slack.

    Fractions are computed over the tail window of the path itself, so a
    sequence drifting off to infinity scores near zero even if its early
    values were bounded.
    """
    levels = tuple(float(k) for k in k_levels)
    if not levels or not levels[0] > 0 or \
            any(not a < b for a, b in zip(levels, levels[1:])):
        raise ValueError("K levels must be strictly increasing and positive")
    w = tail_window_size(path.length, config.tail_fraction)
    tail = np.abs(path.values[path.length - w:])
    fractions = tuple(float(np.mean(tail < k)) for k in levels)
    return TightnessProfile(
        levels=levels,
        fractions=fractions,
        verdict=fractions[-1] >= 1.0 - config.t_slack,
    )


# ---------------------------------------------------------------------------
# empirical measures and induced distributions

@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Cell masses count/n over the first n windows of length k.

    ``uncovered`` counts windows matching no cell, either because a value sat
    exactly on a cell endpoint or fell outside a finite grid range; masses
    sum to 1 - uncovered/n exactly.
    """

    k: int
    grid: PatternGrid
    masses: np.ndarray
    counts: np.ndarray
    n: int
    uncovered: int


def empirical_measure(path: Path, grid: PatternGrid, n: int) -> EmpiricalMeasure:
    ids = window_cell_ids(path.values, grid)
    if not 1 <= n <= ids.size:
        raise ValueError(f"n must be in [1, {ids.size}]")
    return _measure(ids, grid, n)


def _measure(ids: np.ndarray, grid: PatternGrid, n: int) -> EmpiricalMeasure:
    """The empirical measure of the first n window ids."""
    ids = ids[:n]
    return _counted_measure(np.bincount(ids[ids >= 0], minlength=grid.n_cells),
                            grid, n)


def _counted_measure(counts: np.ndarray, grid: PatternGrid,
                     n: int) -> EmpiricalMeasure:
    """The empirical measure of n windows with these cell counts."""
    return EmpiricalMeasure(
        k=grid.k,
        grid=grid,
        masses=counts / n,
        counts=counts,
        n=n,
        uncovered=int(n - counts.sum()),
    )


@dataclass(frozen=True, eq=False)
class InducedFDD:
    """Integer-count empirical measures on a common grid family.

    ``measures`` are taken at one matched window count ``n_matched`` so that
    marginalization consistency can be asserted exactly on counts.  The tail
    density estimates of the same cells are the cell table's ``stats``.
    """

    grids: dict[int, PatternGrid]
    measures: dict[int, EmpiricalMeasure]
    n_matched: int


def induced_fdd(path: Path, k_max: int, edges: Sequence[float],
                config: AnalysisConfig = DEFAULT_CONFIG) -> InducedFDD:
    """The measures of orders 1..k_max on ``edges``."""
    return table_fdd(cell_table(
        path, grid_orders(grid_family(edges, k_max), k_max), config))


def table_fdd(table: CellTable) -> InducedFDD:
    """The measures of every order the table tabulates, on the table's
    grids."""
    # the largest window count admissible at every tabulated order
    n_matched = table.marg.size - max(table.grids) + 1
    measures: dict[int, EmpiricalMeasure] = {}
    for k, grid in table.grids.items():
        # each cell's count over all the order's windows, less the
        # k_max - k windows past n_matched
        counts = np.fromiter((st.final_count for st in table.stats[k]),
                             dtype=np.intp, count=grid.n_cells)
        late = table.ids[k][n_matched:]
        np.subtract.at(counts, late[late >= 0], 1)
        measures[k] = _counted_measure(counts, grid, n_matched)
    return InducedFDD(grids=table.grids, measures=measures, n_matched=n_matched)


def consistency_check(fdd: InducedFDD, k: int) -> float:
    """Max |level-k mass - marginalized level-(k+1) mass| at matched n.

    With both levels counted over the same window starts the discrepancy per
    cell equals (extensions whose added coordinate matched no marginal cell)
    divided by n, so it is at most uncovered_{k+1}/n, the order-(k+1)
    windows that match no cell.
    """
    if k not in fdd.measures or (k + 1) not in fdd.measures:
        raise ValueError(f"orders {k} and {k + 1} not both tabulated")
    lo, hi = fdd.measures[k], fdd.measures[k + 1]
    if lo.grid.edges != hi.grid.edges:
        raise ValueError("grids are not compatible")
    g = lo.grid.marginal_cells
    child = hi.counts.reshape(lo.grid.n_cells, g).sum(axis=1)
    return float(np.max(np.abs(lo.counts - child)) / lo.n)


def consistency_bound(fdd: InducedFDD, k: int) -> float:
    """k/n + (uncovered windows at order k+1)/n.  The k/n is slack no count
    can use, kept so report.json's ``bound`` bytes stay fixed until the
    consistency rows are replaced."""
    hi = fdd.measures[k + 1]
    return k / fdd.n_matched + hi.uncovered / fdd.n_matched


# ---------------------------------------------------------------------------
# local-average deviation: how often windowed occurrence rates stray

@dataclass(frozen=True)
class DeviationReport:
    """Tail density of window starts whose local occurrence average strays
    from the estimated limit density by more than epsilon."""

    N: int
    epsilon: float
    deviation_density: float
    p_hat: float


def local_density_deviation(path: Path, pattern: IntervalPattern, N: int,
                            epsilon: float,
                            config: AnalysisConfig = DEFAULT_CONFIG,
                            p_hat: float | None = None) -> DeviationReport:
    """Density of length-N windows whose occurrence rate deviates from p_hat.

    ``p_hat`` defaults to the tail estimate of the pattern's own limit
    density; passing a known exact density avoids lattice artifacts when
    N * epsilon is an integer.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    mask = occurrence_mask(path, pattern)
    horizon = mask.size
    if N > horizon:
        raise ValueError(f"window N={N} exceeds horizon {horizon}")
    # csum[n] = N(n), the occurrences among the first n starts
    csum = np.zeros(horizon + 1)
    csum[1:] = mask
    np.cumsum(csum, out=csum)
    if p_hat is None:
        p_hat = tail_mean_density(csum, config.tail_fraction)
    local = (csum[N:] - csum[:-N]) / N
    deviant = np.abs(local - p_hat) > epsilon
    w = tail_window_size(deviant.size, config.tail_fraction)
    return DeviationReport(
        N=N,
        epsilon=epsilon,
        deviation_density=float(np.mean(deviant[deviant.size - w:])),
        p_hat=float(p_hat),
    )


# ---------------------------------------------------------------------------
# combined per-path diagnostics

@dataclass(frozen=True, eq=False)
class PathDiagnostics:
    """One path's Property E verdicts and tightness, and the cell table
    they read, from which ``report_dict`` tabulates the consistency rows."""

    verdicts: tuple[PropertyEVerdict, ...]
    property_e_pass: bool
    tightness: TightnessProfile
    table: CellTable


def analyze_path(path: Path, config: AnalysisConfig = DEFAULT_CONFIG,
                 edges: Sequence[float] | None = None) -> PathDiagnostics:
    """Tabulate the cells of orders 1..k_max (k_max clamped below the
    length) and run the recurrence scan and the tightness check."""
    if edges is None:
        edges = quantile_edges(path.values, config.grid_cells)
    k_max = min(config.k_max, path.length - 1) or 1
    table = cell_table(path, grid_family(edges, k_max), config)
    verdicts = tuple(table_property_e(table))
    return PathDiagnostics(
        verdicts=verdicts,
        property_e_pass=not has_violation(verdicts),
        tightness=check_property_t(path, config=config),
        table=table,
    )
