"""Proportional contractions of the index set and the ergodicity diagnostic.

A contraction keeps an ordered family of integer blocks whose lengths grow
and whose running coverage settles at a positive level c.  A path behaves
ergodically exactly when every such contraction leaves all of its pattern
densities unchanged, so the diagnostic compares per-cell density estimates
between the original path and a family of contracted copies.

The adversarial search inverts that argument: it hunts for window starts
where one pattern's local occurrence rate sits well above its global level,
keeps every m-th such start so the windows are disjoint, thins them to a
common coverage target, and joins the stages into a single contraction whose
block lengths step up through the m schedule.  On a path that really mixes,
high-local-density windows die out as m grows (local averages over growing
windows concentrate at the global density), so the construction is
rejected unless those windows persist across the whole schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, AnalysisConfig
from .pathcore import (
    DensityEstimate,
    IntervalPattern,
    Path,
    occurrence_mask,
    tail_estimate,
    tail_mean_density,
    tail_window_size,
)
from .properties import (
    CellTable,
    PatternGrid,
    cell_table,
    cell_tail_means,
    cell_tail_stats,  # noqa: F401  (re-exported; perfbench traces it here too)
    grid_orders,
    window_codes,
)

__all__ = [
    "Contraction",
    "ContractionValidation",
    "ErgodicityVerdict",
    "DiagnosticRecord",
    "AdversarialTrace",
    "build_alternating_contraction",
    "validate_contraction",
    "contract_path",
    "contracted_codes",
    "coverage_ratios",
    "ergodicity_diagnostic",
    "table_ergodicity",
    "adversarial_contraction",
    "alternating_family",
    "default_contraction_family",
]

# the alternating family's densities, each taken in both phases
CONTRACTION_DENSITIES = (0.2, 0.5, 0.8)

# validate_contraction's surrogate for unbounded block growth
GROWTH_FACTOR = 4.0
BURN_IN_FRACTION = 0.1

# adversarial search: the default m schedule, the default threshold's cap
# above the global density, the share of qualifying windows that must
# persist across the schedule, and eps1: a join after stage m needs
# coverage within eps1 / m / 3 of target
M_SCHEDULE = (4, 8, 16, 32)
ADVERSARIAL_THRESHOLD_CAP = 0.25
ADVERSARIAL_PERSISTENCE = 0.5
ADVERSARIAL_EPS1 = 0.1
# the common coverage target sits below the thinnest stage's tail-window
# candidate supply, so stages recover from early candidate droughts
ADVERSARIAL_HEADROOM = 0.85


@dataclass(frozen=True, eq=False)
class Contraction:
    """Ordered disjoint integer blocks [starts[i], ends[i]] with a declared
    coverage c.

    The two arrays are the contraction: read-only int64 copies of the
    caller's, refused unless the blocks ascend from 0 and are disjoint (they
    may abut).  The lengths, the blocks and the JSON form are read off them.
    """

    starts: np.ndarray
    ends: np.ndarray
    target_density: float
    label: str = ""

    def __post_init__(self) -> None:
        starts = np.array(self.starts, dtype=np.int64)
        ends = np.array(self.ends, dtype=np.int64)
        if starts.ndim != 1 or starts.shape != ends.shape:
            raise ValueError(
                "starts and ends must be one-dimensional and of one length")
        if not starts.size:
            raise ValueError("contraction needs at least one block")
        if not 0.0 < self.target_density <= 1.0:
            raise ValueError("target density must be in (0, 1]")
        before = np.append(-1, ends[:-1])  # so the first block starts at 0+
        bad = np.flatnonzero((starts <= before) | (ends < starts))
        if bad.size:
            raise ValueError(f"bad block [{starts[bad[0]]}, {ends[bad[0]]}]: "
                             "blocks are non-empty, disjoint and ascend from 0")
        starts.flags.writeable = ends.flags.writeable = False
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", ends)

    @property
    def lengths(self) -> np.ndarray:
        return self.ends - self.starts + 1

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.starts.tolist(), self.ends.tolist()))

    def to_json_dict(self) -> dict:
        return {
            "blocks": [list(b) for b in self.blocks],
            "target_density": self.target_density,
            "label": self.label,
        }


def build_alternating_contraction(target_c: float, horizon: int,
                                  phase: int = 0) -> Contraction:
    """Blocks of length max(1, round(m*c/(1-c))) against gaps of length m,
    m = 1,2,...

    Coverage telescopes to target_c.  phase=1 starts with a gap instead of a
    block.  target_c=1 is pure inclusion: a single block over the horizon.
    Block m starts after the blocks and gaps before it; blocks that start at
    or past the horizon are cut, the last one is clipped to it, and a
    clipped last block shorter than the block before it is dropped, so the
    length profile stays non-decreasing.  The blocks are computed in numpy
    on each call.
    """
    if not 0.0 < target_c <= 1.0:
        raise ValueError("target_c must be in (0, 1]")
    if horizon < 10:
        raise ValueError("horizon must be at least 10")
    if phase not in (0, 1):
        raise ValueError("phase must be 0 or 1")
    label = f"alternating(c={target_c:g},phase={phase})"
    if target_c == 1.0:
        return Contraction([0], [horizon - 1], 1.0, label=label)
    # block m starts at or past m(m-1)/2, past the horizon by the last m
    m = np.arange(1, math.isqrt(2 * horizon) + 3)
    lengths = np.maximum(1, np.rint(m * target_c / (1.0 - target_c))
                         ).astype(np.int64)
    starts = np.cumsum(lengths + m) - lengths - (1 - phase) * m
    keep = starts < horizon
    starts, lengths = starts[keep], lengths[keep]
    ends = np.minimum(starts + lengths, horizon) - 1
    last = ends[-1] - starts[-1] + 1
    if starts.size > 1 and last < lengths[-1] and last < lengths[-2]:
        starts, ends = starts[:-1], ends[:-1]
    if starts.size < 2:
        raise ValueError(
            f"horizon {horizon} too small for target density {target_c}")
    return Contraction(starts, ends, target_c, label=label)


def coverage_ratios(contraction: Contraction, horizon: int) -> np.ndarray:
    """Running coverage |[0, n-1] ∩ G| / n for n = 1..horizon.

    Steps of +1 at each start and -1 at each stop, plain index updates for
    disjoint blocks, mark the covered indices; a running sum counts them.
    The work happens in place, in one horizon-sized array besides the divisor.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    starts = contraction.starts
    stops = contraction.ends + 1
    cover = np.zeros(horizon)
    cover[starts[starts < horizon]] = 1.0
    cover[stops[stops < horizon]] -= 1.0
    np.cumsum(cover, out=cover)
    np.cumsum(cover, out=cover)
    cover /= np.arange(1.0, horizon + 1)
    return cover


@dataclass(frozen=True)
class ContractionValidation:
    ordering_ok: bool  # true by construction of a Contraction
    growth_ok: bool
    coverage_ok: bool
    coverage: DensityEstimate

    @property
    def passed(self) -> bool:
        return self.ordering_ok and self.growth_ok and self.coverage_ok


def validate_contraction(contraction: Contraction, horizon: int,
                         config: AnalysisConfig = DEFAULT_CONFIG) -> ContractionValidation:
    """Finite-horizon surrogates for the three defining conditions.

    Ordering holds by construction.  Unbounded block growth becomes: lengths
    non-decreasing after the first BURN_IN_FRACTION of blocks and the final
    block at least GROWTH_FACTOR times the first (a single full block passes
    trivially).  Coverage must tail-converge to the declared density.
    """
    lengths = contraction.lengths
    if len(lengths) == 1:
        growth_ok = True
    else:
        burn = int(math.floor(BURN_IN_FRACTION * len(lengths)))
        nondecreasing = bool(np.all(np.diff(lengths[burn:]) >= 0))
        growth_ok = nondecreasing and \
            bool(lengths[-1] >= GROWTH_FACTOR * lengths[0])
    est = tail_estimate(coverage_ratios(contraction, horizon),
                        config.tail_fraction, config.tolerance)
    coverage_ok = est.converged and \
        bool(abs(est.value - contraction.target_density) <= config.tolerance)
    return ContractionValidation(ordering_ok=True, growth_ok=growth_ok,
                                 coverage_ok=coverage_ok, coverage=est)


def _positions(contraction: Contraction, length: int) -> np.ndarray:
    """The indices the contraction keeps from a path of this length, in order."""
    end = int(contraction.ends[-1])
    if end >= length:
        raise ValueError(f"block end {end} outside path of length {length}")
    lengths = contraction.lengths
    shift = contraction.starts - (np.cumsum(lengths) - lengths)
    return np.arange(lengths.sum()) + np.repeat(shift, lengths)


def contract_path(path: Path, contraction: Contraction) -> Path:
    """The subsequence of path values over the contraction's blocks, in order."""
    return Path(path.values[_positions(contraction, path.length)])


def contracted_codes(table: CellTable, contraction: Contraction) -> np.ndarray:
    """Marginal codes of the contracted copy: a gather of the path's codes,
    equal to digitizing ``contract_path`` afresh."""
    return table.marg[_positions(contraction, table.marg.size)]


# ---------------------------------------------------------------------------
# ergodicity diagnostic

@dataclass(frozen=True)
class DiagnosticRecord:
    contraction_label: str
    k: int
    pattern: IntervalPattern
    base_value: float
    contracted_value: float

    @property
    def discrepancy(self) -> float:
        return abs(self.base_value - self.contracted_value)


@dataclass(frozen=True, eq=False)
class ErgodicityVerdict:
    worst_discrepancy: float
    offending: tuple[str, IntervalPattern] | None
    verdict: str  # "ConsistentWithErgodic" | "NonErgodicEvidence"
    records: tuple[DiagnosticRecord, ...]

    def max_discrepancy_for(self, pattern: IntervalPattern) -> float:
        matches = [r.discrepancy for r in self.records if r.pattern == pattern]
        return max(matches) if matches else 0.0


def ergodicity_diagnostic(path: Path, family: Sequence[Contraction],
                          grids: Mapping[int, PatternGrid], k_max: int,
                          tolerance: float | None = None,
                          config: AnalysisConfig = DEFAULT_CONFIG
                          ) -> ErgodicityVerdict:
    """``table_ergodicity`` on the path's cell table over the grids of
    orders 1..k_max.  An explicit ``tolerance`` replaces the configuration's
    ``ergodicity_tolerance`` and is checked by the same rule."""
    if tolerance is not None:
        config = replace(config, ergodicity_tolerance=tolerance)
    return table_ergodicity(
        cell_table(path, grid_orders(grids, k_max), config), family)


def table_ergodicity(table: CellTable,
                     family: Sequence[Contraction]) -> ErgodicityVerdict:
    """Compare per-cell density estimates on contracted copies of the path.

    The worst absolute difference across (contraction, order, cell) decides
    the verdict; anything above the table's ``ergodicity_tolerance`` counts
    as evidence that the path does not induce a single ergodic law.
    """
    tolerance = table.config.ergodicity_tolerance
    records: list[DiagnosticRecord] = []
    for idx, contraction in enumerate(family):
        label = contraction.label or f"contraction[{idx}]"
        marg = contracted_codes(table, contraction)
        for k, base in table.stats.items():
            if marg.size < k:
                continue
            grid = table.grids[k]
            # every contracted copy is at most the path's length
            values = cell_tail_means(window_codes(marg, grid), grid.n_cells,
                                     table.config.tail_fraction, table.harm)
            for cell, b, v in zip(grid.cells, base, values):
                records.append(DiagnosticRecord(
                    contraction_label=label, k=k, pattern=cell,
                    base_value=b.value, contracted_value=v))
    worst = max(records, key=lambda r: r.discrepancy, default=None)
    worst_disc = 0.0 if worst is None else worst.discrepancy
    offending = (worst.contraction_label, worst.pattern) \
        if worst_disc > tolerance else None
    return ErgodicityVerdict(
        worst_discrepancy=worst_disc,
        offending=offending,
        verdict="ConsistentWithErgodic" if offending is None
                else "NonErgodicEvidence",
        records=tuple(records),
    )


# ---------------------------------------------------------------------------
# adversarial construction

@dataclass(frozen=True, eq=False)
class AdversarialTrace:
    """Full record of the staged construction.

    Per stage m: v0 are starts of length-m windows whose local occurrence
    rate meets the threshold, v1 keeps every m-th element of v0 (disjoint
    windows), v2 thins v1 to the common coverage target; the windows
    [j, j + m - 1] for j in v2 are the stage's blocks.  n_markers are the
    joint points between stages.
    """

    pattern: IntervalPattern
    m_schedule: tuple[int, ...]
    threshold: float
    target_density: float
    v0: dict[int, np.ndarray] = field(default_factory=dict)
    v1: dict[int, np.ndarray] = field(default_factory=dict)
    v2: dict[int, np.ndarray] = field(default_factory=dict)
    n_markers: tuple[int, ...] = ()
    result: Contraction | None = None
    failed: bool = False
    failure_reason: str = ""
    last_feasible_m: int | None = None


def _thin_to_density(indices: np.ndarray, target: float) -> np.ndarray:
    """Greedy earliest-first subset whose running density never exceeds target.

    The greedy pass over ascending indices v_i keeps v_i when c_i + 1 <=
    target * (v_i + 1) for the count c_i kept before it.  With the
    non-decreasing f_i = floor(target * (v_i + 1)) that is c_{i+1} =
    min(c_i + 1, f_i), and since c_i <= f_i, c_{i+1} = min(i + 1, i +
    min_{j <= i} (f_j - j)): a running minimum.
    """
    v = np.asarray(indices, dtype=np.int64)
    i = np.arange(v.size)
    f = np.floor(target * (v + 1.0))
    count = np.minimum(i + 1, i + np.minimum.accumulate(f - i))
    return v[np.diff(count, prepend=0.0) > 0]


def check_m_schedule(m_schedule: Sequence[int]) -> None:
    """The rule for an m schedule of the adversarial contraction search."""
    if (not m_schedule or list(m_schedule) != sorted(set(m_schedule))
            or m_schedule[0] < 1):
        raise ValueError(
            "m_schedule must be strictly increasing positive integers")


def _min_count(threshold: float, m: int) -> int:
    """The least integer j with j / m >= threshold in float64, for a
    threshold of at most 1.  A window of m starts reaches the threshold
    exactly when it holds at least j occurrences, since j / m is monotone
    in j."""
    j = math.ceil(threshold * m)
    while j > 0 and (j - 1) / m >= threshold:
        j -= 1
    while j / m < threshold:
        j += 1
    return j


def _staged_join(v2: Mapping[int, np.ndarray], m_schedule: Sequence[int],
                 target: float, horizon: int
                 ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Join the stages into one family G of blocks [starts, stops).

    G starts as the first stage's windows [j, j + m).  At each next stage G
    keeps its blocks up to a joint point and takes that stage's windows
    past it.  The joint point ends the first block of G at which G's
    running coverage, and the next stage's at every later index, lie within
    eps1 / m / 3 of the target for the stage m before; failing that, the
    block where the larger of the two deviations is least.  n_markers are
    the joint points.  Each stage's starts ascend and its windows are
    disjoint, and so are G's, as a Contraction's must be.

    The next stage's running coverage C(i) / (i + 1) rises from the index
    before a window to its last index and falls from there to the index
    before the next window, and so do its correctly rounded float64 values.
    So the largest deviation from the target at or after an index is the
    deviation at that index or at a later end of such a run, and the join
    evaluates the coverage only at those ends and at G's stops, never over
    the horizon.
    """
    first = m_schedule[0]
    starts = v2[first]
    stops = starts + first
    n_markers: list[int] = []
    for prev_m, next_m in zip(m_schedule, m_schedule[1:]):
        covered = stops - starts
        np.cumsum(covered, out=covered)
        cov_g = covered / stops
        # the next stage's coverage at each end of a monotone run (the index
        # before a window and its last index), at the last index, and at G's
        # stops inside the horizon; C(i) counts the windows starting at or
        # before i, less the part of the last one that lies beyond i (none
        # start before the first window, where nxt[k - 1] wraps)
        nxt = v2[next_m]
        at = np.concatenate((nxt - 1, nxt + (next_m - 1), (horizon - 1,),
                             stops))
        at = at[(at >= 0) & (at < horizon)]
        at.sort()
        k = np.searchsorted(nxt, at, side="right")
        beyond = np.maximum(nxt[k - 1] + (next_m - 1) - at, 0)
        count = np.where(k > 0, k * next_m - beyond, 0)
        dev_next = np.abs(count / (at + 1) - target)
        # suffix deviation of the next stage's coverage beyond each position
        suffix = np.maximum.accumulate(dev_next[::-1])[::-1]
        after = suffix[np.searchsorted(at, np.minimum(stops, horizon - 1))]
        quality = np.maximum(np.abs(cov_g - target),
                             np.where(stops < horizon, after, 0.0))
        close = np.flatnonzero(quality <= ADVERSARIAL_EPS1 / prev_m / 3.0)
        join_at = int(close[0]) if close.size else int(np.argmin(quality))
        marker = int(stops[join_at]) - 1
        n_markers.append(marker)
        tail = nxt[np.searchsorted(nxt, marker, side="right"):]
        starts = np.concatenate((starts[:join_at + 1], tail))
        stops = np.concatenate((stops[:join_at + 1], tail + next_m))
    return starts, stops, tuple(n_markers)


def adversarial_contraction(path: Path, pattern: IntervalPattern,
                            m_schedule: Sequence[int] = M_SCHEDULE,
                            threshold: float | None = None,
                            config: AnalysisConfig = DEFAULT_CONFIG) -> AdversarialTrace:
    """Search for a contraction that concentrates one pattern's occurrences.

    threshold defaults to min((p+1)/2, p + ADVERSARIAL_THRESHOLD_CAP) for the
    pattern's estimated global density p.  The construction fails when no
    window reaches the threshold at some stage, when the threshold does not
    exceed p (so windows that reach it concentrate nothing; with the default
    threshold, exactly when the pattern holds at every start), or when the
    density of qualifying windows collapses across the schedule (the
    signature of a mixing path, for which local averages concentrate as
    windows grow).
    The pattern may be any interval pattern, a grid cell or not.
    """
    m_schedule = tuple(int(m) for m in m_schedule)
    check_m_schedule(m_schedule)
    hits = occurrence_mask(path, pattern)
    horizon = hits.size
    if m_schedule[-1] > horizon:
        raise ValueError("largest m exceeds the admissible window range")
    # csum[n] = N(n), the occurrences among the first n starts, in 32 bits
    # where they fit
    csum = np.zeros(horizon + 1, dtype=np.int32
                    if horizon < np.iinfo(np.int32).max else np.int64)
    np.cumsum(hits, out=csum[1:])
    p = tail_mean_density(csum, config.tail_fraction)
    if threshold is None:
        threshold = min((p + 1.0) / 2.0, p + ADVERSARIAL_THRESHOLD_CAP)
    if not p <= threshold <= 1.0:
        raise ValueError(
            f"threshold {threshold} must be between the global density "
            f"{p:.4f} and 1")

    trace_v0: dict[int, np.ndarray] = {}
    trace_v1: dict[int, np.ndarray] = {}

    def failure(reason: str) -> AdversarialTrace:
        return AdversarialTrace(
            pattern=pattern, m_schedule=m_schedule, threshold=threshold,
            target_density=math.nan, v0=trace_v0, v1=trace_v1, failed=True,
            failure_reason=reason, last_feasible_m=max(trace_v0, default=None))

    for m in m_schedule:
        v0 = np.flatnonzero(csum[m:] - csum[:-m] >= _min_count(threshold, m))
        if v0.size == 0:
            return failure(f"no window of length {m} reaches the threshold")
        trace_v0[m] = v0
        trace_v1[m] = v0[::m]
    if threshold <= p:
        return failure(f"the threshold does not exceed the global density "
                       f"{p:.4f}; qualifying windows concentrate nothing")

    # the share of the horizon - m + 1 window starts that qualify
    first, last = m_schedule[0], m_schedule[-1]
    persistence = (trace_v0[last].size / (horizon - last + 1)) / \
        (trace_v0[first].size / (horizon - first + 1))
    if persistence < ADVERSARIAL_PERSISTENCE:
        return failure(
            "qualifying windows vanish as m grows "
            f"(persistence {persistence:.4f}); local averages concentrate, "
            "consistent with an ergodic path")

    # one coverage level shared by every stage; the tail-window supply with
    # headroom, so late stages can absorb their early candidate drought and
    # still track the target
    tail_start = horizon - tail_window_size(horizon, config.tail_fraction)
    supply = []
    for m in m_schedule:
        n_win = horizon - m + 1
        in_tail = int(np.searchsorted(trace_v1[m], tail_start))
        supply.append(m * (trace_v1[m].size - in_tail) / max(n_win - tail_start, 1))
    target_d = min(1.0, ADVERSARIAL_HEADROOM * min(supply))
    if target_d <= 0.0:
        return failure("qualifying windows do not recur in the tail; "
                       "the concentration is transient, not a "
                       "proportional-contraction witness")
    trace_v2: dict[int, np.ndarray] = {}
    for m in m_schedule:
        v2 = _thin_to_density(trace_v1[m], target_d / m)
        trace_v2[m] = v2 if v2.size else trace_v1[m][:1]  # never drop a stage

    starts, stops, n_markers = _staged_join(trace_v2, m_schedule, target_d,
                                            horizon)
    result = Contraction(starts, stops - 1, target_d,
                         label=f"adversarial[{pattern.label()}]")
    return AdversarialTrace(
        pattern=pattern, m_schedule=m_schedule, threshold=threshold,
        target_density=target_d, v0=trace_v0, v1=trace_v1, v2=trace_v2,
        n_markers=n_markers, result=result)


def alternating_family(horizon: int) -> list[Contraction]:
    """The alternating contractions over CONTRACTION_DENSITIES in both
    phases; ValueError naming the length when ``horizon`` is too short for
    one of them."""
    family = []
    for c in CONTRACTION_DENSITIES:
        for phase in (0, 1):
            try:
                family.append(build_alternating_contraction(c, horizon, phase))
            except ValueError as exc:
                raise ValueError(
                    f"path of length {horizon} is too short for the "
                    f"contraction family: {exc}") from None
    return family


def default_contraction_family(path: Path, level1_grid: PatternGrid,
                               config: AnalysisConfig = DEFAULT_CONFIG
                               ) -> list[Contraction]:
    """``alternating_family(path.length)``, the family ``run_suite`` checks
    by default.  The grid and the configuration take no part; the
    three-argument form is kept for the call of acceptance gate 05.  A path
    too short for some alternating contraction raises ValueError."""
    return alternating_family(path.length)
