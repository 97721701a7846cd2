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

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, AnalysisConfig
from .pathcore import (
    DensityEstimate,
    IntervalPattern,
    Path,
    occurrence_mask,
    tail_estimate,
    tail_window_size,
)
from .properties import (
    CellTable,
    PatternGrid,
    cell_table,
    cell_tail_means,
    cell_tail_stats,  # noqa: F401  (re-exported; perfbench traces it here too)
    harmonic_prefix,
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
# default_contraction_family searches the level-1 cells whose density lies
# strictly between these
ADVERSARIAL_P_LO = 0.05
ADVERSARIAL_P_HI = 0.95


@dataclass(frozen=True)
class Contraction:
    """Ordered disjoint integer blocks [s_i, e_i] with a declared coverage c.

    ``starts`` and ``lengths`` hold the blocks as read-only arrays; they are
    derived from ``blocks`` and take no part in equality or the JSON form.
    """

    blocks: tuple[tuple[int, int], ...]
    target_density: float
    label: str = ""
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("contraction needs at least one block")
        if not 0.0 < self.target_density <= 1.0:
            raise ValueError("target density must be in (0, 1]")
        b = np.array(self.blocks, dtype=np.int64).reshape(-1, 2)
        bad = np.flatnonzero((b[:, 0] < 0) | (b[:, 1] < b[:, 0]))
        if bad.size:
            s, e = b[bad[0]].tolist()
            raise ValueError(f"bad block [{s}, {e}]")
        starts, lengths = b[:, 0], b[:, 1] - b[:, 0] + 1
        starts.flags.writeable = lengths.flags.writeable = False
        object.__setattr__(self, "blocks", tuple(map(tuple, b.tolist())))
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "lengths", lengths)

    @property
    def span_end(self) -> int:
        return self.blocks[-1][1]

    def to_json_dict(self) -> dict:
        return {
            "blocks": [[s, e] for s, e in self.blocks],
            "target_density": self.target_density,
            "label": self.label,
        }


@functools.lru_cache(maxsize=64)
def build_alternating_contraction(target_c: float, horizon: int,
                                  phase: int = 0) -> Contraction:
    """Blocks of length ~round(m*c/(1-c)) against gaps of length m, m = 1,2,...

    Coverage telescopes to target_c.  phase=1 starts with a gap instead of a
    block.  target_c=1 is pure inclusion: a single block over the horizon.
    The result depends on the arguments alone and is frozen, so each
    (target_c, horizon, phase) is built once and then shared.
    """
    if not 0.0 < target_c <= 1.0:
        raise ValueError("target_c must be in (0, 1]")
    if horizon < 10:
        raise ValueError("horizon must be at least 10")
    if phase not in (0, 1):
        raise ValueError("phase must be 0 or 1")
    if target_c == 1.0:
        return Contraction(((0, horizon - 1),), 1.0,
                           label=f"alternating(c=1,phase={phase})")
    blocks: list[tuple[int, int]] = []
    pos = 0
    m = 1
    while pos < horizon:
        block_len = max(1, round(m * target_c / (1.0 - target_c)))
        if phase == 1:
            pos += m  # leading gap
        if pos < horizon:
            end = min(pos + block_len, horizon) - 1
            # a truncated final block shorter than its predecessor is dropped
            # so the length profile stays non-decreasing
            if end - pos + 1 == block_len or not blocks or \
                    end - pos + 1 >= blocks[-1][1] - blocks[-1][0] + 1:
                blocks.append((pos, end))
            pos = end + 1
        if phase == 0:
            pos += m  # trailing gap
        m += 1
    if len(blocks) < 2:
        raise ValueError(
            f"horizon {horizon} too small for target density {target_c}")
    return Contraction(tuple(blocks), target_c,
                       label=f"alternating(c={target_c:g},phase={phase})")


def coverage_ratios(contraction: Contraction, horizon: int) -> np.ndarray:
    """Running coverage |[0, n-1] ∩ G| / n for n = 1..horizon."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    return _coverage(contraction.starts,
                     contraction.starts + contraction.lengths, horizon)


def _coverage(starts: np.ndarray, stops: np.ndarray, horizon: int) -> np.ndarray:
    """Running coverage of the blocks [starts, stops) over n = 1..horizon.

    Steps of +1 at each start and -1 at each stop sum to the number of blocks
    over each index; a second running sum counts the covered indices.  The
    work happens in place, in one horizon-sized array besides the divisor.
    """
    cover = np.zeros(horizon)
    np.add.at(cover, starts[starts < horizon], 1.0)
    np.add.at(cover, stops[stops < horizon], -1.0)
    np.cumsum(cover, out=cover)
    np.minimum(cover, 1.0, out=cover)  # overlapping blocks cover an index once
    np.cumsum(cover, out=cover)
    cover /= np.arange(1.0, horizon + 1)
    return cover


@dataclass(frozen=True)
class ContractionValidation:
    ordering_ok: bool
    growth_ok: bool
    coverage_ok: bool
    coverage: DensityEstimate

    @property
    def passed(self) -> bool:
        return self.ordering_ok and self.growth_ok and self.coverage_ok


def validate_contraction(contraction: Contraction, horizon: int,
                         config: AnalysisConfig = DEFAULT_CONFIG) -> ContractionValidation:
    """Finite-horizon surrogates for the three defining conditions.

    Ordering is literal.  Unbounded block growth becomes: lengths
    non-decreasing after the first BURN_IN_FRACTION of blocks and the final
    block at least GROWTH_FACTOR times the first (a single full block passes
    trivially).  Coverage must tail-converge to the declared density.
    """
    starts, lengths = contraction.starts, contraction.lengths
    ordering_ok = bool(np.all(starts[1:] > (starts + lengths - 1)[:-1]))
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
    return ContractionValidation(ordering_ok=ordering_ok, growth_ok=growth_ok,
                                 coverage_ok=coverage_ok, coverage=est)


def _positions(contraction: Contraction, length: int) -> np.ndarray:
    """The indices the contraction keeps from a path of this length, in order."""
    if contraction.span_end >= length:
        raise ValueError(
            f"block end {contraction.span_end} outside path of length {length}")
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
                          config: AnalysisConfig = DEFAULT_CONFIG,
                          table: CellTable | None = None) -> ErgodicityVerdict:
    """Compare per-cell density estimates on contracted copies of the path.

    The worst absolute difference across (contraction, order, cell) decides
    the verdict; anything above the tolerance counts as evidence that the
    path does not induce a single ergodic law.  ``table`` is the path's cell
    table on ``grids``; built here when absent.
    """
    if tolerance is None:
        tolerance = config.ergodicity_tolerance
    orders = {k: grids[k] for k in range(1, k_max + 1)}
    if table is None:
        table = cell_table(path, orders, config)
    base = {k: [s.value for s in table.stats[k]]
            for k in orders if k in table.stats}
    records: list[DiagnosticRecord] = []
    # every contracted copy is at most the path's length
    harm = harmonic_prefix(table.marg.size)
    for idx, contraction in enumerate(family):
        label = contraction.label or f"contraction[{idx}]"
        marg = contracted_codes(table, contraction)
        for k, base_vals in base.items():
            if marg.size < k:
                continue
            grid = grids[k]
            values = cell_tail_means(window_codes(marg, grid), grid.n_cells,
                                     config.tail_fraction, harm)
            for cell, b, v in zip(grid.cells, base_vals, values):
                records.append(DiagnosticRecord(
                    contraction_label=label, k=k, pattern=cell,
                    base_value=b, contracted_value=v))
    if records:
        worst = max(records, key=lambda r: r.discrepancy)
        worst_disc = worst.discrepancy
        offending = (worst.contraction_label, worst.pattern) \
            if worst_disc > tolerance else None
    else:
        worst_disc, offending = 0.0, None
    return ErgodicityVerdict(
        worst_discrepancy=worst_disc,
        offending=offending,
        verdict="NonErgodicEvidence" if worst_disc > tolerance
                else "ConsistentWithErgodic",
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


def adversarial_contraction(path: Path, pattern: IntervalPattern,
                            m_schedule: Sequence[int] = M_SCHEDULE,
                            threshold: float | None = None,
                            config: AnalysisConfig = DEFAULT_CONFIG) -> AdversarialTrace:
    """Search for a contraction that concentrates one pattern's occurrences.

    threshold defaults to min((p+1)/2, p + ADVERSARIAL_THRESHOLD_CAP) for the
    pattern's estimated global density p.  The construction fails when no
    window reaches the threshold at some stage, or when the density of
    qualifying windows collapses across the schedule (the signature of a
    mixing path, for which local averages concentrate as windows grow).
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
    # the tail mean of the density trajectory d(n) = N(n)/n
    n0 = horizon - tail_window_size(horizon, config.tail_fraction) + 1
    p = float(np.mean(csum[n0:] / np.arange(n0, horizon + 1)))
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

    # staged join: switch from G(m) to whole windows of the next stage at a
    # joint point past which both are settled near the target; G holds the
    # blocks [starts, stops)
    starts = trace_v2[first]
    stops = starts + first
    n_markers: list[int] = []
    for prev_m, next_m in zip(m_schedule, m_schedule[1:]):
        eps_m = ADVERSARIAL_EPS1 / prev_m
        covered = stops - starts
        np.cumsum(covered, out=covered)
        cov_g = covered / stops
        # suffix deviation of the next stage's coverage beyond each position
        nxt = trace_v2[next_m]
        dev_next = np.abs(_coverage(nxt, nxt + next_m, horizon) - target_d)
        suffix = np.maximum.accumulate(dev_next[::-1])[::-1]
        quality = np.maximum(
            np.abs(cov_g - target_d),
            np.where(stops < horizon, suffix[np.minimum(stops, horizon - 1)], 0.0))
        close = np.flatnonzero(quality <= eps_m / 3.0)
        join_at = int(close[0]) if close.size else int(np.argmin(quality))
        marker = int(stops[join_at]) - 1
        n_markers.append(marker)
        tail = nxt[nxt > marker]
        starts = np.concatenate((starts[:join_at + 1], tail))
        stops = np.concatenate((stops[:join_at + 1], tail + next_m))

    result = Contraction(tuple(zip(starts.tolist(), (stops - 1).tolist())),
                         target_d, label=f"adversarial[{pattern.label()}]")
    return AdversarialTrace(
        pattern=pattern, m_schedule=m_schedule, threshold=threshold,
        target_density=target_d, v0=trace_v0, v1=trace_v1, v2=trace_v2,
        n_markers=tuple(n_markers), result=result)


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
                               config: AnalysisConfig = DEFAULT_CONFIG,
                               table: CellTable | None = None) -> list[Contraction]:
    """Alternating contractions over CONTRACTION_DENSITIES in both phases,
    plus one adversarial attempt per level-1 cell whose density sits
    strictly inside (ADVERSARIAL_P_LO, ADVERSARIAL_P_HI).  Failed adversarial
    constructions are dropped, and so are attempts whose largest window
    exceeds the path.  ``table`` is the path's cell table on ``level1_grid``,
    read for the level-1 densities; built here when absent.  A path too
    short for some alternating contraction raises ValueError."""
    horizon = path.length
    family = alternating_family(horizon)
    if M_SCHEDULE[-1] > horizon:
        return family
    if table is None:
        table = cell_table(path, {1: level1_grid}, config)
    for cell, st in zip(level1_grid.cells, table.stats[1]):
        if not ADVERSARIAL_P_LO < st.value < ADVERSARIAL_P_HI:
            continue
        trace = adversarial_contraction(path, cell, config=config)
        if not trace.failed and trace.result is not None:
            family.append(trace.result)
    return family
