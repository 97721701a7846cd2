"""Window decision functions, moving-window application, rejection densities.

A stationarity test here is any deterministic map from a length-n window to
{accept=0, reject=1} with a declared nominal size.  Applying it along a path
yields an indicator sequence whose limiting rejection frequency, for a path
that genuinely behaves stationarily, cannot exceed the size; the
``rejection_upper_density`` estimator is the finite surrogate for that
limiting frequency.

Built-in tests reject when a continuous statistic strictly exceeds a
threshold, so the boundary of the rejection region is a null set under any
continuous law.  The scalar statistic of a window is the one rule: it
decides the window, or refuses it when not finite.  The batched form over
chunks of window starts only accelerates it, and leaves to it every window
whose decision its own rounding could flip.  User-supplied deciders are
trusted, not checked, to satisfy one of the closed-region / null-boundary
conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, AnalysisConfig
from .generators import GeneratorSpec, generate_rows
from .pathcore import Path

__all__ = [
    "StationarityTest",
    "RejectionRecord",
    "SuiteResult",
    "CalibrationResult",
    "CalibrationError",
    "make_builtin_test",
    "apply_moving_window",
    "window_starts",
    "rejection_upper_density",
    "asymptotic_suite",
    "calibrate_test_size",
    "BUILTIN_KINDS",
]


class CalibrationError(RuntimeError):
    """The test statistic is degenerate under the calibration generator."""


@dataclass(frozen=True)
class StationarityTest:
    """A window test: reject (1) when the statistic exceeds its threshold."""

    name: str
    window: int
    nominal_size: float
    decide: Callable[[np.ndarray], int]
    params: Mapping[str, float] = field(default_factory=dict)
    # optional: ``decide`` at the starts a slice selects, vectorized; the
    # built-in ones leave the windows they cannot vouch for to the scalar
    # statistic, evaluated on stacked windows
    batch_decide: Callable[[np.ndarray, slice], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window size must be at least 2")
        if not 0.0 < self.nominal_size < 1.0:
            raise ValueError("nominal size must be in (0, 1)")


# ---------------------------------------------------------------------------
# built-in statistics: each reduces a window along its last axis, so a stack
# of windows gives one value per row, bit for bit the value of each row alone

def _stat_threshold_exceedance(w: np.ndarray) -> float | np.ndarray:
    return np.mean(w, axis=-1)


def _stat_mean_split(w: np.ndarray) -> float | np.ndarray:
    h = w.shape[-1] // 2
    return np.abs(np.mean(w[..., :h], axis=-1) - np.mean(w[..., h:], axis=-1))


def _stat_variance_split(w: np.ndarray) -> float | np.ndarray:
    h = w.shape[-1] // 2
    return np.abs(np.var(w[..., :h], axis=-1) - np.var(w[..., h:], axis=-1))


def _stat_kpss_like(w: np.ndarray) -> float | np.ndarray:
    n = w.shape[-1]
    e = w - np.mean(w, axis=-1, keepdims=True)
    variance = np.mean(e * e, axis=-1)
    # equal values read 0, also where their mean's rounding residue is not 0
    flat = (variance == 0.0) | np.all(w == w[..., :1], axis=-1)
    s = np.cumsum(e, axis=-1)
    ratio = np.sum(s * s, axis=-1) / (n * n * np.where(flat, 1.0, variance))
    return np.where(flat, 0.0, ratio)[()]


def _prefix(x: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(x)))


def _sums(p: np.ndarray, starts: slice, lo: int, hi: int) -> np.ndarray:
    """``x[i+lo:i+hi].sum()`` at every start i, from the prefix ``p`` of x."""
    a, b, step = starts.start, starts.stop, starts.step
    return p[a + hi:b + hi:step] - p[a + lo:b + lo:step]


def _peak(p: np.ndarray) -> float:
    """The largest magnitude in p; NaN when p holds a NaN.  A numpy float,
    so arithmetic on it overflows to inf rather than raising."""
    return np.maximum(p.max(), -p.min())


def _sums_peak(p: np.ndarray, starts: slice, lo: int,
               hi: int) -> tuple[np.ndarray, float]:
    return _sums(p, starts, lo, hi), _peak(p)


# A batched statistic vouches for a window only where its decision cannot
# differ from the scalar statistic's: the margin of the decision (the
# statistic minus tau; for kpss_like, its numerator minus tau * n^2 *
# variance) must exceed ROUNDING_FACTOR * eps times the magnitudes the two
# forms round.  The batched form's are the prefix sums it subtracts, each
# bounded by the chunk's largest; the scalar form's are the window's mean
# where the statistic moves with it to first order.  Below the normal
# range rounding is absolute, not relative, so the bound is never below the
# least normal number.  Elsewhere it reads NaN, and ``decide`` decides the
# window.
ROUNDING_FACTOR = 64
_ROUNDING = ROUNDING_FACTOR * np.finfo(np.float64).eps
_LEAST_NORMAL = np.finfo(np.float64).tiny


def _vouched(stat: np.ndarray, margin: np.ndarray,
             magnitude: float) -> np.ndarray:
    """stat, NaN where |margin| does not exceed the rounding bound of
    ``magnitude`` (also where either is not finite); overwrites both."""
    bound = _ROUNDING * magnitude + _LEAST_NORMAL
    stat[~(np.abs(margin, out=margin) > bound)] = np.nan
    return stat


def _batch_threshold(x: np.ndarray, n: int, starts: slice,
                     tau: float) -> np.ndarray:
    stat = _sums(_prefix(x), starts, 0, n) / n
    # two prefix values, each at most size * max |x|, over n, and the
    # scalar's mean, at most max |x|
    return _vouched(stat, stat - tau, _peak(x) * (2.0 * x.size / n + 1.0))


def _batch_mean_split(x: np.ndarray, n: int, starts: slice,
                      tau: float) -> np.ndarray:
    h = n // 2
    c = _prefix(x)
    stat = np.abs(_sums(c, starts, 0, h) / h - _sums(c, starts, h, n) / (n - h))
    # per half: two prefix values over its length, and the scalar's mean
    return _vouched(stat, stat - tau, 2.0 * _peak(x) * (
        x.size / h + x.size / (n - h) + 1.0))


def _batch_variance_split(x: np.ndarray, n: int, starts: slice,
                          tau: float) -> np.ndarray:
    # shift-invariant: centring first keeps the prefix sums from cancelling
    x = x - np.mean(x)
    h = n // 2
    c = _prefix(x)
    q = _prefix(x * x)
    var_a = _sums(q, starts, 0, h) / h - (_sums(c, starts, 0, h) / h) ** 2
    var_b = (_sums(q, starts, h, n) / (n - h)
             - (_sums(c, starts, h, n) / (n - h)) ** 2)
    stat = np.abs(var_a - var_b)
    # per half, over its length: two values of q, each at most q[-1], and
    # twice the half's mean times two values of c, at most
    # 2 * sqrt(q[-1]) * 2 * sqrt(size * q[-1]) (Cauchy-Schwarz); a
    # variance moves with the scalar's rounded mean only to second order
    magnitude = 2.0 * (1.0 + 2.0 * math.sqrt(x.size)) * q[-1] * (
        1.0 / h + 1.0 / (n - h))
    return _vouched(stat, stat - tau, magnitude)


def _batch_kpss_like(x: np.ndarray, n: int, starts: slice,
                     tau: float) -> np.ndarray:
    # window partial sums S_t = (C[i+t]-C[i]) - t*mu_i expanded so that every
    # term is a window sum of a precomputed sequence; shift-invariant, so
    # centring first keeps the prefix sums from cancelling at a mean offset.
    # Each prefix array but C lives only inside the expression taking its sums.
    mean = np.mean(x)
    sum_q, peak_q = _sums_peak(_prefix(np.square(x - mean)), starts, 0, n)
    c = _prefix(x - mean)
    sum_csq, peak_csq = _sums_peak(_prefix(c[1:] * c[1:]), starts, 0, n)
    sum_c, peak_pc = _sums_peak(_prefix(c[1:]), starts, 0, n)
    sum_jc, peak_jc = _sums_peak(_prefix(np.arange(1.0, c.size) * c[1:]),
                                 starts, 0, n)

    idx = np.arange(starts.start, starts.stop, starts.step)
    c_i = c[starts]
    mu = _sums(c, starts, 0, n) / n
    sum_a_sq = sum_csq - 2.0 * c_i * sum_c + n * c_i * c_i
    sum_t_a = (sum_jc - idx * sum_c) - c_i * (n * (n + 1) / 2.0)
    sum_t_sq = n * (n + 1) * (2 * n + 1) / 6.0
    total = sum_a_sq - 2.0 * mu * sum_t_a + mu * mu * sum_t_sq
    variance = sum_q / n - mu * mu
    # the decision is total > tau * n^2 * variance; each term's magnitude
    # bounded by the chunk's largest |c|, |mu| and |prefix value|.  The
    # scalar's rounded window mean shifts its numerator by twice the sum of
    # t * S_t, at most n * sqrt(n * total), times the mean's rounding; the
    # window's mean is at most |mean| + max |x - mean| <= |mean| + sqrt(peak_q)
    peak_c, peak_mu = _peak(c), _peak(mu)
    magnitude = (2.0 * peak_csq + 4.0 * peak_c * peak_pc + n * peak_c ** 2
                 + 2.0 * peak_mu * (2.0 * peak_jc + 2.0 * idx[-1] * peak_pc
                                    + peak_c * n * (n + 1) / 2.0)
                 + peak_mu ** 2 * sum_t_sq
                 + abs(tau) * (2.0 * n * peak_q + n * n * peak_mu ** 2)
                 + 2.0 * (abs(mean) + np.sqrt(peak_q)) * n
                 * np.sqrt(n * _peak(total)))
    stat = _vouched(total / (n * n * variance),
                    total - tau * n * n * variance, magnitude)
    # a variance that rounds to 0 or below has no ratio to vouch for, and no
    # differing neighbours read 0, as in the scalar form
    stat[~(variance > 0)] = np.nan
    moves = np.concatenate(([0], np.cumsum(x[1:] != x[:-1])))
    stat[_sums(moves, starts, 0, n - 1) == 0] = 0.0
    return stat


class BuiltinKind(NamedTuple):
    """A built-in test kind: its statistic of a window (or of a stack of
    windows, one per row), the same statistic at a slice of window starts
    along a path given the threshold it is decided against (NaN at a window
    whose decision it cannot vouch for), and the least window it can
    test."""

    statistic: Callable[[np.ndarray], float | np.ndarray]
    batch: Callable[[np.ndarray, int, slice, float], np.ndarray]
    least_window: int = 2


BUILTIN_KINDS: dict[str, BuiltinKind] = {
    "threshold_exceedance": BuiltinKind(_stat_threshold_exceedance,
                                        _batch_threshold),
    "mean_split": BuiltinKind(_stat_mean_split, _batch_mean_split),
    # the variances of two halves of one value each are both 0, so a
    # smaller window never rejects
    "variance_split": BuiltinKind(_stat_variance_split,
                                  _batch_variance_split, 4),
    "kpss_like": BuiltinKind(_stat_kpss_like, _batch_kpss_like),
}


def builtin_kind(kind: str, window: int | None = None) -> BuiltinKind:
    """The kind's row; given a window size, also checks that the kind can
    test windows of that size."""
    if kind not in BUILTIN_KINDS:
        raise ValueError(f"unknown test kind {kind!r}")
    row = BUILTIN_KINDS[kind]
    if window is not None:
        if window < 2:
            raise ValueError("window size must be at least 2")
        if window < row.least_window:
            raise ValueError(f"test kind {kind!r} needs a window of at least "
                             f"n = {row.least_window}, got n = {window}")
    return row


def builtin_statistic(kind: str) -> Callable[[np.ndarray], float | np.ndarray]:
    return builtin_kind(kind).statistic


# a batched run evaluates its windows in chunks of starts on the fixed grid
# [j*C, (j+1)*C) of absolute start indices, C = _batch_chunk(n): each chunk's
# prefix sums start from its own origin, and the centred formulas centre on
# its own mean, so the sums stay of the order of its own values (Chan, Golub
# & LeVeque 1983) and its temporaries stay a few hundred KiB at n <= 400; the
# floor keeps the per-chunk overhead small at short windows.  The centring
# only speeds the batched form up: on a chunk holding a level shift its sums
# cancel badly, and the rounding bound above defers the windows they touch
BATCH_CHUNK_WINDOWS = 64
BATCH_CHUNK_MIN_STARTS = 4096


def _batch_chunk(n: int) -> int:
    """Window starts per chunk of a batched run of size-n windows."""
    return max(BATCH_CHUNK_WINDOWS * n, BATCH_CHUNK_MIN_STARTS)


def make_builtin_test(kind: str, n: int, tau: float, alpha: float,
                      name: str | None = None) -> StationarityTest:
    """A built-in test rejecting when its statistic strictly exceeds tau.  A
    statistic that is not finite is a ValueError naming the kind.

    ``batch_decide`` computes the kind's batched statistic chunk by chunk;
    the windows of a chunk where it reads NaN (its rounding could flip the
    decision, or it is not finite) are decided by the scalar statistic on
    stacked windows through ``decide_stacked``, each row bit for bit its
    own ``decide``, so its indicators, or its refusal and offset, are those
    of a run that calls ``decide`` window by window."""
    stat, batch, _ = builtin_kind(kind, n)
    chunk = _batch_chunk(n)

    def decide(window: np.ndarray) -> int:
        with np.errstate(over="ignore", invalid="ignore"):
            value = stat(np.asarray(window, dtype=np.float64))
        if not np.isfinite(value):
            raise ValueError(f"statistic {kind!r} is not finite")
        return int(value > tau)

    def batch_decide(values: np.ndarray, starts: slice) -> np.ndarray:
        # a chunk's statistics depend only on its values, never on which of
        # its starts the slice selects
        windows = max(values.size - n + 1, 0)
        first, stop, step = starts.indices(windows)
        if step < 1:
            raise ValueError("window starts must ascend")
        out = np.empty(len(range(first, stop, step)), dtype=np.uint8)
        for lo in range(first - first % chunk, stop, chunk):
            hi = min(lo + chunk, windows)
            # out's index of the chunk's first selected start
            i = max(0, -((first - lo) // step))
            local = range(first + i * step - lo, min(hi, stop) - lo, step)
            if local:
                with np.errstate(all="ignore"):
                    stats = batch(values[lo:hi + n - 1], n,
                                  slice(local.start, local.stop, step), tau)
                np.greater(stats, tau, out=out[i:i + len(local)])
                j = i + np.flatnonzero(~np.isfinite(stats))
                if j.size:
                    out[j] = decide_stacked(kind, stat, tau, values, n,
                                            first + step * j)
        return out

    return StationarityTest(
        name=name or f"{kind}(n={n})",
        window=n,
        nominal_size=alpha,
        decide=decide,
        params={"kind": kind, "tau": tau},
        batch_decide=batch_decide,
    )


def decide_stacked(kind: str, stat: Callable[[np.ndarray], np.ndarray],
                   tau: float, values: np.ndarray, n: int,
                   offsets: np.ndarray) -> np.ndarray:
    """The decisions of a built-in kind's ``decide`` at the size-n windows
    starting at ``offsets`` (ascending): its statistic ``stat`` evaluated on
    stacks of windows, at most ``CALIBRATION_BLOCK_VALUES`` values a call,
    each row bit for bit its own window's.  The first window whose
    statistic is not finite is refused, as ``decide_windows`` refuses it."""
    out = np.empty(offsets.size, dtype=np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(values, n)
    rows = max(1, CALIBRATION_BLOCK_VALUES // n)
    for lo in range(0, offsets.size, rows):
        block = np.asarray(windows[offsets[lo:lo + rows]], dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            value = stat(block)
        bad = np.flatnonzero(~np.isfinite(value))
        if bad.size:
            raise ValueError(f"statistic {kind!r} is not finite at offset "
                             f"{offsets[lo + bad[0]]}")
        np.greater(value, tau, out=out[lo:lo + rows])
    return out


def decide_windows(decide: Callable[[np.ndarray], int], values: np.ndarray,
                   n: int, offsets: Sequence[int]) -> np.ndarray:
    """``decide`` at each size-n window; a refusal names the window's offset."""
    out = np.empty(len(offsets), dtype=np.uint8)
    for j, i in enumerate(offsets):
        try:
            out[j] = decide(values[i:i + n])
        except ValueError as exc:
            raise ValueError(f"{exc} at offset {i}") from None
    return out


# ---------------------------------------------------------------------------
# moving-window application

# the slack above a test's nominal size within which its upper rejection
# density still counts as compliant
TEST_SLACK = 0.01


@dataclass(frozen=True, eq=False)
class RejectionRecord:
    """Indicator sequence over window offsets plus its tail-density summary."""

    test_name: str
    window: int
    nominal_size: float
    start: int
    stride: int
    indicators: np.ndarray
    upper_density: float
    tail_profile: tuple[tuple[int, float], ...]  # (rung length, mean)

    def __post_init__(self) -> None:
        # offsets start + stride * i must ascend from a non-negative start
        if self.start < 0:
            raise ValueError(f"RejectionRecord start must be non-negative, "
                             f"got {self.start}")
        if self.stride < 1:
            raise ValueError(f"RejectionRecord stride must be at least 1, "
                             f"got {self.stride}")


def _tail_profile(indicators: np.ndarray, window: int,
                  min_rung_windows: int) -> tuple[tuple[int, float], ...]:
    """(rung length, tail mean) over the dyadic tail rungs, skipping rungs
    too short to resolve ~0.01 density.

    The full-offset mean is always a rung, so the estimate is defined for any
    indicator length; short dyadic rungs whose means fluctuate more than the
    densities being compared are excluded rather than allowed to dominate
    the max.
    """
    n_offsets = indicators.size
    min_len = min_rung_windows * window
    rungs = [n_offsets]
    for frac in (0.5, 0.25, 0.125):
        r = math.ceil(frac * n_offsets)
        if r >= min_len and r not in rungs:
            rungs.append(r)
    return tuple((r, float(np.mean(indicators[n_offsets - r:]))) for r in rungs)


def rejection_upper_density(indicators: np.ndarray, window: int = 1,
                            config: AnalysisConfig = DEFAULT_CONFIG) -> float:
    """Max of tail means over the rung ladder: the limsup surrogate."""
    ind = np.asarray(indicators)
    if ind.size == 0:
        raise ValueError("no indicators")
    return max(v for _, v in _tail_profile(ind, window, config.min_rung_windows))


def window_starts(length: int, n: int, start: int, stride: int) -> slice:
    """The starts start, start+stride, ... of the size-n windows that fit a
    path of ``length`` values; ValueError when the first does not fit."""
    if stride < 1:
        raise ValueError("stride must be at least 1")
    if start < 0 or start + n > length:
        raise ValueError(
            f"window of size {n} at offset {start} does not fit the path")
    return slice(start, length - n + 1, stride)


def apply_moving_window(path: Path, test: StationarityTest, start: int = 0,
                        stride: int = 1,
                        config: AnalysisConfig = DEFAULT_CONFIG) -> RejectionRecord:
    """Evaluate the test at offsets start, start+stride, ... along the path."""
    n = test.window
    starts = window_starts(path.length, n, start, stride)
    if test.batch_decide is not None:
        indicators = np.asarray(test.batch_decide(path.values, starts),
                                dtype=np.uint8)
    else:
        indicators = decide_windows(test.decide, path.values, n,
                                    range(starts.start, starts.stop, stride))
    profile = _tail_profile(indicators, n, config.min_rung_windows)
    return RejectionRecord(
        test_name=test.name,
        window=n,
        nominal_size=test.nominal_size,
        start=start,
        stride=stride,
        indicators=indicators,
        upper_density=max(v for _, v in profile),
        tail_profile=profile,
    )


@dataclass(frozen=True, eq=False)
class SuiteResult:
    records: tuple[RejectionRecord, ...]
    epsilon: float
    # smallest window size from which every later test keeps its upper
    # density within nominal_size + epsilon, None when none does
    stabilization_n: int | None


def asymptotic_suite(path: Path, tests: Sequence[StationarityTest],
                     epsilon: float = TEST_SLACK,
                     config: AnalysisConfig = DEFAULT_CONFIG) -> SuiteResult:
    """Apply a ladder of tests with increasing window sizes."""
    if not tests:
        raise ValueError("no tests given")
    windows = [t.window for t in tests]
    if windows != sorted(windows):
        raise ValueError("tests must be sorted by window size")
    records = tuple(apply_moving_window(path, t, config=config) for t in tests)
    stabilization_n: int | None = None
    for i in range(len(records) - 1, -1, -1):
        if records[i].upper_density <= records[i].nominal_size + epsilon:
            stabilization_n = records[i].window
        else:
            break
    return SuiteResult(records=records, epsilon=epsilon,
                       stabilization_n=stabilization_n)


# ---------------------------------------------------------------------------
# Monte Carlo size calibration

@dataclass(frozen=True)
class CalibrationResult:
    kind: str
    window: int
    alpha: float
    tau: float
    stderr: float
    replicates: int
    seed: int


# replicates of a calibration that names no count
CALIBRATION_REPLICATES = 2000
# values per block of calibration replicates, and per stack of windows a
# built-in test defers to its scalar statistic; bounds a block's windows and
# the statistic's temporaries to a few MiB at any window size
CALIBRATION_BLOCK_VALUES = 2 ** 18


def calibrate_test_size(kind: str, window: int, alpha: float,
                        generator: GeneratorSpec,
                        replicates: int = CALIBRATION_REPLICATES,
                        seed: int = 0) -> CalibrationResult:
    """Empirical (1 - alpha) quantile of the statistic over seeded replicates.

    Each replicate is an independent window of ``window`` values drawn from
    the generator's kind and parameters (its own length and seed are not
    used) with a seed derived via SeedSequence, so the result does not
    depend on execution order.  The replicates are drawn and reduced in
    blocks of rows, at most ``CALIBRATION_BLOCK_VALUES`` values a block
    (one row when the window is longer); each row is reduced on its own, so
    the block size changes no bit of the result.  A block's rows come from
    ``generate_rows``, which reuses one generator and sets its state per
    row, each row equal bit for bit to ``default_rng(child_seed)``'s draw.
    A replicate count too large to allocate is a ValueError.  A statistic
    that is not finite on some replicate (one that overflows, say) or
    constant over all of them is a CalibrationError naming the kind and the
    generator.  The standard error is the half-width between the order
    statistics one binomial standard deviation either side of the quantile
    rank.
    """
    builtin_kind(kind, window)
    if replicates < 1000:
        raise ValueError("replicates must be at least 1000")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    stat = builtin_statistic(kind)
    try:
        child_seeds = np.random.SeedSequence(seed).generate_state(replicates)
        stats = np.empty(replicates)
    except MemoryError:
        raise ValueError(f"replicates={replicates} is too many to hold in "
                         f"memory") from None
    base = GeneratorSpec(kind=generator.kind, length=window,
                         params=generator.params)
    rows = max(1, CALIBRATION_BLOCK_VALUES // window)
    # a statistic that overflows is refused below, not warned about
    with np.errstate(all="ignore"):
        for i in range(0, replicates, rows):
            block = generate_rows(base, child_seeds[i:i + rows])
            stats[i:i + rows] = stat(block)
    bad = int(np.count_nonzero(~np.isfinite(stats)))
    if bad:
        raise CalibrationError(
            f"statistic {kind!r} is not finite under {generator.kind!r} in "
            f"{bad} of {replicates} replicates")
    if np.ptp(stats) == 0.0:
        raise CalibrationError(
            f"statistic {kind!r} is constant under {generator.kind!r}")
    stats.sort()
    tau = float(np.quantile(stats, 1.0 - alpha))
    rank = (1.0 - alpha) * (replicates - 1)
    spread = math.sqrt(replicates * alpha * (1.0 - alpha))
    lo = int(max(0, math.floor(rank - spread)))
    hi = int(min(replicates - 1, math.ceil(rank + spread)))
    stderr = float((stats[hi] - stats[lo]) / 2.0)
    return CalibrationResult(kind=kind, window=window, alpha=alpha, tau=tau,
                             stderr=stderr, replicates=replicates, seed=seed)
