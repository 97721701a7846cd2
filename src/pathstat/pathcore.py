"""Paths, interval patterns, occurrence sets, and finite-horizon densities.

The primitive objects: a finite real sequence, a product of open intervals,
the set of window start indices where the sequence enters that product, and
the running ratio count/n whose tail behaviour stands in for the limiting
density of the occurrence set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

__all__ = [
    "Path",
    "IntervalPattern",
    "OccurrenceSet",
    "DensityTrajectory",
    "DensityEstimate",
    "occurrence_set",
    "counting_prefix",
    "density_trajectory",
    "estimate_limit_density",
    "window_projection",
    "read_path_text",
    "read_path_file",
]


@dataclass(frozen=True, eq=False)
class Path:
    """A finite real-valued sequence (x_0, ..., x_{L-1}).

    Values must be finite; NaN or infinite entries are rejected because every
    downstream count treats interval membership as a strict comparison.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("path must be a non-empty one-dimensional sequence")
        if not np.all(np.isfinite(v)):
            raise ValueError("path values must all be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def length(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class IntervalPattern:
    """k open intervals I_0 x ... x I_{k-1}; endpoints may be -inf/+inf."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        if not ivs:
            raise ValueError("pattern needs at least one interval")
        for a, b in ivs:
            if math.isnan(a) or math.isnan(b):
                raise ValueError("interval endpoints must not be NaN")
            if not a < b:
                raise ValueError(f"empty open interval ({a}, {b})")
        object.__setattr__(self, "intervals", ivs)

    @classmethod
    def of(cls, *pairs: tuple[float, float]) -> "IntervalPattern":
        return cls(tuple(pairs))

    @property
    def k(self) -> int:
        return len(self.intervals)

    def label(self) -> str:
        def fmt(x: float) -> str:
            if math.isinf(x):
                return "-inf" if x < 0 else "inf"
            return format(x, "g")

        return "x".join(f"({fmt(a)},{fmt(b)})" for a, b in self.intervals)


@dataclass(frozen=True, eq=False)
class OccurrenceSet:
    """Strictly increasing start indices, bounded by the admissible range.

    ``source_horizon`` is the number of admissible starts L - k + 1; every
    index lies in [0, source_horizon - 1].
    """

    indices: np.ndarray
    source_horizon: int

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("indices must be one-dimensional")
        if self.source_horizon < 1:
            raise ValueError("source_horizon must be positive")
        if idx.size:
            if np.any(np.diff(idx) <= 0):
                raise ValueError("indices must be strictly increasing")
            if idx[0] < 0 or idx[-1] >= self.source_horizon:
                raise ValueError("indices out of admissible range")
        idx = idx.copy()
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @property
    def count(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True, eq=False)
class DensityTrajectory:
    """Running ratios d(n) = N(n)/n for n = 1..horizon."""

    ratios: np.ndarray
    final_count: int

    def __post_init__(self) -> None:
        r = np.asarray(self.ratios, dtype=np.float64)
        if r.ndim != 1 or r.size < 1:
            raise ValueError("trajectory must be non-empty")
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "ratios", r)

    @property
    def horizon(self) -> int:
        return int(self.ratios.size)


@dataclass(frozen=True)
class DensityEstimate:
    """Tail-window surrogate for the limit of d(n).

    ``value`` is the mean of d(n) over the last ceil(tail_fraction * horizon)
    points, ``oscillation`` the max - min over the same window, and
    ``converged`` is true when the oscillation is within tolerance.
    """

    value: float
    oscillation: float
    converged: bool
    tail_fraction: float


def occurrence_set(path: Path, pattern: IntervalPattern) -> OccurrenceSet:
    """Start indices n with x_{n+j} strictly inside I_j for every j.

    Boundaries never match: a value equal to an endpoint is outside the open
    interval.
    """
    k, length = pattern.k, path.length
    if k > length:
        raise ValueError(f"pattern order {k} exceeds path length {length}")
    n_starts = length - k + 1
    v = path.values
    hits = np.ones(n_starts, dtype=bool)
    for j, (a, b) in enumerate(pattern.intervals):
        seg = v[j:j + n_starts]
        hits &= (seg > a) & (seg < b)
    return OccurrenceSet(np.flatnonzero(hits), n_starts)


def counting_prefix(occ: OccurrenceSet, n: int) -> int:
    """Number of occurrence indices strictly below n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return int(np.searchsorted(occ.indices, n, side="left"))


def density_trajectory(occ: OccurrenceSet, horizon: int) -> DensityTrajectory:
    if not 1 <= horizon <= occ.source_horizon:
        raise ValueError(
            f"horizon {horizon} outside [1, {occ.source_horizon}]")
    ns = np.arange(1, horizon + 1)
    counts = np.searchsorted(occ.indices, ns, side="left")
    return DensityTrajectory(ratios=counts / ns, final_count=int(counts[-1]))


def tail_window_size(horizon: int, tail_fraction: float) -> int:
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must be in (0, 1]")
    return math.ceil(tail_fraction * horizon)


def estimate_limit_density(traj: DensityTrajectory,
                           tail_fraction: float = 0.5,
                           tolerance: float = 0.02) -> DensityEstimate:
    if traj.horizon < 1:
        raise ValueError("empty trajectory")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    return tail_estimate(traj.ratios, tail_fraction, tolerance)


def tail_estimate(ratios: np.ndarray, tail_fraction: float,
                  tolerance: float) -> DensityEstimate:
    """The mean and max - min of running ratios r(n), n = 1..ratios.size,
    over the last ceil(tail_fraction * ratios.size) of them."""
    w = tail_window_size(ratios.size, tail_fraction)
    tail = ratios[ratios.size - w:]
    osc = float(tail.max() - tail.min())
    return DensityEstimate(
        value=float(tail.mean()),
        oscillation=osc,
        converged=osc <= tolerance,
        tail_fraction=tail_fraction,
    )


def window_projection(path: Path, n: int, i: int) -> np.ndarray:
    """The window (x_i, ..., x_{i+n-1})."""
    if n < 1 or i < 0 or i + n > path.length:
        raise ValueError(
            f"window [{i}, {i + n}) outside path of length {path.length}")
    return path.values[i:i + n].copy()


class PathParseError(ValueError):
    """Raised when an input file does not contain a valid path."""


def _parse_cell(cell: str, lineno: int) -> float:
    try:
        x = float(cell)
    except ValueError:
        raise PathParseError(f"line {lineno}: not a number: {cell!r}") from None
    if not math.isfinite(x):
        raise PathParseError(f"line {lineno}: non-finite value: {cell!r}")
    return x


# the only bytes of text the bulk parse accepts: plain decimal numbers, one
# per line; anything else takes the per-line parse
_BULK_BYTES = b"0123456789.eE+-\n"


def _bulk_parse(text: str) -> np.ndarray | None:
    """Values of text holding one plain decimal number per line, no blank
    lines, in one C-level pass; None when the text is anything else.

    numpy's parser rounds every token that Python's float() reads from
    these bytes identically.  It stops (older numpy) or raises (newer) at a
    token it cannot read to its end, so a value count equal to the line
    count means every line was read whole.
    """
    if not text or text[0] == "\n" or "\n\n" in text or not text.isascii():
        return None
    raw = text.encode("ascii")
    if raw.translate(None, _BULK_BYTES):
        return None
    try:
        with warnings.catch_warnings():
            # older numpy warns where newer raises on an unreadable token
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(raw, dtype=np.float64, sep="\n")
    except (ValueError, DeprecationWarning):
        return None
    lines = raw.count(b"\n") + (not raw.endswith(b"\n"))
    if values.size != lines or not np.all(np.isfinite(values)):
        return None
    return values


def _parse_lines(text: str) -> np.ndarray:
    """The per-line parse: every layout read_path_text accepts, and the
    error, with its line number, for every row it rejects."""
    values: list[float] = []
    first_data_line = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        cell = line.split(",")[0].strip()
        if first_data_line:
            first_data_line = False
            try:
                float(cell)
            except ValueError:
                continue  # header row
        values.append(_parse_cell(cell, lineno))
    if not values:
        raise PathParseError("no numeric rows found")
    return np.asarray(values)


def read_path_text(text: str) -> Path:
    """Parse a path from text: one value per line or a single CSV column.

    An optional header row is detected by a non-numeric first row and
    skipped.  NaN or infinite rows are errors, reported with their line
    number.  Plain one-number-per-line text is parsed in bulk; everything
    else, errors included, goes through the per-line parse.
    """
    bulk = _bulk_parse(text)
    return Path(bulk if bulk is not None else _parse_lines(text))


def read_path_file(source: str | TextIO) -> Path:
    if hasattr(source, "read"):
        return read_path_text(source.read())
    with open(source, "r", encoding="utf-8") as fh:
        return read_path_text(fh.read())


def write_path(values: Iterable[float], target: str | TextIO) -> None:
    """One value per line, full float precision (round-trips exactly)."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
    lines = "\n".join(repr(float(x)) for x in arr) + "\n"
    if hasattr(target, "write"):
        target.write(lines)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(lines)
