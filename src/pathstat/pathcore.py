"""Paths, interval patterns, occurrence sets, and finite-horizon densities.

The primitive objects: a finite real sequence, a product of open intervals,
the set of window start indices where the sequence enters that product, and
the running ratio count/n whose tail behaviour stands in for the limiting
density of the occurrence set.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import BinaryIO, Iterable, TextIO

import numpy as np

from .config import DEFAULT_CONFIG

__all__ = [
    "Path",
    "IntervalPattern",
    "OccurrenceSet",
    "DensityTrajectory",
    "DensityEstimate",
    "occurrence_mask",
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


def occurrence_mask(path: Path, pattern: IntervalPattern) -> np.ndarray:
    """Whether x_{n+j} lies strictly inside I_j for every j, per start n.

    One boolean per admissible start n = 0..L - k.  Boundaries never match:
    a value equal to an endpoint is outside the open interval.
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
    return hits


def occurrence_set(path: Path, pattern: IntervalPattern) -> OccurrenceSet:
    """Start indices n with x_{n+j} strictly inside I_j for every j."""
    mask = occurrence_mask(path, pattern)
    return OccurrenceSet(np.flatnonzero(mask), mask.size)


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


def estimate_limit_density(
        traj: DensityTrajectory,
        tail_fraction: float = DEFAULT_CONFIG.tail_fraction,
        tolerance: float = DEFAULT_CONFIG.tolerance) -> DensityEstimate:
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


# The bulk parse reads text holding one plain decimal number per line,
#     -?(D+(.D*)?|.D+)([eE][+-]?D+)?
# with '\n' line ends and no blank line, in two passes over its bytes.  The
# first checks that grammar one bounded chunk of whole lines at a time: each
# byte maps to a class, digits to 0, and each non-digit symbol must be
# allowed after the symbol before it, given whether digits lie between them
# (a line end counts as the symbol before a line's first, and a point needs
# digits on at least one side).  The second hands the bytes, behind a Matrix
# Market header, to scipy's reader, which rounds every such token as float()
# does but reads some malformed lines as a prefix ("1-2" as 1), so the check
# is what keeps it exact.  Any other text takes the per-line parse.
_DIGIT, _NEWLINE, _MINUS, _PLUS, _POINT, _EXP, _EXP_SIGN, _OTHER = range(8)
# symbol: the (symbol before it, digits between) it may follow.  A sign right
# after an exponent mark is an _EXP_SIGN; the only other sign a line may hold
# is a leading '-', because the reader refuses a leading '+'.
_FOLLOWS = {
    _NEWLINE: ((_NEWLINE, True), (_MINUS, True), (_POINT, False),
               (_POINT, True), (_EXP_SIGN, True), (_EXP, True)),
    _MINUS: ((_NEWLINE, False),),
    _POINT: ((_NEWLINE, False), (_NEWLINE, True), (_MINUS, False),
             (_MINUS, True)),
    _EXP: ((_NEWLINE, True), (_MINUS, True), (_POINT, False), (_POINT, True)),
    _EXP_SIGN: ((_EXP, False),),
}
_BYTE_CLASS = bytes(
    _DIGIT if chr(b) in "0123456789" else
    {"\n": _NEWLINE, "-": _MINUS, "+": _PLUS, ".": _POINT, "e": _EXP,
     "E": _EXP}.get(chr(b), _OTHER)
    for b in range(256))
# The keys of the pairs _bulk_lines accepts.  A key packs the symbol before
# (3 bits), the symbol (3 bits), whether digits lie right before the symbol
# before (1 bit) and whether digits lie between the two (1 bit); the third
# bit lets a point demand digits on at least one side.
_ALLOWED_KEYS = bytes(
    (before << 5) | (sym << 2) | (digits_before << 1) | digits
    for sym, pairs in _FOLLOWS.items()
    for before, digits in pairs
    for digits_before in (0, 1)
    if before != _POINT or digits_before or digits)
_CHUNK_BYTES = 1 << 17


def _bulk_lines(chunk: bytes) -> np.ndarray | None:
    """For whole lines that all end in '\n', whether each starts with '-';
    None when a line breaks the bulk grammar."""
    classes = np.frombuffer(chunk.translate(_BYTE_CLASS), dtype=np.uint8)
    pos = np.flatnonzero(classes != _DIGIT)
    # sym[0] is the line end before the chunk; digits[j]: whether digits lie
    # right before sym[j]
    sym = np.empty(pos.size + 1, dtype=np.uint8)
    sym[0] = _NEWLINE
    sym[1:] = classes[pos]
    sign = sym[1:] == _MINUS
    sign |= sym[1:] == _PLUS
    sign &= sym[:-1] == _EXP
    sym[1:][sign] = _EXP_SIGN
    digits = np.empty(sym.size, dtype=np.uint8)
    digits[:2] = 0, pos[0] > 0
    np.greater(pos[1:] - pos[:-1], 1, out=digits[2:])
    key = sym[:-1] << 5
    key |= sym[1:] << 2
    key |= digits[:-1] << 1
    key |= digits[1:]
    if key.tobytes().translate(None, _ALLOWED_KEYS):
        return None
    return sym[1:][sym[:-1] == _NEWLINE] == _MINUS


def _line_chunks(fh: BinaryIO):
    """fh's bytes in chunks of whole lines of about _CHUNK_BYTES, each
    ending in '\n' (added to a last line that lacks it)."""
    tail = b""
    while block := fh.read(_CHUNK_BYTES):
        data = tail + block
        cut = data.rfind(b"\n") + 1
        if cut:
            yield data[:cut]
        tail = data[cut:]
    if tail:
        yield tail + b"\n"


class _MatrixMarketColumn(io.RawIOBase):
    """A Matrix Market header for one dense column of n reals, then fh."""

    def __init__(self, n: int, fh: BinaryIO) -> None:
        super().__init__()
        self._head = b"%%%%MatrixMarket matrix array real general\n%d 1\n" % n
        self._fh = fh

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if self._head:
            k = min(len(buffer), len(self._head))
            buffer[:k] = self._head[:k]
            self._head = self._head[k:]
            return k
        return self._fh.readinto(buffer)


def _bulk_parse(fh: BinaryIO) -> np.ndarray | None:
    """Values of a seekable binary stream of text in the bulk grammar, read
    from its start; None when the text is anything else."""
    # imported here: only a parse of text needs the reader
    from scipy.io import mmread

    chunks = []  # per chunk, whether each line starts with '-'
    for chunk in _line_chunks(fh):
        lines = _bulk_lines(chunk)
        if lines is None:
            return None
        chunks.append(lines)
    if not chunks:
        return None
    negative = np.concatenate(chunks)
    fh.seek(0)
    try:
        # the reader pulls 1 KiB a read; a 1 MiB buffer turns a 20 MB file's
        # ~19,000 readinto calls into ~20
        with io.BufferedReader(_MatrixMarketColumn(negative.size, fh),
                               buffer_size=1 << 20) as stream:
            values = mmread(stream).reshape(-1)
    except ValueError:  # a value the reader refuses
        return None
    if not np.all(np.isfinite(values)):
        return None
    values[negative & (values == 0)] = -0.0  # the reader drops a zero's sign
    return values


def _parse_lines(text: str) -> np.ndarray:
    """The per-line parse: every layout read_path_text accepts, and the
    error, with its line number, for every row it rejects.  One leading
    byte-order mark is ignored."""
    values: list[float] = []
    first_data_line = True
    lines = text.removeprefix("\ufeff").splitlines()
    for lineno, raw in enumerate(lines, start=1):
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
    skipped, and so is a leading byte-order mark.  NaN or infinite rows are
    errors, reported with their line number.  Plain one-number-per-line text
    is parsed in bulk; everything else, errors included, goes through the
    per-line parse.
    """
    if text.isascii():
        bulk = _bulk_parse(io.BytesIO(text.encode("ascii")))
        if bulk is not None:
            return Path(bulk)
    return Path(_parse_lines(text))


def read_path_file(source: str | TextIO) -> Path:
    """read_path_text of a file's UTF-8 text, or of a text stream's."""
    if hasattr(source, "read"):
        return read_path_text(source.read())
    with open(source, "rb") as fh:
        bulk = _bulk_parse(fh)
        if bulk is not None:
            return Path(bulk)
        fh.seek(0)
        # splitlines() ends lines at CRLF and CR as a text-mode open() would
        return Path(_parse_lines(fh.read().decode("utf-8")))


def write_path(values: Iterable[float], target: str | TextIO) -> None:
    """One value per line, full float precision (round-trips exactly)."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
    lines = "\n".join(repr(float(x)) for x in arr) + "\n"
    if hasattr(target, "write"):
        target.write(lines)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(lines)
