import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathstat.generators import generate, parse_spec
from pathstat.pathcore import (
    DensityTrajectory,
    IntervalPattern,
    OccurrenceSet,
    Path,
    PathParseError,
    counting_prefix,
    density_trajectory,
    estimate_limit_density,
    occurrence_mask,
    occurrence_set,
    read_path_text,
    tail_estimate,
    tail_mean_density,
    window_projection,
    write_path,
)

SINE8 = Path(np.array([0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0]))


def test_path_rejects_nan_and_empty():
    with pytest.raises(ValueError):
        Path(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        Path(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        Path(np.array([]))


def test_pattern_rejects_empty_interval():
    with pytest.raises(ValueError):
        IntervalPattern.of((1.0, 1.0))
    with pytest.raises(ValueError):
        IntervalPattern.of((2.0, 1.0))
    IntervalPattern.of((-math.inf, math.inf))  # fine


def test_occurrence_set_sine_pattern():
    occ = occurrence_set(SINE8, IntervalPattern.of((0.5, 1.5)))
    assert occ.indices.tolist() == [1, 5]
    assert occ.source_horizon == 8


def test_occurrence_set_full_interval_matches_everything():
    path = Path(np.array([3.0, -7.0, 0.0, 2.5]))
    occ = occurrence_set(path, IntervalPattern.of((-math.inf, math.inf)))
    assert occ.indices.tolist() == [0, 1, 2, 3]


def test_occurrence_set_order_two():
    path = Path(np.array([0.0, 1.0, 0.0, -1.0, 0.0, 1.0]))
    pattern = IntervalPattern.of((-0.5, 0.5), (0.5, 1.5))
    occ = occurrence_set(path, pattern)
    assert occ.indices.tolist() == [0, 4]
    assert occ.source_horizon == 5


def test_occurrence_set_boundaries_are_strict():
    path = Path(np.array([0.5, 0.7, 1.5]))
    occ = occurrence_set(path, IntervalPattern.of((0.5, 1.5)))
    assert occ.indices.tolist() == [1]


def test_occurrence_set_pattern_longer_than_path():
    with pytest.raises(ValueError):
        occurrence_set(Path(np.array([1.0])), IntervalPattern.of((0, 1), (0, 1)))


def test_counting_prefix_examples():
    occ = OccurrenceSet(np.array([1, 5]), 8)
    assert counting_prefix(occ, 4) == 1
    assert counting_prefix(occ, 1) == 0
    empty = OccurrenceSet(np.array([], dtype=int), 8)
    assert counting_prefix(empty, 5) == 0
    full = OccurrenceSet(np.arange(8), 8)
    assert counting_prefix(full, 8) == 8


def test_density_trajectory_sine():
    occ = OccurrenceSet(np.array([1, 5]), 8)
    traj = density_trajectory(occ, 8)
    assert traj.ratios[-1] == pytest.approx(0.25)
    assert traj.final_count == 2


def test_density_trajectory_full_set_is_all_ones():
    occ = OccurrenceSet(np.arange(8), 8)
    traj = density_trajectory(occ, 8)
    assert np.all(traj.ratios == 1.0)


def test_density_trajectory_single_occurrence_decays():
    # x_n = n with I = (2.5, 3.5) hits only n = 3
    path = Path(np.arange(100, dtype=float))
    occ = occurrence_set(path, IntervalPattern.of((2.5, 3.5)))
    assert occ.indices.tolist() == [3]
    traj = density_trajectory(occ, 100)
    assert traj.ratios[-1] == pytest.approx(0.01)
    assert np.all(np.diff(traj.ratios[3:]) < 0)  # 1/n from n = 4 on


def test_density_trajectory_horizon_beyond_source():
    occ = OccurrenceSet(np.array([1]), 4)
    with pytest.raises(ValueError):
        density_trajectory(occ, 5)


def test_estimate_constant_trajectory():
    traj = DensityTrajectory(np.ones(10), 10)
    est = estimate_limit_density(traj, 0.5, 0.02)
    assert est.value == 1.0
    assert est.oscillation == 0.0
    assert est.converged


def test_estimate_harmonic_tail():
    # d(n) = 1/n over horizon 1000: tail mean matches the closed form
    ns = np.arange(1, 1001)
    traj = DensityTrajectory(1.0 / ns, 1)
    est = estimate_limit_density(traj, 0.5, 0.01)
    expected = np.mean(1.0 / np.arange(501, 1001))
    assert est.value == pytest.approx(expected)
    assert est.value == pytest.approx(0.00139, abs=2e-5)
    assert est.oscillation == pytest.approx(1 / 501 - 1 / 1000, abs=1e-6)
    assert est.converged


def test_estimate_periodic_density():
    # exact period-4 pattern: density 1/4 stabilises fast
    path = Path(np.sin(np.arange(400) * (np.pi / 2)))
    occ = occurrence_set(path, IntervalPattern.of((0.5, 1.5)))
    traj = density_trajectory(occ, 400)
    est = estimate_limit_density(traj, 0.5, 0.02)
    assert est.converged
    assert abs(est.value - 0.25) <= est.oscillation


def test_estimate_rejects_bad_arguments():
    traj = DensityTrajectory(np.ones(5), 5)
    with pytest.raises(ValueError):
        estimate_limit_density(traj, 0.0, 0.02)
    with pytest.raises(ValueError):
        estimate_limit_density(traj, 0.5, 0.0)


def test_window_projection():
    path = Path(np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    assert window_projection(path, 3, 0).tolist() == [0, 1, 2]
    assert window_projection(path, 3, 2).tolist() == [2, 3, 4]
    const = Path(np.full(4, 7.0))
    assert window_projection(const, 2, 1).tolist() == [7.0, 7.0]
    with pytest.raises(ValueError):
        window_projection(path, 3, 3)


# ---------------------------------------------------------------------------
# properties

paths = st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=50)


def naive_occurrences(values, intervals):
    k = len(intervals)
    out = []
    for n in range(len(values) - k + 1):
        if all(a < values[n + j] < b for j, (a, b) in enumerate(intervals)):
            out.append(n)
    return out


@st.composite
def open_interval(draw):
    a = draw(st.one_of(st.just(-math.inf), st.floats(-5, 4)))
    if draw(st.booleans()):
        b = math.inf
    else:
        left = a if a != -math.inf else draw(st.floats(-5, 4))
        b = left + draw(st.floats(0.1, 5))
        if a == -math.inf:
            return a, b
    return a, b if b > a else a + 0.1


@st.composite
def path_and_pattern(draw):
    values = draw(paths)
    k = draw(st.integers(1, min(3, len(values))))
    intervals = [draw(open_interval()) for _ in range(k)]
    return values, intervals


@given(path_and_pattern())
def test_occurrence_set_matches_bruteforce(case):
    values, intervals = case
    path = Path(np.array(values))
    pattern = IntervalPattern.of(*intervals)
    occ = occurrence_set(path, pattern)
    assert occ.indices.tolist() == naive_occurrences(values, intervals)


def _scattered(occ):
    """The index route: the occurrence set's indices scattered into a mask."""
    mask = np.zeros(occ.source_horizon, dtype=bool)
    mask[occ.indices] = True
    return mask


@given(path_and_pattern())
def test_occurrence_mask_equals_the_scattered_indices(case):
    values, intervals = case
    path = Path(np.array(values))
    pattern = IntervalPattern.of(*intervals)
    mask = occurrence_mask(path, pattern)
    assert mask.dtype == bool
    assert np.array_equal(mask, _scattered(occurrence_set(path, pattern)))
    assert np.flatnonzero(mask).tolist() == naive_occurrences(values,
                                                               intervals)


@pytest.mark.parametrize("intervals", [
    ((0.0, 1.0),),                  # values on both endpoints
    ((-math.inf, 0.0),),
    ((1.0, math.inf),),
    ((-math.inf, math.inf),),
    ((-1.0, 1.0), (0.0, 2.0)),
    ((-math.inf, 1.0), (-1.0, math.inf), (0.0, 1.0)),
    ((-2.0, 2.0),) * 6,             # order equal to L: one start
    ((-1.0, math.inf),) * 6,        # the same, on an endpoint: no start
])
def test_occurrence_mask_on_endpoints_and_full_order(intervals):
    values = [0.0, 1.0, 0.5, -1.0, 1.0, 0.0]
    path = Path(np.array(values))
    pattern = IntervalPattern.of(*intervals)
    mask = occurrence_mask(path, pattern)
    assert mask.size == len(values) - len(intervals) + 1
    assert np.array_equal(mask, _scattered(occurrence_set(path, pattern)))
    assert np.flatnonzero(mask).tolist() == naive_occurrences(values,
                                                               intervals)


def test_occurrence_mask_pattern_longer_than_path():
    with pytest.raises(ValueError, match="exceeds path length"):
        occurrence_mask(Path(np.array([1.0])),
                        IntervalPattern.of((0, 1), (0, 1)))


@given(path_and_pattern(), st.integers(1, 60))
def test_counting_prefix_monotone_steps(case, n):
    values, intervals = case
    path = Path(np.array(values))
    occ = occurrence_set(path, IntervalPattern.of(*intervals))
    counts = [counting_prefix(occ, m) for m in range(1, len(values) + 1)]
    diffs = np.diff(counts)
    assert np.all(diffs >= 0)
    assert set(diffs.tolist()) <= {0, 1}
    assert all(i <= len(values) - len(intervals) for i in occ.indices)


@given(paths, st.floats(-3, 2), st.floats(0.2, 2), st.floats(0.1, 2))
def test_nested_intervals_monotone(values, a, w, extra):
    path = Path(np.array(values))
    inner = occurrence_set(path, IntervalPattern.of((a, a + w)))
    outer = occurrence_set(path, IntervalPattern.of((a - extra, a + w + extra)))
    assert set(inner.indices.tolist()) <= set(outer.indices.tolist())


# ---------------------------------------------------------------------------
# file I/O

def test_read_plain_text():
    path = read_path_text("1.5\n-2\n3e-1\n")
    assert path.values.tolist() == [1.5, -2.0, 0.3]


def test_read_csv_single_column_with_header():
    path = read_path_text("value\n1\n2\n3\n")
    assert path.values.tolist() == [1.0, 2.0, 3.0]


def test_read_rejects_nan_with_line_number():
    with pytest.raises(PathParseError, match="line 3"):
        read_path_text("1\n2\nnan\n4\n")


def test_read_rejects_text_row_after_header():
    with pytest.raises(PathParseError, match="line 3"):
        read_path_text("1\n2\noops\n")


def test_read_empty_is_error():
    with pytest.raises(PathParseError):
        read_path_text("\n\n")


def test_write_read_roundtrip():
    values = np.array([0.1, -2.5e-7, 3.0, 1 / 3])
    buf = io.StringIO()
    write_path(values, buf)
    back = read_path_text(buf.getvalue())
    assert np.array_equal(back.values, values)


@pytest.mark.parametrize("text", ["ar1(0.5)", "iid_normal(0,1)",
                                  "random_phase_sine(1.4142135623730951)",
                                  "monotone(1)", "block_mixture(0,5)"])
@pytest.mark.parametrize("length", [11, 100, 2001, 100_000])
def test_tail_mean_density_is_the_tail_estimate_value_bit_for_bit(text,
                                                                  length):
    """Dividing only the tail of the running count gives the same float64
    as ``tail_estimate`` over the whole density trajectory, for the 32-bit
    and the float64 counts the two callers keep."""
    path = generate(parse_spec(f"{text},L={length},seed=1"))
    q1, q2, q3 = np.quantile(path.values, [0.25, 0.5, 0.75])
    for pattern in (IntervalPattern.of((-math.inf, q2)),
                    IntervalPattern.of((q1, q3)),
                    IntervalPattern.of((q2, math.inf), (-math.inf, q3)),
                    IntervalPattern.of((-math.inf, math.inf))):
        mask = occurrence_mask(path, pattern)
        ns = np.arange(1, mask.size + 1)
        for dtype in (np.int32, np.float64):
            csum = np.zeros(mask.size + 1, dtype=dtype)
            np.cumsum(mask, out=csum[1:])
            for tail_fraction in (0.5, 0.25, 0.1, 1.0):
                want = tail_estimate(csum[1:] / ns, tail_fraction, 1.0).value
                got = tail_mean_density(csum, tail_fraction)
                assert got.hex() == want.hex(), (pattern, tail_fraction)
