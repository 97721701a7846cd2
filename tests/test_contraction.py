import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathstat.config import AnalysisConfig
from pathstat.contraction import (
    CONTRACTION_DENSITIES,
    Contraction,
    _positions,
    adversarial_contraction,
    build_alternating_contraction,
    contract_path,
    contracted_codes,
    coverage_ratios,
    default_contraction_family,
    ergodicity_diagnostic,
    table_ergodicity,
    validate_contraction,
)
from pathstat.generators import GeneratorSpec, generate, parse_spec
from pathstat.pathcore import (
    IntervalPattern,
    Path,
    density_trajectory,
    estimate_limit_density,
    occurrence_set,
)
from pathstat.suite import run_suite
from pathstat.properties import (
    PatternGrid,
    cell_table,
    grid_family,
    quantile_edges,
)

CONFIG = AnalysisConfig()


def mixture_path(length=50000, seed=0):
    return generate(GeneratorSpec("block_mixture", length=length, seed=seed))


def _bounds(blocks):
    b = np.array(blocks, dtype=np.int64).reshape(-1, 2)
    return b[:, 0], b[:, 1]


def _membership_coverage(blocks, horizon):
    """|[0, n-1] ∩ G| / n from the set of indices the blocks cover."""
    kept = np.concatenate([np.arange(s, e + 1) for s, e in blocks])
    member = np.isin(np.arange(horizon), kept)
    return np.cumsum(member) / np.arange(1, horizon + 1)


# ---------------------------------------------------------------------------
# construction and validation

def test_alternating_half_coverage():
    c = build_alternating_contraction(0.5, 100000)
    ratios = coverage_ratios(c, 100000)
    assert ratios[-1] == pytest.approx(0.5, abs=0.01)
    est = validate_contraction(c, 100000, CONFIG)
    assert est.passed
    assert est.coverage.value == pytest.approx(0.5, abs=0.01)


def test_alternating_full_inclusion():
    c = build_alternating_contraction(1.0, 1000)
    assert c.blocks == ((0, 999),)
    assert np.all(coverage_ratios(c, 1000) == 1.0)
    assert validate_contraction(c, 1000, CONFIG).passed


@pytest.mark.parametrize("blocks, horizon", [
    (((2, 5), (9, 20), (30, 40)), 15),  # the horizon cuts a block
    (((0, 3), (10, 12), (15, 19), (22, 30)), 15),  # blocks at or past it
    (((0, 99),), 100),  # one full block
])
def test_coverage_equals_set_membership(blocks, horizon):
    got = coverage_ratios(Contraction(*_bounds(blocks), 0.5), horizon)
    assert np.array_equal(got, _membership_coverage(blocks, horizon))


def test_alternating_phase_shifts_blocks():
    a = build_alternating_contraction(0.5, 50000, phase=0)
    b = build_alternating_contraction(0.5, 50000, phase=1)
    assert a.blocks != b.blocks
    est_b = validate_contraction(b, 50000, CONFIG)
    assert est_b.coverage.value == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize("c", [0.2, 0.8])
def test_alternating_other_densities(c):
    contraction = build_alternating_contraction(c, 200000)
    assert validate_contraction(contraction, 200000, CONFIG).passed


def test_alternating_infeasible_horizon():
    with pytest.raises(ValueError):
        build_alternating_contraction(0.5, 5)


def _alternating_loop(target_c, horizon, phase=0):
    """The blocks of ``build_alternating_contraction``, one m at a time:
    block m of length max(1, round(m*c/(1-c))) after (phase 1) or before
    (phase 0) a gap of m."""
    if target_c == 1.0:
        return ((0, horizon - 1),)
    blocks = []
    pos = 0
    m = 1
    while pos < horizon:
        block_len = max(1, round(m * target_c / (1.0 - target_c)))
        if phase == 1:
            pos += m  # leading gap
        if pos < horizon:
            end = min(pos + block_len, horizon) - 1
            # a truncated final block shorter than its predecessor is dropped
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
    return tuple(blocks)


LOOP_DENSITIES = (0.05, 0.2, 1 / 3, 0.5, 0.8, 0.9, 1.0)


@pytest.mark.parametrize("horizons", [
    range(10, 601), (100_000, 123_457, 1_000_000, 1_000_003)],
    ids=["10-600", "large"])
def test_alternating_builder_equals_the_per_block_loop(horizons):
    for horizon in horizons:
        for c in LOOP_DENSITIES:
            for phase in (0, 1):
                try:
                    want = _alternating_loop(c, horizon, phase)
                except ValueError as exc:
                    with pytest.raises(ValueError,
                                       match=f"^{re.escape(str(exc))}$"):
                        build_alternating_contraction(c, horizon, phase)
                    continue
                got = build_alternating_contraction(c, horizon, phase)
                assert got.blocks == want, (horizon, c, phase)
                assert got.target_density == c
                assert got.label == f"alternating(c={c:g},phase={phase})"


@pytest.mark.parametrize("horizon", [10, 11, 37, 1_000, 100_000, 1_000_003])
def test_alternating_family_positions_follow_the_blocks(horizon):
    for c in CONTRACTION_DENSITIES + (1.0,):
        for phase in (0, 1):
            try:
                blocks = _alternating_loop(c, horizon, phase)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    build_alternating_contraction(c, horizon, phase)
                continue
            built = build_alternating_contraction(c, horizon, phase)
            kept = np.concatenate([np.arange(s, e + 1) for s, e in blocks])
            assert np.array_equal(_positions(built, horizon), kept)
            assert np.array_equal(contract_path(
                Path(np.arange(horizon, dtype=float)), built).values, kept)
            assert built.to_json_dict()["blocks"] == \
                [[s, e] for s, e in blocks]


def test_contraction_reads_blocks_and_json_off_its_arrays():
    c = Contraction([0, np.int64(6)], np.array([3.0, 9.0]), 0.5, label="x")
    assert c.blocks == ((0, 3), (6, 9))
    assert all(type(v) is int for block in c.blocks for v in block)
    assert c.starts.tolist() == [0, 6] and c.ends.tolist() == [3, 9]
    assert c.lengths.tolist() == [4, 4]
    assert c.starts.dtype == c.ends.dtype == c.lengths.dtype == np.int64
    assert c.to_json_dict() == {"blocks": [[0, 3], [6, 9]],
                                "target_density": 0.5, "label": "x"}


def test_contraction_copies_the_arrays_read_only():
    starts, ends = np.array([0, 6]), np.array([3, 9])
    c = Contraction(starts, ends, 0.5)
    assert not c.starts.flags.writeable and not c.ends.flags.writeable
    assert starts.flags.writeable and ends.flags.writeable
    starts[0] = ends[0] = 1  # the caller's arrays are left as they were
    assert c.blocks == ((0, 3), (6, 9))
    with pytest.raises(ValueError):
        c.starts[0] = 1


BAD_BLOCKS = [
    (((0, 3), (7, 6)), r"bad block \[7, 6\]"),
    (((-1, 3),), r"bad block \[-1, 3\]"),
    ((), "at least one block"),
    (((0, 9), (5, 14)), r"bad block \[5, 14\]"),  # overlapping
    (((10, 12), (0, 3)), r"bad block \[0, 3\]"),  # out of order
    (((0, 4), (4, 6)), r"bad block \[4, 6\]"),  # sharing index 4
]


@pytest.mark.parametrize("blocks, message", BAD_BLOCKS)
def test_contraction_rejects_bad_blocks(blocks, message):
    with pytest.raises(ValueError, match=message):
        Contraction(*_bounds(blocks), 0.5)


@pytest.mark.parametrize("density", [0.0, 1.5, math.nan])
def test_contraction_rejects_a_density_outside_the_unit_interval(density):
    with pytest.raises(ValueError, match=r"target density must be in \(0, 1\]"):
        Contraction([0], [3], density)


@pytest.mark.parametrize("starts, ends", [
    (np.array([0, 5]), np.array([9])),  # of two lengths
    (np.array([[0, 5]]), np.array([[3, 9]])),  # two-dimensional
    (np.array(0), np.array(3)),  # zero-dimensional
], ids=["mismatched", "2-D", "0-D"])
def test_contraction_rejects_arrays_of_another_shape(starts, ends):
    with pytest.raises(ValueError, match="one-dimensional and of one length"):
        Contraction(starts, ends, 0.5)


@given(st.lists(st.tuples(st.integers(-2, 40), st.integers(0, 8)),
                min_size=1, max_size=12))
def test_contraction_constructs_exactly_on_ordered_disjoint_blocks(pairs):
    """Blocks of (start, length): each non-empty and starting after the end
    of the block before it, the first at 0 or later."""
    starts = np.array([s for s, _ in pairs])
    ends = np.array([s + n - 1 for s, n in pairs])
    ordered = all(n >= 1 for _, n in pairs) and starts[0] >= 0 and \
        bool(np.all(starts[1:] > ends[:-1]))
    if ordered:
        Contraction(starts, ends, 0.5)
    else:
        with pytest.raises(ValueError, match=r"^bad block \["):
            Contraction(starts, ends, 0.5)


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 8)),
                min_size=1, max_size=12),
       st.integers(0, 5))
def test_blocks_json_lengths_coverage_and_path_agree(pairs, extra):
    """Every form read off the two arrays describes the same blocks, in
    order, abutting or not; the contracted copy holds each covered index
    once."""
    gaps = np.array([g for g, _ in pairs])
    lengths = np.array([n for _, n in pairs])
    ends = np.cumsum(gaps + lengths) - 1
    starts = ends - lengths + 1
    c = Contraction(starts, ends, 0.5, label="h")
    blocks = tuple(zip(starts.tolist(), ends.tolist()))
    assert c.blocks == blocks
    assert c.to_json_dict()["blocks"] == [list(b) for b in blocks]
    assert c.lengths.tolist() == [n for _, n in pairs]
    horizon = int(ends.max()) + 1 + extra
    assert np.array_equal(coverage_ratios(c, horizon),
                          _membership_coverage(blocks, horizon))
    kept = np.concatenate([np.arange(s, e + 1) for s, e in blocks])
    path = Path(np.arange(horizon, dtype=float))
    contracted = contract_path(path, c)
    assert np.array_equal(contracted.values, kept)
    covered = round(coverage_ratios(c, horizon)[-1] * horizon)
    assert contracted.length == covered
    table = cell_table(path, grid_family(quantile_edges(path.values, 4), 1),
                       CONFIG)
    assert contracted_codes(table, c).size == covered


def test_validation_catches_bounded_blocks():
    # length-1 blocks at even indices: coverage 0.5 but no growth
    blocks = tuple((2 * i, 2 * i) for i in range(5000))
    c = Contraction(*_bounds(blocks), 0.5)
    report = validate_contraction(c, 10000, CONFIG)
    assert report.ordering_ok
    assert not report.growth_ok
    assert not report.passed


def test_contract_path_selects_blocks():
    path = Path(np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
    c = Contraction(*_bounds(((0, 1), (4, 5))), 0.5)
    assert contract_path(path, c).values.tolist() == [0.0, 1.0, 4.0, 5.0]


def test_contract_path_identity_and_constant():
    path = Path(np.arange(10, dtype=float))
    full = Contraction([0], [9], 1.0)
    assert np.array_equal(contract_path(path, full).values, path.values)
    const = Path(np.full(10, 3.0))
    c = Contraction(*_bounds(((1, 2), (5, 8))), 0.6)
    out = contract_path(const, c)
    assert np.all(out.values == 3.0) and out.length == 6


def test_contract_path_out_of_range():
    path = Path(np.arange(10, dtype=float))
    with pytest.raises(ValueError):
        contract_path(path, Contraction([0], [10], 1.0))


@given(st.lists(st.floats(-10, 10), min_size=12, max_size=60),
       st.integers(0, 5))
def test_contract_preserves_values_at_source(values, offset):
    path = Path(np.array(values))
    end = min(offset + 3, len(values) - 1)
    start2 = end + 2
    blocks = [(offset, end)]
    if start2 < len(values):
        blocks.append((start2, len(values) - 1))
    c = Contraction(*_bounds(blocks), 0.5)
    out = contract_path(path, c).values
    source = np.concatenate([path.values[s:e + 1] for s, e in blocks])
    assert np.array_equal(out, source)


# ---------------------------------------------------------------------------
# ergodicity diagnostic

def test_diagnostic_constant_path_consistent():
    path = Path(np.full(20000, 2.0))
    grids = grid_family(quantile_edges(path.values, 8), 2)
    family = [build_alternating_contraction(c, path.length, ph)
              for c in (0.2, 0.5, 0.8) for ph in (0, 1)]
    verdict = ergodicity_diagnostic(path, family, grids, 2, 0.05, CONFIG)
    assert verdict.verdict == "ConsistentWithErgodic"
    assert verdict.worst_discrepancy == 0.0
    assert verdict.offending is None


def test_diagnostic_full_prefix_contraction_self_bound():
    # c = 1 on a prefix: discrepancy bounded by the path's own tail wobble
    path = generate(GeneratorSpec("ar1", length=40000, seed=3,
                                  params={"rho": 0.5}))
    grids = grid_family(quantile_edges(path.values, 8), 1)
    prefix = Contraction([0], [path.length - 1], 1.0)
    verdict = ergodicity_diagnostic(path, [prefix], grids, 1, 0.05, CONFIG)
    assert verdict.worst_discrepancy == 0.0


def test_diagnostic_block_mixture_flags_aligned_cell():
    path = mixture_path(length=100000, seed=4)
    grids = grid_family((-math.inf, -1.0, 1.0, 4.0, 6.0, math.inf), 2)
    family = default_contraction_family(path, grids[1], CONFIG)
    verdict = ergodicity_diagnostic(path, family, grids, 2, 0.05, CONFIG)
    assert verdict.verdict == "NonErgodicEvidence"
    straddle = IntervalPattern.of((4.0, 6.0))
    assert verdict.max_discrepancy_for(straddle) >= 0.4
    assert verdict.offending is not None


@pytest.mark.parametrize("tolerance, message", [
    (math.nan, "must be finite"), (math.inf, "must be finite"),
    (-math.inf, "must be finite"), (0.0, "must be positive"),
    (-1.0, "must be positive")])
def test_diagnostic_tolerance_follows_the_config_rule(tolerance, message):
    # the worst discrepancy here is about 0.50: a NaN or infinite tolerance
    # would pass this path, and a negative one would flag every path
    path = generate(parse_spec("block_mixture(0,5),L=100000,seed=1"))
    grids = grid_family((-math.inf, 2.5, math.inf), 2)
    family = default_contraction_family(path, grids[1], CONFIG)
    verdict = ergodicity_diagnostic(path, family, grids, 2, 0.05, CONFIG)
    assert verdict.verdict == "NonErgodicEvidence"
    assert 0.5 < verdict.worst_discrepancy < 0.51
    with pytest.raises(ValueError,
                       match=f"^ergodicity_tolerance {message}"):
        ergodicity_diagnostic(path, family, grids, 2, tolerance, CONFIG)


SHORT_AR1 = "ar1(0.5),L=11,seed=3"


@pytest.mark.parametrize("k_max, message", [
    (6, "'alternating(c=0.2,phase=0)': pattern order 6 exceeds path "
        "length 4"),
    (4, "'alternating(c=0.2,phase=1)': pattern order 4 exceeds path "
        "length 3"),
])
def test_a_copy_shorter_than_the_top_order_is_refused(k_max, message):
    """A contracted copy meets the table's orders by the table's rule: the
    11-value path holds order 6, its 4-value and 3-value alternating copies
    do not, and the first such copy is named (before, the copy was compared
    at its lower orders only, and this path read NonErgodicEvidence)."""
    path = generate(parse_spec(SHORT_AR1))
    config = AnalysisConfig(k_max=k_max, grid_cells=2)
    with pytest.raises(ValueError,
                       match=f"^contracted copy {re.escape(message)}$"):
        run_suite(path, config)
    # an unlabelled copy is named by its place in the family
    table = cell_table(path, grid_family(quantile_edges(path.values, 2),
                                         k_max), config)
    with pytest.raises(ValueError, match=r"^contracted copy "
                       r"'contraction\[1\]': pattern order"):
        table_ergodicity(table, [Contraction([0], [10], 1.0),
                                 Contraction([0], [2], 0.3)])


def test_copies_as_long_as_the_top_order_are_compared_at_every_order():
    path = generate(parse_spec(SHORT_AR1))
    result = run_suite(path, AnalysisConfig(k_max=3, grid_cells=2))
    orders = {}
    for record in result.ergodicity.records:
        orders.setdefault(record.contraction_label, set()).add(record.k)
    assert len(orders) == 6
    assert all(k == {1, 2, 3} for k in orders.values())


def test_diagnostic_ar1_consistent_with_default_family():
    path = generate(GeneratorSpec("ar1", length=100000, seed=5,
                                  params={"rho": 0.5}))
    grids = grid_family(quantile_edges(path.values, 8), 2)
    family = default_contraction_family(path, grids[1], CONFIG)
    # the default family holds the alternating copies only
    assert all(c.label.startswith("alternating") for c in family)
    verdict = ergodicity_diagnostic(path, family, grids, 2, 0.05, CONFIG)
    assert verdict.verdict == "ConsistentWithErgodic"


# ---------------------------------------------------------------------------
# adversarial construction

def test_adversarial_on_mixture_trace_invariants():
    path = mixture_path(length=100000, seed=1)
    pattern = IntervalPattern.of((4.0, 6.0))
    trace = adversarial_contraction(path, pattern, (4, 8, 16, 32),
                                    threshold=0.75, config=CONFIG)
    assert not trace.failed
    for m in trace.m_schedule:
        v0, v1, v2 = trace.v0[m], trace.v1[m], trace.v2[m]
        assert set(v1.tolist()) <= set(v0.tolist())
        assert set(v2.tolist()) <= set(v1.tolist())
        if v1.size > 1:
            assert np.min(np.diff(v1)) >= m  # disjoint windows
        assert np.all(np.diff(v2) >= m)  # disjoint windows [j, j + m - 1]
    assert trace.result is not None
    assert len(trace.n_markers) == len(trace.m_schedule) - 1


def test_adversarial_on_mixture_concentrates_density():
    path = mixture_path(length=100000, seed=1)
    pattern = IntervalPattern.of((4.0, 6.0))
    trace = adversarial_contraction(path, pattern, (4, 8, 16, 32),
                                    threshold=0.75, config=CONFIG)
    result = trace.result
    assert validate_contraction(result, path.length, CONFIG).passed
    contracted = contract_path(path, result)
    occ = occurrence_set(contracted, pattern)
    traj = density_trajectory(occ, occ.source_horizon)
    concentrated = estimate_limit_density(traj, 0.5, 0.02).value
    global_occ = occurrence_set(path, pattern)
    global_density = estimate_limit_density(
        density_trajectory(global_occ, global_occ.source_horizon), 0.5, 0.02).value
    assert concentrated - global_density >= 0.3


def test_adversarial_constant_path_threshold_one():
    """A pattern that holds at every start has global density 1, which no
    threshold exceeds: every window qualifies and a contraction of them
    concentrates nothing, so the search fails after recording v0."""
    path = Path(np.full(5000, 2.0))
    for pattern in (IntervalPattern.of((1.5, 2.5)),
                    IntervalPattern.of((-math.inf, math.inf))):
        for threshold in (1.0, None):
            trace = adversarial_contraction(path, pattern, (4, 8, 16, 32),
                                            threshold=threshold, config=CONFIG)
            assert trace.failed and trace.result is None
            assert trace.threshold == 1.0
            assert "does not exceed the global density 1.0000" in \
                trace.failure_reason
            # every admissible window qualifies at every stage
            assert {m: v.size for m, v in trace.v0.items()} == \
                {m: path.length - m + 1 for m in (4, 8, 16, 32)}
            assert trace.last_feasible_m == 32


def test_adversarial_iid_fails_or_stays_small():
    path = generate(GeneratorSpec("iid_normal", length=100000, seed=2))
    pattern = IntervalPattern.of((-math.inf, 0.0))  # density about 1/2
    trace = adversarial_contraction(path, pattern, (4, 8, 16, 32, 64),
                                    threshold=0.75, config=CONFIG)
    if trace.failed:
        assert trace.last_feasible_m is None or trace.last_feasible_m <= 64
    else:
        grids = {1: PatternGrid.from_edges((-math.inf, 0.0, math.inf), 1)}
        verdict = ergodicity_diagnostic(path, [trace.result], grids, 1,
                                        0.05, CONFIG)
        assert verdict.worst_discrepancy < 0.05


def test_adversarial_threshold_unreachable_reports_failure():
    rng = np.random.default_rng(0)
    path = Path(rng.standard_normal(5000))
    pattern = IntervalPattern.of((2.0, math.inf))  # density ~0.023
    trace = adversarial_contraction(path, pattern, (32, 64),
                                    threshold=0.9, config=CONFIG)
    assert trace.failed
    assert trace.result is None


def test_adversarial_bad_arguments():
    path = Path(np.zeros(100))
    pattern = IntervalPattern.of((-1.0, 1.0))
    with pytest.raises(ValueError):
        adversarial_contraction(path, pattern, (8, 4), config=CONFIG)
    with pytest.raises(ValueError):
        adversarial_contraction(path, pattern, (4,), threshold=0.5,
                                config=CONFIG)  # below global density 1.0


BAD_SCHEDULES = [(), (8, 4), (4, 4), (0, 4)]


@pytest.mark.parametrize("m_schedule", BAD_SCHEDULES,
                         ids=[f"m_schedule={s}" for s in BAD_SCHEDULES])
def test_bad_m_schedule_is_rejected_by_name(m_schedule):
    path = Path(np.zeros(100))
    pattern = IntervalPattern.of((-1.0, 1.0))
    with pytest.raises(ValueError) as info:
        adversarial_contraction(path, pattern, m_schedule)
    assert str(info.value).startswith("m_schedule must be strictly increasing")


@pytest.mark.parametrize("c", [0.0, 1.5], ids=["c=0.0", "c=1.5"])
def test_alternating_density_outside_the_unit_interval_is_rejected(c):
    with pytest.raises(ValueError, match=r"^target_c must be in \(0, 1\]$"):
        build_alternating_contraction(c, 1000)
