from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from pathstat.config import AnalysisConfig
from pathstat.generators import GeneratorSpec, generate, parse_spec
from pathstat.pathcore import Path
from pathstat.stattests import (
    BUILTIN_KINDS,
    TEST_SLACK,
    CalibrationError,
    RejectionRecord,
    apply_moving_window,
    asymptotic_suite,
    calibrate_test_size,
    make_builtin_test,
    rejection_upper_density,
)

CONFIG = AnalysisConfig()
Z95 = norm.ppf(0.95)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_builtin_test("dickey_fuller", 20, 0.5, 0.05)


def test_threshold_test_decides_on_window_mean():
    test = make_builtin_test("threshold_exceedance", 4, tau=0.5, alpha=0.05)
    assert test.decide(np.array([1.0, 1.0, 0.0, 1.0])) == 1
    assert test.decide(np.array([0.0, 1.0, 0.0, 1.0])) == 0   # mean = tau: accept
    assert test.decide(np.zeros(4)) == 0


@pytest.mark.parametrize("start, stride", [(0, 1), (41, 3)])
@pytest.mark.parametrize("kind", ["variance_split", "kpss_like"])
def test_a_statistic_that_is_not_finite_is_refused(kind, start, stride):
    # squares of N(0, 1e300) values overflow at every window: the batched
    # and the window-by-window forms both refuse the first, with no warning
    path = generate(parse_spec("iid_normal(0,1e300),L=200,seed=1"))
    test = make_builtin_test(kind, 20, 0.5, 0.05)
    message = f"^statistic '{kind}' is not finite at offset {start}$"
    with pytest.raises(ValueError, match=message):
        apply_moving_window(path, test, start, stride)
    with pytest.raises(ValueError, match=message):
        apply_moving_window(path, replace(test, batch_decide=None), start,
                            stride)
    with pytest.raises(ValueError, match=f"^statistic '{kind}' is not "
                                         f"finite$"):
        test.decide(path.values[:20])


def test_mean_split_constant_window_accepts():
    test = make_builtin_test("mean_split", 10, tau=1e-9, alpha=0.05)
    assert test.decide(np.full(10, 3.7)) == 0


def test_variance_split_zero_threshold_rejects_unequal_halves():
    test = make_builtin_test("variance_split", 6, tau=0.0, alpha=0.05)
    window = np.array([0.0, 0.0, 0.0, 1.0, -1.0, 0.5])
    assert test.decide(window) == 1
    assert test.decide(np.ones(6)) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_variance_split_needs_two_values_per_half(n):
    message = "'variance_split' needs a window of at least n = 4"
    with pytest.raises(ValueError, match=message):
        make_builtin_test("variance_split", n, tau=0.1, alpha=0.05)
    gen = GeneratorSpec("iid_normal", length=n)
    with pytest.raises(ValueError, match=message):
        calibrate_test_size("variance_split", n, 0.05, gen, replicates=1000)
    assert make_builtin_test("variance_split", 4, 0.1, 0.05).window == 4
    assert calibrate_test_size("variance_split", 4, 0.05,
                               GeneratorSpec("iid_normal", length=4),
                               replicates=1000).tau > 0


def test_kpss_like_hand_value():
    # window (0, 1): e = (-1/2, 1/2), partial sums (-1/2, 0),
    # variance 1/4 -> statistic = (1/4) / (4 * 1/4) = 1/4
    from pathstat.stattests import builtin_statistic
    stat = builtin_statistic("kpss_like")
    assert stat(np.array([0.0, 1.0])) == pytest.approx(0.25)
    assert stat(np.full(8, 2.0)) == 0.0


def test_threshold_size_under_iid_normal():
    test = make_builtin_test("threshold_exceedance", 20, tau=Z95 / np.sqrt(20),
                             alpha=0.05)
    rng = np.random.default_rng(0)
    rejections = sum(test.decide(rng.standard_normal(20)) for _ in range(4000))
    assert rejections / 4000 == pytest.approx(0.05, abs=0.012)


@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
def test_batch_decide_matches_scalar(kind):
    rng = np.random.default_rng(7)
    values = rng.standard_normal(500)
    n = 16
    test = make_builtin_test(kind, n, tau=0.1, alpha=0.05)
    batch = test.batch_decide(values, slice(0, values.size - n + 1))
    loop = np.array([test.decide(values[i:i + n])
                     for i in range(values.size - n + 1)], dtype=np.uint8)
    assert np.array_equal(batch, loop)


def test_batch_decide_refuses_descending_starts():
    test = make_builtin_test("mean_split", 16, tau=0.1, alpha=0.05)
    with pytest.raises(ValueError, match="ascend"):
        test.batch_decide(np.zeros(100), slice(None, None, -1))


def test_apply_constant_path_never_rejects():
    path = Path(np.full(5000, 2.0))
    test = make_builtin_test("threshold_exceedance", 20, tau=3.0, alpha=0.05)
    record = apply_moving_window(path, test)
    assert record.upper_density == 0.0
    assert not record.indicators.any()


def test_apply_trend_path_always_rejects():
    path = Path(np.arange(5000, dtype=float))
    test = make_builtin_test("mean_split", 20, tau=0.5, alpha=0.05)
    record = apply_moving_window(path, test)
    assert record.upper_density == 1.0
    assert record.indicators.all()


def test_apply_is_deterministic():
    path = generate(GeneratorSpec("iid_normal", length=4000, seed=3))
    test = make_builtin_test("kpss_like", 50, tau=0.4, alpha=0.05)
    a = apply_moving_window(path, test, start=3, stride=2)
    b = apply_moving_window(path, test, start=3, stride=2)
    assert np.array_equal(a.indicators, b.indicators)
    assert a.upper_density == b.upper_density
    assert a.tail_profile == b.tail_profile


def test_apply_window_must_fit():
    path = Path(np.zeros(10))
    test = make_builtin_test("threshold_exceedance", 20, tau=0.0, alpha=0.05)
    with pytest.raises(ValueError):
        apply_moving_window(path, test)


@pytest.mark.parametrize("start, stride, field", [
    (-1, 1, "start"), (0, 0, "stride"), (3, -2, "stride"),
])
def test_record_offsets_must_ascend_from_zero_or_more(start, stride, field):
    """The indicator CSV encoder relies on ascending, non-negative offsets."""
    with pytest.raises(ValueError, match=f"RejectionRecord {field}"):
        RejectionRecord("t", 10, 0.05, start, stride, np.zeros(3, np.uint8),
                        0.0, ())


def test_upper_density_edge_sequences():
    assert rejection_upper_density(np.zeros(100, dtype=np.uint8)) == 0.0
    assert rejection_upper_density(np.ones(100, dtype=np.uint8)) == 1.0
    alternating = np.tile([0, 1], 500)
    ud = rejection_upper_density(alternating)
    assert ud == pytest.approx(0.5, abs=1 / 125)
    with pytest.raises(ValueError):
        rejection_upper_density(np.array([], dtype=np.uint8))


def test_upper_density_bursty_tail_is_caught():
    # all rejections packed into the final eighth; window=1 keeps every rung
    ind = np.zeros(80000, dtype=np.uint8)
    ind[-10000:] = 1
    assert rejection_upper_density(ind, window=1) == 1.0


@given(st.lists(st.floats(-2, 2), min_size=60, max_size=200),
       st.floats(0.1, 0.5), st.floats(0.51, 1.5))
def test_raising_tau_never_raises_density(values, tau_lo, tau_hi):
    path = Path(np.array(values))
    lo = make_builtin_test("kpss_like", 20, tau=tau_lo, alpha=0.05)
    hi = make_builtin_test("kpss_like", 20, tau=tau_hi, alpha=0.05)
    rec_lo = apply_moving_window(path, lo)
    rec_hi = apply_moving_window(path, hi)
    assert np.all(rec_hi.indicators <= rec_lo.indicators)
    assert rec_hi.upper_density <= rec_lo.upper_density


# ---------------------------------------------------------------------------
# asymptotic suite

def test_suite_requires_sorted_windows():
    path = Path(np.zeros(100))
    tests = [make_builtin_test("threshold_exceedance", n, 1.0, 0.05)
             for n in (20, 10)]
    with pytest.raises(ValueError):
        asymptotic_suite(path, tests)


def test_suite_trend_summary():
    path = generate(GeneratorSpec("iid_normal", length=200000, seed=4))
    tests = [make_builtin_test("threshold_exceedance", n, Z95 / np.sqrt(n), 0.05)
             for n in (10, 20, 50)]
    result = asymptotic_suite(path, tests, epsilon=0.01)
    assert result.stabilization_n in (10, 20, 50)
    for record in result.records:
        assert record.upper_density <= 0.06


def test_suite_power_against_trend():
    path = Path(np.arange(100000, dtype=float))
    tests = [make_builtin_test("mean_split", n, 2 * 1.96 / np.sqrt(n), 0.05)
             for n in (10, 20, 50)]
    result = asymptotic_suite(path, tests, epsilon=0.01)
    densities = [r.upper_density for r in result.records]
    assert densities == sorted(densities)
    assert densities[-1] == 1.0
    assert result.stabilization_n is None


# ---------------------------------------------------------------------------
# calibration

def test_calibrate_threshold_matches_gaussian_quantile():
    gen = GeneratorSpec("iid_normal", length=20)
    result = calibrate_test_size("threshold_exceedance", 20, 0.05, gen,
                                 replicates=4000, seed=1)
    assert result.tau == pytest.approx(Z95 / np.sqrt(20), abs=0.03)
    assert result.stderr > 0
    test = make_builtin_test(result.kind, result.window, result.tau,
                             result.alpha)
    assert test.window == 20 and test.params["tau"] == result.tau


def test_calibrate_degenerate_statistic_fails():
    gen = GeneratorSpec("constant", length=10, params={"c": 1.0})
    with pytest.raises(CalibrationError):
        calibrate_test_size("mean_split", 10, 0.05, gen, replicates=1000, seed=0)


@pytest.mark.parametrize("kind", ["variance_split", "kpss_like"])
def test_calibrate_overflowing_statistic_fails(kind):
    # squares of N(0, 1e300) values overflow: no tau, and no warning
    gen = parse_spec("iid_normal(0,1e300),L=10")
    with pytest.raises(CalibrationError,
                       match=f"^statistic '{kind}' is not finite under "
                             f"'iid_normal' in 1000 of 1000 replicates$"):
        calibrate_test_size(kind, 10, 0.05, gen, replicates=1000, seed=0)


def test_calibrate_kpss_self_consistency_across_seeds():
    gen = GeneratorSpec("iid_normal", length=100)
    a = calibrate_test_size("kpss_like", 100, 0.05, gen, replicates=4000, seed=1)
    b = calibrate_test_size("kpss_like", 100, 0.05, gen, replicates=4000, seed=2)
    assert abs(a.tau - b.tau) <= 0.1 * max(a.tau, b.tau)


def test_calibrate_requires_enough_replicates():
    gen = GeneratorSpec("iid_normal", length=20)
    with pytest.raises(ValueError):
        calibrate_test_size("threshold_exceedance", 20, 0.05, gen,
                            replicates=100, seed=0)


@pytest.mark.parametrize("window", [0, 1])
@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
def test_calibrate_rejects_windows_below_two(kind, window):
    gen = GeneratorSpec("iid_normal", length=20)
    with pytest.raises(ValueError, match="window size must be at least 2"):
        calibrate_test_size(kind, window, 0.05, gen, replicates=1000, seed=0)


# ---------------------------------------------------------------------------
# size soundness and offset genericity at desk scale

def test_size_soundness_calibrated_kpss_on_ar1():
    gen = GeneratorSpec("ar1", length=50, params={"rho": 0.5})
    calibration = calibrate_test_size("kpss_like", 50, 0.05, gen,
                                      replicates=4000, seed=10)
    test = make_builtin_test(calibration.kind, calibration.window, calibration.tau,
                             calibration.alpha)
    exceed = 0
    n_seeds = 20
    for s in range(n_seeds):
        path = generate(GeneratorSpec("ar1", length=200000, seed=1000 + s,
                                      params={"rho": 0.5}))
        record = apply_moving_window(path, test, config=CONFIG)
        exceed += record.upper_density > 0.05 + TEST_SLACK
    assert exceed <= 1  # at least 95% of seeds within the bound


def test_offset_genericity_iid():
    path = generate(GeneratorSpec("iid_normal", length=100000, seed=6))
    test = make_builtin_test("threshold_exceedance", 20, Z95 / np.sqrt(20), 0.05)
    bad = 0
    for offset in range(20):
        record = apply_moving_window(path, test, start=offset, config=CONFIG)
        bad += record.upper_density > 0.05 + 0.02
    assert bad / 20 <= 0.1
