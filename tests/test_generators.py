import math

import numpy as np
import pytest

from pathstat.generators import (
    KINDS,
    ExpectedProfile,
    GeneratorSpec,
    expected_profile,
    format_spec,
    generate,
    generate_rows,
    parse_spec,
)


def test_constant():
    path = generate(GeneratorSpec("constant", length=5, params={"c": 2}))
    assert path.values.tolist() == [2.0] * 5


def test_monotone():
    path = generate(GeneratorSpec("monotone", length=4, params={"slope": 1}))
    assert path.values.tolist() == [0.0, 1.0, 2.0, 3.0]


def test_sine_quarter_period():
    spec = GeneratorSpec("sine", length=8, params={"theta": math.pi / 2})
    path = generate(spec)
    expected = [0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0]
    assert np.allclose(path.values, expected, atol=1e-12)


def test_stochastic_kinds_require_seed():
    with pytest.raises(ValueError, match="seed"):
        generate(GeneratorSpec("iid_normal", length=10))


def test_reproducibility_and_seed_sensitivity():
    for kind, params in [("iid_normal", {}), ("ar1", {"rho": 0.5}),
                         ("block_mixture", {}), ("random_phase_sine", {"theta": 1.3}),
                         ("unique_peak", {})]:
        a = generate(GeneratorSpec(kind, length=200, seed=42, params=params))
        b = generate(GeneratorSpec(kind, length=200, seed=42, params=params))
        c = generate(GeneratorSpec(kind, length=200, seed=43, params=params))
        assert np.array_equal(a.values, b.values), kind
        assert not np.array_equal(a.values, c.values), kind


def test_ar1_stationary_moments():
    spec = GeneratorSpec("ar1", length=200000, seed=1, params={"rho": 0.5})
    x = generate(spec).values
    target_var = 1.0 / (1.0 - 0.25)
    assert np.var(x) == pytest.approx(target_var, rel=0.03)
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert lag1 == pytest.approx(0.5, abs=0.01)


def test_ar1_parameter_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("ar1", length=10, seed=0, params={"rho": 1.0})
    with pytest.raises(ValueError):
        GeneratorSpec("ar1", length=10, seed=0, params={"rho": 0.5, "sigma": 0.0})
    with pytest.raises(ValueError):
        GeneratorSpec("sine", length=10, params={"theta": 7.0})


def test_unique_peak_structure():
    spec = GeneratorSpec("unique_peak", length=1001, seed=8)
    x = generate(spec).values
    peak_at = 1001 // 2
    assert x[peak_at] == 10.0
    others = np.delete(x, peak_at)
    assert np.all(np.abs(others) < 4.0)
    assert x[peak_at] > others.max()  # the sup is attained exactly once


def test_block_mixture_layout():
    spec = GeneratorSpec("block_mixture", length=12, seed=0,
                         params={"noise_sigma": 0.0})
    x = generate(spec).values
    # blocks: a(1) b(1) a(2) b(2) a(3) b(3) truncated at 12
    expected = [0, 5, 0, 0, 5, 5, 0, 0, 0, 5, 5, 5]
    assert x.tolist() == expected


def test_block_mixture_levels_must_differ():
    with pytest.raises(ValueError):
        GeneratorSpec("block_mixture", length=10, seed=0,
                      params={"level_a": 1.0, "level_b": 1.0})


def test_random_phase_sine_arcsine_marginal():
    # the ensemble of x_0 over seeds follows the arcsine law on (-1, 1)
    from scipy.stats import arcsine

    x0 = np.array([
        generate(GeneratorSpec("random_phase_sine", length=1, seed=s,
                               params={"theta": 1.0})).values[0]
        for s in range(1000)
    ])
    edges = np.array([-0.9, -0.5, 0.0, 0.5, 0.9])
    for lo, hi in zip(edges, edges[1:]):
        observed = np.mean((x0 > lo) & (x0 < hi))
        expected = arcsine.cdf((hi + 1) / 2) - arcsine.cdf((lo + 1) / 2)
        assert observed == pytest.approx(expected, abs=0.03)


def test_expected_profiles():
    # (property E, property T, ergodicity); None asserts nothing
    assert expected_profile(GeneratorSpec("constant", length=10)) == \
        ExpectedProfile(True, True, True)
    assert expected_profile(GeneratorSpec("monotone", length=10)) == \
        ExpectedProfile(False, False, None)
    assert expected_profile(GeneratorSpec("unique_peak", length=10,
                                          seed=0)) == \
        ExpectedProfile(False, True, None)
    assert expected_profile(GeneratorSpec("block_mixture", length=10,
                                          seed=0)) == \
        ExpectedProfile(True, True, False)


def test_parse_spec_roundtrip():
    spec = parse_spec("ar1(0.5),L=1000,seed=7")
    assert spec.kind == "ar1" and spec.length == 1000 and spec.seed == 7
    assert spec.params["rho"] == 0.5 and spec.params["sigma"] == 1.0
    again = parse_spec(format_spec(spec))
    assert again == spec


def test_format_spec_keeps_every_digit_a_path_needs():
    theta = math.sqrt(2.0)
    spec = GeneratorSpec("random_phase_sine", length=50, seed=3,
                         params={"theta": theta})
    text = format_spec(spec)
    assert text == f"random_phase_sine(theta={theta!r}),L=50,seed=3"
    again = parse_spec(text)
    assert again == spec
    assert np.array_equal(generate(again).values, generate(spec).values)
    # a value that six digits hold keeps its short form
    assert format_spec(parse_spec("ar1(0.5),L=10")) == \
        "ar1(sigma=1,rho=0.5),L=10"


def test_parse_spec_named_arguments():
    spec = parse_spec("sine(theta=1.5707963267948966,phi0=0),L=8")
    assert spec.params["theta"] == pytest.approx(math.pi / 2)


def test_parse_spec_errors():
    with pytest.raises(ValueError):
        parse_spec("nope(1),L=10")
    with pytest.raises(ValueError):
        parse_spec("constant(2)")  # missing L
    with pytest.raises(ValueError):
        parse_spec("constant(1,2,3),L=10")
    # a parameter, the length or the seed given twice is named, not
    # overwritten by the later value
    for text, name in (("ar1(0.5,rho=0.3),L=10", "rho"),
                       ("ar1(rho=0.5,rho=0.3),L=10", "rho"),
                       ("ar1(0.5),rho=0.3,L=10", "rho"),
                       ("sine(theta=1.5,0),L=10", "theta"),
                       ("ar1(0.5),L=5,L=10", "L"),
                       ("ar1(0.5),L=5,length=10", "L"),
                       ("ar1(0.5),length=5,length=5", "L"),
                       ("ar1(0.5),L=10,seed=1,seed=2", "seed")):
        with pytest.raises(ValueError, match=f"gives {name} twice"):
            parse_spec(text)


@pytest.mark.parametrize("text, message", [
    ("iid_normal(0,1),L=1e5", "L must be an integer, got '1e5'"),
    ("iid_normal(0,1),L=10,seed=1.5", "seed must be an integer, got '1.5'"),
    ("iid_normal(0,x),L=10", "sigma must be a number, got 'x'"),
    ("iid_normal(mu=y),L=10", "mu must be a number, got 'y'"),
], ids=["length", "seed", "positional-parameter", "keyword-parameter"])
def test_parse_spec_names_the_key_and_the_spec(text, message):
    with pytest.raises(ValueError) as err:
        parse_spec(text)
    assert str(err.value) == f"generator spec {text!r}: {message}"


@pytest.mark.parametrize("text, message", [
    ("iid_normal(0,nan),L=10,seed=1", "iid_normal parameter 'sigma' must be "
                                      "finite, got nan"),
    ("block_mixture(0,5,nan),L=10,seed=1", "block_mixture parameter "
                                           "'noise_sigma' must be finite, "
                                           "got nan"),
    ("block_mixture(nan,5),L=10,seed=1", "block_mixture parameter "
                                         "'level_a' must be finite, got nan"),
    ("ar1(0.5,inf),L=10,seed=1", "ar1 parameter 'sigma' must be finite, "
                                 "got inf"),
    ("constant(inf),L=10", "constant parameter 'c' must be finite, got inf"),
    ("monotone(slope=-inf),L=10", "monotone parameter 'slope' must be "
                                  "finite, got -inf"),
    ("sine(nan),L=10", "sine parameter 'theta' must be finite, got nan"),
])
def test_non_finite_parameters_are_named_at_the_spec(text, message):
    with pytest.raises(ValueError) as err:
        parse_spec(text)
    assert str(err.value) == message


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_parameter_check_fails_on_nan(kind):
    params = {name: math.nan for name in KINDS[kind].params}
    assert not any(check.holds(params) for check in KINDS[kind].checks)


def test_generate_rows_looks_up_the_kind_once(monkeypatch):
    calls = []

    class Recording(dict):
        def __getitem__(self, key):
            calls.append(key)
            return super().__getitem__(key)

    spec = GeneratorSpec("iid_normal", length=4)
    monkeypatch.setattr("pathstat.generators.KINDS", Recording(KINDS))
    assert generate_rows(spec, range(50)).shape == (50, 4)
    assert calls == ["iid_normal"]
