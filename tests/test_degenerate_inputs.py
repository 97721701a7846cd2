"""Short paths and constant paths at large magnitude: a clear error or a
report, never an internal exception."""

import math
import warnings

import numpy as np
import pytest

from pathstat.cli import main
from pathstat.contraction import (
    alternating_family,
    build_alternating_contraction,
    ergodicity_diagnostic,
)
from pathstat.generators import generate, parse_spec
from pathstat.pathcore import Path, write_path
from pathstat.properties import grid_family, quantile_edges, scan_property_e
from pathstat.suite import report_dict, run_suite

TOO_SHORT = "too short for the contraction family"


@pytest.mark.parametrize("length", range(1, 65))
def test_every_short_length_reports_or_says_too_short(length):
    # the default family needs at least 11 values
    path = generate(parse_spec(f"ar1(0.5),L={length},seed=3"))
    if length <= 10:
        with pytest.raises(ValueError, match=f"length {length} is {TOO_SHORT}"):
            run_suite(path)
    else:
        report_dict(run_suite(path))


def test_too_short_follows_the_configured_densities():
    # at c = 0.9 the phase-1 contraction's second block (from index 12) is
    # shorter than its first of 9 below 21 values; c = 0.5 needs only
    # the 10 values every alternating contraction needs
    for c, shortest in ((0.9, 21), (0.5, 10)):
        for length in range(1, 41):
            if length < shortest:
                with pytest.raises(ValueError):
                    for phase in (0, 1):
                        build_alternating_contraction(c, length, phase)
            else:
                for phase in (0, 1):
                    build_alternating_contraction(c, length, phase)


def test_short_path_passes_with_explicit_family():
    path = generate(parse_spec("ar1(0.5),L=5,seed=3"))
    result = run_suite(path, family=())
    assert result.ergodicity.verdict == "ConsistentWithErgodic"


@pytest.mark.parametrize("length", [1, 10])
def test_analyze_short_file_exits_1_with_message(tmp_path, capsys, length):
    source = tmp_path / "short.txt"
    write_path(np.arange(length, dtype=float), str(source))
    assert main(["analyze", str(source), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"path of length {length} is {TOO_SHORT}" in err


@pytest.mark.parametrize("k_max, message", [
    (3, "no grid of order 3"), (0, "k_max must be at least 1"),
    (-1, "k_max must be at least 1")])
def test_a_missing_grid_order_is_named(k_max, message):
    path = generate(parse_spec("ar1(0.5),L=200,seed=3"))
    grids = grid_family(quantile_edges(path.values), 2)
    family = alternating_family(path.length)
    with pytest.raises(ValueError, match=f"^{message}$"):
        scan_property_e(path, k_max, grids)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ergodicity_diagnostic(path, family, grids, k_max)
    # grids without order 1 name the first order missing
    with pytest.raises(ValueError, match="^no grid of order 1$"):
        scan_property_e(path, 2, {2: grids[2]})


@pytest.mark.parametrize("c", [2.0, 1e16, -3e17, 1e300])
def test_constant_path_at_any_magnitude(c):
    path = Path(np.full(1000, c))
    edges = quantile_edges(path.values)
    assert all(a < b for a, b in zip(edges, edges[1:]))
    assert edges[1] < c < edges[2]
    report = report_dict(run_suite(path))
    assert report["propertyE"]["pass"]
    assert report["ergodicity"]["verdict"] == "ConsistentWithErgodic"


def test_constant_fallback_keeps_half_width():
    assert quantile_edges(np.full(1000, 2.0)) == (-math.inf, 1.5, 2.5, math.inf)


@pytest.mark.parametrize("c", [1e308, 1.7e308, np.finfo(float).max])
def test_alternating_path_at_the_edge_of_the_float_range(c):
    # interpolated quantile cuts between -c and c overflow; the finite cuts
    # still make a grid, and no overflow warning escapes
    path = Path(np.tile([c, -c], 500))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert quantile_edges(path.values) == (-math.inf, -c, c, math.inf)
        report = report_dict(run_suite(path))
    assert report["propertyE"]["pass"]
    assert not report["propertyT"]["verdict"]


HUGE = np.finfo(float).max
FLOAT_LIMIT_PATHS = {
    "largest": [HUGE] * 50,
    "most_negative": [-HUGE] * 50,
    "largest_and_one_negative": [HUGE] * 22 + [-HUGE],
}


@pytest.mark.parametrize("values", FLOAT_LIMIT_PATHS.values(),
                         ids=FLOAT_LIMIT_PATHS)
def test_a_centre_at_the_float_limit_keeps_its_finite_cut(tmp_path, values):
    # the fallback cut past the largest float is dropped, with no overflow
    # warning: one finite cut, two cells
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edges = quantile_edges(np.array(values))
    assert len(edges) == 3 and math.isfinite(edges[1])
    assert edges[0] < edges[1] < edges[2]
    source = tmp_path / "limit.txt"
    write_path(np.array(values), str(source))
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", str(source), "--out-dir", str(out_dir)]) \
            in (0, 2)
    assert (out_dir / "report.json").is_file()
