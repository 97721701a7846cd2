"""Every check of ``AnalysisConfig.__post_init__`` names the field it rejects."""

import dataclasses
import math

import pytest

from pathstat.cli import CONFIG_FLAGS
from pathstat.config import DEFAULT_CONFIG, AnalysisConfig

POSITIVE = ("tolerance", "violation_floor_count", "positive_floor_count",
            "t_slack", "ergodicity_tolerance")
UNIT = ("tail_fraction",)

BAD = [
    # every float field is finite
    *[({name: value}, f"{name} must be finite, got {value}")
      for name in UNIT + POSITIVE for value in (math.nan, math.inf, -math.inf)],
    # fractions in (0, 1]
    *[({name: value}, f"{name} must be in (0, 1]")
      for name in UNIT for value in (0.0, -1.0, 1.5)],
    *[({name: value}, f"{name} must be positive")
      for name in POSITIVE for value in (0.0, -1.0)],
    # every integer field is an int, and not a bool
    ({"k_max": math.nan}, "k_max must be an integer, got nan"),
    ({"k_max": True}, "k_max must be an integer, got True"),
    ({"grid_cells": 2.5}, "grid_cells must be an integer, got 2.5"),
    ({"grid_cells": 8.0}, "grid_cells must be an integer, got 8.0"),
    ({"min_rung_windows": math.inf},
     "min_rung_windows must be an integer, got inf"),
    ({"k_max": 0}, "k_max must be at least 1"),
    ({"grid_cells": 1}, "grid_cells must be at least 2"),
    ({"min_rung_windows": 0}, "min_rung_windows must be at least 1"),
]


@pytest.mark.parametrize("fields, message", BAD,
                         ids=[",".join(f"{k}={v}" for k, v in f.items())
                              for f, _ in BAD])
def test_bad_fields_are_rejected_by_name(fields, message):
    with pytest.raises(ValueError) as info:
        AnalysisConfig(**fields)
    assert str(info.value).startswith(message)


def test_the_defaults_and_the_closed_ends_are_accepted():
    assert AnalysisConfig() == DEFAULT_CONFIG
    AnalysisConfig(tail_fraction=1.0, min_rung_windows=1, k_max=1,
                   grid_cells=2)


def test_the_fields_are_the_analysis_flags_and_min_rung_windows():
    # a threshold no front end sets is a constant in the module that reads it
    names = [f.name for f in dataclasses.fields(AnalysisConfig)]
    assert sorted(names) == sorted(CONFIG_FLAGS + ("min_rung_windows",))
