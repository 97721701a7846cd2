"""Every check of ``AnalysisConfig.__post_init__`` names the field it rejects."""

import pytest

from pathstat.config import DEFAULT_CONFIG, AnalysisConfig

POSITIVE = ("tolerance", "violation_floor_count", "positive_floor_count",
            "t_slack", "ergodicity_tolerance")
UNIT = ("tail_fraction",)

BAD = [
    # empty tuples
    *[({name: ()}, f"{name} must not be empty")
      for name in ("contraction_densities", "m_schedule")],
    # fractions in (0, 1]
    *[({name: value}, f"{name} must be in (0, 1]")
      for name in UNIT for value in (0.0, -1.0, 1.5)],
    *[({name: value}, f"{name} must be positive")
      for name in POSITIVE for value in (0.0, -1.0)],
    ({"k_max": 0}, "k_max must be at least 1"),
    ({"grid_cells": 1}, "grid_cells must be at least 2"),
    ({"min_rung_windows": 0}, "min_rung_windows must be at least 1"),
    ({"contraction_densities": (0.0,)}, "contraction_densities must lie in"),
    ({"contraction_densities": (1.5,)}, "contraction_densities must lie in"),
    ({"m_schedule": (8, 4)}, "m_schedule must be strictly increasing"),
    ({"m_schedule": (4, 4)}, "m_schedule must be strictly increasing"),
    ({"m_schedule": (0, 4)}, "m_schedule must be strictly increasing"),
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
                   grid_cells=2, contraction_densities=(1.0,), m_schedule=(1,))
