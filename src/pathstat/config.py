"""Tunable thresholds for the finite-horizon diagnostics.

All limits in the underlying theory are statements about infinite sequences.
At a finite horizon every limit becomes a tail-window statistic, and every
dichotomy ("empty or positive density") becomes a thresholded verdict.  The
fields below are the thresholds a caller can set: through a CLI flag or
``--config`` key, or through the ``config=`` argument of the library calls.
Defaults are chosen for paths of length 1e4 to 1e6.  Thresholds that no
caller sets are named constants in the one module that reads each:
``properties.K_LEVELS``; the ``CONTRACTION_DENSITIES``, ``M_SCHEDULE``,
``GROWTH_FACTOR``, ``BURN_IN_FRACTION`` and ``ADVERSARIAL_*`` constants of
``contraction``; and ``TEST_SLACK`` and ``CALIBRATION_REPLICATES`` of
``stattests``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class AnalysisConfig:
    # tail-window surrogate for limits: statistics over the last
    # ceil(tail_fraction * horizon) points, converged when the window
    # oscillation (max - min) is at most `tolerance`
    tail_fraction: float = 0.5
    tolerance: float = 0.02

    # occurrence-density verdicts; floors are counts divided by horizon
    violation_floor_count: float = 5.0
    positive_floor_count: float = 10.0

    # tightness check
    t_slack: float = 0.01

    # pattern grids
    grid_cells: int = 8
    k_max: int = 2

    # contraction diagnostics
    ergodicity_tolerance: float = 0.05

    # moving-window rejection densities: a tail rung shorter than
    # min_rung_windows * window_size offsets cannot resolve a density
    # difference of ~0.01 and is skipped (the full-offset mean always counts)
    min_rung_windows: int = 2000

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if isinstance(f.default, int) and (
                    isinstance(value, bool) or not isinstance(value, int)):
                raise ValueError(
                    f"{f.name} must be an integer, got {value!r}")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ValueError("tail_fraction must be in (0, 1]")
        for name in ("tolerance", "violation_floor_count", "positive_floor_count",
                     "t_slack", "ergodicity_tolerance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name, least in (("k_max", 1), ("grid_cells", 2),
                            ("min_rung_windows", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")


DEFAULT_CONFIG = AnalysisConfig()
