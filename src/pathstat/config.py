"""Tunable thresholds for the finite-horizon diagnostics.

All limits in the underlying theory are statements about infinite sequences.
At a finite horizon every limit becomes a tail-window statistic, and every
dichotomy ("empty or positive density") becomes a thresholded verdict.  The
knobs below are those thresholds; defaults are chosen for paths of length
1e4 to 1e6.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    k_levels: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

    # pattern grids
    grid_cells: int = 8
    k_max: int = 2

    # contraction diagnostics
    ergodicity_tolerance: float = 0.05
    contraction_densities: tuple[float, ...] = (0.2, 0.5, 0.8)
    contraction_phases: tuple[int, ...] = (0, 1)
    growth_factor: float = 4.0
    burn_in_fraction: float = 0.1

    # adversarial contraction search
    m_schedule: tuple[int, ...] = (4, 8, 16, 32)
    adversarial_eps1: float = 0.1
    adversarial_persistence: float = 0.5
    adversarial_p_lo: float = 0.05
    adversarial_p_hi: float = 0.95
    adversarial_threshold_cap: float = 0.25
    # the common coverage target sits below the thinnest stage's tail-window
    # candidate supply, so stages recover from early candidate droughts
    adversarial_headroom: float = 0.85

    # moving-window rejection densities: a tail rung shorter than
    # min_rung_windows * window_size offsets cannot resolve a density
    # difference of ~0.01 and is skipped (the full-offset mean always counts)
    min_rung_windows: int = 2000
    test_slack: float = 0.01

    def __post_init__(self) -> None:
        for name in ("k_levels", "contraction_densities", "contraction_phases",
                     "m_schedule"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for name in ("tail_fraction", "adversarial_persistence",
                     "adversarial_threshold_cap", "adversarial_headroom"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        for name in ("tolerance", "violation_floor_count", "positive_floor_count",
                     "t_slack", "ergodicity_tolerance", "adversarial_eps1",
                     "test_slack"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name, least in (("k_max", 1), ("grid_cells", 2),
                            ("growth_factor", 1), ("min_rung_windows", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")
        if not 0.0 <= self.burn_in_fraction < 1.0:
            raise ValueError("burn_in_fraction must be in [0, 1)")
        if list(self.k_levels) != sorted(self.k_levels) or min(self.k_levels) <= 0:
            raise ValueError("k_levels must be increasing and positive")
        if not all(0.0 < c <= 1.0 for c in self.contraction_densities):
            raise ValueError("contraction_densities must lie in (0, 1]")
        if not set(self.contraction_phases) <= {0, 1}:
            raise ValueError("contraction_phases must be 0 or 1")
        if list(self.m_schedule) != sorted(set(self.m_schedule)) or min(self.m_schedule) < 1:
            raise ValueError("m_schedule must be strictly increasing positive integers")
        if not 0.0 <= self.adversarial_p_lo < self.adversarial_p_hi <= 1.0:
            raise ValueError("adversarial p range must satisfy 0 <= lo < hi <= 1")


DEFAULT_CONFIG = AnalysisConfig()
