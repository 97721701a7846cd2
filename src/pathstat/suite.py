"""Composition of the per-path diagnostics into one pass/fail suite."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .config import DEFAULT_CONFIG, AnalysisConfig
from .contraction import (
    Contraction,
    ErgodicityVerdict,
    default_contraction_family,
    ergodicity_diagnostic,
)
from .pathcore import Path
from .properties import PathDiagnostics, analyze_path

__all__ = ["FullDiagnostics", "run_suite", "report_dict"]


@dataclass(frozen=True, eq=False)
class FullDiagnostics:
    diagnostics: PathDiagnostics
    ergodicity: ErgodicityVerdict
    family: tuple[Contraction, ...]

    @property
    def passed(self) -> bool:
        return (self.diagnostics.property_e_pass
                and self.diagnostics.tightness.verdict
                and self.diagnostics.consistency_pass
                and self.ergodicity.verdict == "ConsistentWithErgodic")


def run_suite(path: Path, config: AnalysisConfig = DEFAULT_CONFIG,
              edges: Sequence[float] | None = None,
              family: Sequence[Contraction] | None = None) -> FullDiagnostics:
    """Recurrence scan, tightness, consistency, and the contraction check.

    One cell table per path serves every stage.  Without an explicit
    ``family``, a path too short for the default family raises ValueError
    (with the default configuration: fewer than 11 values).
    """
    diagnostics = analyze_path(path, config, edges)
    k_max = max(diagnostics.fdd.grids)
    grids = diagnostics.fdd.grids
    table = diagnostics.table
    if family is None:
        family = default_contraction_family(path, grids[1], config, table)
    ergodicity = ergodicity_diagnostic(path, family, grids, k_max,
                                       config.ergodicity_tolerance, config,
                                       table)
    return FullDiagnostics(diagnostics=diagnostics, ergodicity=ergodicity,
                           family=tuple(family))


def _json_endpoint(x: float) -> float | None:
    return None if math.isinf(x) else x


def _cell_json(pattern) -> list[list[float | None]]:
    return [[_json_endpoint(a), _json_endpoint(b)] for a, b in pattern.intervals]


def report_dict(result: FullDiagnostics) -> dict:
    """The machine-readable report (JSON-safe: infinite endpoints are null)."""
    diag = result.diagnostics
    verdicts = [
        {
            "k": v.pattern.k,
            "cell": _cell_json(v.pattern),
            "status": v.status,
            "value": v.estimate.value,
            "oscillation": v.estimate.oscillation,
            "final_count": v.final_count,
        }
        for v in diag.verdicts
    ]
    consistency = [
        {
            "k": k,
            "discrepancy": diag.consistency[k],
            "bound": diag.consistency_bounds[k],
            "pass": diag.consistency[k] <= diag.consistency_bounds[k],
        }
        for k in sorted(diag.consistency)
    ]
    erg = result.ergodicity
    offending = None
    if erg.offending is not None:
        offending = {"contraction": erg.offending[0],
                     "cell": _cell_json(erg.offending[1])}
    return {
        "propertyE": {"pass": diag.property_e_pass, "verdicts": verdicts},
        "propertyT": {
            "levels": list(diag.tightness.levels),
            "fractions": list(diag.tightness.fractions),
            "verdict": diag.tightness.verdict,
        },
        "consistency": consistency,
        "ergodicity": {
            "verdict": erg.verdict,
            "worst_discrepancy": erg.worst_discrepancy,
            "offending": offending,
            "contractions": [c.label for c in result.family],
        },
        "overall_pass": result.passed,
    }
