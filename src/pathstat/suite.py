"""Composition of the per-path diagnostics into one pass/fail suite."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_CONFIG, AnalysisConfig
from .contraction import (
    Contraction,
    ErgodicityVerdict,
    alternating_family,
    default_contraction_family,
    ergodicity_diagnostic,
)
from .generators import (
    ExpectedProfile,
    GeneratorSpec,
    expected_profile,
    format_spec,
    generate,
)
from .pathcore import Path
from .properties import PathDiagnostics, analyze_path

__all__ = ["FullDiagnostics", "MonteCarloRow", "montecarlo", "run_suite",
           "report_dict"]


@dataclass(frozen=True, eq=False)
class FullDiagnostics:
    diagnostics: PathDiagnostics
    ergodicity: ErgodicityVerdict
    family: tuple[Contraction, ...]

    @property
    def stages(self) -> dict[str, bool]:
        """Each stage's verdict, under report.json's names."""
        diag = self.diagnostics
        return {"propertyE": diag.property_e_pass,
                "propertyT": diag.tightness.verdict,
                "consistency": diag.consistency_pass,
                "ergodicity":
                    self.ergodicity.verdict == "ConsistentWithErgodic"}

    @property
    def passed(self) -> bool:
        return all(self.stages.values())


def run_suite(path: Path, config: AnalysisConfig = DEFAULT_CONFIG,
              edges: Sequence[float] | None = None,
              family: Sequence[Contraction] | None = None) -> FullDiagnostics:
    """Recurrence scan, tightness, consistency, and the contraction check.

    One cell table per path serves every stage.  Without an explicit
    ``family``, a path too short for the default family raises ValueError
    (with the default configuration: fewer than 11 values).
    """
    diagnostics = analyze_path(path, config, edges)
    table = diagnostics.table
    if family is None:
        family = default_contraction_family(path, table.grids[1], config,
                                            table)
    ergodicity = ergodicity_diagnostic(path, family, table.grids,
                                       max(table.grids), config=config,
                                       table=table)
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


@dataclass(frozen=True)
class MonteCarloRow:
    """One spec's replicates, each by its stage verdicts, and the kind's
    expected profile."""

    spec: GeneratorSpec
    expected: ExpectedProfile
    stages: tuple[dict[str, bool], ...]

    @property
    def passed(self) -> tuple[bool, ...]:
        return tuple(all(v.values()) for v in self.stages)

    def summary(self) -> dict:
        """The montecarlo.json row.  A replicate mismatches when it
        disagrees with a stage the profile asserts (None asserts nothing)."""
        n = len(self.stages)
        passes = sum(self.passed)
        fraction = passes / n
        asserted = {"propertyE": self.expected.property_e_pass,
                    "propertyT": self.expected.property_t_pass,
                    "ergodicity": self.expected.ergodicity_pass}
        return {
            "generator": format_spec(self.spec),
            "replicates": n,
            "passes": passes,
            "fraction": fraction,
            "stderr": math.sqrt(fraction * (1 - fraction) / n),
            "stages": {k: sum(v[k] for v in self.stages) / n
                       for k in self.stages[0]},
            "expected_mismatches": sum(
                any(want is not None and v[k] != want
                    for k, want in asserted.items()) for v in self.stages),
        }


def montecarlo(specs: Sequence[GeneratorSpec], replicates: int, seed: int,
               config: AnalysisConfig = DEFAULT_CONFIG) -> list[MonteCarloRow]:
    """The suite on ``replicates`` paths of each spec; replicate r of spec i
    draws from the child seed ``SeedSequence([seed, i, r])``.  A spec that
    sets its own seed, or is too short for the contraction family, is an
    error, raised before the first replicate."""
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    for spec in specs:
        if spec.seed is not None:
            raise ValueError(f"montecarlo spec {format_spec(spec)!r} sets "
                             f"seed=; each replicate draws its own seed")
        alternating_family(spec.length)
    rows = []
    for gi, spec in enumerate(specs):
        stages = []
        for r in range(replicates):
            child = np.random.SeedSequence([seed, gi, r]).generate_state(1)[0]
            stages.append(run_suite(generate(spec.with_seed(child)),
                                    config).stages)
        rows.append(MonteCarloRow(spec, expected_profile(spec),
                                  tuple(stages)))
    return rows
