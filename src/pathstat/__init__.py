"""Stationarity as a property of a single path.

Diagnostics for one finite numerical sequence: occurrence-set densities and
their recurrence verdicts, tightness, induced window distributions,
contraction-based ergodicity evidence, and moving-window stationarity tests
with rejection-density summaries.
"""

from .config import DEFAULT_CONFIG, AnalysisConfig
from .contraction import (
    AdversarialTrace,
    Contraction,
    ContractionValidation,
    ErgodicityVerdict,
    adversarial_contraction,
    build_alternating_contraction,
    contract_path,
    default_contraction_family,
    ergodicity_diagnostic,
    validate_contraction,
)
from .generators import ExpectedProfile, GeneratorSpec, expected_profile, generate, parse_spec
from .pathcore import (
    DensityEstimate,
    DensityTrajectory,
    IntervalPattern,
    OccurrenceSet,
    Path,
    PathParseError,
    counting_prefix,
    density_trajectory,
    estimate_limit_density,
    occurrence_mask,
    occurrence_set,
    read_path_file,
    read_path_text,
    window_projection,
    write_path,
)
from .properties import (
    CellTable,
    DeviationReport,
    EmpiricalMeasure,
    InducedFDD,
    PatternGrid,
    PropertyEVerdict,
    TightnessProfile,
    cell_table,
    check_property_e,
    check_property_t,
    consistency_check,
    empirical_measure,
    grid_family,
    induced_fdd,
    local_density_deviation,
    quantile_edges,
    scan_property_e,
)
from .stattests import (
    CalibrationError,
    CalibrationResult,
    RejectionRecord,
    StationarityTest,
    apply_moving_window,
    asymptotic_suite,
    calibrate_test_size,
    make_builtin_test,
    rejection_upper_density,
)
from .suite import FullDiagnostics, MonteCarloRow, montecarlo, report_dict, run_suite

__version__ = "0.1.0"
