"""Correcting Cox regression for covariate and event-time measurement error.

The package fits proportional-hazards models when covariates and censored
event times are both observed with possibly correlated error, using a
validation subsample drawn under a known two-phase design. It provides
regression calibration, risk-set recalibration, and generalized-raking
estimators, a stratified bootstrap for their uncertainty, and a Monte Carlo
harness for operating-characteristic studies.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibratedCohort,
    CalibrationModel,
    ErrorMode,
    RsrcFit,
    Weighting,
    apply_rc,
    build_calibration,
    rc_fit,
    rsrc_fit,
)
from .cohort import CohortData
from .cox import (
    CoxFit,
    CoxOptions,
    SurvivalData,
    dfbeta_residuals,
    fit_cox,
    fit_cox_blocks,
    log_partial_likelihood,
    score_and_information,
)
from .design import (
    BootstrapResult,
    SamplingKind,
    SamplingPlan,
    TwoPhaseDesign,
    draw_validation,
    stratified_bootstrap,
)
from .errors import SurvrakeError
from .io import (
    AnalysisDataset,
    RunManifest,
    example_dataset_path,
    list_scenarios,
    load_dataset,
    load_scenario,
)
from .raking import (
    RakingSolution,
    grn_estimate,
    grrc_estimate,
    ht_estimate,
    solve_raking,
)
from .simulation import (
    ErrorDistribution,
    ErrorKind,
    EstimatorRow,
    ScenarioConfig,
    ScenarioResult,
    TunedCensoring,
    generate_cohort,
    run_scenario,
    tune_censoring,
)
