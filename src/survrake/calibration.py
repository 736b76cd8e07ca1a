"""Regression calibration for covariate and event-time error, and its
risk-set recalibrated refinement.

The calibration side estimates two linear nuisance models on the validated
subsample: the conditional mean of the true covariates given the error-prone
ones, and the conditional mean of the time error omega = U* - U given
covariates. Imputations from those models replace the error-prone values for
every phase-one subject, and an ordinary proportional-hazards fit runs on
the imputed data.

The risk-set variant refits the nuisance models within windows of follow-up
defined by the first-pass corrected times. Observed events keep their
first-pass times, while every other subject's presence in a window's risk
set is re-decided by that window's local model, so the comparison sets at
each event reflect calibrations local to that point in follow-up. Each
window becomes an independent block of the partial likelihood fitted
jointly by ``fit_cox_blocks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cohort import CohortData
from .cox import CoxFit, CoxOptions, SurvivalData, fit_cox, fit_cox_blocks
from .errors import (
    DimensionMismatchError,
    EmptyValidationError,
    InvalidConfigError,
    NoEventsError,
    RankDeficientDesignError,
)

__all__ = [
    "ErrorMode",
    "OmegaRegressors",
    "Weighting",
    "ErrorModelSpec",
    "CalibrationModel",
    "CalibratedCohort",
    "fit_x_calibration",
    "fit_omega_calibration",
    "build_calibration",
    "apply_rc",
    "rc_fit",
    "rsrc_fit",
    "RsrcFit",
    "U_HAT_FLOOR_FACTOR",
]

# Corrected times below this fraction of the largest observed time are
# squeezed into (0, floor] in their original order, preserving risk-set
# order near zero without creating zero or negative follow-up.
U_HAT_FLOOR_FACTOR = 1e-8


class ErrorMode(str, Enum):
    """Which observed quantities carry measurement error."""

    COVARIATE_ONLY = "covariate-only"
    OUTCOME_ONLY = "outcome-only"
    BOTH = "both"


class OmegaRegressors(str, Enum):
    """Covariate block used when regressing the time error."""

    TRUE_X = "true-x"
    ERROR_PRONE_X = "error-prone-x"


class Weighting(str, Enum):
    """How calibration regressions weight validated records."""

    UNWEIGHTED = "unweighted"
    IPW = "ipw"


@dataclass(frozen=True)
class ErrorModelSpec:
    """Declares the error structure an analysis corrects for.

    When only the outcome is mismeasured the covariates are observed for
    everyone, so the time-error model may regress on the true covariates;
    when covariates are mismeasured too, only the error-prone versions are
    available cohort-wide and the time-error model must use those.
    ``regress_omega_on`` defaults accordingly and conflicting combinations
    are rejected.
    """

    mode: ErrorMode
    regress_omega_on: OmegaRegressors | None = None

    def __post_init__(self):
        mode = ErrorMode(self.mode)
        object.__setattr__(self, "mode", mode)
        chosen = self.regress_omega_on
        if chosen is not None:
            chosen = OmegaRegressors(chosen)
        if mode is ErrorMode.COVARIATE_ONLY:
            if chosen is not None:
                raise InvalidConfigError(
                    "no time-error model exists in covariate-only mode"
                )
        elif mode is ErrorMode.OUTCOME_ONLY:
            if chosen is None:
                chosen = OmegaRegressors.TRUE_X
            elif chosen is not OmegaRegressors.TRUE_X:
                raise InvalidConfigError(
                    "outcome-only mode observes the true covariates everywhere; "
                    "the time-error model must regress on them"
                )
        else:
            if chosen is None:
                chosen = OmegaRegressors.ERROR_PRONE_X
            elif chosen is not OmegaRegressors.ERROR_PRONE_X:
                raise InvalidConfigError(
                    "with covariate error the true covariates are unknown outside "
                    "the validation subset; the time-error model must use the "
                    "error-prone ones"
                )
        object.__setattr__(self, "regress_omega_on", chosen)

    @property
    def corrects_x(self) -> bool:
        return self.mode is not ErrorMode.OUTCOME_ONLY

    @property
    def corrects_u(self) -> bool:
        return self.mode is not ErrorMode.COVARIATE_ONLY


def _validation_weights(cohort: CohortData, weighting: Weighting, subset: np.ndarray):
    if Weighting(weighting) is Weighting.IPW:
        if cohort.pi is None:
            raise InvalidConfigError("IPW calibration requires sampling probabilities")
        return 1.0 / cohort.pi[subset]
    return np.ones(int(subset.sum()))


def _least_squares(design: np.ndarray, response: np.ndarray, weights: np.ndarray):
    """Weighted least squares with an explicit column-rank check."""
    root = np.sqrt(weights)
    coef, _, rank, _ = np.linalg.lstsq(design * root[:, None], response * (root[:, None] if response.ndim == 2 else root), rcond=None)
    if rank < design.shape[1]:
        raise RankDeficientDesignError(
            f"calibration design matrix has rank {rank} < {design.shape[1]} columns"
        )
    return coef


def _subset_or_selected(cohort: CohortData, subset):
    if subset is None:
        return cohort.selected
    subset = np.asarray(subset, dtype=bool)
    return cohort.selected & subset


def fit_x_calibration(
    cohort: CohortData,
    weighting: Weighting = Weighting.UNWEIGHTED,
    subset=None,
) -> np.ndarray:
    """Least-squares coefficients predicting X from (X*, Z) on validated rows.

    Returns an (1+p+q) x p matrix: intercept row, then the X* block, then
    the Z block, one column per true covariate. ``subset`` restricts the
    validated rows used, for risk-set recalibration.
    """
    rows = _subset_or_selected(cohort, subset)
    if not rows.any():
        raise EmptyValidationError("no validated records to calibrate on")
    design = np.column_stack([np.ones(int(rows.sum())), cohort.x_star[rows], cohort.z[rows]])
    response = cohort.x[rows]
    return _least_squares(design, response, _validation_weights(cohort, weighting, rows))


def fit_omega_calibration(
    cohort: CohortData,
    spec: ErrorModelSpec,
    weighting: Weighting = Weighting.UNWEIGHTED,
    subset=None,
) -> np.ndarray:
    """Least-squares coefficients predicting omega = U* - U on validated rows.

    The covariate block is the true X or the error-prone X* according to
    ``spec.regress_omega_on``. Returns a length 1+p+q vector.
    """
    if not spec.corrects_u:
        raise InvalidConfigError("the declared error mode has no time error to model")
    rows = _subset_or_selected(cohort, subset)
    if not rows.any():
        raise EmptyValidationError("no validated records to calibrate on")
    if spec.regress_omega_on is OmegaRegressors.TRUE_X:
        x_block = cohort.x[rows]
    else:
        x_block = cohort.x_star[rows]
    design = np.column_stack([np.ones(int(rows.sum())), x_block, cohort.z[rows]])
    omega = cohort.time_star[rows] - cohort.time[rows]
    return _least_squares(design, omega, _validation_weights(cohort, weighting, rows))


@dataclass(frozen=True)
class CalibrationModel:
    """Fitted nuisance models mapping error-prone data to corrections.

    ``zeta_x`` is None in outcome-only mode (covariates pass through);
    ``zeta_omega`` is None in covariate-only mode (times pass through).
    """

    spec: ErrorModelSpec
    zeta_x: np.ndarray | None
    zeta_omega: np.ndarray | None
    weighting: Weighting
    n_validation: int

    def _check(self, cohort: CohortData):
        width = 1 + cohort.p + cohort.q
        if self.zeta_x is not None and self.zeta_x.shape != (width, cohort.p):
            raise DimensionMismatchError(
                f"zeta_x has shape {self.zeta_x.shape}, cohort needs ({width}, {cohort.p})"
            )
        if self.zeta_omega is not None and self.zeta_omega.shape != (width,):
            raise DimensionMismatchError(
                f"zeta_omega has shape {self.zeta_omega.shape}, cohort needs ({width},)"
            )

    def predict_x(self, cohort: CohortData, rows=None) -> np.ndarray:
        """Imputed covariates for the given rows (default: all subjects)."""
        rows = slice(None) if rows is None else rows
        if self.zeta_x is None:
            return cohort.x_star[rows].copy()
        design = np.column_stack(
            [np.ones(cohort.x_star[rows].shape[0]), cohort.x_star[rows], cohort.z[rows]]
        )
        return design @ self.zeta_x

    def predict_omega(self, cohort: CohortData, rows=None) -> np.ndarray:
        """Predicted time error for the given rows (default: all subjects).

        Prediction always feeds the phase-one covariates: in outcome-only
        mode they are the true covariates, which is exactly what the model
        was trained on.
        """
        rows = slice(None) if rows is None else rows
        n_rows = cohort.time_star[rows].shape[0]
        if self.zeta_omega is None:
            return np.zeros(n_rows)
        design = np.column_stack([np.ones(n_rows), cohort.x_star[rows], cohort.z[rows]])
        return design @ self.zeta_omega


def build_calibration(
    cohort: CohortData,
    spec: ErrorModelSpec,
    weighting: Weighting = Weighting.UNWEIGHTED,
    subset=None,
) -> CalibrationModel:
    """Fit whichever nuisance models the error mode calls for."""
    zeta_x = fit_x_calibration(cohort, weighting, subset) if spec.corrects_x else None
    zeta_omega = (
        fit_omega_calibration(cohort, spec, weighting, subset) if spec.corrects_u else None
    )
    rows = _subset_or_selected(cohort, subset)
    return CalibrationModel(
        spec=spec,
        zeta_x=zeta_x,
        zeta_omega=zeta_omega,
        weighting=Weighting(weighting),
        n_validation=int(rows.sum()),
    )


@dataclass(frozen=True)
class CalibratedCohort:
    """Imputed data for every phase-one subject.

    ``n_clamped`` counts corrected times lifted to the positivity floor.
    """

    x_hat: np.ndarray
    u_hat: np.ndarray
    event: np.ndarray
    n_clamped: int


def _squeeze_below_floor(u: np.ndarray, floor: float) -> tuple[np.ndarray, int]:
    """Pull sub-floor values into (0, floor] without reordering them.

    A Cox fit sees follow-up times only through their ordering, so mapping
    the offending values onto an increasing ramp just below the floor keeps
    every risk set intact while making the times legal. Equal inputs stay
    equal. Returns the adjusted array and how many values moved.
    """
    below = u < floor
    n_below = int(below.sum())
    if n_below == 0:
        return u, 0
    out = u.copy()
    if floor <= 0.0:
        out[below] = 0.0
        return out, n_below
    values, inverse = np.unique(u[below], return_inverse=True)
    out[below] = floor * (inverse + 1.0) / (values.size + 1.0)
    return out, n_below


def apply_rc(cohort: CohortData, model: CalibrationModel) -> CalibratedCohort:
    """Impute corrected covariates and times for all phase-one subjects.

    The event indicator passes through unchanged: the correction adjusts
    when subjects appear to exit, never whether the exit was an event.
    Corrected times that fall below a small positivity floor are squeezed
    into (0, floor] in their original order, so the fit's risk sets are
    unaffected by the repair.
    """
    model._check(cohort)
    x_hat = model.predict_x(cohort)
    u_hat = cohort.time_star - model.predict_omega(cohort)
    if model.zeta_omega is not None:
        floor = U_HAT_FLOOR_FACTOR * float(cohort.time_star.max(initial=0.0))
        u_hat, n_clamped = _squeeze_below_floor(u_hat, floor)
    else:
        n_clamped = 0
    return CalibratedCohort(
        x_hat=x_hat,
        u_hat=u_hat,
        event=cohort.delta_star.copy(),
        n_clamped=n_clamped,
    )


def _analysis_covariates(x_hat: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.column_stack([x_hat, z]) if z.shape[1] else x_hat


def rc_fit(
    cohort: CohortData,
    spec: ErrorModelSpec,
    weighting: Weighting = Weighting.UNWEIGHTED,
    options: CoxOptions | None = None,
) -> CoxFit:
    """Ordinary regression calibration: impute once, fit once."""
    model = build_calibration(cohort, spec, weighting)
    calibrated = apply_rc(cohort, model)
    data = SurvivalData(
        calibrated.u_hat,
        calibrated.event,
        _analysis_covariates(calibrated.x_hat, cohort.z),
    )
    return fit_cox(data, options)


@dataclass(frozen=True)
class RsrcFit(CoxFit):
    """Risk-set recalibrated fit plus its window diagnostics.

    Attributes:
        cuts: window start times on the first-pass corrected scale.
        window_fallbacks: windows whose validated risk set was too small to
            refit, served by the previous window's model instead.
        n_clamped: first-pass corrected times squeezed up to the positivity
            floor.
    """

    cuts: np.ndarray = None
    window_fallbacks: int = 0
    n_clamped: int = 0


DEFAULT_RSRC_GRID = tuple(np.round(np.arange(0.1, 0.95, 0.1), 10))


def rsrc_fit(
    cohort: CohortData,
    spec: ErrorModelSpec,
    grid=DEFAULT_RSRC_GRID,
    weighting: Weighting = Weighting.UNWEIGHTED,
    recalibrate_omega_per_window: bool = True,
    options: CoxOptions | None = None,
) -> RsrcFit:
    """Two-stage regression calibration with risk-set-local nuisance models.

    Stage one corrects times globally; the events keep their stage-one
    times and windows throughout. Stage two places window boundaries at
    ``grid`` quantiles of the stage-one corrected event times and, for each
    window, refits the nuisance models among validated subjects still at
    risk at the window start (on the stage-one scale). The window model
    then re-predicts every subject's exit: a subject belongs to the
    window's risk set only while the local prediction keeps them there, so
    censored exits are re-sorted across windows while the observed events
    stay anchored. That composition refresh is what moves the risk sets
    toward the ones the true times would define. A window whose validated
    risk set holds fewer than p+q+2 members reuses the previous window's
    model. With ``recalibrate_omega_per_window`` false, or a grid of {0}
    (or empty), every window reuses the stage-one model and the fit reduces
    to the ordinary calibration fit exactly.
    """
    grid = tuple(float(g) for g in grid)
    if any(not 0.0 <= g < 1.0 for g in grid):
        raise InvalidConfigError("recalibration grid quantiles must lie in [0, 1)")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidConfigError("recalibration grid quantiles must increase strictly")

    base_model = build_calibration(cohort, spec, weighting)
    stage_one = apply_rc(cohort, base_model)
    u0 = stage_one.u_hat
    event = stage_one.event
    if not event.any():
        raise NoEventsError("no error-prone events; the risk-set grid is undefined")

    event_times = u0[event]
    cuts = np.unique([0.0, *np.quantile(event_times, [g for g in grid if g > 0.0])])
    n_windows = len(cuts)

    # Window of each subject's stage-one exit; exits at a boundary belong
    # to the window that starts there, matching the >= risk-set convention.
    exit_window = np.searchsorted(cuts, u0, side="right") - 1

    min_members = cohort.p + cohort.q + 2
    blocks = []
    fallbacks = 0
    window_model = base_model
    for k in range(n_windows):
        upper = cuts[k + 1] if k + 1 < n_windows else np.inf
        event_here = event & (exit_window == k)
        if k == 0:
            members = np.ones(cohort.n, dtype=bool)
            x_hat_k = stage_one.x_hat
            u_hat_k = u0
        else:
            at_risk = u0 >= cuts[k]
            if recalibrate_omega_per_window:
                n_val = int((cohort.selected & at_risk).sum())
                if n_val < min_members:
                    fallbacks += 1  # keep the previous window's model
                else:
                    window_model = build_calibration(cohort, spec, weighting, subset=at_risk)
            x_hat_k = window_model.predict_x(cohort)
            u_hat_k = cohort.time_star - window_model.predict_omega(cohort)
            members = (u_hat_k > cuts[k]) | event_here
        stop = np.where(event_here, u0, np.minimum(u_hat_k, upper))
        blocks.append(
            SurvivalData(
                stop[members],
                event_here[members],
                _analysis_covariates(x_hat_k[members], cohort.z[members]),
                subject=np.flatnonzero(members),
            )
        )

    fit = fit_cox_blocks(blocks, options, n_subjects=cohort.n)
    return RsrcFit(
        beta=fit.beta,
        loglik=fit.loglik,
        score=fit.score,
        information=fit.information,
        dfbetas=fit.dfbetas,
        n_events=fit.n_events,
        converged=fit.converged,
        iterations=fit.iterations,
        cuts=np.asarray(cuts),
        window_fallbacks=fallbacks,
        n_clamped=stage_one.n_clamped,
    )
