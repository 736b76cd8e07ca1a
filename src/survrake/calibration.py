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
from .cox import CoxFit, SurvivalData, fit_cox, fit_cox_blocks
from .errors import (
    DimensionMismatchError,
    EmptyValidationError,
    InvalidConfigError,
    NoEventsError,
    RankDeficientDesignError,
)

__all__ = [
    "ErrorMode",
    "Weighting",
    "CalibrationModel",
    "CalibratedCohort",
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
    """Which observed quantities carry measurement error.

    The mode also fixes what the calibration regressions use. When only the
    outcome is mismeasured the covariates are observed for everyone, so the
    time-error model regresses on the true covariates; when covariates are
    mismeasured too, only the error-prone versions are available
    cohort-wide and both models regress on those.
    """

    COVARIATE_ONLY = "covariate-only"
    OUTCOME_ONLY = "outcome-only"
    BOTH = "both"

    @property
    def corrects_x(self) -> bool:
        return self is not ErrorMode.OUTCOME_ONLY

    @property
    def corrects_u(self) -> bool:
        return self is not ErrorMode.COVARIATE_ONLY


class Weighting(str, Enum):
    """How calibration regressions weight validated records."""

    UNWEIGHTED = "unweighted"
    IPW = "ipw"


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


@dataclass(frozen=True)
class CalibrationModel:
    """Fitted nuisance models mapping error-prone data to corrections.

    ``zeta_x`` is the (1+p+q) x p matrix predicting X from (1, X*, Z): an
    intercept row, then the X* block, then the Z block. ``zeta_omega`` is
    the length 1+p+q vector predicting omega = U* - U from the same
    columns. ``zeta_x`` is None in outcome-only mode (covariates pass
    through); ``zeta_omega`` is None in covariate-only mode (times pass
    through).
    """

    zeta_x: np.ndarray | None
    zeta_omega: np.ndarray | None

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

    def predict(self, cohort: CohortData) -> tuple[np.ndarray, np.ndarray]:
        """Imputed covariates and predicted time error for every subject.

        Prediction always feeds the phase-one covariates: in outcome-only
        mode they are the true covariates, which is exactly what the
        time-error model was trained on.
        """
        design = np.column_stack([np.ones(cohort.n), cohort.x_star, cohort.z])
        x_hat = cohort.x_star.copy() if self.zeta_x is None else design @ self.zeta_x
        omega = np.zeros(cohort.n) if self.zeta_omega is None else design @ self.zeta_omega
        return x_hat, omega


def build_calibration(
    cohort: CohortData,
    mode: ErrorMode,
    weighting: Weighting = Weighting.UNWEIGHTED,
    subset=None,
) -> CalibrationModel:
    """Fit whichever nuisance models the error mode calls for.

    Both models are least-squares fits on the validated rows (restricted to
    ``subset`` if given, for risk-set recalibration) against one design:
    an intercept, the covariate block (X in outcome-only mode, X* otherwise)
    and Z.
    """
    mode = ErrorMode(mode)
    rows = cohort.selected
    if subset is not None:
        rows = rows & np.asarray(subset, dtype=bool)
    if not rows.any():
        raise EmptyValidationError("no validated records to calibrate on")
    weights = _validation_weights(cohort, weighting, rows)
    x_block = cohort.x if mode is ErrorMode.OUTCOME_ONLY else cohort.x_star
    design = np.column_stack([np.ones(int(rows.sum())), x_block[rows], cohort.z[rows]])
    zeta_x = zeta_omega = None
    if mode.corrects_x:
        zeta_x = _least_squares(design, cohort.x[rows], weights)
    if mode.corrects_u:
        omega = cohort.time_star[rows] - cohort.time[rows]
        zeta_omega = _least_squares(design, omega, weights)
    return CalibrationModel(zeta_x=zeta_x, zeta_omega=zeta_omega)


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
    x_hat, omega = model.predict(cohort)
    u_hat = cohort.time_star - omega
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


def _calibrated_data(
    cohort: CohortData, mode: ErrorMode, weighting: Weighting
) -> SurvivalData:
    """Calibrate on the validated rows and impute every phase-one subject."""
    calibrated = apply_rc(cohort, build_calibration(cohort, mode, weighting))
    return SurvivalData(
        calibrated.u_hat,
        calibrated.event,
        _analysis_covariates(calibrated.x_hat, cohort.z),
    )


def rc_fit(
    cohort: CohortData, mode: ErrorMode, weighting: Weighting = Weighting.UNWEIGHTED
) -> CoxFit:
    """Ordinary regression calibration: impute once, fit once."""
    return fit_cox(_calibrated_data(cohort, mode, weighting))


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
    mode: ErrorMode,
    grid=DEFAULT_RSRC_GRID,
    weighting: Weighting = Weighting.UNWEIGHTED,
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
    model. When every window falls back, or the grid is {0} (or empty),
    every window reuses the stage-one model and the fit reduces to the
    ordinary calibration fit exactly.
    """
    grid = tuple(float(g) for g in grid)
    if any(not 0.0 <= g < 1.0 for g in grid):
        raise InvalidConfigError("recalibration grid quantiles must lie in [0, 1)")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidConfigError("recalibration grid quantiles must increase strictly")

    base_model = build_calibration(cohort, mode, weighting)
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
            if int((cohort.selected & at_risk).sum()) < min_members:
                fallbacks += 1  # keep the previous window's model
            else:
                window_model = build_calibration(cohort, mode, weighting, subset=at_risk)
            x_hat_k, omega_k = window_model.predict(cohort)
            u_hat_k = cohort.time_star - omega_k
            members = (u_hat_k > cuts[k]) | event_here
        stop = np.where(event_here, u0, np.minimum(u_hat_k, upper))
        blocks.append(
            SurvivalData(
                stop[members],
                event_here[members],
                _analysis_covariates(x_hat_k[members], cohort.z[members]),
            )
        )

    fit = fit_cox_blocks(blocks)
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
