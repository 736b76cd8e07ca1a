"""Generalized raking: calibrated design weights and the estimators built on them.

Raking adjusts the inverse-probability design weights of the validated
subset so that the weighted totals of auxiliary variables computed on the
subset reproduce the totals over the whole cohort. With influence residuals
from an error-prone preliminary fit as the auxiliaries, the reweighted
fit on the validated true data recovers most of the efficiency the plain
inverse-probability estimator leaves on the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import ErrorMode, Weighting, _calibrated_data
from .cohort import CohortData
from .cox import CoxFit, CoxOptions, SurvivalData, _solve_pd, fit_cox
from .design import TwoPhaseDesign
from .errors import (
    ConvergenceError,
    DegenerateAuxiliaryError,
    EmptyValidationError,
    InputError,
    NonFiniteInputError,
    SingularCalibrationError,
)

__all__ = [
    "AuxiliaryMatrix",
    "RakingSolution",
    "solve_raking",
    "ht_estimate",
    "grn_estimate",
    "grrc_estimate",
]


@dataclass(frozen=True)
class AuxiliaryMatrix:
    """Phase-one auxiliary variables, one row per subject.

    Columns must carry signal: an all-zero column cannot constrain the
    weights and is rejected outright.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] == 0 or values.shape[1] == 0:
            raise InputError("auxiliary matrix must be a nonempty n-by-k array")
        if not np.isfinite(values).all():
            raise NonFiniteInputError("auxiliary variables must be finite")
        dead = np.abs(values).max(axis=0) == 0.0
        if dead.any():
            raise DegenerateAuxiliaryError(
                f"auxiliary columns {np.flatnonzero(dead).tolist()} are identically zero"
            )
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class RakingSolution:
    """Calibrated weight adjustment for one design and auxiliary set.

    Attributes:
        lambda_: multiplier vector of the exponential weight adjustment.
        g: per-subject adjustment factor exp(-lambda'A), one per phase-one
            subject (meaningful on the validated subset).
        weights: analysis weights, g/pi on validated subjects and zero
            elsewhere.
        constraint_residual: max-norm gap between the reweighted validated
            totals and the cohort totals.
        iterations: Newton steps taken.
        converged: whether the residual met its tolerance.
    """

    lambda_: np.ndarray
    g: np.ndarray
    weights: np.ndarray
    constraint_residual: float
    iterations: int
    converged: bool


def _dual_value(eta: np.ndarray, base_weights: np.ndarray, lam: np.ndarray, totals: np.ndarray):
    """Convex dual of the raking objective; its gradient is the negated constraint gap."""
    with np.errstate(over="ignore"):
        value = float(base_weights @ np.exp(-eta)) + float(lam @ totals)
    return value


def solve_raking(
    design: TwoPhaseDesign,
    aux: AuxiliaryMatrix,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> RakingSolution:
    """Find the exponential weight adjustment matching auxiliary totals.

    Solves F(lambda) = sum over validated of (exp(-lambda'A_i)/pi_i) A_i
    minus the cohort total of A for lambda, by Newton iteration on the
    equivalent convex dual with step halving, started from the one-step
    linearized value. Convergence requires the constraint residual to
    drop below ``tol * (1 + max-norm of the cohort totals)``.
    """
    if aux.n != design.n:
        raise InputError(f"auxiliary matrix covers {aux.n} subjects, design has {design.n}")
    if not design.selected.any():
        raise EmptyValidationError("raking needs a nonempty validated subset")
    a_sel = aux.values[design.selected]
    base_weights = 1.0 / design.pi[design.selected]
    totals = aux.values.sum(axis=0)
    scale = 1.0 + float(np.abs(totals).max())

    bhat = np.einsum("i,ij,ik->jk", base_weights, a_sel, a_sel)
    ht_gap = a_sel.T @ base_weights - totals
    try:
        lam = _solve_pd(bhat, ht_gap)
    except np.linalg.LinAlgError as exc:
        raise SingularCalibrationError(
            "the weighted auxiliary cross-product matrix is singular"
        ) from exc

    def constraint_gap(lam_vec):
        with np.errstate(over="ignore"):
            gw = base_weights * np.exp(-(a_sel @ lam_vec))
        return a_sel.T @ gw - totals, gw

    dual = _dual_value(a_sel @ lam, base_weights, lam, totals)
    if not np.isfinite(dual):
        lam = np.zeros(aux.k)
        dual = _dual_value(a_sel @ lam, base_weights, lam, totals)
    gap, gweights = constraint_gap(lam)
    iterations = 0
    converged = bool(np.abs(gap).max() <= tol * scale)
    while not converged and iterations < max_iter:
        iterations += 1
        # The constraint gap has Jacobian -hessian, so the root-finding
        # step adds the solved direction.
        hessian = np.einsum("i,ij,ik->jk", gweights, a_sel, a_sel)
        try:
            step = _solve_pd(hessian, gap)
        except np.linalg.LinAlgError as exc:
            raise SingularCalibrationError(
                "the raking Newton system became singular"
            ) from exc
        candidate = lam + step
        for _ in range(30):
            cand_dual = _dual_value(a_sel @ candidate, base_weights, candidate, totals)
            if cand_dual <= dual + 1e-12 * (1.0 + abs(dual)):
                break
            candidate = lam + (candidate - lam) / 2.0
        lam = candidate
        dual = _dual_value(a_sel @ lam, base_weights, lam, totals)
        gap, gweights = constraint_gap(lam)
        converged = bool(np.abs(gap).max() <= tol * scale)

    g = np.exp(-(aux.values @ lam))
    weights = np.where(design.selected, g / design.pi, 0.0)
    return RakingSolution(
        lambda_=lam,
        g=g,
        weights=weights,
        constraint_residual=float(np.abs(gap).max()),
        iterations=iterations,
        converged=converged,
    )


def _synced(cohort: CohortData, design: TwoPhaseDesign) -> CohortData:
    if design.n != cohort.n:
        raise InputError(f"design covers {design.n} subjects, cohort has {cohort.n}")
    return cohort.with_design(design.selected, design.pi)


def _validated_fit(
    cohort: CohortData, analysis_weights: np.ndarray, options: CoxOptions | None
) -> CoxFit:
    sel = cohort.selected
    if not sel.any():
        raise EmptyValidationError("no validated subjects to fit on")
    data = SurvivalData(
        cohort.time[sel],
        cohort.delta[sel].astype(bool),
        cohort.validated_covariates(),
        weights=analysis_weights[sel],
    )
    return fit_cox(data, options)


def ht_estimate(
    cohort: CohortData, design: TwoPhaseDesign, options: CoxOptions | None = None
) -> CoxFit:
    """Inverse-probability-weighted fit on the validated true data."""
    synced = _synced(cohort, design)
    return _validated_fit(synced, 1.0 / design.pi, options)


def _raked_fit(
    cohort: CohortData,
    design: TwoPhaseDesign,
    influence: np.ndarray,
    options: CoxOptions | None,
    tol: float,
    max_iter: int,
) -> tuple[CoxFit, RakingSolution]:
    solution = solve_raking(design, AuxiliaryMatrix(influence), tol, max_iter)
    if not solution.converged:
        raise ConvergenceError(
            f"raking stopped after {solution.iterations} iterations with "
            f"constraint residual {solution.constraint_residual:.3e}"
        )
    fit = _validated_fit(cohort, solution.weights, options)
    return fit, solution


def grn_estimate(
    cohort: CohortData,
    design: TwoPhaseDesign,
    options: CoxOptions | None = None,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> tuple[CoxFit, RakingSolution]:
    """Raking with influence residuals of the naive error-prone fit.

    Fits the proportional-hazards model to the error-prone data for every
    phase-one subject, takes its per-subject influence residuals as the
    auxiliaries, rakes the design weights to match their cohort totals, and
    refits on the validated true data with the calibrated weights.
    """
    synced = _synced(cohort, design)
    naive = fit_cox(
        SurvivalData(
            synced.time_star,
            synced.delta_star,
            synced.phase_one_covariates(),
        ),
        CoxOptions(compute_dfbetas=True) if options is None else options.with_dfbetas(),
    )
    return _raked_fit(synced, design, naive.dfbetas, options, tol, max_iter)


def grrc_estimate(
    cohort: CohortData,
    design: TwoPhaseDesign,
    mode: ErrorMode,
    options: CoxOptions | None = None,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> tuple[CoxFit, RakingSolution]:
    """Raking with influence residuals of the calibration-corrected fit.

    Same recipe as ``grn_estimate`` but the preliminary fit runs on
    calibration-imputed covariates and times instead of the raw error-prone
    values. The calibration regressions weight validated records by their
    inverse selection probabilities, which keeps them consistent under
    designs that oversample informative subjects; the preliminary fit
    itself is unweighted over all phase-one subjects.
    """
    synced = _synced(cohort, design)
    corrected = fit_cox(
        _calibrated_data(synced, mode, Weighting.IPW),
        CoxOptions(compute_dfbetas=True) if options is None else options.with_dfbetas(),
    )
    return _raked_fit(synced, design, corrected.dfbetas, options, tol, max_iter)
