"""Weighted Cox proportional-hazards regression with Breslow tie handling.

The fitter runs damped Newton-Raphson on the log partial likelihood. Risk-set
sums are reverse cumulative sums over records sorted by time, so one
evaluation of the likelihood, score, and information costs O(n p^2) with no
per-risk-set loop. Record-level influence (dfbeta) residuals come from the
same sweep using the exact score decomposition, not a one-step refit
approximation.

Newton stops when the score is below ``SCORE_TOLERANCE`` per event and the
last step below ``STEP_TOLERANCE``; a step that lowers the likelihood is
halved up to ``MAX_STEP_HALVINGS`` times before the fit gives up.

One evaluation lays the moments out as contiguous rows of a (k, n) array:
r, r x_j and, only when the information is needed, the p(p+1)/2 unique
second moments r x_j x_l with j <= l, where r is the weighted relative risk.
Every record after the block's last event record is at risk at every event,
so only the head before it takes a reverse cumsum along the rows; the tail's
plain row sum is added to each event's risk-set sum. Window blocks of
risk-set recalibration are mostly such tail records.

A fit may span several independent blocks of records sharing one coefficient
vector; the log partial likelihood is then the sum of block contributions.
Risk-set recalibration needs exactly this: each time window contributes a
block whose records all enter at the window start, so plain right-censored
bookkeeping applies within a block and no delayed-entry machinery is needed.
The influence rows of a block fit are the blocks' record rows, stacked in
block order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    InputError,
    NoEventsError,
    NonFiniteInputError,
    SingularInformationError,
)

__all__ = [
    "SurvivalData",
    "CoxOptions",
    "CoxFit",
    "fit_cox",
    "fit_cox_blocks",
    "log_partial_likelihood",
    "score_and_information",
    "dfbeta_residuals",
]

SCORE_TOLERANCE = 1e-9
STEP_TOLERANCE = 1e-8
MAX_STEP_HALVINGS = 10


class SurvivalData:
    """Column-oriented collection of right-censored records.

    Args:
        time: follow-up times, nonnegative.
        event: event indicators, truthy for an observed event.
        covariates: matrix with one row per record; a 1-d array is treated
            as a single column.
        weights: positive per-record weights. Defaults to all ones.
    """

    def __init__(self, time, event, covariates, weights=None):
        time = np.ascontiguousarray(time, dtype=float)
        event = np.asarray(event, dtype=bool)
        covariates = np.asarray(covariates, dtype=float)
        if covariates.ndim == 1:
            covariates = covariates[:, None]
        n = time.shape[0]
        if event.shape != (n,) or covariates.shape[0] != n:
            raise InputError(
                f"inconsistent lengths: {n} times, {event.shape[0]} event flags, "
                f"{covariates.shape[0]} covariate rows"
            )
        if weights is None:
            weights = np.ones(n)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (n,):
                raise InputError(f"expected {n} weights, got {weights.shape}")
        if not np.isfinite(time).all() or not np.isfinite(covariates).all():
            raise NonFiniteInputError("times and covariates must be finite")
        if not np.isfinite(weights).all():
            raise NonFiniteInputError("weights must be finite")
        if (time < 0).any():
            raise InputError("negative follow-up time")
        if (weights <= 0).any():
            raise InputError("weights must be strictly positive")
        self.time = time
        self.event = event
        self.covariates = np.ascontiguousarray(covariates)
        self.weights = weights

    @property
    def n(self) -> int:
        return self.time.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    @property
    def n_events(self) -> int:
        return int(self.event.sum())


@dataclass(frozen=True)
class CoxOptions:
    """Controls for the Newton-Raphson fit.

    ``max_iterations=0`` returns the initial value unconverged with the
    likelihood quantities evaluated there. ``compute_dfbetas`` adds the
    influence residuals to the fit.
    """

    max_iterations: int = 50
    initial: np.ndarray | None = None
    compute_dfbetas: bool = False


@dataclass(frozen=True)
class CoxFit:
    """Result of a proportional-hazards fit.

    Attributes:
        beta: coefficient estimates.
        loglik: log partial likelihood at ``beta``.
        score: score vector at ``beta``.
        information: observed information matrix at ``beta``.
        dfbetas: per-record influence on ``beta`` (rows sum to roughly zero
            at a converged solution); None unless requested.
        n_events: number of events across all blocks.
        converged: whether both stopping criteria were met.
        iterations: Newton updates applied.
    """

    beta: np.ndarray
    loglik: float
    score: np.ndarray
    information: np.ndarray
    dfbetas: np.ndarray | None
    n_events: int
    converged: bool
    iterations: int

    def covariance(self) -> np.ndarray:
        """Inverse information; model-based variance of ``beta``."""
        try:
            return _solve_pd(self.information, np.eye(len(self.beta)))
        except np.linalg.LinAlgError as exc:
            raise SingularInformationError(str(exc)) from None

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance()))


def _solve_pd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` for a small symmetric positive definite matrix.

    Raises np.linalg.LinAlgError when the matrix is not finite or not
    positive definite. numpy's Cholesky does not raise on NaN or inf
    entries, so those are rejected first.
    """
    if not np.isfinite(matrix).all():
        raise np.linalg.LinAlgError("matrix has non-finite entries")
    lower = np.linalg.cholesky(matrix)
    return np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))


@lru_cache(maxsize=None)
def _moment_layout(p: int):
    """Upper-triangle indices and the symmetric map for p covariates.

    The unique second moments are the pairs j <= l in row-major order; the
    (p, p) map sends each entry of the information to its moment. The
    arrays are read-only because every block of every fit shares them.
    """
    triu = np.triu_indices(p)
    sym = np.empty((p, p), dtype=np.intp)
    sym[triu] = sym.T[triu] = np.arange(triu[0].size)
    for a in (*triu, sym):
        a.flags.writeable = False
    return triu, sym


class _PreparedBlock:
    """One block sorted by time, with the index maps the moment sweep needs."""

    def __init__(self, data: SurvivalData, center: np.ndarray):
        n = data.n
        # Sort by time, breaking ties by event flag then input position, so
        # reruns on identically ordered input reproduce bit-identical sums.
        order = np.lexsort((np.arange(n), data.event, data.time))
        time = data.time[order]
        self.order = order
        self.xt = np.ascontiguousarray((data.covariates[order] - center).T)
        self.w = data.weights[order]
        self.ev_pos = np.flatnonzero(data.event[order])
        ev_time = time[self.ev_pos]
        # Records after the last event record are at risk at every event;
        # the head before them is the only part that needs a cumsum.
        self.head = int(self.ev_pos[-1]) + 1 if self.ev_pos.size else 0
        # Column of each event's risk set in the reversed head cumsum. The
        # first record at risk is located by value, so tie order is
        # irrelevant.
        self.ev_col = self.head - 1 - np.searchsorted(time, ev_time, side="left")
        # Events with time <= each record's time, for cumulative-hazard terms.
        self.n_events_le = np.searchsorted(ev_time, time, side="right")
        self.w_ev = self.w[self.ev_pos]
        self.xt_ev = self.xt[:, self.ev_pos]
        self.triu, self.sym = _moment_layout(data.n_covariates)

    def evaluate(self, beta: np.ndarray, need_info: bool):
        """Log partial likelihood, score, and optionally information."""
        p = beta.size
        eta = beta @ self.xt
        shift = eta.max(initial=0.0)
        r = self.w * np.exp(eta - shift)
        # Moment rows r, r x_j and, for the information, r x_j x_l (j <= l).
        k = 1 + p + (self.triu[0].size if need_info else 0)
        rows = np.empty((k, r.size))
        rows[0] = r
        np.multiply(self.xt, r, out=rows[1 : p + 1])
        if need_info:
            at = p + 1
            for j in range(p):
                np.multiply(rows[1 + j], self.xt[j:], out=rows[at : at + p - j])
                at += p - j
        # Risk-set sums: a reverse cumsum over the head plus the tail total.
        sums = np.take(np.cumsum(rows[:, : self.head][:, ::-1], axis=1), self.ev_col, axis=1)
        sums += rows[:, self.head :].sum(axis=1)[:, None]
        s0_e = sums[0]
        xbar = sums[1 : p + 1] / s0_e
        loglik = float(self.w_ev @ eta[self.ev_pos] - self.w_ev @ (np.log(s0_e) + shift))
        score = (self.xt_ev - xbar) @ self.w_ev
        info = None
        if need_info:
            upper = sums[p + 1 :] @ (self.w_ev / s0_e) - ((xbar * self.w_ev) @ xbar.T)[self.triu]
            info = upper[self.sym]
        return loglik, score, info, (eta, shift, s0_e, xbar.T)

    def weighted_score_terms(self, beta: np.ndarray) -> np.ndarray:
        """Per-record score contributions w_i L_i in input order.

        L_i is the exact decomposition of the score into martingale-style
        record terms: the record's own event deviation from the risk-set
        mean minus its accumulated exposure to the weighted baseline hazard.
        """
        _, _, _, (eta, shift, s0_e, xbar) = self.evaluate(beta, need_info=False)
        x = self.xt.T
        haz = self.w_ev / s0_e
        g0 = np.concatenate([[0.0], np.cumsum(haz)])[self.n_events_le]
        g1 = np.concatenate(
            [np.zeros((1, x.shape[1])), np.cumsum(haz[:, None] * xbar, axis=0)]
        )[self.n_events_le]
        terms = -np.exp(eta - shift)[:, None] * (x * g0[:, None] - g1)
        terms[self.ev_pos] += self.xt_ev.T - xbar
        terms *= self.w[:, None]
        out = np.empty_like(terms)
        out[self.order] = terms
        return out


def _prepare_blocks(blocks: Sequence[SurvivalData]):
    if not blocks:
        raise InputError("at least one block of records is required")
    p = blocks[0].n_covariates
    for b in blocks:
        if b.n_covariates != p:
            raise InputError("all blocks must share one covariate layout")
    total_weight = sum(float(b.weights.sum()) for b in blocks)
    center = sum(b.weights @ b.covariates for b in blocks) / total_weight
    prepared = [_PreparedBlock(b, center) for b in blocks if b.n > 0]
    n_events = sum(int(b.event.sum()) for b in blocks)
    if n_events == 0:
        raise NoEventsError("no events in any block; the partial likelihood is flat")
    return prepared, p, n_events


def _evaluate_all(prepared, beta: np.ndarray, need_info: bool):
    loglik = 0.0
    score = np.zeros_like(beta)
    info = np.zeros((beta.size, beta.size)) if need_info else None
    for block in prepared:
        ll_b, sc_b, in_b, _ = block.evaluate(beta, need_info)
        loglik += ll_b
        score += sc_b
        if need_info:
            info += in_b
    return loglik, score, info


def fit_cox_blocks(
    blocks: Sequence[SurvivalData], options: CoxOptions | None = None
) -> CoxFit:
    """Fit one coefficient vector to independent right-censored blocks.

    Args:
        blocks: record blocks; the log partial likelihood is their sum.
        options: iteration cap, starting value and whether to compute
            dfbetas; defaults apply when omitted. The dfbetas have one row
            per record, the blocks' records in block order.

    Raises:
        NoEventsError: no block contains an event.
        SingularInformationError: the information matrix cannot be factored,
            for instance when a covariate column is constant.
    """
    options = options or CoxOptions()
    prepared, p, n_events = _prepare_blocks(blocks)

    if options.initial is None:
        beta = np.zeros(p)
    else:
        beta = np.asarray(options.initial, dtype=float).copy()
        if beta.shape != (p,):
            raise InputError(f"initial value must have shape ({p},)")

    score_tol = SCORE_TOLERANCE * max(1, n_events)
    loglik, score, info = _evaluate_all(prepared, beta, need_info=True)
    if not np.isfinite(loglik):
        raise SingularInformationError("log partial likelihood is not finite at the start")

    converged = False
    iterations = 0
    step_norm = np.inf
    while iterations < options.max_iterations:
        if np.abs(score).max() < score_tol and step_norm < STEP_TOLERANCE:
            converged = True
            break
        try:
            direction = _solve_pd(info, score)
        except np.linalg.LinAlgError as exc:
            if np.abs(score).max() < score_tol:
                # Flat plateau: the score already vanished but curvature
                # decayed with it, as under a monotone likelihood. Stop at
                # the plateau value instead of failing.
                converged = True
                break
            raise SingularInformationError(
                f"information matrix is singular at iteration {iterations}: {exc}"
            ) from None
        scale = 1.0
        accepted = None
        for _ in range(MAX_STEP_HALVINGS + 1):
            candidate = beta + scale * direction
            # A far-out candidate can underflow a risk-set sum to zero; the
            # non-finite likelihood that follows rejects it just below.
            with np.errstate(divide="ignore", invalid="ignore"):
                cand_ll, cand_score, cand_info = _evaluate_all(prepared, candidate, need_info=True)
            if np.isfinite(cand_ll) and cand_ll >= loglik - 1e-10 * (1.0 + abs(loglik)):
                accepted = (candidate, cand_ll, cand_score, cand_info)
                break
            scale *= 0.5
        if accepted is None:
            break
        step_norm = float(np.abs(scale * direction).max())
        beta, loglik, score, info = accepted
        iterations += 1
    if not converged and iterations > 0:
        converged = np.abs(score).max() < score_tol and step_norm < STEP_TOLERANCE

    dfbetas = None
    if options.compute_dfbetas:
        dfbetas = _dfbetas(prepared, beta, info)

    return CoxFit(
        beta=beta,
        loglik=loglik,
        score=score,
        information=info,
        dfbetas=dfbetas,
        n_events=n_events,
        converged=converged,
        iterations=iterations,
    )


def fit_cox(data: SurvivalData, options: CoxOptions | None = None) -> CoxFit:
    """Fit a weighted proportional-hazards model to one block of records."""
    return fit_cox_blocks([data], options)


def _dfbetas(prepared, beta, info):
    terms = np.concatenate([block.weighted_score_terms(beta) for block in prepared])
    # Invert the p x p information once and apply it with a matmul: a
    # triangular solve with one right-hand side per row would let the BLAS
    # start threads in every pool worker.
    try:
        inv_info = _solve_pd(info, np.eye(beta.size))
    except np.linalg.LinAlgError as exc:
        raise SingularInformationError(str(exc)) from None
    return terms @ inv_info


def log_partial_likelihood(beta, data: SurvivalData) -> float:
    """Log partial likelihood of ``data`` at ``beta`` (Breslow ties)."""
    prepared, _, _ = _prepare_blocks([data])
    loglik, _, _ = _evaluate_all(prepared, np.asarray(beta, dtype=float), need_info=False)
    return loglik


def score_and_information(beta, data: SurvivalData):
    """Score vector and observed information of ``data`` at ``beta``."""
    prepared, _, _ = _prepare_blocks([data])
    _, score, info = _evaluate_all(prepared, np.asarray(beta, dtype=float), need_info=True)
    return score, info


def dfbeta_residuals(fit: CoxFit, data: SurvivalData) -> np.ndarray:
    """Per-record influence of each record on the fitted coefficients.

    Row i approximates the change in ``fit.beta`` from deleting record i,
    computed exactly as information-inverse times the record's weighted
    score contribution. At a converged fit the rows sum to the score scaled
    the same way, which is numerically zero.
    """
    prepared, _, _ = _prepare_blocks([data])
    return _dfbetas(prepared, fit.beta, fit.information)
