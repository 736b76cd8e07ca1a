"""Two-phase validation sampling and stratified bootstrap uncertainty.

The sampling side draws the validation subset under the supported designs
and records every subject's selection probability. The bootstrap side
resamples within the validated and unvalidated strata separately, re-runs
the full estimator pipeline on each replicate, and summarizes the spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cohort import CohortData
from .errors import (
    AllReplicatesFailedError,
    BootstrapFailureError,
    EstimationError,
    InputError,
    InvalidConfigError,
    InvalidPlanError,
)

__all__ = [
    "TwoPhaseDesign",
    "SamplingKind",
    "SamplingPlan",
    "draw_validation",
    "BootstrapResult",
    "stratified_bootstrap",
]


@dataclass(frozen=True)
class TwoPhaseDesign:
    """Realized phase-two selection with known sampling probabilities.

    Attributes:
        selected: which subjects entered the validation subset.
        pi: selection probability for every subject, selected or not.
        strata: optional labels recording how the design grouped subjects
            (case-cohort designs label cases and non-cases).
    """

    selected: np.ndarray
    pi: np.ndarray
    strata: np.ndarray | None = None

    def __post_init__(self):
        selected = np.asarray(self.selected, dtype=bool)
        pi = np.asarray(self.pi, dtype=float)
        if selected.ndim != 1:
            raise InputError("selected must be one-dimensional")
        if pi.shape != selected.shape:
            raise InputError(f"pi has shape {pi.shape}, expected {selected.shape}")
        if not np.isfinite(pi).all() or (pi <= 0).any() or (pi > 1).any():
            raise InputError("sampling probabilities must lie in (0, 1]")
        strata = self.strata
        if strata is not None:
            strata = np.asarray(strata)
            if strata.shape != selected.shape:
                raise InputError(
                    f"strata has shape {strata.shape}, expected {selected.shape}"
                )
        object.__setattr__(self, "selected", selected)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "strata", strata)

    @property
    def n(self) -> int:
        return self.selected.shape[0]

    @property
    def n_selected(self) -> int:
        return int(self.selected.sum())

    def take(self, indices) -> "TwoPhaseDesign":
        """Design rows for the given subject indices (bootstrap resampling)."""
        indices = np.asarray(indices)
        return TwoPhaseDesign(
            selected=self.selected[indices],
            pi=self.pi[indices],
            strata=None if self.strata is None else self.strata[indices],
        )


class SamplingKind(str, Enum):
    """Supported phase-two sampling mechanisms."""

    SRS = "srs"
    BERNOULLI = "bernoulli"
    CASE_COHORT = "case-cohort"


@dataclass(frozen=True)
class SamplingPlan:
    """Recipe for drawing the validation subset.

    Exactly one of ``size`` (simple random sampling), ``probability``
    (Bernoulli sampling), or ``subcohort_fraction`` (case-cohort sampling)
    applies, matching ``kind``. The seed makes the draw reproducible.
    """

    kind: SamplingKind
    size: int | None = None
    probability: float | None = None
    subcohort_fraction: float | None = None
    seed: int = 0

    def __post_init__(self):
        kind = SamplingKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is SamplingKind.SRS:
            if self.size is None or int(self.size) < 1:
                raise InvalidPlanError("simple random sampling needs a positive size")
            if self.probability is not None or self.subcohort_fraction is not None:
                raise InvalidPlanError("simple random sampling takes only a size")
            object.__setattr__(self, "size", int(self.size))
        elif kind is SamplingKind.BERNOULLI:
            p = self.probability
            if p is None or not 0.0 < float(p) <= 1.0:
                raise InvalidPlanError("Bernoulli sampling needs a probability in (0, 1]")
            if self.size is not None or self.subcohort_fraction is not None:
                raise InvalidPlanError("Bernoulli sampling takes only a probability")
            object.__setattr__(self, "probability", float(p))
        else:
            f = self.subcohort_fraction
            if f is None or not 0.0 < float(f) <= 1.0:
                raise InvalidPlanError(
                    "case-cohort sampling needs a subcohort fraction in (0, 1]"
                )
            if self.size is not None or self.probability is not None:
                raise InvalidPlanError(
                    "case-cohort sampling takes only a subcohort fraction"
                )
            object.__setattr__(self, "subcohort_fraction", float(f))

    @classmethod
    def srs(cls, size: int, seed: int = 0) -> "SamplingPlan":
        return cls(SamplingKind.SRS, size=size, seed=seed)

    @classmethod
    def bernoulli(cls, probability: float, seed: int = 0) -> "SamplingPlan":
        return cls(SamplingKind.BERNOULLI, probability=probability, seed=seed)

    @classmethod
    def case_cohort(cls, subcohort_fraction: float, seed: int = 0) -> "SamplingPlan":
        return cls(SamplingKind.CASE_COHORT, subcohort_fraction=subcohort_fraction, seed=seed)


def draw_validation(cohort: CohortData, plan: SamplingPlan) -> TwoPhaseDesign:
    """Draw the phase-two validation subset prescribed by ``plan``.

    Simple random sampling selects exactly ``size`` subjects with
    probability size/n each. Bernoulli sampling selects each subject
    independently. Case-cohort sampling draws a simple random subcohort of
    round(fraction * n) subjects and adds every error-prone case; subcohort
    members keep probability ``fraction`` while the added outside cases are
    certainties, and the strata labels record the case indicator. The same
    plan (including its seed) always returns the same design.
    """
    n = cohort.n
    rng = np.random.default_rng(plan.seed)
    if plan.kind is SamplingKind.SRS:
        if plan.size > n:
            raise InvalidPlanError(f"cannot select {plan.size} of {n} subjects")
        selected = np.zeros(n, dtype=bool)
        selected[rng.choice(n, plan.size, replace=False)] = True
        return TwoPhaseDesign(selected, np.full(n, plan.size / n))
    if plan.kind is SamplingKind.BERNOULLI:
        selected = rng.random(n) < plan.probability
        return TwoPhaseDesign(selected, np.full(n, plan.probability))
    subcohort_size = int(round(plan.subcohort_fraction * n))
    if subcohort_size < 1:
        raise InvalidPlanError(
            f"subcohort fraction {plan.subcohort_fraction} rounds to an empty "
            f"subcohort at n={n}"
        )
    in_subcohort = np.zeros(n, dtype=bool)
    in_subcohort[rng.choice(n, subcohort_size, replace=False)] = True
    cases = cohort.delta_star
    selected = in_subcohort | cases
    pi = np.full(n, plan.subcohort_fraction)
    pi[cases & ~in_subcohort] = 1.0
    return TwoPhaseDesign(selected, pi, strata=cases.astype(int))


@dataclass(frozen=True)
class BootstrapResult:
    """Replicate estimates and the summaries derived from them.

    ``ci`` holds the equal-tailed percentile interval at the requested
    level, one row per coefficient.
    """

    estimates: np.ndarray
    se: np.ndarray
    ci: np.ndarray
    b_effective: int
    n_failed: int


def _extract_beta(result) -> np.ndarray:
    if isinstance(result, tuple):
        result = result[0]
    beta = getattr(result, "beta", result)
    return np.atleast_1d(np.asarray(beta, dtype=float))


def stratified_bootstrap(
    cohort: CohortData,
    design: TwoPhaseDesign | None,
    estimator,
    B: int,
    seed: int = 0,
    ci_level: float = 0.95,
    max_failure_fraction: float = 0.1,
) -> BootstrapResult:
    """Stratified bootstrap of ``estimator`` over validation membership.

    Each replicate resamples with replacement within the validated stratum
    and within the unvalidated stratum, preserving both sizes, and re-runs
    the estimator from scratch on the resampled cohort and design (the
    resampled rows arrive validated-first). Replicates live on private RNG
    streams derived from (seed, replicate index), so execution order cannot
    change the draws. Replicates whose estimator raises an estimation error
    are dropped and counted; more than ``max_failure_fraction`` of them
    failing is an error, as is losing every replicate.

    ``estimator`` is called as ``estimator(cohort, design)`` and may return
    a coefficient vector, a fit with a ``beta`` attribute, or a tuple whose
    first element is such a fit. Estimators that need no design take
    ``design=None``: the strata then come from ``cohort.selected`` and every
    replicate passes None on.
    """
    if B < 2:
        raise InvalidConfigError("the bootstrap needs at least two replicates")
    if design is not None and design.n != cohort.n:
        raise InputError(f"design covers {design.n} subjects, cohort has {cohort.n}")

    selected = cohort.selected if design is None else design.selected
    validated = np.flatnonzero(selected)
    unvalidated = np.flatnonzero(~selected)
    estimates = []
    n_failed = 0
    for b in range(B):
        rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
        rows = [
            rng.choice(stratum, stratum.size, replace=True)
            for stratum in (validated, unvalidated)
            if stratum.size
        ]
        indices = np.concatenate(rows) if rows else np.empty(0, dtype=int)
        try:
            replicate = estimator(
                cohort.take(indices), None if design is None else design.take(indices)
            )
            estimates.append(_extract_beta(replicate))
        except EstimationError:
            n_failed += 1
    if not estimates:
        raise AllReplicatesFailedError(f"all {B} bootstrap replicates failed")
    if n_failed > max_failure_fraction * B:
        raise BootstrapFailureError(
            f"{n_failed} of {B} bootstrap replicates failed, more than the "
            f"{max_failure_fraction:.0%} allowance"
        )
    matrix = np.vstack(estimates)
    alpha = (1.0 - ci_level) / 2.0
    return BootstrapResult(
        estimates=matrix,
        se=matrix.std(axis=0, ddof=1),
        ci=np.quantile(matrix, [alpha, 1.0 - alpha], axis=0).T,
        b_effective=matrix.shape[0],
        n_failed=n_failed,
    )
