"""Cohort generation and Monte Carlo evaluation of the estimators.

A scenario fixes one data generating mechanism: bivariate normal covariates
feed an exponential proportional-hazards event time, a uniform interval
censors it, and additive, possibly correlated errors contaminate one
covariate and the censored follow-up time. The observed time is reflected
across zero so it stays a legal follow-up time, and the event indicator can
optionally be misclassified with configured sensitivity and specificity.
``run_scenario`` replays the mechanism over independent seeded replications,
applies any subset of the estimators, and aggregates bias, standard error,
mean squared error, coverage, and rejection-rate summaries.

Replications run on private RNG streams derived from (seed, replicate,
role), so results are bit-identical for a given configuration no matter how
many worker processes execute them or which estimator subset runs.
"""

from __future__ import annotations

import math
import os
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .calibration import DEFAULT_RSRC_GRID, ErrorMode, Weighting
from .cohort import CohortData
from .design import SamplingPlan, draw_validation, stratified_bootstrap
from .errors import EstimationError, InvalidConfigError, NotBracketedError
from .estimators import ESTIMATOR_NAMES, ESTIMATORS, runner

# The two-sided 95 % normal critical value, norm.ppf(0.975) to the last bit.
# scipy is imported only inside the functions that need it, so importing
# survrake (and running ``survrake fit``) loads numpy alone.
Z_CRITICAL = 1.959963984540054

DEFAULT_ESTIMATORS = ("true", "naive", "complete", "rc", "rsrc", "grn", "grrc")


class ErrorKind(str, Enum):
    """Distribution family of the additive error pair."""

    NORMAL = "normal"
    GAMMA_MIXTURE = "gamma_mixture"


@dataclass(frozen=True)
class ErrorDistribution:
    """Shape of the additive error pair.

    The normal kind adds the configured systematic terms plus jointly
    normal noise to every record. The gamma mixture instead draws a shared
    exact-record indicator: with probability ``mix_p`` a record carries no
    error at all (the observed covariate and follow-up time equal the true
    ones, systematic terms included), otherwise both errors are the usual
    systematic terms plus shifted gamma noise whose covariance matrix
    among error-carrying records reproduces the configured one. Sharing
    the indicator keeps that noise correlation equal to the configured
    correlation; independent indicators would dilute it by the error
    probability.
    """

    kind: ErrorKind = ErrorKind.NORMAL
    mix_p: float = 0.5
    shape: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "kind", ErrorKind(self.kind))
        if not 0.0 < float(self.mix_p) < 1.0:
            raise InvalidConfigError("mixture zero-mass probability must lie in (0, 1)")
        if not float(self.shape) > 0.0:
            raise InvalidConfigError("gamma shape must be positive")
        object.__setattr__(self, "mix_p", float(self.mix_p))
        object.__setattr__(self, "shape", float(self.shape))

    @classmethod
    def normal(cls) -> "ErrorDistribution":
        return cls(ErrorKind.NORMAL)

    @classmethod
    def gamma_mixture(cls, mix_p: float = 0.5, shape: float = 2.0) -> "ErrorDistribution":
        return cls(ErrorKind.GAMMA_MIXTURE, mix_p=mix_p, shape=shape)

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "mix_p": self.mix_p, "shape": self.shape}

    @classmethod
    def from_dict(cls, data: dict) -> "ErrorDistribution":
        known = {"kind", "mix_p", "shape"}
        extra = set(data) - known
        if extra:
            raise InvalidConfigError(f"unknown error distribution keys: {sorted(extra)}")
        return cls(**data)


def _float3(value, name: str) -> tuple[float, float, float]:
    arr = tuple(float(v) for v in value)
    if len(arr) != 3:
        raise InvalidConfigError(f"{name} needs exactly three coefficients")
    return arr


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete recipe for one Monte Carlo scenario.

    Attributes:
        n: phase-one cohort size per replication.
        validation: sampling plan for the phase-two validation subset; its
            seed field is ignored because each replication draws on its own
            stream.
        beta_x: true log hazard ratio of the mismeasured covariate.
        beta_z: true log hazard ratio of the error-free covariate.
        lambda0: baseline hazard rate of the exponential event time.
        rho_xz: correlation of the bivariate normal covariate pair.
        censor_target: censoring fraction the interval was tuned for.
        censor_interval: (lower, length) of the uniform censoring law; an
            infinite lower endpoint disables censoring entirely.
        error_dist: distribution family of the additive error pair.
        sigma2_eps: variance of the covariate error.
        sigma2_nu: variance of the follow-up time error.
        sigma_eps_nu: covariance of the two errors.
        alpha: intercept and slopes of the error-prone covariate on (X, Z).
        gamma: intercept and slopes of the systematic time error on (X, Z).
        misclass: optional (sensitivity, specificity) of the observed event
            indicator; None leaves the indicator untouched.
        reps: number of Monte Carlo replications.
        seed: root seed for all replication streams.
        estimators: which estimators each replication runs.
        bootstrap_b: bootstrap replicates per estimator for standard
            errors, or None to skip bootstrap entirely.
        weighting: how calibration regressions weight validated records.
        rsrc_grid: quantile grid for the risk-set recalibration windows.
    """

    n: int
    validation: SamplingPlan
    beta_x: float
    beta_z: float
    lambda0: float = 0.1
    rho_xz: float = 0.5
    censor_target: float = 0.25
    censor_interval: tuple[float, float] = (math.inf, 1.0)
    error_dist: ErrorDistribution = field(default_factory=ErrorDistribution.normal)
    sigma2_eps: float = 0.0
    sigma2_nu: float = 0.0
    sigma_eps_nu: float = 0.0
    alpha: tuple[float, float, float] = (0.0, 1.0, 0.0)
    gamma: tuple[float, float, float] = (0.0, 0.0, 0.0)
    misclass: tuple[float, float] | None = None
    reps: int = 1
    seed: int = 0
    estimators: tuple[str, ...] = DEFAULT_ESTIMATORS
    bootstrap_b: int | None = None
    weighting: Weighting = Weighting.UNWEIGHTED
    rsrc_grid: tuple[float, ...] = DEFAULT_RSRC_GRID

    def __post_init__(self):
        if int(self.n) < 2:
            raise InvalidConfigError("cohort size must be at least 2")
        object.__setattr__(self, "n", int(self.n))
        if not isinstance(self.validation, SamplingPlan):
            raise InvalidConfigError("validation must be a SamplingPlan")
        for name in ("beta_x", "beta_z", "lambda0", "rho_xz", "censor_target",
                     "sigma2_eps", "sigma2_nu", "sigma_eps_nu"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.lambda0 <= 0.0:
            raise InvalidConfigError("baseline hazard rate must be positive")
        if not -1.0 < self.rho_xz < 1.0:
            raise InvalidConfigError("covariate correlation must lie in (-1, 1)")
        if not 0.0 <= self.censor_target < 1.0:
            raise InvalidConfigError("censoring target must lie in [0, 1)")
        lower, length = (float(v) for v in self.censor_interval)
        if math.isnan(lower) or lower < 0.0:
            raise InvalidConfigError("censoring interval lower endpoint must be nonnegative")
        if not length > 0.0 or math.isinf(length):
            raise InvalidConfigError("censoring interval length must be positive and finite")
        object.__setattr__(self, "censor_interval", (lower, length))
        if not isinstance(self.error_dist, ErrorDistribution):
            raise InvalidConfigError("error_dist must be an ErrorDistribution")
        if self.sigma2_eps < 0.0 or self.sigma2_nu < 0.0:
            raise InvalidConfigError("error variances must be nonnegative")
        if self.sigma_eps_nu**2 > self.sigma2_eps * self.sigma2_nu + 1e-12:
            raise InvalidConfigError(
                "error covariance matrix is not positive semidefinite"
            )
        object.__setattr__(self, "alpha", _float3(self.alpha, "alpha"))
        object.__setattr__(self, "gamma", _float3(self.gamma, "gamma"))
        if self.misclass is not None:
            sens, spec = (float(v) for v in self.misclass)
            if not (0.0 < sens <= 1.0 and 0.0 < spec <= 1.0):
                raise InvalidConfigError(
                    "sensitivity and specificity must lie in (0, 1]"
                )
            object.__setattr__(self, "misclass", (sens, spec))
        if int(self.reps) < 1:
            raise InvalidConfigError("need at least one replication")
        object.__setattr__(self, "reps", int(self.reps))
        object.__setattr__(self, "seed", int(self.seed))
        estimators = tuple(str(e) for e in self.estimators)
        unknown = [e for e in estimators if e not in ESTIMATORS]
        if unknown:
            raise InvalidConfigError(
                f"unknown estimators {unknown}; choose from {ESTIMATOR_NAMES}"
            )
        if len(set(estimators)) != len(estimators):
            raise InvalidConfigError("estimator list contains duplicates")
        object.__setattr__(self, "estimators", estimators)
        if self.bootstrap_b is not None:
            if int(self.bootstrap_b) < 2:
                raise InvalidConfigError("bootstrap needs at least two replicates")
            object.__setattr__(self, "bootstrap_b", int(self.bootstrap_b))
        object.__setattr__(self, "weighting", Weighting(self.weighting))
        object.__setattr__(
            self, "rsrc_grid", tuple(float(g) for g in self.rsrc_grid)
        )

    @property
    def has_covariate_error(self) -> bool:
        return not (self.sigma2_eps == 0.0 and self.alpha == (0.0, 1.0, 0.0))

    @property
    def has_time_error(self) -> bool:
        return not (self.sigma2_nu == 0.0 and self.gamma == (0.0, 0.0, 0.0))

    @property
    def error_mode(self) -> ErrorMode:
        """Error structure the calibration estimators should correct for.

        Degenerate error-free configurations keep the two-sided mode: its
        calibration regressions recover the identity exactly, so every
        corrected fit collapses to the true-data fit.
        """
        if self.has_covariate_error and not self.has_time_error:
            return ErrorMode.COVARIATE_ONLY
        if self.has_time_error and not self.has_covariate_error:
            return ErrorMode.OUTCOME_ONLY
        return ErrorMode.BOTH

    def to_dict(self) -> dict:
        """Plain-data form of the scenario for key-value config files."""
        plan = self.validation
        return {
            "n": self.n,
            "validation": {
                "kind": plan.kind.value,
                "size": plan.size,
                "probability": plan.probability,
                "subcohort_fraction": plan.subcohort_fraction,
            },
            "beta_x": self.beta_x,
            "beta_z": self.beta_z,
            "lambda0": self.lambda0,
            "rho_xz": self.rho_xz,
            "censor_target": self.censor_target,
            "censor_interval": list(self.censor_interval),
            "error_dist": self.error_dist.to_dict(),
            "sigma2_eps": self.sigma2_eps,
            "sigma2_nu": self.sigma2_nu,
            "sigma_eps_nu": self.sigma_eps_nu,
            "alpha": list(self.alpha),
            "gamma": list(self.gamma),
            "misclass": None if self.misclass is None else list(self.misclass),
            "reps": self.reps,
            "seed": self.seed,
            "estimators": list(self.estimators),
            "bootstrap_b": self.bootstrap_b,
            "weighting": self.weighting.value,
            "rsrc_grid": list(self.rsrc_grid),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Inverse of ``to_dict``; rejects unknown keys by name."""
        known = {f.name for f in cls.__dataclass_fields__.values()}
        extra = set(data) - known
        if extra:
            raise InvalidConfigError(f"unknown scenario keys: {sorted(extra)}")
        payload = dict(data)
        plan_data = payload.get("validation")
        if not isinstance(plan_data, dict):
            raise InvalidConfigError("scenario needs a validation plan mapping")
        plan_kwargs = {k: v for k, v in plan_data.items() if v is not None}
        unknown_plan = set(plan_kwargs) - {"kind", "size", "probability", "subcohort_fraction", "seed"}
        if unknown_plan:
            raise InvalidConfigError(f"unknown validation plan keys: {sorted(unknown_plan)}")
        payload["validation"] = SamplingPlan(**plan_kwargs)
        if "error_dist" in payload and isinstance(payload["error_dist"], dict):
            payload["error_dist"] = ErrorDistribution.from_dict(payload["error_dist"])
        for key in ("censor_interval", "alpha", "gamma", "estimators", "rsrc_grid"):
            if key in payload and payload[key] is not None:
                payload[key] = tuple(payload[key])
        if payload.get("misclass") is not None:
            payload["misclass"] = tuple(payload["misclass"])
        return cls(**payload)


def _draw_truth(rng, n, beta_x, beta_z, lambda0, rho_xz):
    """Draw (X, Z) and the uncensored event time T for n subjects."""
    pair = rng.standard_normal((n, 2))
    x = pair[:, 0]
    z = 2.0 + rho_xz * pair[:, 0] + math.sqrt(1.0 - rho_xz**2) * pair[:, 1]
    rate = lambda0 * np.exp(beta_x * x + beta_z * z)
    t = rng.exponential(1.0 / rate)
    return x, z, t


def _standardized_gamma(w, shape):
    """Map standard normal draws to mean 0, variance 1 gamma variates.

    The upper tail goes through the survival functions because the normal
    cdf rounds to exactly one beyond about eight standard deviations,
    which would map those draws to infinity.
    """
    from scipy.special import gammainccinv, gammaincinv, ndtr

    w = np.asarray(w, dtype=float)
    raw = np.where(
        w > 0.0,
        gammainccinv(shape, ndtr(-w)),
        gammaincinv(shape, ndtr(w)),
    )
    return (raw - shape) / math.sqrt(shape)


@lru_cache(maxsize=64)
def _copula_corr(shape: float, target: float, nodes: int = 64) -> float:
    """Normal-copula correlation reproducing a gamma-pair correlation.

    Evaluates the correlation of two standardized gamma variates driven by
    a bivariate normal with correlation r through the probability integral
    transform, using Gauss-Hermite quadrature, and solves for the r whose
    induced correlation equals ``target``.
    """
    from scipy.optimize import brentq
    from scipy.special import roots_hermitenorm

    points, weights = roots_hermitenorm(nodes)
    gvals = _standardized_gamma(points, shape)
    norm_const = weights.sum() ** 2

    def induced(r: float) -> float:
        mixed = r * points[:, None] + math.sqrt(1.0 - r**2) * points[None, :]
        gmix = _standardized_gamma(mixed, shape)
        return float(
            np.einsum("i,j,i,ij->", weights, weights, gvals, gmix) / norm_const
        )

    limit = 0.9995
    attainable_hi = induced(limit)
    attainable_lo = induced(-limit)
    if not attainable_lo <= target <= attainable_hi:
        raise InvalidConfigError(
            f"error correlation {target:.3f} is outside the attainable range "
            f"[{attainable_lo:.3f}, {attainable_hi:.3f}] for this gamma shape"
        )
    if abs(target) < 1e-12:
        return 0.0
    return float(brentq(lambda r: induced(r) - target, -limit, limit, xtol=1e-10))


def _draw_errors(config: ScenarioConfig, rng, n):
    """Draw the additive noise pair and, for the mixture, the error mask.

    Returns ``(eps, nu, errored)``. For the normal kind ``errored`` is
    None and every record carries its systematic error terms. For the
    gamma mixture ``errored`` flags the records that carry error; the
    noise pair has the configured covariance among those records, and the
    caller must leave the flagged-off records completely error free.
    """
    s2e, s2n, sen = config.sigma2_eps, config.sigma2_nu, config.sigma_eps_nu
    pair = rng.standard_normal((n, 2))
    dist = config.error_dist
    if dist.kind is ErrorKind.NORMAL:
        a = math.sqrt(s2e)
        b = sen / a if a > 0.0 else 0.0
        c = math.sqrt(max(s2n - b**2, 0.0))
        eps = a * pair[:, 0]
        nu = b * pair[:, 0] + c * pair[:, 1]
        return eps, nu, None
    errored = rng.random(n) >= dist.mix_p
    if s2e > 0.0 and s2n > 0.0 and sen != 0.0:
        r = _copula_corr(dist.shape, sen / math.sqrt(s2e * s2n))
        w_nu = r * pair[:, 0] + math.sqrt(1.0 - r**2) * pair[:, 1]
    else:
        w_nu = pair[:, 1]
    eps = np.zeros(n)
    nu = np.zeros(n)
    if s2e > 0.0:
        eps = _standardized_gamma(pair[:, 0], dist.shape) * math.sqrt(s2e)
    if s2n > 0.0:
        nu = _standardized_gamma(w_nu, dist.shape) * math.sqrt(s2n)
    return eps, nu, errored


def generate_cohort(config: ScenarioConfig, rng) -> CohortData:
    """Generate one phase-one cohort with truth attached to every record.

    Draw order is fixed: covariate normals, event times, censoring uniforms
    (skipped when the interval is infinite), error draws, then the
    misclassification uniforms (only when configured). The observed time is
    the absolute value of the contaminated follow-up, so it is always
    nonnegative, and the true event indicator is never altered by the
    additive errors. Under the gamma mixture the records flagged exact get
    the true covariate and follow-up unchanged; systematic error terms
    apply only to the error-carrying records.
    """
    n = config.n
    x, z, t = _draw_truth(
        rng, n, config.beta_x, config.beta_z, config.lambda0, config.rho_xz
    )
    lower, length = config.censor_interval
    if math.isinf(lower):
        c = np.full(n, np.inf)
    else:
        c = rng.uniform(lower, lower + length, n)
    u = np.minimum(t, c)
    d = t <= c
    eps, nu, errored = _draw_errors(config, rng, n)
    a0, a1, a2 = config.alpha
    g0, g1, g2 = config.gamma
    x_contaminated = a0 + a1 * x + a2 * z + eps
    omega = g0 + g1 * x + g2 * z + nu
    if errored is None:
        x_star = x_contaminated
        u_star = np.abs(u + omega)
    else:
        x_star = np.where(errored, x_contaminated, x)
        u_star = np.abs(u + np.where(errored, omega, 0.0))
    if config.misclass is not None:
        sens, spec = config.misclass
        flips = rng.random(n)
        delta_star = np.where(d, flips < sens, flips < 1.0 - spec)
    else:
        delta_star = d.copy()
    return CohortData(
        u_star,
        delta_star,
        x_star,
        z,
        time=u,
        delta=d.astype(float),
        x=x,
    )


def _boot_seed(config: ScenarioConfig, rep: int, est: str) -> int:
    stream = np.random.SeedSequence((config.seed, rep, 2, ESTIMATOR_NAMES.index(est)))
    return int(stream.generate_state(1, np.uint64)[0])


def _run_replicate(config: ScenarioConfig, rep: int) -> dict:
    """Run every requested estimator on one simulated replication.

    The true, naive, and complete-case rows report model standard errors
    from the inverse information. The corrected estimators report
    stratified-bootstrap standard errors when the scenario enables the
    bootstrap and no standard error otherwise. Returns a mapping from
    estimator name to (beta, se) with se None when no standard error
    applies; estimators whose numerics fail map to None and are dropped
    from the aggregate with a count.
    """
    gen_rng = np.random.default_rng(np.random.SeedSequence((config.seed, rep, 0)))
    cohort = generate_cohort(config, gen_rng)
    val_seed = int(
        np.random.SeedSequence((config.seed, rep, 1)).generate_state(1, np.uint64)[0]
    )
    plan = replace(config.validation, seed=val_seed)
    design = draw_validation(cohort, plan)
    cohort = cohort.with_design(design.selected, design.pi)
    out = {}
    for est in config.estimators:
        fit_fn = runner(est, config.error_mode, config.weighting, config.rsrc_grid)
        try:
            fit = fit_fn(cohort, design)
            beta = float(fit.beta[0])
            if ESTIMATORS[est].model_se:
                out[est] = (beta, float(fit.standard_errors()[0]))
            elif config.bootstrap_b is None:
                out[est] = (beta, None)
            else:
                boot = stratified_bootstrap(
                    cohort,
                    design,
                    fit_fn,
                    config.bootstrap_b,
                    seed=_boot_seed(config, rep, est),
                )
                out[est] = (beta, float(boot.se[0]))
        except EstimationError:
            out[est] = None
    return out


def _replicate_task(args):
    config, rep = args
    return _run_replicate(config, rep)


@dataclass(frozen=True)
class EstimatorRow:
    """Aggregated operating characteristics of one estimator.

    ``pct_bias`` is None when the true coefficient is zero; ``type1``
    takes its place there. ``ase``, ``cp``, ``type1``, and ``power`` are
    None when no standard error was available for the estimator.
    """

    estimator: str
    pct_bias: float | None
    type1: float | None
    ase: float | None
    ese: float | None
    mse: float | None
    cp: float | None
    power: float | None
    reps_used: int
    n_dropped: int


@dataclass(frozen=True)
class ScenarioResult:
    """Scenario summary: one row per requested estimator.

    ``runtime_seconds`` is informational and excluded from equality so two
    runs of the same configuration compare equal exactly when their
    statistical content is bit-identical.
    """

    config: ScenarioConfig
    rows: tuple[EstimatorRow, ...]
    reps: int
    runtime_seconds: float = field(compare=False, default=0.0)

    def row(self, estimator: str) -> EstimatorRow:
        for r in self.rows:
            if r.estimator == estimator:
                return r
        raise KeyError(estimator)


def _summarize(est: str, results: list, beta_true: float, reps: int) -> EstimatorRow:
    """Collapse per-replication (beta, se) pairs into one summary row."""
    kept = [r for r in results if r is not None]
    n_dropped = reps - len(kept)
    if not kept:
        return EstimatorRow(est, None, None, None, None, None, None, None, 0, n_dropped)
    betas = [b for b, _ in kept]
    ses = [s for _, s in kept]
    k = len(betas)
    mean = math.fsum(betas) / k
    ese = math.sqrt(math.fsum((b - mean) ** 2 for b in betas) / k)
    mse = math.fsum((b - beta_true) ** 2 for b in betas) / k
    identity_gap = abs(mse - (ese**2 + (mean - beta_true) ** 2))
    if identity_gap > 1e-10 * max(1.0, abs(mse)):
        raise AssertionError(
            f"squared-error decomposition violated for {est}: gap {identity_gap:.3e}"
        )
    pct_bias = None if beta_true == 0.0 else 100.0 * (mean - beta_true) / beta_true
    have_se = all(s is not None for s in ses)
    ase = cp = type1 = power = None
    if have_se:
        ase = math.fsum(ses) / k
        cp = math.fsum(
            1.0 for b, s in zip(betas, ses) if abs(b - beta_true) <= Z_CRITICAL * s
        ) / k
        rejections = math.fsum(
            1.0 for b, s in zip(betas, ses) if abs(b) > Z_CRITICAL * s
        ) / k
        power = rejections
        if beta_true == 0.0:
            type1 = rejections
    return EstimatorRow(
        est, pct_bias, type1, ase, ese, mse, cp, power, k, n_dropped
    )


def resolve_workers(workers: int | None = None) -> int:
    """Worker process count: explicit argument, else environment, else 1."""
    if workers is None:
        raw = os.environ.get("SURVRAKE_WORKERS", "")
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError as exc:
            raise InvalidConfigError(
                f"SURVRAKE_WORKERS must be an integer, got {raw!r}"
            ) from exc
    if int(workers) < 1:
        raise InvalidConfigError("worker count must be at least 1")
    return int(workers)


def run_scenario(config: ScenarioConfig, workers: int | None = None) -> ScenarioResult:
    """Run all replications of a scenario and aggregate the estimator rows.

    Replications are independent, each on RNG streams derived from
    (seed, replicate, role), and aggregation uses exactly rounded
    compensated sums in replicate order, so the result is bit-identical
    for any worker count. Replications where an estimator's numerics fail
    are dropped from that estimator's aggregate and counted.
    """
    started = _time.perf_counter()
    n_workers = resolve_workers(workers)
    args = [(config, rep) for rep in range(config.reps)]
    if n_workers == 1 or config.reps == 1:
        per_rep = [_replicate_task(a) for a in args]
    else:
        chunk = max(1, config.reps // (n_workers * 8))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            per_rep = list(pool.map(_replicate_task, args, chunksize=chunk))
    rows = tuple(
        _summarize(
            est,
            [rep_out.get(est) for rep_out in per_rep],
            config.beta_x,
            config.reps,
        )
        for est in config.estimators
    )
    return ScenarioResult(
        config=config,
        rows=rows,
        reps=config.reps,
        runtime_seconds=_time.perf_counter() - started,
    )


@dataclass(frozen=True)
class TunedCensoring:
    """Censoring interval tuned to hit a target censoring fraction."""

    lower: float
    length: float
    achieved: float
    n_subjects: int

    @property
    def interval(self) -> tuple[float, float]:
        return (self.lower, self.length)


def tune_censoring(
    config: ScenarioConfig,
    target: float | None = None,
    tolerance: float = 0.005,
    n: int = 100_000,
) -> TunedCensoring:
    """Tune the censoring interval's lower endpoint for a target fraction.

    Holds the interval length fixed, simulates one large cohort of true
    event times with common random numbers, and root-finds the lower
    endpoint whose empirical censoring fraction matches ``target``. A
    target of zero returns the infinite sentinel interval that disables
    censoring. Raises NotBracketedError, reporting the achievable range,
    when the target exceeds what the fixed length allows, and
    InvalidConfigError when ``n`` is below 1 or ``tolerance`` is not
    positive.
    """
    from scipy.optimize import brentq

    if int(n) < 1:
        raise InvalidConfigError(f"the tuning cohort needs at least one subject, got {n}")
    if not tolerance > 0.0:
        raise InvalidConfigError(f"tolerance must be positive, got {tolerance}")
    if target is None:
        target = config.censor_target
    target = float(target)
    if not 0.0 <= target < 1.0:
        raise InvalidConfigError("censoring target must lie in [0, 1)")
    length = config.censor_interval[1]
    if target == 0.0:
        return TunedCensoring(math.inf, length, 0.0, int(n))
    rng = np.random.default_rng(config.seed)
    _, _, t = _draw_truth(
        rng, int(n), config.beta_x, config.beta_z, config.lambda0, config.rho_xz
    )
    v = rng.random(int(n))

    def censored_fraction(lower: float) -> float:
        return float(np.mean(t > lower + length * v))

    at_zero = censored_fraction(0.0)
    if target > at_zero:
        raise NotBracketedError(
            f"a length-{length:g} interval cannot censor {target:.1%} of events",
            achievable=(0.0, at_zero),
        )
    hi = max(length, 1.0)
    while censored_fraction(hi) > target:
        hi *= 2.0
        if hi > float(t.max()) + length + 1.0:
            break
    lower = float(brentq(lambda l: censored_fraction(l) - target, 0.0, hi, xtol=1e-8))
    achieved = censored_fraction(lower)
    if abs(achieved - target) > tolerance:
        raise NotBracketedError(
            f"bisection stalled at censoring fraction {achieved:.4f} for target {target:.4f}",
            achievable=(0.0, at_zero),
        )
    return TunedCensoring(lower, length, achieved, int(n))
