"""Tests for cohort generation, scenario configs, and the Monte Carlo loop."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from survrake.calibration import ErrorMode, Weighting
from survrake.design import SamplingPlan
from survrake.errors import InvalidConfigError, NotBracketedError
from survrake.simulation import (
    DEFAULT_ESTIMATORS,
    ESTIMATOR_NAMES,
    Z_CRITICAL,
    ErrorDistribution,
    ErrorKind,
    ScenarioConfig,
    TunedCensoring,
    generate_cohort,
    resolve_workers,
    run_scenario,
    tune_censoring,
    _standardized_gamma,
)

BX = math.log(1.5)
BZ = math.log(2.0)
QUARTER_CENSORING = (3.291152, 2.0)
THREE_QUARTER_CENSORING = (0.343949, 0.4)


def make_config(**overrides):
    """Small error-free scenario; overrides customize one aspect per test."""
    base = dict(
        n=400,
        validation=SamplingPlan.srs(80),
        beta_x=BX,
        beta_z=BZ,
        reps=1,
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def correlated_error_kwargs():
    """Additive error settings with systematic and noise components."""
    return dict(
        sigma2_eps=0.5,
        sigma2_nu=0.5,
        sigma_eps_nu=0.15,
        alpha=(0.0, 0.9, -0.2),
        gamma=(3.0 * math.sqrt(0.5), 0.2, -0.3),
    )


class TestErrorDistribution:
    def test_mixture_probability_must_be_interior(self):
        with pytest.raises(InvalidConfigError):
            ErrorDistribution.gamma_mixture(mix_p=0.0)
        with pytest.raises(InvalidConfigError):
            ErrorDistribution.gamma_mixture(mix_p=1.0)

    def test_shape_must_be_positive(self):
        with pytest.raises(InvalidConfigError):
            ErrorDistribution.gamma_mixture(shape=0.0)

    def test_kind_accepts_plain_strings(self):
        dist = ErrorDistribution("gamma_mixture")
        assert dist.kind is ErrorKind.GAMMA_MIXTURE

    def test_dict_round_trip(self):
        dist = ErrorDistribution.gamma_mixture(mix_p=0.3, shape=4.0)
        assert ErrorDistribution.from_dict(dist.to_dict()) == dist

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidConfigError):
            ErrorDistribution.from_dict({"kind": "normal", "scale": 2.0})


class TestNormalAndGammaTransforms:
    """The scipy.special forms the generator uses match scipy.stats bit for bit."""

    def test_z_critical_is_the_normal_quantile(self):
        assert Z_CRITICAL == float(norm.ppf(0.975))

    @pytest.mark.parametrize("shape", [0.5, 2.0, 5.0])
    def test_standardized_gamma_matches_distribution_functions(self, shape):
        # Beyond about 8 standard deviations the upper tail needs the
        # survival-function branch; +-40 covers it on both sides.
        w = np.concatenate(
            [np.linspace(-40.0, 40.0, 8001), np.random.default_rng(3).standard_normal(20_000)]
        )
        raw = np.where(
            w > 0.0,
            gamma_dist.isf(norm.sf(w), a=shape),
            gamma_dist.ppf(norm.cdf(w), a=shape),
        )
        assert_array_equal(_standardized_gamma(w, shape), (raw - shape) / math.sqrt(shape))


class TestScenarioConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n=1),
            dict(validation="not a plan"),
            dict(lambda0=0.0),
            dict(rho_xz=1.0),
            dict(censor_target=1.0),
            dict(censor_interval=(-1.0, 2.0)),
            dict(censor_interval=(0.0, math.inf)),
            dict(censor_interval=(0.0, 0.0)),
            dict(sigma2_eps=-0.1),
            dict(sigma2_eps=0.1, sigma2_nu=0.1, sigma_eps_nu=0.5),
            dict(alpha=(0.0, 1.0)),
            dict(misclass=(0.0, 0.9)),
            dict(reps=0),
            dict(estimators=("true", "true")),
            dict(estimators=("true", "martingale")),
            dict(bootstrap_b=1),
        ],
    )
    def test_invalid_configurations_rejected(self, overrides):
        with pytest.raises(InvalidConfigError):
            make_config(**overrides)

    def test_error_mode_resolution(self):
        covariate = make_config(sigma2_eps=0.4)
        outcome = make_config(sigma2_nu=0.4, gamma=(1.0, 0.0, 0.0))
        both = make_config(sigma2_eps=0.4, sigma2_nu=0.4)
        assert covariate.error_mode is ErrorMode.COVARIATE_ONLY
        assert outcome.error_mode is ErrorMode.OUTCOME_ONLY
        assert both.error_mode is ErrorMode.BOTH
        assert make_config().error_mode is ErrorMode.BOTH

    def test_systematic_terms_alone_count_as_error(self):
        assert make_config(alpha=(0.1, 1.0, 0.0)).has_covariate_error
        assert make_config(gamma=(0.1, 0.0, 0.0)).has_time_error
        assert not make_config().has_covariate_error
        assert not make_config().has_time_error

    def test_dict_round_trip_through_json(self):
        config = make_config(
            validation=SamplingPlan.bernoulli(0.15),
            error_dist=ErrorDistribution.gamma_mixture(mix_p=0.4),
            misclass=(0.9, 0.85),
            bootstrap_b=50,
            weighting=Weighting.IPW,
            **correlated_error_kwargs(),
        )
        payload = json.loads(json.dumps(config.to_dict()))
        assert ScenarioConfig.from_dict(payload) == config

    def test_unknown_scenario_keys_rejected(self):
        payload = make_config().to_dict()
        payload["burnin"] = 10
        with pytest.raises(InvalidConfigError):
            ScenarioConfig.from_dict(payload)

    def test_estimator_menu_constants(self):
        assert set(DEFAULT_ESTIMATORS) < set(ESTIMATOR_NAMES)
        assert "ht" in ESTIMATOR_NAMES and "ht" not in DEFAULT_ESTIMATORS


class TestGenerateCohort:
    def test_error_free_cohort_reproduces_truth_exactly(self):
        config = make_config(censor_interval=QUARTER_CENSORING)
        cohort = generate_cohort(config, np.random.default_rng(0))
        assert np.array_equal(cohort.x_star.ravel(), cohort.x.ravel())
        assert np.array_equal(cohort.time_star, cohort.time)
        assert np.array_equal(cohort.delta_star, cohort.delta.astype(bool))

    def test_covariate_pair_moments(self):
        config = make_config(n=1_000_000)
        cohort = generate_cohort(config, np.random.default_rng(1))
        x, z = cohort.x.ravel(), cohort.z.ravel()
        assert abs(float(np.corrcoef(x, z)[0, 1]) - 0.5) < 0.01
        assert abs(float(x.mean())) < 0.005
        assert abs(float(z.mean()) - 2.0) < 0.005
        assert abs(float(x.var()) - 1.0) < 0.01
        assert abs(float(z.var()) - 1.0) < 0.01

    def test_normal_error_moments_match_configuration(self):
        config = make_config(
            n=1_000_000,
            sigma2_eps=0.5,
            sigma2_nu=0.5,
            sigma_eps_nu=0.15,
            gamma=(50.0, 0.0, 0.0),
        )
        cohort = generate_cohort(config, np.random.default_rng(2))
        eps = cohort.x_star.ravel() - cohort.x.ravel()
        nu = cohort.time_star - cohort.time - 50.0
        n = config.n
        for sample, target in ((eps, 0.5), (nu, 0.5)):
            centered = sample - sample.mean()
            se = float((centered**2).std()) / math.sqrt(n)
            assert abs(float(centered.var()) - target) < 3.0 * se
            assert abs(float(sample.mean())) < 3.0 * float(sample.std()) / math.sqrt(n)
        prod = (eps - eps.mean()) * (nu - nu.mean())
        se_cov = float(prod.std()) / math.sqrt(n)
        assert abs(float(prod.mean()) - 0.15) < 3.0 * se_cov

    def test_gamma_mixture_zeroes_whole_error_on_shared_mask(self):
        config = make_config(
            n=1_000_000,
            error_dist=ErrorDistribution.gamma_mixture(),
            **correlated_error_kwargs(),
        )
        cohort = generate_cohort(config, np.random.default_rng(5))
        x_star, x, z = cohort.x_star.ravel(), cohort.x.ravel(), cohort.z.ravel()
        exact = cohort.time_star == cohort.time
        assert np.array_equal(exact, x_star == x)
        assert abs(float(exact.mean()) - 0.5) < 0.003
        errored = ~exact
        eps = x_star[errored] - (0.9 * x[errored] - 0.2 * z[errored])
        systematic = 3.0 * math.sqrt(0.5) + 0.2 * x[errored] - 0.3 * z[errored]
        nu = cohort.time_star[errored] - cohort.time[errored] - systematic
        k = int(errored.sum())
        for sample in (eps, nu):
            centered = sample - sample.mean()
            se = float((centered**2).std()) / math.sqrt(k)
            assert abs(float(centered.var()) - 0.5) < 3.0 * se
        corr = float(np.corrcoef(eps, nu)[0, 1])
        assert abs(corr - 0.30) < 0.02

    def test_gamma_mixture_respects_mix_probability(self):
        config = make_config(
            n=200_000,
            error_dist=ErrorDistribution.gamma_mixture(mix_p=0.25),
            sigma2_nu=0.5,
            gamma=(2.0, 0.0, 0.0),
        )
        cohort = generate_cohort(config, np.random.default_rng(6))
        exact = float((cohort.time_star == cohort.time).mean())
        assert abs(exact - 0.25) < 0.005

    def test_negative_contaminated_times_reflect_across_zero(self):
        config = make_config(n=50_000, gamma=(-3.0, 0.0, 0.0), censor_interval=QUARTER_CENSORING)
        cohort = generate_cohort(config, np.random.default_rng(7))
        assert float(cohort.time_star.min()) >= 0.0
        assert np.array_equal(cohort.time_star, np.abs(cohort.time - 3.0))
        assert bool((cohort.time < 3.0).any())

    def test_misclassification_rates_match_configuration(self):
        kwargs = dict(n=100_000, censor_interval=QUARTER_CENSORING, seed=8)
        plain = generate_cohort(make_config(**kwargs), np.random.default_rng(8))
        flipped = generate_cohort(
            make_config(misclass=(0.9, 0.85), **kwargs), np.random.default_rng(8)
        )
        truth = plain.delta.astype(bool)
        assert np.array_equal(flipped.delta, plain.delta)
        sens = float(flipped.delta_star[truth].mean())
        spec = float((~flipped.delta_star[~truth]).mean())
        assert abs(sens - 0.9) < 0.01
        assert abs(spec - 0.85) < 0.01

    def test_censoring_fractions_at_tuned_intervals(self):
        common = generate_cohort(
            make_config(n=100_000, censor_interval=QUARTER_CENSORING),
            np.random.default_rng(9),
        )
        rare = generate_cohort(
            make_config(n=100_000, censor_interval=THREE_QUARTER_CENSORING),
            np.random.default_rng(10),
        )
        assert abs(1.0 - float(common.delta.mean()) - 0.25) < 0.02
        assert abs(1.0 - float(rare.delta.mean()) - 0.75) < 0.02


class TestTuneCensoring:
    def test_zero_target_returns_uncensored_sentinel(self):
        tuned = tune_censoring(make_config(), target=0.0)
        assert math.isinf(tuned.lower)
        assert tuned.achieved == 0.0
        assert tuned.interval == (tuned.lower, tuned.length)

    def test_recovers_quarter_censoring(self):
        config = make_config(censor_interval=(0.0, 2.0), seed=7)
        tuned = tune_censoring(config, target=0.25)
        assert abs(tuned.achieved - 0.25) <= 0.005
        check = generate_cohort(
            make_config(n=100_000, censor_interval=tuned.interval, seed=12),
            np.random.default_rng(12),
        )
        assert abs(1.0 - float(check.delta.mean()) - 0.25) < 0.01

    def test_recovers_rare_event_censoring(self):
        config = make_config(censor_interval=(0.0, 0.4), seed=7)
        tuned = tune_censoring(config, target=0.75)
        assert abs(tuned.achieved - 0.75) <= 0.005

    def test_unreachable_target_reports_achievable_range(self):
        config = make_config(censor_interval=(0.0, 2.0), seed=7)
        with pytest.raises(NotBracketedError) as excinfo:
            tune_censoring(config, target=0.97)
        low, high = excinfo.value.achievable
        assert low == 0.0
        assert 0.0 < high < 0.97

    def test_invalid_target_rejected(self):
        with pytest.raises(InvalidConfigError):
            tune_censoring(make_config(), target=1.0)
        with pytest.raises(InvalidConfigError):
            tune_censoring(make_config(), target=-0.1)

    def test_result_is_a_frozen_record(self):
        tuned = TunedCensoring(1.0, 2.0, 0.25, 1000)
        assert tuned.interval == (1.0, 2.0)
        with pytest.raises(AttributeError):
            tuned.lower = 2.0


class TestRunScenario:
    def test_error_free_census_collapses_every_estimator(self):
        config = make_config(
            n=250,
            validation=SamplingPlan.srs(250),
            censor_interval=QUARTER_CENSORING,
            reps=2,
            estimators=ESTIMATOR_NAMES,
        )
        result = run_scenario(config)
        reference = result.row("true")
        for row in result.rows:
            assert abs(row.pct_bias - reference.pct_bias) < 1e-9
            assert abs(row.ese - reference.ese) < 1e-12
            assert abs(row.mse - reference.mse) < 1e-12

    def test_replay_is_bit_identical(self):
        config = make_config(
            reps=6,
            censor_interval=QUARTER_CENSORING,
            estimators=("true", "naive", "rc", "grn"),
            **correlated_error_kwargs(),
        )
        first = run_scenario(config)
        second = run_scenario(config)
        assert first == second
        assert first.rows == second.rows

    def test_worker_count_does_not_change_results(self):
        config = make_config(
            reps=6,
            censor_interval=QUARTER_CENSORING,
            estimators=("true", "rc", "grn"),
            **correlated_error_kwargs(),
        )
        assert run_scenario(config, workers=2) == run_scenario(config, workers=1)

    def test_failed_replicates_drop_and_count(self):
        config = make_config(
            n=80,
            validation=SamplingPlan.srs(12),
            censor_interval=(0.0, 0.6),
            reps=20,
            seed=11,
            estimators=("true", "complete", "rc"),
        )
        result = run_scenario(config)
        complete = result.row("complete")
        assert complete.n_dropped > 0
        assert complete.reps_used + complete.n_dropped == config.reps
        assert result.row("true").reps_used == config.reps
        assert result.row("rc").reps_used == config.reps

    def test_null_effect_reports_type1_instead_of_bias(self):
        config = make_config(
            beta_x=0.0,
            censor_interval=QUARTER_CENSORING,
            reps=4,
            estimators=("true", "naive"),
        )
        result = run_scenario(config)
        for row in result.rows:
            assert row.pct_bias is None
            assert 0.0 <= row.type1 <= 1.0
            assert row.power == row.type1
            assert 0.0 <= row.cp <= 1.0

    def test_nonzero_effect_reports_bias_not_type1(self):
        config = make_config(censor_interval=QUARTER_CENSORING, reps=3)
        result = run_scenario(config)
        row = result.row("true")
        assert row.type1 is None
        assert isinstance(row.pct_bias, float)
        assert 0.0 <= row.power <= 1.0

    def test_no_bootstrap_leaves_se_metrics_empty(self):
        config = make_config(
            reps=3,
            censor_interval=QUARTER_CENSORING,
            estimators=("rc", "grn"),
            **correlated_error_kwargs(),
        )
        result = run_scenario(config)
        for row in result.rows:
            assert row.ase is None and row.cp is None
            assert row.type1 is None and row.power is None
            assert row.ese > 0.0

    def test_bootstrap_standard_errors_populate_metrics(self):
        config = make_config(
            reps=3,
            censor_interval=QUARTER_CENSORING,
            estimators=("grn",),
            bootstrap_b=8,
            **correlated_error_kwargs(),
        )
        row = run_scenario(config).row("grn")
        assert row.ase > 0.0
        assert 0.0 <= row.cp <= 1.0
        assert 0.0 <= row.power <= 1.0

    def test_census_design_weights_recover_true_fit(self):
        config = make_config(
            n=200,
            validation=SamplingPlan.srs(200),
            censor_interval=QUARTER_CENSORING,
            reps=2,
            estimators=("true", "ht"),
        )
        result = run_scenario(config)
        assert abs(result.row("ht").pct_bias - result.row("true").pct_bias) < 1e-9

    def test_squared_error_decomposition_holds(self):
        config = make_config(
            reps=5,
            censor_interval=QUARTER_CENSORING,
            estimators=("true", "naive", "rc"),
            **correlated_error_kwargs(),
        )
        result = run_scenario(config)
        for row in result.rows:
            bias = row.pct_bias / 100.0 * config.beta_x
            gap = abs(row.mse - (row.ese**2 + bias**2))
            assert gap <= 1e-12 * max(1.0, row.mse)

    def test_row_lookup_raises_for_unknown_estimator(self):
        result = run_scenario(make_config(reps=1, estimators=("true",)))
        with pytest.raises(KeyError):
            result.row("oracle")


class TestResolveWorkers:
    def test_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv("SURVRAKE_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv("SURVRAKE_WORKERS", "3")
        assert resolve_workers() == 3

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv("SURVRAKE_WORKERS", "5")
        assert resolve_workers(2) == 2

    def test_invalid_environment_value(self, monkeypatch):
        monkeypatch.setenv("SURVRAKE_WORKERS", "many")
        with pytest.raises(InvalidConfigError):
            resolve_workers()

    def test_nonpositive_count_rejected(self):
        with pytest.raises(InvalidConfigError):
            resolve_workers(0)
