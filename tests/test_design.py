"""Tests for validation-subset sampling and the stratified bootstrap."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from survrake.calibration import ErrorMode, rc_fit
from survrake.cohort import CohortData
from survrake.design import (
    BootstrapResult,
    SamplingKind,
    SamplingPlan,
    TwoPhaseDesign,
    draw_validation,
    stratified_bootstrap,
)
from survrake.errors import (
    AllReplicatesFailedError,
    BootstrapFailureError,
    InputError,
    InvalidConfigError,
    InvalidPlanError,
    SingularInformationError,
)


def make_cohort(seed=0, n=400, case_rate=0.3):
    """Fully observed cohort; the truth columns exist for every subject."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    z = rng.normal(2.0, 1.0, n)
    t = rng.exponential(1.0 / (0.1 * np.exp(0.4 * x + 0.7 * z)))
    c = np.quantile(t, 1.0 - case_rate) * np.ones(n)
    u = np.minimum(t, c)
    d = t <= c
    nu = rng.normal(0.0, 0.5, n)
    return CohortData(
        np.abs(u + 1.0 + nu),
        d,
        x,
        z,
        time=u,
        delta=d.astype(float),
        x=x,
        ids=np.arange(n),
    )


class TestTwoPhaseDesign:
    def test_validation(self):
        with pytest.raises(InputError):
            TwoPhaseDesign(np.array([True, False]), np.array([0.5, 0.0]))
        with pytest.raises(InputError):
            TwoPhaseDesign(np.array([True, False]), np.array([0.5, 1.5]))
        with pytest.raises(InputError):
            TwoPhaseDesign(np.array([True, False]), np.array([0.5]))
        with pytest.raises(InputError):
            TwoPhaseDesign(
                np.array([True, False]), np.array([0.5, 0.5]), strata=np.array([1])
            )

    def test_take_slices_all_fields(self):
        design = TwoPhaseDesign(
            np.array([True, False, True]),
            np.array([0.5, 0.5, 1.0]),
            strata=np.array([0, 1, 1]),
        )
        sub = design.take([2, 0])
        assert_array_equal(sub.selected, [True, True])
        assert_array_equal(sub.pi, [1.0, 0.5])
        assert_array_equal(sub.strata, [1, 0])
        assert design.take([0]).n_selected == 1


class TestSamplingPlan:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidPlanError):
            SamplingPlan.srs(0)
        with pytest.raises(InvalidPlanError):
            SamplingPlan.bernoulli(0.0)
        with pytest.raises(InvalidPlanError):
            SamplingPlan.bernoulli(1.2)
        with pytest.raises(InvalidPlanError):
            SamplingPlan.case_cohort(0.0)
        with pytest.raises(InvalidPlanError):
            SamplingPlan.case_cohort(1.5)
        with pytest.raises(InvalidPlanError):
            SamplingPlan(SamplingKind.SRS, size=10, probability=0.5)

    def test_classmethods_set_kind(self):
        assert SamplingPlan.srs(5).kind is SamplingKind.SRS
        assert SamplingPlan.bernoulli(0.2).kind is SamplingKind.BERNOULLI
        assert SamplingPlan.case_cohort(0.07).kind is SamplingKind.CASE_COHORT


class TestDrawValidation:
    def test_srs_selects_everyone_at_full_size(self):
        cohort = make_cohort()
        design = draw_validation(cohort, SamplingPlan.srs(cohort.n))
        assert design.selected.all()
        assert_array_equal(design.pi, np.ones(cohort.n))

    def test_srs_exact_count_and_probability(self):
        cohort = make_cohort(n=2000)
        design = draw_validation(cohort, SamplingPlan.srs(200, seed=3))
        assert design.n_selected == 200
        assert_allclose(design.pi, 0.1)
        assert_allclose((1.0 / design.pi[design.selected]).sum(), cohort.n)

    def test_srs_too_large_rejected(self):
        cohort = make_cohort(n=50)
        with pytest.raises(InvalidPlanError):
            draw_validation(cohort, SamplingPlan.srs(51))

    def test_deterministic_given_seed(self):
        cohort = make_cohort()
        a = draw_validation(cohort, SamplingPlan.srs(60, seed=9))
        b = draw_validation(cohort, SamplingPlan.srs(60, seed=9))
        c = draw_validation(cohort, SamplingPlan.srs(60, seed=10))
        assert_array_equal(a.selected, b.selected)
        assert (a.selected != c.selected).any()

    def test_bernoulli_probabilities(self):
        cohort = make_cohort(n=3000)
        design = draw_validation(cohort, SamplingPlan.bernoulli(0.25, seed=4))
        assert_allclose(design.pi, 0.25)
        count = design.n_selected
        sd = np.sqrt(cohort.n * 0.25 * 0.75)
        assert abs(count - 0.25 * cohort.n) < 4 * sd
        assert abs((1.0 / design.pi[design.selected]).sum() - cohort.n) < 16 * sd

    def test_case_cohort_bookkeeping(self):
        cohort = make_cohort(n=1500, case_rate=0.3)
        fraction = 0.07
        design = draw_validation(cohort, SamplingPlan.case_cohort(fraction, seed=5))
        cases = cohort.delta_star
        assert design.selected[cases].all()
        in_subcohort = design.pi == fraction
        outside_cases = cases & ~in_subcohort
        assert_allclose(design.pi[outside_cases], 1.0)
        assert_allclose(design.pi[~outside_cases], fraction)
        assert design.n_selected == int(round(fraction * cohort.n)) + int(
            outside_cases.sum()
        )
        assert_array_equal(design.strata, cases.astype(int))

    def test_case_cohort_empty_subcohort_rejected(self):
        cohort = make_cohort(n=5)
        with pytest.raises(InvalidPlanError):
            draw_validation(cohort, SamplingPlan.case_cohort(0.01))


class ReplicateRecorder:
    """Estimator stub that logs what each bootstrap replicate saw."""

    def __init__(self):
        self.n_selected = []
        self.n_total = []
        self.leading_selected = []

    def __call__(self, cohort, design):
        self.n_selected.append(design.n_selected)
        self.n_total.append(design.n)
        k = design.n_selected
        self.leading_selected.append(bool(design.selected[:k].all()))
        return np.array([1.0, 2.0])


class TestStratifiedBootstrap:
    def setup_method(self):
        self.cohort = make_cohort(seed=11, n=200)
        self.design = draw_validation(self.cohort, SamplingPlan.srs(50, seed=1))

    def test_constant_estimator_has_zero_se(self):
        result = stratified_bootstrap(
            self.cohort, self.design, lambda c, d: np.array([3.5]), B=10, seed=2
        )
        assert_array_equal(result.se, [0.0])
        assert_array_equal(result.ci, [[3.5, 3.5]])
        assert result.b_effective == 10
        assert result.n_failed == 0

    def test_strata_sizes_preserved_and_validated_first(self):
        recorder = ReplicateRecorder()
        stratified_bootstrap(self.cohort, self.design, recorder, B=5, seed=3)
        assert recorder.n_selected == [self.design.n_selected] * 5
        assert recorder.n_total == [self.cohort.n] * 5
        assert all(recorder.leading_selected)

    def test_without_design_strata_come_from_the_cohort(self):
        cohort = self.cohort.with_design(self.design.selected, self.design.pi)
        seen = []

        def estimator(c, d):
            seen.append((d, c.n_selected, bool(c.selected[: c.n_selected].all())))
            return np.array([c.time_star.sum()])

        result = stratified_bootstrap(cohort, None, estimator, B=5, seed=3)
        assert seen == [(None, self.design.n_selected, True)] * 5
        with_design = stratified_bootstrap(
            cohort, self.design, lambda c, d: np.array([c.time_star.sum()]), B=5, seed=3
        )
        assert_array_equal(result.estimates, with_design.estimates)

    def test_deterministic_given_seed(self):
        estimator = lambda c, d: np.array([c.time_star.sum()])
        a = stratified_bootstrap(self.cohort, self.design, estimator, B=8, seed=4)
        b = stratified_bootstrap(self.cohort, self.design, estimator, B=8, seed=4)
        c = stratified_bootstrap(self.cohort, self.design, estimator, B=8, seed=5)
        assert_array_equal(a.estimates, b.estimates)
        assert (a.estimates != c.estimates).any()

    def test_all_failures_raise(self):
        def failing(cohort, design):
            raise SingularInformationError("always fails")

        with pytest.raises(AllReplicatesFailedError):
            stratified_bootstrap(self.cohort, self.design, failing, B=4, seed=6)

    def test_majority_failures_raise(self):
        def flaky(cohort, design):
            if int(cohort.ids.sum()) % 2 == 0:
                raise SingularInformationError("even resample")
            return np.array([1.0])

        with pytest.raises(BootstrapFailureError):
            stratified_bootstrap(self.cohort, self.design, flaky, B=40, seed=7)

    def test_tolerated_failures_are_counted(self):
        def flaky(cohort, design):
            if int(cohort.ids.sum()) % 2 == 0:
                raise SingularInformationError("even resample")
            return np.array([1.0])

        result = stratified_bootstrap(
            self.cohort,
            self.design,
            flaky,
            B=40,
            seed=7,
            max_failure_fraction=0.9,
        )
        assert result.n_failed > 0
        assert result.b_effective == 40 - result.n_failed

    def test_percentile_interval_brackets_estimates(self):
        estimator = lambda c, d: np.array([c.time_star.mean()])
        result = stratified_bootstrap(self.cohort, self.design, estimator, B=30, seed=9)
        low, high = result.ci[0]
        assert low <= np.median(result.estimates[:, 0]) <= high
        assert low >= result.estimates[:, 0].min()
        assert high <= result.estimates[:, 0].max()

    def test_estimator_pipeline_reruns_per_replicate(self):
        def estimator(cohort, design):
            return rc_fit(
                cohort.with_design(design.selected, design.pi), ErrorMode.OUTCOME_ONLY
            )

        result = stratified_bootstrap(
            self.cohort, self.design, estimator, B=20, seed=10
        )
        assert result.estimates.shape == (20, 2)
        assert (result.se > 0).all()
        assert np.isfinite(result.estimates).all()

    def test_invalid_configurations_rejected(self):
        ok = lambda c, d: np.array([1.0])
        with pytest.raises(InvalidConfigError):
            stratified_bootstrap(self.cohort, self.design, ok, B=1)
        with pytest.raises(InputError):
            stratified_bootstrap(
                self.cohort, self.design.take(np.arange(10)), ok, B=4
            )
