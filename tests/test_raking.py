"""Tests for generalized-raking weights and the reweighted estimators."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from reference import ref_fit, ref_raking_lambda
from survrake.calibration import ErrorMode, ErrorModelSpec
from survrake.cohort import CohortData
from survrake.cox import SurvivalData, fit_cox
from survrake.design import SamplingPlan, TwoPhaseDesign, draw_validation
from survrake.errors import (
    DegenerateAuxiliaryError,
    EmptyValidationError,
    InputError,
    NonFiniteInputError,
    SingularCalibrationError,
)
from survrake.raking import (
    AuxiliaryMatrix,
    AuxiliarySource,
    grn_estimate,
    grrc_estimate,
    ht_estimate,
    solve_raking,
)

OUTCOME_ONLY = ErrorModelSpec(ErrorMode.OUTCOME_ONLY)
BOTH = ErrorModelSpec(ErrorMode.BOTH)


def make_cohort(seed=0, n=400, s2_eps=0.25, s2_nu=0.4):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    z = rng.normal(2.0, 1.0, n)
    t = rng.exponential(1.0 / (0.1 * np.exp(0.4 * x + 0.7 * z)))
    c = rng.uniform(2.0, 5.0, n)
    u = np.minimum(t, c)
    d = t <= c
    x_star = x + rng.normal(0.0, np.sqrt(s2_eps), n)
    u_star = np.abs(u + 1.5 + 0.2 * x - 0.3 * z + rng.normal(0.0, np.sqrt(s2_nu), n))
    return CohortData(
        u_star, d, x_star, z, time=u, delta=d.astype(float), x=x
    )


def error_free_cohort(seed=3, n=300):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    z = rng.normal(2.0, 1.0, n)
    t = rng.exponential(1.0 / (0.1 * np.exp(0.4 * x + 0.7 * z)))
    c = rng.uniform(2.0, 5.0, n)
    u = np.minimum(t, c)
    d = t <= c
    return CohortData(u, d, x, z, time=u, delta=d.astype(float), x=x)


def true_fit(cohort):
    return fit_cox(
        SurvivalData(
            cohort.time,
            cohort.delta.astype(bool),
            np.column_stack([cohort.x, cohort.z]),
        )
    )


class TestAuxiliaryMatrix:
    def test_zero_column_rejected(self):
        values = np.column_stack([np.ones(5), np.zeros(5)])
        with pytest.raises(DegenerateAuxiliaryError):
            AuxiliaryMatrix(values)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInputError):
            AuxiliaryMatrix(np.array([[1.0], [np.nan]]))

    def test_vector_promoted_to_column(self):
        aux = AuxiliaryMatrix(np.arange(1.0, 5.0))
        assert aux.values.shape == (4, 1)
        assert aux.k == 1
        assert aux.source is AuxiliarySource.CUSTOM


class TestSolveRaking:
    def test_census_design_needs_no_adjustment(self):
        rng = np.random.default_rng(1)
        n = 20
        design = TwoPhaseDesign(np.ones(n, dtype=bool), np.ones(n))
        solution = solve_raking(design, AuxiliaryMatrix(rng.normal(size=(n, 2))))
        assert_allclose(solution.lambda_, np.zeros(2), atol=1e-12)
        assert_allclose(solution.g, np.ones(n), atol=1e-12)
        assert_allclose(solution.weights, np.ones(n), atol=1e-12)
        assert solution.iterations == 0
        assert solution.converged

    def test_matching_totals_keep_design_weights(self):
        # Selected rows replicate the unselected ones, so the weighted
        # totals already equal the cohort totals and no adjustment is made.
        aux = np.array([[1.0, 0.5], [-0.5, 2.0], [1.0, 0.5], [-0.5, 2.0]])
        design = TwoPhaseDesign(
            np.array([True, True, False, False]), np.array([0.5, 0.5, 0.5, 0.5])
        )
        solution = solve_raking(design, AuxiliaryMatrix(aux))
        assert_allclose(solution.lambda_, np.zeros(2), atol=1e-12)
        assert_allclose(solution.weights[:2], [2.0, 2.0], atol=1e-12)
        assert solution.converged

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_dual_grid_search_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 30, 10
        aux = rng.normal(0.0, 0.5, (n, 2))
        selected = np.zeros(n, dtype=bool)
        selected[rng.choice(n, m, replace=False)] = True
        design = TwoPhaseDesign(selected, np.full(n, m / n))
        solution = solve_raking(design, AuxiliaryMatrix(aux))
        oracle = ref_raking_lambda(selected, design.pi, aux)
        assert_allclose(solution.lambda_, oracle, atol=1e-3)
        oracle_weights = np.exp(-(aux[selected] @ oracle)) / design.pi[selected]
        assert_allclose(
            solution.weights[selected], oracle_weights, rtol=1e-3
        )

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_constraints_hold_and_weights_positive(self, seed):
        rng = np.random.default_rng(seed)
        n = 80
        aux = rng.normal(0.0, 1.0, (n, 3))
        selected = rng.random(n) < 0.4
        selected[:3] = True
        pi = rng.uniform(0.2, 0.9, n)
        design = TwoPhaseDesign(selected, pi)
        solution = solve_raking(design, AuxiliaryMatrix(aux))
        assert solution.converged
        assert (solution.g > 0).all()
        totals = aux.sum(axis=0)
        reweighted = aux[selected].T @ solution.weights[selected]
        assert_allclose(reweighted, totals, atol=1e-8 * (1 + np.abs(totals).max()))
        assert_array_equal(solution.weights[~selected], 0.0)

    def test_constant_column_calibrates_count(self):
        rng = np.random.default_rng(20)
        n = 60
        aux = np.column_stack([np.ones(n), rng.normal(size=n)])
        selected = np.zeros(n, dtype=bool)
        selected[rng.choice(n, 25, replace=False)] = True
        design = TwoPhaseDesign(selected, np.full(n, 25 / n))
        solution = solve_raking(design, AuxiliaryMatrix(aux))
        assert_allclose(solution.weights.sum(), n, atol=1e-8 * n)

    def test_linear_invariance_of_weights(self):
        rng = np.random.default_rng(21)
        n = 50
        aux = rng.normal(0.0, 0.8, (n, 2))
        selected = np.zeros(n, dtype=bool)
        selected[rng.choice(n, 20, replace=False)] = True
        design = TwoPhaseDesign(selected, np.full(n, 0.4))
        transform = np.array([[2.0, 0.3], [-0.5, 1.5]])
        mixed = aux @ transform.T
        base = solve_raking(design, AuxiliaryMatrix(aux))
        mapped = solve_raking(design, AuxiliaryMatrix(mixed))
        assert_allclose(mapped.weights, base.weights, atol=1e-6)

    def test_affine_invariance_with_intercept_column(self):
        rng = np.random.default_rng(21)
        n = 50
        core = rng.normal(0.0, 0.8, (n, 2))
        selected = np.zeros(n, dtype=bool)
        selected[rng.choice(n, 20, replace=False)] = True
        design = TwoPhaseDesign(selected, np.full(n, 0.4))
        transform = np.array([[2.0, 0.3], [-0.5, 1.5]])
        shifted = core @ transform.T + np.array([0.7, -1.2])
        base = solve_raking(
            design, AuxiliaryMatrix(np.column_stack([np.ones(n), core]))
        )
        mapped = solve_raking(
            design, AuxiliaryMatrix(np.column_stack([np.ones(n), shifted]))
        )
        assert_allclose(mapped.weights, base.weights, atol=1e-6)

    def test_singular_cross_product_rejected(self):
        rng = np.random.default_rng(22)
        n = 30
        col = rng.normal(size=n)
        design = TwoPhaseDesign(
            np.ones(n, dtype=bool), np.full(n, 0.5)
        )
        with pytest.raises(SingularCalibrationError):
            solve_raking(design, AuxiliaryMatrix(np.column_stack([col, 2 * col])))

    def test_nonfinite_newton_system_rejected(self):
        # Validated auxiliaries all on the opposite side of the cohort
        # totals: the adjustment factors overflow and the Newton Hessian
        # turns non-finite, which must surface as a calibration failure
        # the bootstrap counts as a dropped replicate.
        aux = np.random.default_rng(11).standard_normal((50, 2))
        selected = np.arange(50) < 10
        aux = np.where(selected[:, None], -np.abs(aux), np.abs(aux))
        design = TwoPhaseDesign(selected, np.full(50, 0.2))
        with pytest.raises(SingularCalibrationError):
            solve_raking(design, AuxiliaryMatrix(aux))

    def test_empty_validation_rejected(self):
        design = TwoPhaseDesign(np.zeros(4, dtype=bool), np.full(4, 0.5))
        with pytest.raises(EmptyValidationError):
            solve_raking(design, AuxiliaryMatrix(np.ones((4, 1))))

    def test_size_mismatch_rejected(self):
        design = TwoPhaseDesign(np.ones(4, dtype=bool), np.ones(4))
        with pytest.raises(InputError):
            solve_raking(design, AuxiliaryMatrix(np.ones((5, 1))))


class TestHtEstimate:
    def test_census_equals_true_fit(self):
        cohort = error_free_cohort()
        design = TwoPhaseDesign(np.ones(cohort.n, dtype=bool), np.ones(cohort.n))
        fit = ht_estimate(cohort, design)
        assert_allclose(fit.beta, true_fit(cohort).beta, atol=1e-12)

    def test_case_cohort_matches_weighted_oracle(self):
        cohort = make_cohort(seed=30, n=250)
        design = draw_validation(cohort, SamplingPlan.case_cohort(0.2, seed=7))
        fit = ht_estimate(cohort, design)
        sel = design.selected
        oracle = ref_fit(
            cohort.time[sel],
            cohort.delta[sel].astype(bool),
            np.column_stack([cohort.x[sel], cohort.z[sel]]),
            w=1.0 / design.pi[sel],
        )
        assert_allclose(fit.beta, oracle, atol=2e-6)

    def test_empty_validation_rejected(self):
        cohort = make_cohort(seed=31, n=60)
        design = TwoPhaseDesign(np.zeros(60, dtype=bool), np.full(60, 0.5))
        with pytest.raises(EmptyValidationError):
            ht_estimate(cohort, design)


class TestGrnEstimate:
    def test_census_no_error_equals_true_fit(self):
        cohort = error_free_cohort()
        design = TwoPhaseDesign(np.ones(cohort.n, dtype=bool), np.ones(cohort.n))
        fit, solution = grn_estimate(cohort, design)
        assert_allclose(fit.beta, true_fit(cohort).beta, atol=1e-10)
        assert_allclose(solution.weights, np.ones(cohort.n), atol=1e-10)
        assert solution.converged

    def test_srs_design_produces_calibrated_weights(self):
        cohort = make_cohort(seed=32)
        design = draw_validation(cohort, SamplingPlan.srs(120, seed=2))
        fit, solution = grn_estimate(cohort, design)
        assert fit.converged
        assert solution.converged
        assert solution.g[design.selected].min() > 0
        assert_array_equal(solution.weights[~design.selected], 0.0)
        # The calibrated weights reproduce the influence totals of the
        # preliminary fit over the whole cohort.
        assert solution.constraint_residual <= 1e-8 * (
            1 + np.abs(solution.weights).max()
        )

    def test_deterministic(self):
        cohort = make_cohort(seed=33)
        design = draw_validation(cohort, SamplingPlan.srs(100, seed=5))
        first, _ = grn_estimate(cohort, design)
        second, _ = grn_estimate(cohort, design)
        assert_array_equal(first.beta, second.beta)


class TestGrrcEstimate:
    def test_error_free_equals_grn(self):
        cohort = error_free_cohort()
        design = draw_validation(cohort, SamplingPlan.srs(90, seed=4))
        grn_fit, grn_solution = grn_estimate(cohort, design)
        grrc_fit, grrc_solution = grrc_estimate(cohort, design, BOTH)
        assert_allclose(grrc_fit.beta, grn_fit.beta, atol=1e-10)
        assert_allclose(grrc_solution.lambda_, grn_solution.lambda_, atol=1e-10)

    def test_srs_matches_unweighted_calibration_pipeline(self):
        from survrake.calibration import Weighting, apply_rc, build_calibration
        from survrake.cox import CoxOptions
        from survrake.raking import AuxiliaryMatrix as Aux

        cohort = make_cohort(seed=34)
        design = draw_validation(cohort, SamplingPlan.srs(110, seed=6))
        fit, solution = grrc_estimate(cohort, design, OUTCOME_ONLY)

        synced = cohort.with_design(design.selected, design.pi)
        model = build_calibration(synced, OUTCOME_ONLY, Weighting.UNWEIGHTED)
        calibrated = apply_rc(synced, model)
        prelim = fit_cox(
            SurvivalData(
                calibrated.u_hat,
                calibrated.event,
                np.column_stack([calibrated.x_hat, synced.z]),
            ),
            CoxOptions(compute_dfbetas=True),
        )
        manual = solve_raking(design, Aux(prelim.dfbetas))
        assert_allclose(solution.lambda_, manual.lambda_, atol=1e-10)
        expected = fit_cox(
            SurvivalData(
                synced.time[design.selected],
                synced.delta[design.selected].astype(bool),
                synced.validated_covariates(),
                weights=manual.weights[design.selected],
            )
        )
        assert_allclose(fit.beta, expected.beta, atol=1e-10)

    def test_correlated_error_modes_run(self):
        cohort = make_cohort(seed=35)
        design = draw_validation(cohort, SamplingPlan.bernoulli(0.35, seed=8))
        fit, solution = grrc_estimate(cohort, design, BOTH)
        assert fit.converged
        assert solution.converged
