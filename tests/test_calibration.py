"""Tests for the calibration estimators against independent oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from survrake.calibration import (
    U_HAT_FLOOR_FACTOR,
    CalibrationModel,
    ErrorMode,
    Weighting,
    apply_rc,
    build_calibration,
    rc_fit,
    rsrc_fit,
)
from survrake.cohort import CohortData
from survrake.cox import SurvivalData, fit_cox
from survrake.errors import (
    DimensionMismatchError,
    EmptyValidationError,
    InvalidConfigError,
    RankDeficientDesignError,
)

OUTCOME_ONLY = ErrorMode.OUTCOME_ONLY
BOTH = ErrorMode.BOTH
COVARIATE_ONLY = ErrorMode.COVARIATE_ONLY
# Explicit ids keep the parametrized test names independent of the mode strings.
MODES = pytest.mark.parametrize(
    "mode", [OUTCOME_ONLY, BOTH, COVARIATE_ONLY], ids=["spec0", "spec1", "spec2"]
)


def make_cohort(seed=0, n=300, m=80, s2_eps=0.3, s2_nu=0.4, p=1):
    """Survival cohort with additive error in covariates and follow-up."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (n, p))
    z = 2.0 + 0.5 * x[:, 0] + rng.normal(0.0, np.sqrt(0.75), n)
    rate = 0.1 * np.exp(0.4 * x[:, 0] + 0.7 * z)
    t = rng.exponential(1.0 / rate)
    c = rng.uniform(2.0, 5.0, n)
    u = np.minimum(t, c)
    d = t <= c
    eps = rng.normal(0.0, np.sqrt(s2_eps), (n, p))
    nu = rng.normal(0.0, np.sqrt(s2_nu), n)
    x_star = 0.1 + 0.9 * x + eps
    u_star = np.abs(u + 1.5 + 0.2 * x[:, 0] - 0.3 * z + nu)
    selected = np.zeros(n, dtype=bool)
    selected[rng.choice(n, m, replace=False)] = True
    return CohortData(
        u_star,
        d,
        x_star,
        z,
        selected=selected,
        pi=np.full(n, m / n),
        time=u,
        delta=d.astype(float),
        x=x,
    )


def error_free_cohort(seed=5, n=250, m=70):
    """Cohort whose error-prone columns equal the truth exactly."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    z = 2.0 + rng.normal(0.0, 1.0, n)
    t = rng.exponential(1.0 / (0.1 * np.exp(0.4 * x + 0.7 * z)))
    c = rng.uniform(2.0, 5.0, n)
    u = np.minimum(t, c)
    d = t <= c
    selected = np.zeros(n, dtype=bool)
    selected[rng.choice(n, m, replace=False)] = True
    return CohortData(
        u, d, x, z, selected=selected, time=u, delta=d.astype(float), x=x
    )


def moment_solve(design, response, weights):
    """Weighted normal equations assembled from explicit plug-in moments."""
    w = weights / weights.sum()
    m = np.einsum("i,ij,ik->jk", w, design, design)
    c = np.einsum("i,ij,i...->j...", w, design, response)
    return np.linalg.solve(m, c)


class TestErrorMode:
    def test_correction_flags(self):
        assert not OUTCOME_ONLY.corrects_x and OUTCOME_ONLY.corrects_u
        assert BOTH.corrects_x and BOTH.corrects_u
        assert COVARIATE_ONLY.corrects_x and not COVARIATE_ONLY.corrects_u

    def test_string_values_accepted(self):
        cohort = make_cohort(seed=14)
        for mode in ErrorMode:
            model = build_calibration(cohort, mode.value)
            expected = build_calibration(cohort, mode)
            assert_array_equal(model.zeta_x, expected.zeta_x)
            assert_array_equal(model.zeta_omega, expected.zeta_omega)


class TestCalibrationOracles:
    def test_x_calibration_matches_moment_algebra(self):
        cohort = make_cohort(seed=1, p=2)
        zeta = build_calibration(cohort, BOTH).zeta_x
        rows = cohort.selected
        design = np.column_stack(
            [np.ones(rows.sum()), cohort.x_star[rows], cohort.z[rows]]
        )
        expected = moment_solve(design, cohort.x[rows], np.ones(rows.sum()))
        assert_allclose(zeta, expected, atol=1e-10)

    def test_omega_calibration_matches_moment_algebra(self):
        cohort = make_cohort(seed=2)
        zeta = build_calibration(cohort, BOTH).zeta_omega
        rows = cohort.selected
        design = np.column_stack(
            [np.ones(rows.sum()), cohort.x_star[rows], cohort.z[rows]]
        )
        expected = moment_solve(design, cohort.omega()[rows], np.ones(rows.sum()))
        assert_allclose(zeta, expected, atol=1e-10)

    def test_exact_linear_response_recovered(self):
        rng = np.random.default_rng(3)
        n = 120
        x_star = rng.normal(0.0, 1.0, n)
        z = rng.normal(2.0, 1.0, n)
        x = 0.3 + 0.8 * x_star + 0.1 * z
        u = rng.uniform(0.5, 4.0, n)
        omega = 1.5 - 0.4 * x_star + 0.25 * z
        cohort = CohortData(
            u + omega,
            np.ones(n, dtype=bool),
            x_star,
            z,
            selected=np.ones(n, dtype=bool),
            time=u,
            delta=np.ones(n),
            x=x,
        )
        model = build_calibration(cohort, BOTH)
        assert_allclose(model.zeta_x[:, 0], [0.3, 0.8, 0.1], atol=1e-8)
        assert_allclose(model.zeta_omega, [1.5, -0.4, 0.25], atol=1e-8)

    def test_outcome_only_regresses_on_true_covariates(self):
        cohort = make_cohort(seed=4)
        zeta = build_calibration(cohort, OUTCOME_ONLY).zeta_omega
        rows = cohort.selected
        design = np.column_stack(
            [np.ones(rows.sum()), cohort.x[rows], cohort.z[rows]]
        )
        expected = moment_solve(design, cohort.omega()[rows], np.ones(rows.sum()))
        assert_allclose(zeta, expected, atol=1e-10)

    def test_identity_covariates_recovered(self):
        cohort = error_free_cohort()
        zeta = build_calibration(cohort, COVARIATE_ONLY).zeta_x
        assert_allclose(zeta[:, 0], [0.0, 1.0, 0.0], atol=1e-8)

    def test_zero_omega_gives_zero_model(self):
        cohort = error_free_cohort()
        model = build_calibration(cohort, OUTCOME_ONLY)
        assert_allclose(model.zeta_omega, np.zeros(3), atol=1e-10)
        calibrated = apply_rc(cohort, model)
        assert_allclose(calibrated.u_hat, cohort.time_star, atol=1e-10)

    def test_ipw_with_constant_pi_equals_unweighted(self):
        cohort = make_cohort(seed=6)
        ipw = build_calibration(cohort, BOTH, Weighting.IPW)
        unweighted = build_calibration(cohort, BOTH)
        assert_allclose(ipw.zeta_x, unweighted.zeta_x, atol=1e-10)
        assert_allclose(ipw.zeta_omega, unweighted.zeta_omega, atol=1e-10)

    def test_ipw_with_varying_pi_matches_weighted_oracle(self):
        cohort = make_cohort(seed=7)
        rng = np.random.default_rng(8)
        pi = rng.uniform(0.05, 1.0, cohort.n)
        cohort = cohort.with_design(cohort.selected, pi)
        zeta = build_calibration(cohort, BOTH, Weighting.IPW).zeta_omega
        rows = cohort.selected
        design = np.column_stack(
            [np.ones(rows.sum()), cohort.x_star[rows], cohort.z[rows]]
        )
        expected = moment_solve(design, cohort.omega()[rows], 1.0 / pi[rows])
        assert_allclose(zeta, expected, atol=1e-10)

    def test_ipw_without_pi_rejected(self):
        cohort = make_cohort(seed=9)
        cohort = cohort.with_design(cohort.selected, None)
        with pytest.raises(InvalidConfigError):
            build_calibration(cohort, BOTH, Weighting.IPW)

    def test_residuals_orthogonal_to_design(self):
        cohort = make_cohort(seed=10)
        zeta = build_calibration(cohort, BOTH).zeta_omega
        rows = cohort.selected
        design = np.column_stack(
            [np.ones(rows.sum()), cohort.x_star[rows], cohort.z[rows]]
        )
        resid = cohort.omega()[rows] - design @ zeta
        assert_allclose(design.T @ resid / rows.sum(), np.zeros(3), atol=1e-8)

    def test_collinear_design_rejected(self):
        rng = np.random.default_rng(11)
        n = 60
        x_star = rng.normal(0.0, 1.0, n)
        u = rng.uniform(0.5, 3.0, n)
        cohort = CohortData(
            u,
            np.ones(n, dtype=bool),
            x_star,
            x_star.copy(),
            selected=np.ones(n, dtype=bool),
            time=u,
            delta=np.ones(n),
            x=x_star + rng.normal(0.0, 0.1, n),
        )
        with pytest.raises(RankDeficientDesignError):
            build_calibration(cohort, COVARIATE_ONLY)

    def test_empty_validation_rejected(self):
        cohort = make_cohort(seed=12)
        unvalidated = cohort.with_design(np.zeros(cohort.n, dtype=bool))
        with pytest.raises(EmptyValidationError):
            build_calibration(unvalidated, COVARIATE_ONLY)
        with pytest.raises(EmptyValidationError):
            build_calibration(unvalidated, OUTCOME_ONLY)
        disjoint = np.zeros(cohort.n, dtype=bool)
        disjoint[~cohort.selected] = True
        with pytest.raises(EmptyValidationError):
            build_calibration(cohort, BOTH, subset=disjoint)

    def test_covariate_only_has_no_omega_model(self):
        cohort = make_cohort(seed=13)
        assert build_calibration(cohort, COVARIATE_ONLY).zeta_omega is None


class TestApplyRc:
    def test_covariate_only_times_pass_through(self):
        cohort = make_cohort(seed=20)
        calibrated = apply_rc(cohort, build_calibration(cohort, COVARIATE_ONLY))
        assert_array_equal(calibrated.u_hat, cohort.time_star)
        assert calibrated.n_clamped == 0

    def test_outcome_only_covariates_pass_through(self):
        cohort = make_cohort(seed=21)
        calibrated = apply_rc(cohort, build_calibration(cohort, OUTCOME_ONLY))
        assert_array_equal(calibrated.x_hat, cohort.x_star)

    def test_event_indicator_passes_through(self):
        cohort = make_cohort(seed=22)
        calibrated = apply_rc(cohort, build_calibration(cohort, BOTH))
        assert_array_equal(calibrated.event, cohort.delta_star)
        assert calibrated.event is not cohort.delta_star

    def test_prediction_is_affine_in_design(self):
        cohort = make_cohort(seed=23)
        model = build_calibration(cohort, BOTH)
        design = np.column_stack([np.ones(cohort.n), cohort.x_star, cohort.z])
        x_hat, omega = model.predict(cohort)
        assert_allclose(omega, design @ model.zeta_omega, atol=1e-12)
        assert_allclose(x_hat, design @ model.zeta_x, atol=1e-12)

    def test_sub_floor_times_squeezed_in_order(self):
        rng = np.random.default_rng(24)
        n_val, n_extra = 80, 60
        x = rng.normal(0.0, 1.0, n_val + n_extra)
        z = rng.normal(2.0, 1.0, n_val + n_extra)
        u_val = rng.uniform(1.0, 3.0, n_val)
        # Validated records carry a constant time error of 5; unvalidated
        # records get small observed times, so the corrected times go
        # negative for most of them.
        u_star = np.concatenate([u_val + 5.0, rng.uniform(0.0, 2.0, n_extra)])
        time = np.concatenate([u_val, np.zeros(n_extra)])
        selected = np.concatenate(
            [np.ones(n_val, dtype=bool), np.zeros(n_extra, dtype=bool)]
        )
        cohort = CohortData(
            u_star,
            np.ones(n_val + n_extra, dtype=bool),
            x,
            z,
            selected=selected,
            time=time,
            delta=np.ones(n_val + n_extra),
            x=x,
        )
        model = build_calibration(cohort, OUTCOME_ONLY)
        assert_allclose(model.zeta_omega, [5.0, 0.0, 0.0], atol=1e-8)
        calibrated = apply_rc(cohort, model)
        raw = cohort.time_star - model.predict(cohort)[1]
        floor = U_HAT_FLOOR_FACTOR * cohort.time_star.max()
        below = raw < floor
        assert calibrated.n_clamped == below.sum() > 0
        assert (calibrated.u_hat > 0).all()
        assert (calibrated.u_hat[below] <= floor).all()
        assert_array_equal(
            np.argsort(calibrated.u_hat[below]), np.argsort(raw[below])
        )
        assert_allclose(calibrated.u_hat[~below], raw[~below], atol=1e-12)

    def test_model_cohort_shape_mismatch_rejected(self):
        model = build_calibration(make_cohort(seed=25, p=2), BOTH)
        with pytest.raises(DimensionMismatchError):
            apply_rc(make_cohort(seed=26, p=1), model)


class TestRcFit:
    def test_matches_manual_pipeline(self):
        cohort = make_cohort(seed=30)
        fit = rc_fit(cohort, BOTH)
        calibrated = apply_rc(cohort, build_calibration(cohort, BOTH))
        expected = fit_cox(
            SurvivalData(
                calibrated.u_hat,
                calibrated.event,
                np.column_stack([calibrated.x_hat, cohort.z]),
            )
        )
        assert_array_equal(fit.beta, expected.beta)

    @MODES
    def test_error_free_data_reproduces_true_fit(self, mode):
        cohort = error_free_cohort()
        truth = fit_cox(
            SurvivalData(
                cohort.time,
                cohort.delta.astype(bool),
                np.column_stack([cohort.x, cohort.z]),
            )
        )
        assert_allclose(rc_fit(cohort, mode).beta, truth.beta, atol=1e-8)


class TestRsrcFit:
    def test_single_window_grids_reproduce_rc(self):
        cohort = make_cohort(seed=40)
        rc = rc_fit(cohort, BOTH)
        assert_allclose(rsrc_fit(cohort, BOTH, grid=(0.0,)).beta, rc.beta, atol=1e-12)
        assert_allclose(rsrc_fit(cohort, BOTH, grid=()).beta, rc.beta, atol=1e-12)

    def test_disabled_recalibration_reproduces_rc(self):
        # p + q + 1 = 3 validated rows fit the stage-one model exactly but
        # are too few to refit any window, so every window falls back.
        cohort = make_cohort(seed=41, m=3)
        rc = rc_fit(cohort, BOTH)
        fit = rsrc_fit(cohort, BOTH)
        assert fit.window_fallbacks == len(fit.cuts) - 1 > 0
        assert_allclose(fit.beta, rc.beta, atol=1e-10)

    @MODES
    def test_error_free_data_reproduces_true_fit(self, mode):
        cohort = error_free_cohort()
        truth = fit_cox(
            SurvivalData(
                cohort.time,
                cohort.delta.astype(bool),
                np.column_stack([cohort.x, cohort.z]),
            )
        )
        assert_allclose(rsrc_fit(cohort, mode).beta, truth.beta, atol=1e-8)

    def test_window_diagnostics(self):
        cohort = make_cohort(seed=42)
        fit = rsrc_fit(cohort, BOTH)
        assert fit.cuts[0] == 0.0
        assert (np.diff(fit.cuts) > 0).all()
        assert fit.n_events == int(cohort.delta_star.sum())
        assert fit.converged

    def test_small_validation_falls_back(self):
        cohort = make_cohort(seed=43, n=300, m=5)
        fit = rsrc_fit(cohort, BOTH)
        assert fit.window_fallbacks > 0
        assert fit.converged

    def test_invalid_grids_rejected(self):
        cohort = make_cohort(seed=44)
        with pytest.raises(InvalidConfigError):
            rsrc_fit(cohort, BOTH, grid=(0.2, 0.2))
        with pytest.raises(InvalidConfigError):
            rsrc_fit(cohort, BOTH, grid=(0.5, 0.3))
        with pytest.raises(InvalidConfigError):
            rsrc_fit(cohort, BOTH, grid=(0.5, 1.0))
        with pytest.raises(InvalidConfigError):
            rsrc_fit(cohort, BOTH, grid=(-0.1,))

    def test_deterministic_replay(self):
        first = rsrc_fit(make_cohort(seed=45), BOTH)
        second = rsrc_fit(make_cohort(seed=45), BOTH)
        assert_array_equal(first.beta, second.beta)
        assert_array_equal(first.cuts, second.cuts)

    def test_influence_rows_aggregate_by_subject(self):
        from survrake.cox import CoxOptions

        cohort = make_cohort(seed=46)
        fit = rsrc_fit(cohort, BOTH, options=CoxOptions(compute_dfbetas=True))
        assert fit.dfbetas.shape == (cohort.n, 2)
        assert_allclose(fit.dfbetas.sum(axis=0), np.zeros(2), atol=1e-6)
