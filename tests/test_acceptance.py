"""Acceptance gate: benchmark targets and the package-wide property suite.

Each test prints one PASS/FAIL line for its criterion (run with ``-s`` to
see the lines for passing tests). Benchmark targets come from large-scale
reference values of the same generating mechanisms; the reduced
replication counts here widen the stated tolerances accordingly. The
whole file is deterministic: every scenario runs at the registry seed.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from reference import ref_raking_lambda
from survrake.calibration import (
    ErrorMode,
    build_calibration,
    rc_fit,
    rsrc_fit,
)
from survrake.cohort import CohortData
from survrake.cox import (
    SurvivalData,
    dfbeta_residuals,
    fit_cox,
    log_partial_likelihood,
    score_and_information,
)
from survrake.design import SamplingPlan, TwoPhaseDesign, draw_validation
from survrake.io import load_scenario
from survrake.raking import (
    AuxiliaryMatrix,
    grn_estimate,
    grrc_estimate,
    ht_estimate,
    solve_raking,
)
from survrake.simulation import ScenarioConfig, generate_cohort, run_scenario

# The whole file is the slow gate; `pytest -m "not gate"` runs the rest.
pytestmark = pytest.mark.gate

REPS = 500


def report(label, ok, detail):
    line = f"{label}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def run(name, **overrides):
    config = replace(load_scenario(name), **overrides)
    return run_scenario(config)


def bias(result, estimator):
    return result.row(estimator).pct_bias


class TestBenchmarks:
    def test_c1_outcome_error_bias_and_ese(self):
        result = run("outcome_error_moderate", reps=REPS, bootstrap_b=None)
        targets = {
            "true": -0.03,
            "rc": -12.68,
            "rsrc": -5.06,
            "grn": 0.27,
            "naive": -37.56,
            "complete": 0.32,
        }
        ese_targets = {
            "true": 0.031,
            "rc": 0.043,
            "rsrc": 0.050,
            "grn": 0.059,
            "naive": 0.031,
            "complete": 0.098,
        }
        gaps = {est: bias(result, est) - ref for est, ref in targets.items()}
        ese_ratios = {
            est: result.row(est).ese / ref for est, ref in ese_targets.items()
        }
        ok_bias = all(abs(gap) <= 3.0 for gap in gaps.values())
        ok_ese = all(0.8 <= ratio <= 1.2 for ratio in ese_ratios.values())
        detail = ", ".join(
            f"{est} {bias(result, est):+.2f}% (target {ref:+.2f})"
            for est, ref in targets.items()
        )
        line = report("C1 outcome-error benchmark", ok_bias and ok_ese, detail)
        assert ok_bias and ok_ese, line

    def test_c2_correlated_error_bias(self):
        result = run("correlated_error_moderate", reps=REPS, bootstrap_b=None)
        rc = bias(result, "rc")
        grn = bias(result, "grn")
        grrc = bias(result, "grrc")
        naive = bias(result, "naive")
        ok = (
            abs(rc - (-13.76)) <= 3.0
            and abs(grn) <= 1.5
            and abs(grrc) <= 1.5
            and abs(grrc - grn) < 1.0
            and abs(naive - (-79.76)) <= 5.0
        )
        detail = (
            f"rc {rc:+.2f}% (target -13.76), grn {grn:+.2f}%, "
            f"grrc {grrc:+.2f}%, |grrc-grn| {abs(grrc - grn):.2f}, "
            f"naive {naive:+.2f}% (target -79.76)"
        )
        line = report("C2 correlated-error benchmark", ok, detail)
        assert ok, line

    def test_c3_large_effect_bias_and_mse(self):
        result = run("correlated_error_large", reps=REPS, bootstrap_b=None)
        rc = bias(result, "rc")
        grrc = bias(result, "grrc")
        mse_ratio = result.row("grrc").mse / result.row("rc").mse
        ok = (
            abs(rc - (-31.24)) <= 4.0
            and abs(grrc - 0.34) <= 1.5
            and mse_ratio < 0.25
        )
        detail = (
            f"rc {rc:+.2f}% (target -31.24), grrc {grrc:+.2f}% (target +0.34), "
            f"grrc/rc mse {mse_ratio:.3f} (< 0.25)"
        )
        line = report("C3 large-effect benchmark", ok, detail)
        assert ok, line

    def test_c4_null_effect_type1_error(self):
        result = run("correlated_error_null", reps=REPS, bootstrap_b=100)
        naive = result.row("naive").type1
        others = {
            est: result.row(est).type1
            for est in ("rc", "rsrc", "grn", "grrc", "complete")
        }
        ok = naive == 1.0 and all(0.03 <= v <= 0.07 for v in others.values())
        detail = f"naive {naive:.3f} (= 1.000), " + ", ".join(
            f"{est} {v:.3f}" for est, v in others.items()
        )
        line = report("C4 null-effect size", ok, detail)
        assert ok, line

    def test_c5_misclassified_indicator_bias(self):
        result = run("misclassified_indicator_rare", reps=REPS, bootstrap_b=None)
        rc = bias(result, "rc")
        grn = bias(result, "grn")
        grrc = bias(result, "grrc")
        ok = abs(rc - (-43.0)) <= 5.0 and abs(grn) < 3.0 and abs(grrc) < 3.0
        detail = (
            f"rc {rc:+.2f}% (target -43), grn {grn:+.2f}%, grrc {grrc:+.2f}%"
        )
        line = report("C5 misclassification benchmark", ok, detail)
        assert ok, line

    def test_c6_gamma_mixture_bias(self):
        result = run("gamma_mixture_outcome", reps=REPS, bootstrap_b=None)
        rc = bias(result, "rc")
        grrc = bias(result, "grrc")
        ok = abs(rc - (-19.6)) <= 4.0 and abs(grrc) < 2.0
        detail = f"rc {rc:+.2f}% (target -19.6), grrc {grrc:+.2f}%"
        line = report("C6 gamma-mixture robustness", ok, detail)
        assert ok, line

    def test_c8_bootstrap_ase_tracks_ese(self):
        result = run(
            "outcome_error_moderate",
            reps=200,
            bootstrap_b=100,
            estimators=("rc", "grn"),
        )
        ratios = {
            est: result.row(est).ase / result.row(est).ese
            for est in ("rc", "grn")
        }
        ok = all(0.8 <= r <= 1.2 for r in ratios.values())
        detail = ", ".join(f"{est} ase/ese {r:.3f}" for est, r in ratios.items())
        line = report("C8 bootstrap sanity", ok, detail)
        assert ok, line


def property_cohort(seed=0, n=350):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    z = rng.normal(1.0, 1.0, n)
    t = rng.exponential(1.0 / (0.1 * np.exp(0.4 * x + 0.7 * z)))
    c = rng.uniform(2.0, 6.0, n)
    u = np.minimum(t, c)
    d = t <= c
    x_star = x + rng.normal(0.0, 0.5, n)
    u_star = np.abs(u + 1.5 + 0.2 * x - 0.3 * z + rng.normal(0.0, 0.6, n))
    return CohortData(u_star, d, x_star, z, time=u, delta=d.astype(float), x=x)


def census(cohort):
    n = cohort.n
    return cohort.with_design(np.ones(n, dtype=bool), np.ones(n)), TwoPhaseDesign(
        np.ones(n, dtype=bool), np.ones(n)
    )


class TestC7Properties:
    """One check per clause of the property-suite criterion."""

    checks = []

    def note(self, name, passed):
        TestC7Properties.checks.append((name, passed))
        assert passed, name

    def test_score_and_information_match_finite_differences(self):
        rng = np.random.default_rng(5)
        n = 60
        x = rng.normal(size=(n, 2))
        data = SurvivalData(
            rng.exponential(1.0, n), rng.random(n) < 0.7, x,
            weights=rng.uniform(0.5, 2.0, n),
        )
        beta = np.array([0.3, -0.2])
        score, info = score_and_information(beta, data)
        h = 1e-6
        for j in range(2):
            step = np.zeros(2)
            step[j] = h
            fd = (
                log_partial_likelihood(beta + step, data)
                - log_partial_likelihood(beta - step, data)
            ) / (2 * h)
            assert_allclose(score[j], fd, rtol=1e-6, atol=1e-8)
        h = 1e-5
        for j in range(2):
            step = np.zeros(2)
            step[j] = h
            s_hi, _ = score_and_information(beta + step, data)
            s_lo, _ = score_and_information(beta - step, data)
            assert_allclose(-info[:, j], (s_hi - s_lo) / (2 * h), rtol=1e-4,
                            atol=1e-6)
        self.note("score/information finite differences", True)

    def test_dfbeta_columns_sum_to_zero(self):
        cohort = property_cohort(1)
        data = SurvivalData(
            cohort.time_star, cohort.delta_star, cohort.phase_one_covariates()
        )
        fit = fit_cox(data)
        dfbeta = dfbeta_residuals(fit, data)
        self.note(
            "dfbeta column sums",
            bool((np.abs(dfbeta.sum(axis=0)) < 1e-6 * cohort.n).all()),
        )

    def test_raking_constraints_and_positive_factors(self):
        rng = np.random.default_rng(7)
        n = 90
        aux = rng.normal(0.0, 1.0, (n, 3))
        selected = rng.random(n) < 0.4
        selected[:4] = True
        design = TwoPhaseDesign(selected, rng.uniform(0.2, 0.9, n))
        solution = solve_raking(design, AuxiliaryMatrix(aux))
        totals = aux.sum(axis=0)
        residual = np.abs(
            aux[selected].T @ solution.weights[selected] - totals
        ).max()
        self.note(
            "raking constraints and g > 0",
            bool(residual <= 1e-8 * (1 + np.abs(totals).max()))
            and bool((solution.g > 0).all()),
        )

    def test_raking_weights_affine_invariant(self):
        rng = np.random.default_rng(9)
        n = 50
        core = rng.normal(0.0, 0.8, (n, 2))
        selected = np.zeros(n, dtype=bool)
        selected[rng.choice(n, 20, replace=False)] = True
        design = TwoPhaseDesign(selected, np.full(n, 0.4))
        transform = np.array([[2.0, 0.3], [-0.5, 1.5]])
        base_lin = solve_raking(design, AuxiliaryMatrix(core))
        mapped_lin = solve_raking(design, AuxiliaryMatrix(core @ transform.T))
        with_one = np.column_stack([np.ones(n), core])
        shifted = np.column_stack(
            [np.ones(n), core @ transform.T + np.array([0.7, -1.2])]
        )
        base_aff = solve_raking(design, AuxiliaryMatrix(with_one))
        mapped_aff = solve_raking(design, AuxiliaryMatrix(shifted))
        assert_allclose(mapped_lin.weights, base_lin.weights, atol=1e-6)
        assert_allclose(mapped_aff.weights, base_aff.weights, atol=1e-6)
        self.note("raking weight affine invariance", True)

    def test_full_validation_collapses_design_estimators(self):
        cohort, design = census(property_cohort(2, n=250))
        truth = fit_cox(
            SurvivalData(
                cohort.time,
                cohort.delta.astype(bool),
                np.column_stack([cohort.x, cohort.z]),
            )
        )
        ht = ht_estimate(cohort, design)
        grn, _ = grn_estimate(cohort, design)
        grrc, _ = grrc_estimate(cohort, design, ErrorMode.BOTH)
        assert_allclose(ht.beta, truth.beta, atol=1e-9)
        assert_allclose(grn.beta, truth.beta, atol=1e-9)
        assert_allclose(grrc.beta, truth.beta, atol=1e-9)
        self.note("census collapse of HT/GRN/GRRC", True)

    def test_error_free_data_collapses_corrected_estimators(self):
        rng = np.random.default_rng(3)
        n = 250
        x = rng.normal(0.0, 1.0, n)
        z = rng.normal(1.0, 1.0, n)
        t = rng.exponential(1.0 / (0.1 * np.exp(0.4 * x + 0.7 * z)))
        c = rng.uniform(2.0, 6.0, n)
        u = np.minimum(t, c)
        d = t <= c
        cohort = CohortData(u, d, x, z, time=u, delta=d.astype(float), x=x)
        cohort, _ = census(cohort)
        truth = fit_cox(
            SurvivalData(u, d, np.column_stack([x, z]))
        )
        rc = rc_fit(cohort, ErrorMode.BOTH)
        rsrc = rsrc_fit(cohort, ErrorMode.BOTH)
        naive = fit_cox(
            SurvivalData(
                cohort.time_star, cohort.delta_star, cohort.phase_one_covariates()
            )
        )
        assert_allclose(rc.beta, truth.beta, atol=1e-9)
        assert_allclose(rsrc.beta, truth.beta, atol=1e-9)
        assert_allclose(naive.beta, truth.beta, atol=1e-12)
        self.note("error-free collapse of RC/RSRC/naive", True)

    def test_raking_newton_matches_grid_oracle(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            n, m = 30, 10
            aux = rng.normal(0.0, 0.5, (n, 2))
            selected = np.zeros(n, dtype=bool)
            selected[rng.choice(n, m, replace=False)] = True
            design = TwoPhaseDesign(selected, np.full(n, m / n))
            solution = solve_raking(design, AuxiliaryMatrix(aux))
            oracle = ref_raking_lambda(selected, design.pi, aux)
            assert_allclose(solution.lambda_, oracle, atol=1e-3)
        self.note("raking Newton vs dual grid oracle", True)

    def test_calibration_matches_least_squares(self):
        cohort = property_cohort(4)
        rng = np.random.default_rng(13)
        selected = np.zeros(cohort.n, dtype=bool)
        selected[rng.choice(cohort.n, 120, replace=False)] = True
        cohort = cohort.with_design(selected, np.full(cohort.n, 120 / cohort.n))
        model = build_calibration(cohort, ErrorMode.BOTH)
        sel = cohort.selected
        design_matrix = np.column_stack(
            [np.ones(sel.sum()), cohort.x_star[sel], cohort.z[sel]]
        )
        zeta_x, *_ = np.linalg.lstsq(design_matrix, cohort.x[sel], rcond=None)
        omega = cohort.time_star[sel] - cohort.time[sel]
        zeta_omega, *_ = np.linalg.lstsq(design_matrix, omega, rcond=None)
        assert_allclose(model.zeta_x, zeta_x, atol=1e-10)
        assert_allclose(model.zeta_omega, zeta_omega, atol=1e-10)
        self.note("calibration moment algebra vs least squares", True)

    def test_generator_moments(self):
        config = ScenarioConfig(
            n=200_000,
            beta_x=math.log(1.5),
            beta_z=math.log(2.0),
            rho_xz=0.25,
            censor_interval=(3.291152, 2.0),
            validation=SamplingPlan.srs(1000),
            sigma2_eps=0.5,
            sigma2_nu=0.5,
            sigma_eps_nu=0.15,
            alpha=(0.0, 0.9, -0.2),
            gamma=(2.0, 0.2, -0.3),
            misclass=(0.9, 0.85),
            reps=1,
            seed=77,
        )
        rng = np.random.default_rng(77)
        cohort = generate_cohort(config, rng)
        x = cohort.x.ravel()
        z = cohort.z.ravel()
        rho = np.corrcoef(x, z)[0, 1]
        eps = cohort.x_star.ravel() - (0.9 * x - 0.2 * z)
        events = cohort.delta == 1.0
        sens = cohort.delta_star[events].mean()
        spec = 1.0 - cohort.delta_star[~events].mean()
        ok = (
            abs(rho - 0.25) < 0.01
            and abs(eps.var() - 0.5) < 0.01
            and abs(sens - 0.9) < 0.01
            and abs(spec - 0.85) < 0.01
        )
        self.note("generator moments", bool(ok))

    def test_deterministic_replay_across_worker_counts(self):
        config = replace(
            load_scenario("correlated_error_moderate"),
            n=300,
            reps=4,
            bootstrap_b=None,
            validation=SamplingPlan.srs(70),
        )
        serial = run_scenario(config, workers=1)
        parallel = run_scenario(config, workers=2)
        self.note("deterministic replay across worker counts", serial == parallel)

    def test_c7_report(self):
        failed = [name for name, passed in TestC7Properties.checks if not passed]
        expected = 10
        ok = not failed and len(TestC7Properties.checks) == expected
        detail = (
            f"{len(TestC7Properties.checks)}/{expected} property checks passed"
            + (f"; failed: {failed}" if failed else "")
        )
        line = report("C7 property suite", ok, detail)
        assert ok, line
