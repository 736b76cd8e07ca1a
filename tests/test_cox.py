"""Proportional-hazards fitter checked against independent slow oracles."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import brentq

from survrake import (
    CoxOptions,
    SurvivalData,
    dfbeta_residuals,
    fit_cox,
    fit_cox_blocks,
    log_partial_likelihood,
    score_and_information,
)
from survrake import calibration
from survrake.calibration import rsrc_fit
from survrake.design import draw_validation
from survrake.errors import (
    InputError,
    NoEventsError,
    NonFiniteInputError,
    SingularInformationError,
)

from survrake.io import load_scenario
from survrake.simulation import generate_cohort

from reference import (
    ref_fit,
    ref_information,
    ref_loglik,
    ref_score,
    ref_score_terms,
    ref_sweep,
)


def random_dataset(rng, n=40, p=2, tie_fraction=0.3, censor=0.3):
    """Small survival dataset with deliberate ties for oracle comparisons."""
    x = rng.normal(size=(n, p))
    time = rng.exponential(scale=np.exp(-(x @ np.full(p, 0.4))))
    # Round a fraction of the times onto a coarse grid to force exact ties.
    tied = rng.random(n) < tie_fraction
    time[tied] = np.round(time[tied], 1) + 0.05
    event = rng.random(n) > censor
    if not event.any():
        event[0] = True
    w = rng.uniform(0.5, 2.0, size=n)
    return time, event, x, w


class TestFitAgainstBruteForce:
    def test_small_random_datasets(self):
        rng = np.random.default_rng(20240811)
        for _ in range(5):
            time, event, x, w = random_dataset(rng)
            fit = fit_cox(SurvivalData(time, event, x, w))
            assert fit.converged
            oracle = ref_fit(time, event, x, w)
            assert_allclose(fit.beta, oracle, atol=2e-6)
            # The oracle never reaches a higher likelihood than Newton.
            assert ref_loglik(fit.beta, time, event, x, w) >= ref_loglik(oracle, time, event, x, w) - 1e-9

    def test_two_groups_alternating_event_times(self):
        # Binary covariate, event times interleaved between the groups so
        # the maximizer is interior. The reference value is the root of the
        # independently coded score function.
        time = np.array([1.0, 3.0, 5.0, 7.0, 2.0, 4.0, 6.0, 8.0])
        x = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])[:, None]
        event = np.ones(8, dtype=bool)
        w = np.ones(8)
        root = brentq(lambda b: ref_score(np.array([b]), time, event, x, w)[0], -5.0, 5.0, xtol=1e-14)
        fit = fit_cox(SurvivalData(time, event, x))
        assert fit.converged
        assert_allclose(fit.beta[0], root, atol=1e-8)
        assert_allclose(fit.beta, ref_fit(time, event, x, w), atol=1e-7)

    def test_two_groups_separated_event_times(self):
        # All group-0 events precede all group-1 events, so the likelihood
        # increases monotonically as the coefficient falls: there is no
        # finite maximizer. The fit should stop on a flat score with its
        # likelihood at the analytic supremum -2*log(24) and a large
        # negative coefficient, mirroring what standard software reports
        # under monotone likelihood.
        time = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        x = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])[:, None]
        event = np.ones(8, dtype=bool)
        fit = fit_cox(SurvivalData(time, event, x))
        assert fit.converged
        assert fit.beta[0] < -10
        assert_allclose(fit.loglik, -2 * np.log(24.0), atol=1e-6)

    def test_tied_event_times_match_oracle(self):
        time = np.array([2.0, 2.0, 2.0, 5.0, 5.0, 9.0, 9.0, 12.0])
        event = np.array([1, 1, 0, 1, 1, 1, 0, 1], dtype=bool)
        x = np.array([[0.5], [-0.2], [1.1], [0.0], [0.9], [-1.3], [0.4], [0.8]])
        fit = fit_cox(SurvivalData(time, event, x))
        assert_allclose(fit.beta, ref_fit(time, event, x, np.ones(8)), atol=2e-6)


class TestScoreAndInformation:
    def test_matches_reference_formulas(self):
        rng = np.random.default_rng(7)
        time, event, x, w = random_dataset(rng, n=30)
        data = SurvivalData(time, event, x, w)
        for beta in (np.zeros(2), np.array([0.3, -0.7]), np.array([-1.2, 0.4])):
            score, info = score_and_information(beta, data)
            assert_allclose(score, ref_score(beta, time, event, x, w), rtol=1e-10, atol=1e-10)
            assert_allclose(info, ref_information(beta, time, event, x, w), rtol=1e-10, atol=1e-10)
            assert_allclose(
                log_partial_likelihood(beta, data),
                ref_loglik(beta, time, event, x, w),
                rtol=1e-12,
            )

    def test_score_is_likelihood_gradient(self):
        rng = np.random.default_rng(11)
        time, event, x, w = random_dataset(rng, n=35)
        data = SurvivalData(time, event, x, w)
        beta = np.array([0.25, -0.5])
        score, info = score_and_information(beta, data)
        h = 1e-5
        for j in range(2):
            step = np.zeros(2)
            step[j] = h
            fd = (
                log_partial_likelihood(beta + step, data)
                - log_partial_likelihood(beta - step, data)
            ) / (2 * h)
            assert_allclose(score[j], fd, rtol=1e-6)

    def test_information_is_minus_score_jacobian(self):
        rng = np.random.default_rng(13)
        time, event, x, w = random_dataset(rng, n=35)
        data = SurvivalData(time, event, x, w)
        beta = np.array([0.1, 0.6])
        _, info = score_and_information(beta, data)
        h = 1e-5
        for j in range(2):
            step = np.zeros(2)
            step[j] = h
            up, _ = score_and_information(beta + step, data)
            down, _ = score_and_information(beta - step, data)
            fd = -(up - down) / (2 * h)
            assert_allclose(info[:, j], fd, rtol=1e-4)


def evaluate_blocks(blocks, beta):
    """Log likelihood, score and information of the fitter at ``beta``."""
    fit = fit_cox_blocks(blocks, CoxOptions(max_iterations=0, initial=beta))
    return fit.loglik, fit.score, fit.information


def loop_oracle(beta, time, event, x, w):
    return tuple(f(beta, time, event, x, w) for f in (ref_loglik, ref_score, ref_information))


def oracle_blocks(blocks, beta, oracle=loop_oracle):
    """Oracle values summed over blocks, each block on its own risk sets."""
    per_block = [oracle(beta, b.time, b.event, b.covariates, b.weights) for b in blocks]
    return [sum(parts) for parts in zip(*per_block)]


def assert_matches_oracle(blocks, beta, oracle=None):
    loglik, score, info = evaluate_blocks(blocks, beta)
    want_ll, want_score, want_info = oracle or oracle_blocks(blocks, beta)
    # The score vanishes near the solution, so it is compared on the scale
    # of its event terms rather than relative to itself.
    scale = sum(float(b.weights[b.event] @ np.abs(b.covariates[b.event]).sum(axis=1)) for b in blocks)
    assert_allclose(loglik, want_ll, rtol=1e-12)
    assert_allclose(score, want_score, rtol=1e-12, atol=1e-12 * scale)
    assert_allclose(info, want_info, rtol=1e-12, atol=1e-12 * np.abs(want_info).max())


@pytest.fixture(scope="module")
def rsrc_window_blocks():
    """The window blocks rsrc_fit builds on one bundled-scenario cohort."""
    config = load_scenario("correlated_error_null")
    cohort = generate_cohort(config, np.random.default_rng(2024))
    design = draw_validation(cohort, config.validation)
    cohort = cohort.with_design(design.selected, design.pi)
    captured = []

    def capture(blocks, options=None, n_subjects=None):
        captured.extend(blocks)
        return fit_cox_blocks(blocks, options, n_subjects)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calibration, "fit_cox_blocks", capture)
        fit = rsrc_fit(cohort, config.error_mode, config.rsrc_grid, config.weighting)
    return captured, fit.beta


class TestMomentSweep:
    """The head cumsum plus tail sum against the risk-set loops."""

    def test_every_event_at_earliest_time(self):
        # Every record is at risk at every event, so the whole risk set of
        # each event is the tied group plus the tail.
        time = np.array([1.0, 1.0, 1.0, 2.0, 3.5, 4.0])
        event = np.array([True, True, True, False, False, False])
        x = np.array([[0.3, -1.0], [1.2, 0.4], [-0.7, 0.1], [0.5, 0.9], [-1.1, -0.3], [0.2, 1.5]])
        w = np.array([1.0, 2.5, 0.7, 1.3, 0.9, 1.8])
        blocks = [SurvivalData(time, event, x, w)]
        for beta in (np.zeros(2), np.array([0.6, -0.4])):
            assert_matches_oracle(blocks, beta)

    def test_ties_at_last_event_time(self):
        time = np.array([3.0, 1.0, 5.0, 5.0, 5.0, 2.0, 5.0, 7.0, 6.0])
        event = np.array([True, False, True, False, True, True, True, False, False])
        x = np.array([[0.3], [-1.0], [1.2], [0.4], [-0.7], [0.1], [0.5], [0.9], [-1.1]])
        w = np.linspace(0.5, 2.1, 9)
        blocks = [SurvivalData(time, event, x, w)]
        for beta in (np.zeros(1), np.array([0.8]), np.array([-1.5])):
            assert_matches_oracle(blocks, beta)

    def test_block_without_events(self):
        rng = np.random.default_rng(61)
        time, event, x, w = random_dataset(rng, n=30)
        quiet = SurvivalData(rng.uniform(0.1, 3.0, 12), np.zeros(12, dtype=bool), rng.normal(size=(12, 2)))
        blocks = [SurvivalData(time, event, x, w), quiet]
        for beta in (np.zeros(2), np.array([0.4, -0.9])):
            assert_matches_oracle(blocks, beta)
        split = fit_cox_blocks(blocks)
        assert_allclose(split.beta, fit_cox(blocks[0]).beta, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 3])
    def test_covariate_counts_with_weights(self, p):
        rng = np.random.default_rng(67 + p)
        time, event, x, w = random_dataset(rng, n=50, p=p)
        blocks = [SurvivalData(time, event, x, w)]
        fit = fit_cox(blocks[0])
        for beta in (np.zeros(p), fit.beta, fit.beta + 0.3):
            assert_matches_oracle(blocks, beta)

    def test_rsrc_window_blocks(self, rsrc_window_blocks):
        blocks, beta_hat = rsrc_window_blocks
        assert len(blocks) > 5
        # Most records of a window block run through to the window's end,
        # after its last event, so the tail carries most of each block.
        for beta in (np.zeros(2), beta_hat):
            assert_matches_oracle(blocks, beta)

    def test_rsrc_window_blocks_match_full_cumsum_sweep(self, rsrc_window_blocks):
        blocks, beta_hat = rsrc_window_blocks
        for beta in (np.zeros(2), beta_hat, beta_hat + 0.3):
            assert_matches_oracle(blocks, beta, oracle_blocks(blocks, beta, ref_sweep))

class TestInfluenceResiduals:
    def test_per_record_terms_sum_to_score(self):
        # The score decomposition holds at any beta, not only the optimum.
        rng = np.random.default_rng(17)
        time, event, x, w = random_dataset(rng, n=25)
        beta = np.array([0.4, -0.3])
        terms = ref_score_terms(beta, time, event, x, w)
        assert_allclose(terms.sum(axis=0), ref_score(beta, time, event, x, w), atol=1e-10)

    def test_matches_reference_decomposition(self):
        rng = np.random.default_rng(19)
        for p in (1, 2, 3):
            time, event, x, w = random_dataset(rng, n=25, p=p)
            data = SurvivalData(time, event, x, w)
            fit = fit_cox(data)
            dfb = dfbeta_residuals(fit, data)
            expected = ref_score_terms(fit.beta, time, event, x, w) @ np.linalg.inv(fit.information)
            assert_allclose(dfb, expected, rtol=1e-12, atol=1e-12)

    def test_singular_information_raises(self):
        rng = np.random.default_rng(31)
        time, event, x, w = random_dataset(rng, n=30)
        data = SurvivalData(time, event, x, w)
        fit = fit_cox(data)
        for bad in (np.ones((2, 2)), np.array([[np.nan, 0.0], [0.0, 1.0]]), np.full((2, 2), np.inf)):
            singular = replace(fit, information=bad)
            with pytest.raises(SingularInformationError):
                dfbeta_residuals(singular, data)
            with pytest.raises(SingularInformationError):
                singular.covariance()

    def test_columns_sum_to_zero_at_solution(self):
        rng = np.random.default_rng(23)
        time, event, x, w = random_dataset(rng, n=60)
        data = SurvivalData(time, event, x, w)
        fit = fit_cox(data, CoxOptions(compute_dfbetas=True))
        assert fit.dfbetas is not None
        assert_allclose(fit.dfbetas.sum(axis=0), np.zeros(2), atol=1e-6)

    def test_single_event_expands_by_hand(self):
        # One event at x=1 with risk-set covariates {0, 1, 3}: the score
        # equation reduces to 2*exp(3b) = 1, so beta = -log(2)/3 exactly,
        # and every influence term expands in closed form. The record
        # censored before the event carries zero influence.
        time = np.array([4.0, 6.0, 9.0, 2.0])
        event = np.array([True, False, False, False])
        x = np.array([[1.0], [0.0], [3.0], [5.0]])
        data = SurvivalData(time, event, x)
        fit = fit_cox(data)
        beta = -np.log(2.0) / 3.0
        assert_allclose(fit.beta[0], beta, atol=1e-10)
        s0 = 1.0 + np.exp(beta) + np.exp(3 * beta)
        info = (np.exp(beta) + 9 * np.exp(3 * beta)) / s0 - 1.0  # xbar = x_event = 1
        assert_allclose(fit.information[0, 0], info, rtol=1e-9)
        dfb = dfbeta_residuals(fit, data)
        # The event record's own term vanishes because xbar equals its x.
        assert_allclose(dfb[0, 0], 0.0, atol=1e-10)
        assert_allclose(dfb[1, 0], (1.0 / s0) / info, rtol=1e-9)
        assert_allclose(dfb[2, 0], -np.exp(3 * beta) * (1.0 / s0) * (3.0 - 1.0) / info, rtol=1e-9)
        assert_allclose(dfb[3, 0], 0.0, atol=1e-12)

    def test_approximates_leave_one_out(self):
        # The oracle is one exact deletion refit per record. The one-step
        # residual tracks those changes to within 15% in each coefficient
        # coordinate by column norm, with near-perfect correlation; the
        # residual-vs-refit gap is second order in the per-record influence,
        # so it concentrates in the few highest-influence records.
        rng = np.random.default_rng(44)
        n = 50
        x = rng.uniform(-1, 1, size=(n, 2))
        time = rng.exponential(scale=np.exp(-x @ np.full(2, 0.2)))
        event = rng.random(n) > 0.1
        data = SurvivalData(time, event, x)
        fit = fit_cox(data)
        dfb = dfbeta_residuals(fit, data)
        loo = np.zeros_like(dfb)
        keep = np.ones(n, dtype=bool)
        for i in range(n):
            keep[i] = False
            loo[i] = fit.beta - fit_cox(SurvivalData(time[keep], event[keep], x[keep])).beta
            keep[i] = True
        col_err = np.linalg.norm(dfb - loo, axis=0) / np.linalg.norm(loo, axis=0)
        assert np.all(col_err < 0.15), col_err
        for j in range(2):
            assert np.corrcoef(dfb[:, j], loo[:, j])[0, 1] > 0.99


class TestInvariances:
    def test_weight_scaling_leaves_fit_unchanged(self):
        rng = np.random.default_rng(31)
        time, event, x, w = random_dataset(rng, n=45)
        base = fit_cox(SurvivalData(time, event, x, w))
        scaled = fit_cox(SurvivalData(time, event, x, w * 3.7))
        assert_allclose(scaled.beta, base.beta, atol=1e-10)
        # Scaling weights by c scales each event term by c and adds
        # c*log(c) times the event weight inside the risk-set log.
        w_events = w[event].sum()
        assert_allclose(scaled.loglik, 3.7 * (base.loglik - w_events * np.log(3.7)), rtol=1e-10)

    def test_covariate_translation_leaves_fit_unchanged(self):
        rng = np.random.default_rng(37)
        time, event, x, w = random_dataset(rng, n=45)
        base = fit_cox(SurvivalData(time, event, x, w))
        shifted = fit_cox(SurvivalData(time, event, x + np.array([5.0, -3.0]), w))
        assert_allclose(shifted.beta, base.beta, atol=1e-9)
        assert_allclose(shifted.loglik, base.loglik, rtol=1e-9)

    def test_integer_weight_equals_duplication(self):
        time = np.array([1.0, 2.0, 3.0, 5.0])
        event = np.array([True, True, False, True])
        x = np.array([[0.2], [-0.4], [1.0], [0.3]])
        weighted = fit_cox(SurvivalData(time, event, x, np.array([2.0, 1.0, 1.0, 1.0])))
        dup = fit_cox(
            SurvivalData(
                np.concatenate([[1.0], time]),
                np.concatenate([[True], event]),
                np.vstack([[0.2], x]),
            )
        )
        assert_allclose(weighted.beta, dup.beta, atol=1e-10)

    def test_zero_covariate_column_raises(self):
        rng = np.random.default_rng(41)
        time, event, x, w = random_dataset(rng, n=30)
        x = np.column_stack([x, np.zeros(30)])
        with pytest.raises(SingularInformationError):
            fit_cox(SurvivalData(time, event, x, w))

    def test_rerun_is_bit_identical(self):
        rng = np.random.default_rng(43)
        time, event, x, w = random_dataset(rng, n=40)
        first = fit_cox(SurvivalData(time, event, x, w))
        second = fit_cox(SurvivalData(time, event, x, w))
        assert_array_equal(first.beta, second.beta)
        assert first.loglik == second.loglik


class TestBlocks:
    def test_split_at_cut_equals_single_fit(self):
        # Splitting follow-up at a cut point, with crossers censored at the
        # cut in the early block and reborn in the late one, leaves the
        # partial likelihood unchanged record for record.
        rng = np.random.default_rng(47)
        time, event, x, w = random_dataset(rng, n=60)
        cut = np.median(time)
        early = SurvivalData(np.minimum(time, cut), event & (time <= cut), x, w)
        late_mask = time > cut
        late = SurvivalData(time[late_mask], event[late_mask], x[late_mask], w[late_mask])
        split = fit_cox_blocks([early, late])
        whole = fit_cox(SurvivalData(time, event, x, w))
        assert split.n_events == whole.n_events
        assert_allclose(split.beta, whole.beta, atol=1e-10)
        assert_allclose(split.loglik, whole.loglik, rtol=1e-12)

    def test_subject_labels_aggregate_influence(self):
        rng = np.random.default_rng(53)
        time, event, x, w = random_dataset(rng, n=60)
        cut = np.median(time)
        labels = np.arange(60)
        early = SurvivalData(np.minimum(time, cut), event & (time <= cut), x, w, subject=labels)
        late_mask = time > cut
        late = SurvivalData(
            time[late_mask], event[late_mask], x[late_mask], w[late_mask], subject=labels[late_mask]
        )
        split = fit_cox_blocks([early, late], CoxOptions(compute_dfbetas=True), n_subjects=60)
        whole_data = SurvivalData(time, event, x, w)
        whole = fit_cox(whole_data)
        assert_allclose(split.dfbetas, dfbeta_residuals(whole, whole_data), atol=1e-10)


class TestEdgesAndValidation:
    def test_no_events_raises(self):
        with pytest.raises(NoEventsError):
            fit_cox(SurvivalData([1.0, 2.0], [False, False], [[0.1], [0.2]]))

    def test_negative_time_rejected(self):
        with pytest.raises(InputError):
            SurvivalData([-1.0, 2.0], [True, False], [[0.1], [0.2]])

    def test_nan_covariate_rejected(self):
        with pytest.raises(NonFiniteInputError):
            SurvivalData([1.0, 2.0], [True, False], [[np.nan], [0.2]])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InputError):
            SurvivalData([1.0, 2.0], [True, False], [[0.1], [0.2]], weights=[0.0, 1.0])

    def test_zero_iterations_returns_start_unconverged(self):
        time = np.array([1.0, 2.0, 3.0])
        event = np.array([True, True, False])
        x = np.array([[0.5], [-0.5], [0.2]])
        data = SurvivalData(time, event, x)
        fit = fit_cox(data, CoxOptions(max_iterations=0))
        assert not fit.converged
        assert fit.iterations == 0
        assert_array_equal(fit.beta, np.zeros(1))
        score, info = score_and_information(np.zeros(1), data)
        assert_allclose(fit.score, score, atol=1e-14)
        assert_allclose(fit.information, info, atol=1e-14)

    def test_model_standard_errors_match_information(self):
        rng = np.random.default_rng(59)
        time, event, x, w = random_dataset(rng, n=50)
        fit = fit_cox(SurvivalData(time, event, x, w))
        assert_allclose(
            fit.standard_errors(),
            np.sqrt(np.diag(np.linalg.inv(fit.information))),
            rtol=1e-9,
        )
