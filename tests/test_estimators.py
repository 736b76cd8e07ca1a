"""Tests for the estimator registry shared by ``fit`` and ``simulate``."""

from dataclasses import replace

import numpy as np
from numpy.testing import assert_allclose, assert_array_equal

from survrake import estimators, simulation
from survrake.calibration import ErrorMode
from survrake.cox import CoxFit, fit_cox
from survrake.design import SamplingPlan, draw_validation
from survrake.estimators import ESTIMATOR_NAMES, runner
from survrake.io import load_scenario
from survrake.raking import grn_estimate, grrc_estimate
from survrake.simulation import _boot_seed, generate_cohort

BOTH = ErrorMode.BOTH

# _boot_seed(config, 0, name) for the bundled correlated_error_null scenario
# (seed 20260822). The bootstrap stream of every estimator is keyed by its
# registry position, so a reordered registry changes these and every table.
RECORDED_BOOT_SEEDS = {
    "true": 10553621105094117060,
    "naive": 16316325680737623048,
    "complete": 314993006383576252,
    "ht": 10404847554254244762,
    "rc": 9741653142792178030,
    "rsrc": 10386535690688978724,
    "grn": 18059189411347184841,
    "grrc": 5947911035755840735,
}

# beta on small_cohort_and_design() for each corrected estimator and error
# mode (ht and grn ignore the mode). A refactor of the calibration or raking
# layers must reproduce these to rounding.
RECORDED_BETAS = {
    ("rc", "covariate-only"): [-0.022295576754793867, 1.0889451864476671],
    ("rsrc", "covariate-only"): [-0.03844649937399389, 1.09514035498253],
    ("grrc", "covariate-only"): [0.39415309940622706, 0.740715883597793],
    ("rc", "outcome-only"): [0.1580153593839334, 0.783348992972895],
    ("rsrc", "outcome-only"): [0.15529923705999363, 0.836774721445659],
    ("grrc", "outcome-only"): [0.40847415720648983, 0.7359799572678954],
    ("rc", "both"): [0.30566194626839877, 0.7193474101906845],
    ("rsrc", "both"): [0.2800325644417728, 0.8029157630263675],
    ("grrc", "both"): [0.400478619597719, 0.7278013501069744],
    ("ht", "both"): [0.43375676200546154, 0.7675556803101073],
    ("grn", "both"): [0.39415309940622706, 0.7407158835977928],
}


def small_cohort_and_design(seed=3):
    config = replace(load_scenario("correlated_error_moderate"), n=300)
    cohort = generate_cohort(config, np.random.default_rng(seed))
    design = draw_validation(cohort, SamplingPlan.srs(90, seed=seed))
    return cohort.with_design(design.selected, design.pi), design


class TestRegistry:
    def test_order_is_pinned(self):
        assert ESTIMATOR_NAMES == (
            "true", "naive", "complete", "ht", "rc", "rsrc", "grn", "grrc"
        )
        assert simulation.ESTIMATOR_NAMES is ESTIMATOR_NAMES

    def test_bootstrap_seeds_match_recorded_streams(self):
        config = load_scenario("correlated_error_null")
        seeds = {name: _boot_seed(config, 0, name) for name in ESTIMATOR_NAMES}
        assert seeds == RECORDED_BOOT_SEEDS


class TestRunner:
    def test_raking_runners_return_the_fit(self):
        cohort, design = small_cohort_and_design()
        grn = runner("grn", BOTH)(cohort, design)
        grrc = runner("grrc", BOTH)(cohort, design)
        assert isinstance(grn, CoxFit) and isinstance(grrc, CoxFit)
        assert_array_equal(grn.beta, grn_estimate(cohort, design)[0].beta)
        assert_array_equal(grrc.beta, grrc_estimate(cohort, design, BOTH)[0].beta)

    def test_true_fits_every_subject(self):
        cohort, design = small_cohort_and_design()
        true = runner("true", BOTH)(cohort, design)
        assert cohort.n_selected < cohort.n
        assert true.n_events == int(cohort.delta.sum())

    def test_corrected_estimates_match_recorded_values(self):
        cohort, design = small_cohort_and_design()
        for (name, mode), beta in RECORDED_BETAS.items():
            fit = runner(name, mode)(cohort, design)
            assert_allclose(fit.beta, beta, rtol=1e-12, err_msg=f"{name} {mode}")

    def test_fitting_functions_are_looked_up_when_called(self, monkeypatch):
        # Tracing and profiling tools rebind module attributes; a runner
        # that captured the function when it was built would bypass them.
        cohort, design = small_cohort_and_design()
        naive = runner("naive", BOTH)
        calls = []

        def recording_fit(data, options=None):
            calls.append(data.n)
            return fit_cox(data, options)

        monkeypatch.setattr(estimators, "fit_cox", recording_fit)
        naive(cohort, design)
        assert calls == [cohort.n]
