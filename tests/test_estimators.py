"""Tests for the estimator registry shared by ``fit`` and ``simulate``."""

from dataclasses import replace

import numpy as np
from numpy.testing import assert_array_equal

from survrake import estimators, simulation
from survrake.calibration import ErrorModelSpec
from survrake.cox import CoxFit, fit_cox
from survrake.design import SamplingPlan, draw_validation
from survrake.estimators import ESTIMATOR_NAMES, runner
from survrake.io import load_scenario
from survrake.raking import grn_estimate, grrc_estimate
from survrake.simulation import _boot_seed, generate_cohort

BOTH = ErrorModelSpec("both")

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
