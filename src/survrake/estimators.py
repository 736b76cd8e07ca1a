"""The estimator registry shared by ``survrake fit`` and the simulation.

Each name maps to what the estimator reads and how its standard error is
found; ``runner`` builds the ``(cohort, design) -> CoxFit`` callable that
the command line and the Monte Carlo harness both fit and bootstrap. The
registry order is part of the seeding: the simulation keys each
estimator's bootstrap stream by its position, so a reorder changes every
simulated table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import DEFAULT_RSRC_GRID, ErrorMode, Weighting, rc_fit, rsrc_fit
from .cox import SurvivalData, fit_cox
from .raking import grn_estimate, grrc_estimate, ht_estimate

__all__ = ["Estimator", "ESTIMATORS", "ESTIMATOR_NAMES", "runner"]


@dataclass(frozen=True)
class Estimator:
    """What one estimator needs and where its standard error comes from.

    Attributes:
        truth: which true columns it reads: ``"none"``, ``"validated"``
            (the validated rows) or ``"all"`` (every subject).
        needs_design: whether it takes the two-phase design.
        model_se: whether its standard error is the inverse information's
            rather than the stratified bootstrap's.
    """

    truth: str
    needs_design: bool = False
    model_se: bool = False


ESTIMATORS = {
    "true": Estimator("all", model_se=True),
    "naive": Estimator("none", model_se=True),
    "complete": Estimator("validated", model_se=True),
    "ht": Estimator("validated", needs_design=True),
    "rc": Estimator("validated"),
    "rsrc": Estimator("validated"),
    "grn": Estimator("validated", needs_design=True),
    "grrc": Estimator("validated", needs_design=True),
}
ESTIMATOR_NAMES = tuple(ESTIMATORS)


def runner(
    name: str,
    mode: ErrorMode,
    weighting: Weighting = Weighting.UNWEIGHTED,
    grid=DEFAULT_RSRC_GRID,
):
    """The ``(cohort, design) -> CoxFit`` callable for one estimator.

    ``true`` fits the truth of every subject, ``complete`` only the
    validated rows. The raking estimators return their fit without the
    raking solution. The fitting functions are looked up when the callable
    runs, not when it is built.
    """
    fits = {
        "true": lambda c, d: fit_cox(
            SurvivalData(c.time, c.delta.astype(bool), np.column_stack([c.x, c.z]))
        ),
        "naive": lambda c, d: fit_cox(
            SurvivalData(c.time_star, c.delta_star, c.phase_one_covariates())
        ),
        "complete": lambda c, d: fit_cox(
            SurvivalData(
                c.time[c.selected],
                c.delta[c.selected].astype(bool),
                c.validated_covariates(),
            )
        ),
        "ht": lambda c, d: ht_estimate(c, d),
        "rc": lambda c, d: rc_fit(c, mode, weighting),
        "rsrc": lambda c, d: rsrc_fit(c, mode, grid, weighting),
        "grn": lambda c, d: grn_estimate(c, d)[0],
        "grrc": lambda c, d: grrc_estimate(c, d, mode)[0],
    }
    return fits[name]
