"""Command-line interface for fitting, simulating, and censoring tuning.

The commands are thin shells over the library: ``fit`` runs one estimator
on a two-phase CSV dataset, ``simulate`` runs a scenario from the bundled
registry or a JSON file, and ``tune-censoring`` solves a scenario's
censoring interval for a target rate. Outputs are deterministic for a
given seed and carry the run manifest hash, so reruns produce identical
bytes. Exit codes: 0 on success, 2 for input or configuration problems,
3 when an estimator's numerics fail.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .calibration import Weighting
from .design import stratified_bootstrap
from .errors import EstimationError, InputError, InvalidConfigError
from .estimators import ESTIMATORS, runner
from .io import (
    RunManifest,
    canonical_scenario_name,
    format_fit_text,
    format_scenario_text,
    list_scenarios,
    load_dataset,
    load_scenario,
    write_fit_csv,
    write_scenario_csv,
    write_text,
)
from .simulation import run_scenario, tune_censoring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survrake",
        description=(
            "Proportional-hazards estimation under correlated covariate and "
            "event-time measurement error with two-phase validation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="run one estimator on a two-phase CSV dataset")
    fit.add_argument("dataset", help="path to the analysis CSV file")
    fit.add_argument(
        "--estimator", required=True, choices=tuple(ESTIMATORS),
        help="which estimator to run",
    )
    fit.add_argument(
        "--error-mode", default="both",
        choices=("covariate-only", "outcome-only", "both"),
        help="which observed quantities carry error (default: both)",
    )
    fit.add_argument(
        "--weighting", choices=("unweighted", "ipw"), default="unweighted",
        help="how calibration regressions weight validated records",
    )
    fit.add_argument(
        "--bootstrap", type=int, default=0, metavar="B",
        help="stratified bootstrap replicates for SE/CI (default: none)",
    )
    fit.add_argument(
        "--ci-level", type=float, default=0.95, help="bootstrap interval level"
    )
    fit.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    fit.add_argument("--out", default=".", help="output directory")
    fit.add_argument(
        "--prefix", default=None,
        help="output file stem (default: fit_<estimator>)",
    )

    sim = sub.add_parser(
        "simulate", help="run a benchmark scenario by name or JSON path"
    )
    sim.add_argument(
        "scenario", nargs="?", default=None,
        help="registry name (see --list) or path to a scenario JSON file",
    )
    sim.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list bundled scenario names and exit",
    )
    sim.add_argument("--reps", type=int, default=None, help="override replications")
    sim.add_argument(
        "--bootstrap", type=int, default=None, metavar="B",
        help="override bootstrap replicates per estimator",
    )
    sim.add_argument(
        "--no-bootstrap", action="store_true",
        help="disable the bootstrap entirely",
    )
    sim.add_argument("--seed", type=int, default=None, help="override the root seed")
    sim.add_argument(
        "--estimators", default=None,
        help="comma-separated estimator subset, e.g. true,naive,rc",
    )
    sim.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: SURVRAKE_WORKERS or 1)",
    )
    sim.add_argument("--out", default=".", help="output directory")

    tune = sub.add_parser(
        "tune-censoring",
        help="solve a scenario's censoring interval for a target rate",
    )
    tune.add_argument("scenario", help="registry name or scenario JSON path")
    tune.add_argument(
        "--target", type=float, default=None,
        help="censoring fraction to hit (default: the scenario's target)",
    )
    tune.add_argument("--tolerance", type=float, default=0.005)
    tune.add_argument(
        "--subjects", type=int, default=100_000,
        help="cohort size of the tuning pre-run",
    )

    sub.add_parser("version", help="print the package version")
    return parser


def _coefficient_names(estimator: str, dataset) -> tuple[str, ...]:
    if estimator == "naive":
        return (*dataset.x_star_names, *dataset.z_names)
    names = dataset.x_names if dataset.x_names else dataset.x_star_names
    return (*names, *dataset.z_names)


def _cmd_fit(args) -> int:
    dataset = load_dataset(args.dataset)
    estimator = ESTIMATORS[args.estimator]
    if estimator.truth != "none" and dataset.time is None:
        raise InvalidConfigError(
            f"estimator {args.estimator} needs the validated truth columns, "
            "which the dataset does not carry"
        )
    cohort = dataset.to_cohort()
    if estimator.truth == "all" and not cohort.selected.all():
        raise InvalidConfigError(
            f"estimator {args.estimator} fits the truth of every subject, but only "
            f"{cohort.n_selected} of {cohort.n} are validated; "
            "--estimator complete fits the validated rows"
        )
    design = dataset.to_design() if estimator.needs_design else None
    weighting = Weighting(args.weighting)
    fit_fn = runner(args.estimator, args.error_mode, weighting)
    beta = np.asarray(fit_fn(cohort, design).beta, dtype=float)
    names = _coefficient_names(args.estimator, dataset)
    if len(names) != beta.shape[0]:
        names = tuple(f"coef{i + 1}" for i in range(beta.shape[0]))

    se = ci_lower = ci_upper = None
    if args.bootstrap:
        boot = stratified_bootstrap(
            cohort,
            design,
            fit_fn,
            args.bootstrap,
            seed=args.seed,
            ci_level=args.ci_level,
        )
        se = np.asarray(boot.se, dtype=float)
        ci_lower = np.asarray(boot.ci[:, 0], dtype=float)
        ci_upper = np.asarray(boot.ci[:, 1], dtype=float)

    prefix = args.prefix or f"fit_{args.estimator}"
    csv_path = os.path.join(args.out, f"{prefix}.csv")
    txt_path = os.path.join(args.out, f"{prefix}.txt")
    manifest = RunManifest(
        command="fit",
        inputs=(args.dataset,),
        outputs=(csv_path, txt_path),
        seed=args.seed if args.bootstrap else None,
        settings=(
            ("bootstrap", str(args.bootstrap)),
            ("ci_level", repr(float(args.ci_level))),
            ("error_mode", args.error_mode),
            ("estimator", args.estimator),
            ("weighting", weighting.value),
        ),
    )
    os.makedirs(args.out, exist_ok=True)
    write_fit_csv(csv_path, names, beta, manifest, se, ci_lower, ci_upper)
    text = format_fit_text(args.estimator, names, beta, se, ci_lower, ci_upper)
    write_text(txt_path, text, manifest)
    sys.stdout.write(text)
    return 0


def _cmd_simulate(args) -> int:
    if args.list_scenarios:
        for name in list_scenarios():
            sys.stdout.write(name + "\n")
        return 0
    if args.scenario is None:
        raise InvalidConfigError("simulate needs a scenario name or JSON path")
    config = load_scenario(args.scenario)
    if args.scenario.endswith(".json") or os.sep in args.scenario:
        stem = os.path.splitext(os.path.basename(args.scenario))[0]
        source = args.scenario
    else:
        stem = canonical_scenario_name(args.scenario)
        source = stem
    overrides = {}
    if args.reps is not None:
        overrides["reps"] = args.reps
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.no_bootstrap:
        overrides["bootstrap_b"] = None
    elif args.bootstrap is not None:
        overrides["bootstrap_b"] = args.bootstrap
    if args.estimators is not None:
        overrides["estimators"] = tuple(
            part.strip() for part in args.estimators.split(",") if part.strip()
        )
    if overrides:
        config = replace(config, **overrides)
    result = run_scenario(config, workers=args.workers)

    csv_path = os.path.join(args.out, f"scenario_{stem}.csv")
    txt_path = os.path.join(args.out, f"scenario_{stem}.txt")
    b_setting = "none" if config.bootstrap_b is None else str(config.bootstrap_b)
    manifest = RunManifest(
        command="simulate",
        inputs=(source,),
        outputs=(csv_path, txt_path),
        seed=config.seed,
        settings=(
            ("bootstrap_b", b_setting),
            ("estimators", ",".join(config.estimators)),
            ("reps", str(config.reps)),
            ("scenario", stem),
        ),
    )
    os.makedirs(args.out, exist_ok=True)
    write_scenario_csv(csv_path, result, manifest)
    text = format_scenario_text(result)
    write_text(txt_path, text, manifest)
    sys.stdout.write(text)
    return 0


def _cmd_tune(args) -> int:
    config = load_scenario(args.scenario)
    tuned = tune_censoring(
        config, target=args.target, tolerance=args.tolerance, n=args.subjects
    )
    sys.stdout.write(
        f"lower: {tuned.lower!r}\n"
        f"length: {tuned.length!r}\n"
        f"achieved: {tuned.achieved!r}\n"
        f"subjects: {tuned.n_subjects}\n"
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "tune-censoring":
            return _cmd_tune(args)
        sys.stdout.write(f"survrake {__version__}\n")
        return 0
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except EstimationError as exc:
        sys.stderr.write(f"estimation error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
