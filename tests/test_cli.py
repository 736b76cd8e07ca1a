"""Tests for the command-line interface against the library API."""

import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from numpy.testing import assert_allclose

import survrake
from survrake.calibration import rc_fit
from survrake.cli import main
from survrake.cox import SurvivalData, fit_cox
from survrake.io import example_dataset_path, load_dataset, load_scenario
from survrake.raking import grn_estimate
from survrake.simulation import run_scenario

EXAMPLE = example_dataset_path()


def read_estimates(path):
    """Parse a fit CSV into {term: (estimate, hazard_ratio, se)}."""
    out = {}
    for line in open(path, encoding="utf-8"):
        if line.startswith("#") or line.startswith("term"):
            continue
        cells = line.strip().split(",")
        se = float(cells[3]) if cells[3] else None
        out[cells[0]] = (float(cells[1]), float(cells[2]), se)
    return out


def manifest_header(path):
    with open(path, encoding="utf-8") as handle:
        first = handle.readline()
        second = handle.readline()
    return first, second


def write_all_validated(tmp_path, n=60, seed=5):
    """Error-free dataset with every subject validated at probability one."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    z = rng.standard_normal(n)
    time = rng.exponential(2.0, n)
    delta = (rng.random(n) < 0.7).astype(int)
    path = tmp_path / "census.csv"
    rows = ["id,time_star,delta_star,x_star,z,randomized,pi,time,delta,x"]
    for i in range(n):
        t, xv, zv = float(time[i]), float(x[i]), float(z[i])
        rows.append(
            f"{i + 1},{t!r},{delta[i]},{xv!r},{zv!r},1,1.0,{t!r},{delta[i]},{xv!r}"
        )
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def write_eventless_validation(tmp_path):
    """Dataset whose validated subset has zero events."""
    rng = np.random.default_rng(11)
    n = 30
    x = rng.standard_normal(n)
    z = rng.standard_normal(n)
    time = rng.exponential(2.0, n)
    rows = ["id,time_star,delta_star,x_star,z,randomized,pi,time,delta,x"]
    for i in range(n):
        validated = i < 8
        delta_star = int(rng.random() < 0.6)
        t, xv, zv = float(time[i]), float(x[i]), float(z[i])
        if validated:
            rows.append(
                f"{i + 1},{t!r},{delta_star},{xv!r},{zv!r},1,0.26,{t!r},0,{xv!r}"
            )
        else:
            rows.append(
                f"{i + 1},{t!r},{delta_star},{xv!r},{zv!r},0,0.26,NA,NA,NA"
            )
    path = tmp_path / "eventless.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def small_scenario_file(tmp_path, **overrides):
    config = load_scenario("outcome_error_moderate").to_dict()
    config.update(
        {"n": 250, "reps": 2, "bootstrap_b": None, "seed": 9,
         "validation": {"kind": "srs", "size": 60, "seed": 0}}
    )
    config.update(overrides)
    path = tmp_path / "small.json"
    path.write_text(json.dumps(config))
    return str(path)


class TestFitCommand:
    def test_naive_matches_library_exactly(self, tmp_path, capsys):
        assert main([
            "fit", EXAMPLE, "--estimator", "naive", "--out", str(tmp_path),
        ]) == 0
        ds = load_dataset(EXAMPLE)
        cohort = ds.to_cohort()
        fit = fit_cox(
            SurvivalData(
                cohort.time_star, cohort.delta_star, cohort.phase_one_covariates()
            )
        )
        table = read_estimates(tmp_path / "fit_naive.csv")
        assert table["x_star"][0] == float(fit.beta[0])
        assert table["z"][0] == float(fit.beta[1])
        assert table["x_star"][1] == math.exp(fit.beta[0])
        out = capsys.readouterr().out
        assert "estimator: naive" in out
        assert "hazard_ratio" in out

    def test_grn_matches_library_exactly(self, tmp_path):
        assert main([
            "fit", EXAMPLE, "--estimator", "grn", "--out", str(tmp_path),
        ]) == 0
        ds = load_dataset(EXAMPLE)
        fit, _ = grn_estimate(ds.to_cohort(), ds.to_design())
        table = read_estimates(tmp_path / "fit_grn.csv")
        assert table["x"][0] == float(fit.beta[0])

    def test_rc_matches_library_exactly(self, tmp_path):
        assert main([
            "fit", EXAMPLE, "--estimator", "rc", "--out", str(tmp_path),
        ]) == 0
        ds = load_dataset(EXAMPLE)
        fit = rc_fit(ds.to_cohort(), "both")
        table = read_estimates(tmp_path / "fit_rc.csv")
        assert table["x"][0] == float(fit.beta[0])

    def test_bundled_dataset_grn_grrc_agreement(self, tmp_path):
        for est in ("naive", "grn", "grrc"):
            assert main([
                "fit", EXAMPLE, "--estimator", est, "--out", str(tmp_path),
            ]) == 0
        naive = read_estimates(tmp_path / "fit_naive.csv")
        grn = read_estimates(tmp_path / "fit_grn.csv")
        grrc = read_estimates(tmp_path / "fit_grrc.csv")
        hr_gap = abs(grn["x"][1] / grrc["x"][1] - 1.0)
        assert hr_gap < 0.02
        assert naive["x_star"][0] < 0.2 < grn["x"][0]

    def test_ht_equals_true_under_full_validation(self, tmp_path):
        census = write_all_validated(tmp_path)
        assert main(["fit", census, "--estimator", "ht",
                     "--out", str(tmp_path)]) == 0
        assert main(["fit", census, "--estimator", "true",
                     "--out", str(tmp_path)]) == 0
        ht = read_estimates(tmp_path / "fit_ht.csv")
        true = read_estimates(tmp_path / "fit_true.csv")
        for term in ("x", "z"):
            assert_allclose(ht[term][0], true[term][0], rtol=0, atol=1e-12)

    def test_bootstrap_columns_and_reruns(self, tmp_path):
        args = ["fit", EXAMPLE, "--estimator", "grn", "--bootstrap", "16",
                "--seed", "5", "--out", str(tmp_path)]
        assert main(args) == 0
        first_csv = (tmp_path / "fit_grn.csv").read_bytes()
        first_txt = (tmp_path / "fit_grn.txt").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "fit_grn.csv").read_bytes() == first_csv
        assert (tmp_path / "fit_grn.txt").read_bytes() == first_txt
        table = read_estimates(tmp_path / "fit_grn.csv")
        assert table["x"][2] is not None and table["x"][2] > 0
        assert main(["fit", EXAMPLE, "--estimator", "grn", "--bootstrap", "16",
                     "--seed", "6", "--out", str(tmp_path),
                     "--prefix", "other"]) == 0
        other = read_estimates(tmp_path / "other.csv")
        assert other["x"][2] != table["x"][2]
        assert other["x"][0] == table["x"][0]

    def test_manifest_header_stamped(self, tmp_path):
        assert main(["fit", EXAMPLE, "--estimator", "naive",
                     "--out", str(tmp_path)]) == 0
        first, second = manifest_header(tmp_path / "fit_naive.csv")
        assert first.startswith("# manifest-sha256: ")
        assert second == "# seed: none\n"
        assert main(["fit", EXAMPLE, "--estimator", "naive", "--bootstrap", "8",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
        assert manifest_header(tmp_path / "fit_naive.csv")[1] == "# seed: 3\n"

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path / "nope.csv"), "--estimator", "naive",
                     "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_truth_needing_estimator_without_truth_exits_2(self, tmp_path, capsys):
        path = tmp_path / "p1.csv"
        path.write_text(
            "id,time_star,delta_star,x_star,z,randomized\n"
            "1,2.0,1,0.5,0.1,0\n2,3.0,0,0.2,0.4,0\n"
        )
        assert main(["fit", str(path), "--estimator", "rc",
                     "--out", str(tmp_path)]) == 2
        assert "truth" in capsys.readouterr().err

    def test_complete_matches_validated_rows_fit(self, tmp_path):
        assert main(["fit", EXAMPLE, "--estimator", "complete",
                     "--out", str(tmp_path)]) == 0
        cohort = load_dataset(EXAMPLE).to_cohort()
        sel = cohort.selected
        fit = fit_cox(
            SurvivalData(
                cohort.time[sel], cohort.delta[sel].astype(bool), cohort.validated_covariates()
            )
        )
        table = read_estimates(tmp_path / "fit_complete.csv")
        assert table["x"][0] == float(fit.beta[0])
        assert table["z"][0] == float(fit.beta[1])

    def test_true_on_partly_validated_dataset_exits_2(self, tmp_path, capsys):
        assert main(["fit", EXAMPLE, "--estimator", "true",
                     "--out", str(tmp_path)]) == 2
        assert "complete" in capsys.readouterr().err
        assert not (tmp_path / "fit_true.csv").exists()

    def test_estimation_failure_exits_3(self, tmp_path, capsys):
        path = write_eventless_validation(tmp_path)
        assert main(["fit", path, "--estimator", "complete",
                     "--out", str(tmp_path)]) == 3
        assert "estimation error" in capsys.readouterr().err

    def test_naive_bootstrap_on_phase_one_only_data(self, tmp_path, capsys):
        # naive needs no validation design, so data without any validated
        # record must bootstrap as well as it fits.
        lines = open(EXAMPLE, encoding="utf-8").read().splitlines()
        header = lines[0].split(",")
        keep = [header.index(name) for name in
                ("id", "time_star", "delta_star", "x_star", "z", "randomized")]
        rows = [",".join(header[i] for i in keep)]
        for line in lines[1:]:
            cells = line.split(",")
            cells[header.index("randomized")] = "0"
            rows.append(",".join(cells[i] for i in keep))
        path = tmp_path / "phase_one.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", str(path), "--estimator", "naive", "--bootstrap", "5",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        se = read_estimates(tmp_path / "fit_naive.csv")["x_star"][2]
        assert se is not None and math.isfinite(se) and se > 0

    def test_unknown_estimator_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["fit", EXAMPLE, "--estimator", "bogus"])
        assert info.value.code == 2
        capsys.readouterr()


class TestSimulateCommand:
    def test_matches_library_exactly(self, tmp_path, capsys):
        scenario = small_scenario_file(tmp_path)
        assert main(["simulate", scenario, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        result = run_scenario(load_scenario(scenario))
        rows = {}
        for line in open(tmp_path / "scenario_small.csv", encoding="utf-8"):
            if line.startswith("#") or line.startswith("estimator"):
                continue
            cells = line.strip().split(",")
            rows[cells[0]] = cells
        for row in result.rows:
            cells = rows[row.estimator]
            assert float(cells[1]) == row.pct_bias
            assert float(cells[4]) == row.ese
            assert float(cells[5]) == row.mse
            assert int(cells[-2]) == row.reps_used

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        scenario = small_scenario_file(tmp_path)
        assert main(["simulate", scenario, "--out", str(tmp_path)]) == 0
        csv_bytes = (tmp_path / "scenario_small.csv").read_bytes()
        txt_bytes = (tmp_path / "scenario_small.txt").read_bytes()
        assert main(["simulate", scenario, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "scenario_small.csv").read_bytes() == csv_bytes
        assert (tmp_path / "scenario_small.txt").read_bytes() == txt_bytes

    def test_alias_and_canonical_name_write_identical_files(self, tmp_path, capsys):
        common = ["--reps", "2", "--no-bootstrap", "--estimators",
                  "true,naive,rc", "--out", str(tmp_path)]
        assert main(["simulate", "table1_row1", *common]) == 0
        path = tmp_path / "scenario_outcome_error_moderate.csv"
        first = path.read_bytes()
        assert main(["simulate", "outcome_error_moderate", *common]) == 0
        capsys.readouterr()
        assert path.read_bytes() == first

    def test_estimator_subset_and_overrides(self, tmp_path, capsys):
        scenario = small_scenario_file(tmp_path)
        assert main(["simulate", scenario, "--estimators", "true,naive",
                     "--reps", "3", "--seed", "4", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        lines = [
            line for line in
            (tmp_path / "scenario_small.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(lines) == 3
        assert lines[1].startswith("true,") and lines[2].startswith("naive,")
        assert lines[1].endswith(",3,0")

    def test_workers_flag_does_not_change_bytes(self, tmp_path, capsys):
        scenario = small_scenario_file(tmp_path)
        assert main(["simulate", scenario, "--estimators", "true,naive,grn",
                     "--out", str(tmp_path)]) == 0
        serial = (tmp_path / "scenario_small.csv").read_bytes()
        assert main(["simulate", scenario, "--estimators", "true,naive,grn",
                     "--workers", "2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "scenario_small.csv").read_bytes() == serial

    def test_list_prints_registry(self, capsys):
        assert main(["simulate", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert "outcome_error_moderate" in out
        assert "table1_row1" in out

    def test_no_scenario_exits_2(self, capsys):
        assert main(["simulate"]) == 2
        capsys.readouterr()

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "who_knows", "--out", str(tmp_path)]) == 2
        assert "known scenarios" in capsys.readouterr().err


class TestTuneCommand:
    def test_reports_solution(self, capsys):
        assert main(["tune-censoring", "outcome_error_moderate",
                     "--subjects", "20000"]) == 0
        out = capsys.readouterr().out
        values = dict(
            line.split(": ") for line in out.strip().split("\n")
        )
        assert abs(float(values["achieved"]) - 0.25) < 0.01
        assert float(values["length"]) == 2.0
        assert int(values["subjects"]) == 20000

    def test_explicit_target(self, capsys):
        assert main(["tune-censoring", "outcome_error_moderate",
                     "--target", "0.4", "--subjects", "20000"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(": ") for line in out.strip().split("\n"))
        assert abs(float(values["achieved"]) - 0.4) < 0.01


class TestVersionCommand:
    def test_prints_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out == f"survrake {survrake.__version__}\n"


class TestImportFootprint:
    def test_fit_loads_no_scipy(self, tmp_path):
        # scipy costs most of a fresh process's start-up, so the analyst's
        # path must load it nowhere: not at import, not in a bootstrap fit.
        script = textwrap.dedent(
            f"""
            import sys
            from survrake.cli import main
            args = ["fit", {str(EXAMPLE)!r}, "--estimator", "grrc", "--bootstrap", "5",
                    "--out", {str(tmp_path)!r}]
            assert main(args) == 0
            print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
            """
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(survrake.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "fit_grrc.csv").exists()
