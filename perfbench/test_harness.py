"""Self-test of the benchmark harness, at toy size.

    python3 -m pytest perfbench/test_harness.py

Runs every workload for a fraction of a second, traced and untraced, and
checks that the result names every metric in BENCHMARK.json; then breaks the
checker's inputs in a copy of the checkout (a reference value, the reference
file, the program itself) and checks that the run fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

BENCHMARK = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DECLARED = {key: {m["name"] for m in BENCHMARK[key]} for key in ("end_to_end", "per_layer")}

# Per-layer metrics that must be nonzero where the workload exercises the layer.
EXERCISED = {
    "null_bootstrap": (
        "cox.fit.calls", "cox.fit_dfbeta.calls", "cox.fit_blocks.calls",
        "calibration.rsrc_fit.calls", "calibration.rsrc.windows_mean",
        "raking.solve.calls", "cohort.rebuild.calls", "design.bootstrap.replicates",
        "simulation.generate_cohort.self_ms", "simulation.pool.cpu_s_per_rep",
    ),
    "gate_tables": (
        "cox.fit.calls", "cox.fit_blocks.calls", "calibration.rsrc_fit.calls",
        "calibration.build.calls", "raking.solve.calls", "io.load_scenario.ms",
        "simulation.generate_cohort.self_ms", "simulation.pool.cpu_util",
    ),
    "fit_cli": (
        "cox.fit_dfbeta.calls", "raking.solve.calls", "design.bootstrap.replicates",
        "io.load_dataset.ms", "io.write.ms", "io.write.bytes", "cli.import_s",
    ),
    "parallel": ("simulation.pool.cpu_s_per_rep", "simulation.pool.cpu_util"),
}


def run(*args, root=wl.ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


def checkout(tmp_path, with_program=True):
    """A copy of the benchmark, BENCHMARK.json and (optionally) the sources."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=ignore)
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    if with_program:
        shutil.copytree(wl.SRC, tmp_path / wl.SRC.name, ignore=ignore)
    return tmp_path


def edit_reference(root, edit):
    path = root / HERE.name / wl.REFERENCE_PATH.name
    reference = json.loads(path.read_text(encoding="utf-8"))
    edit(reference)
    path.write_text(json.dumps(reference), encoding="utf-8")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_every_metric_is_reported(workload, trace):
    code, result, err = run("--workload", workload, "--seconds", "0.2", "--trace", str(trace))
    assert code == 0, err
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == DECLARED["end_to_end" if trace == 0 else "per_layer"]
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert all(result["metrics"][name]["value"] > 0 for name in EXERCISED[workload])


@pytest.mark.parametrize("workload", ["gate_tables", "fit_cli"])
def test_corrupted_reference_is_a_failed_operation(workload, tmp_path):
    def corrupt(reference):
        if workload == "fit_cli":
            reference["fit_cli"]["ops"][0][0][3] *= 1.0 + 1e-8  # the first term's se
        else:
            reference["gate_tables"]["ops"][0][3]["mse"] *= 1.0 + 1e-8  # rc's mse

    root = checkout(tmp_path)
    edit_reference(root, corrupt)
    code, result, _ = run("--workload", workload, "--seconds", "0.2", root=root)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


@pytest.mark.parametrize("workload, seed, key", [
    ("gate_tables", wl.DEFAULT_SEED, "ops"),
    ("fit_cli", wl.DEFAULT_SEED, "ops"),
    ("fit_cli", wl.DEFAULT_SEED + 1, "point"),
])
def test_incomplete_reference_is_an_error(workload, seed, key, tmp_path):
    root = checkout(tmp_path)
    edit_reference(root, lambda reference: reference[workload].pop(key))
    code, result, err = run("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                            root=root)
    assert code != 0
    assert result is None
    assert f"has no {workload} {key}" in err


def test_missing_reference_is_an_error(tmp_path):
    root = checkout(tmp_path)
    (root / HERE.name / wl.REFERENCE_PATH.name).unlink()
    code, result, err = run("--workload", "gate_tables", "--seconds", "0.2", root=root)
    assert code != 0
    assert result is None
    assert "cannot read" in err


def test_undeclared_metric_is_an_error(tmp_path):
    root = checkout(tmp_path)
    kept = [m for m in BENCHMARK["end_to_end"] if m["name"] != "peak_rss_mb"]
    benchmark = {**BENCHMARK, "end_to_end": kept}
    (root / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    code, result, err = run("--workload", "gate_tables", "--seconds", "0.2", root=root)
    assert code != 0
    assert result is None
    assert "peak_rss_mb" in err


def test_fails_without_the_program(tmp_path):
    root = checkout(tmp_path, with_program=False)
    code, result, err = run("--workload", "gate_tables", "--seconds", "0.2", root=root)
    assert code != 0
    assert result is None
    assert "no survrake package" in err
