"""Benchmark workloads: inputs made from the seed, one timed operation each,
and the checks on the program's outputs.

Every workload cycles through a fixed list of operations generated from the
workload seed, so a run that outlasts the list repeats it and each repeat must
reproduce its first outputs exactly. At the default seed the outputs are also
compared with the values in ``reference.json``, recorded from the unmodified
program by ``record_reference.py``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
DEFAULT_SEED = 0
TOLERANCE = 1e-10
CHILD_TIMEOUT_S = 150

NULL_SCENARIO = "correlated_error_null"
GATE_SCENARIOS = (
    "outcome_error_moderate",
    "correlated_error_moderate",
    "correlated_error_large",
    "misclassified_indicator_rare",
    "gamma_mixture_outcome",
)
BOOTSTRAP_ESTIMATORS = frozenset({"rc", "rsrc", "grn", "grrc", "ht"})
MODEL_ESTIMATORS = frozenset({"true", "naive", "complete"})
ROW_FIELDS = ("pct_bias", "type1", "ase", "ese", "mse", "cp", "power")
FIT_COLUMNS = ("estimate", "hazard_ratio", "se", "ci_lower", "ci_upper")


class MissingProgram(Exception):
    """The checkout holds no survrake sources to benchmark."""


def import_survrake():
    """Import survrake from the checkout's ``src``, never from elsewhere."""
    if not (SRC / "survrake" / "__init__.py").is_file():
        raise MissingProgram(f"no survrake package under {SRC}")
    sys.path.insert(0, str(SRC))
    import survrake

    if Path(survrake.__file__).resolve().parent != SRC / "survrake":
        raise MissingProgram(f"imported survrake from {survrake.__file__}, not {SRC}")
    return survrake


def child_env():
    """The inherited environment with the checkout's sources first on the path.

    BLAS thread variables are passed through untouched: pinning them would
    hide the worker oversubscription the parallel workload measures.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv):
    """Run a child to completion; return (exit code, wall seconds, rusage).

    The rusage comes from wait4, so it covers this child and the children
    it reaped, such as a process pool's workers, and nothing else.
    """
    started = time.perf_counter()
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        if proc.returncode:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace"))
    return proc.returncode, wall, usage


def op_seed(seed: int, tag: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, tag, k]).generate_state(1, np.uint32)[0])


def close(got, ref) -> bool:
    if got is None or ref is None:
        return got is None and ref is None
    return abs(got - ref) <= TOLERANCE * max(1.0, abs(ref))


class BadReference(Exception):
    """``reference.json`` is missing or lacks values a check needs."""


def reference_entry(name, seed):
    """The workload's entry in ``reference.json``.

    At the default seed the operations' outputs are required, and
    ``fit_cli`` always needs its point estimate: without them the checks
    would quietly fall back to weaker ones. The set-up probe and
    ``record_reference.py``, which check nothing, give workloads ``{}``.
    """
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            entry = json.load(handle).get(name, {})
    except (OSError, ValueError) as exc:
        raise BadReference(f"cannot read {REFERENCE_PATH}: {exc}") from exc
    required = ["ops"] if seed == DEFAULT_SEED else []
    if name == "fit_cli":
        required.append("point")
    missing = [key for key in required if not entry.get(key)]
    if missing:
        raise BadReference(f"{REFERENCE_PATH} has no {name} {' or '.join(missing)}")
    return entry


# --------------------------------------------------------------- simulation


def row_dicts(result):
    return [asdict(row) for row in result.rows]


def row_invariants(row, config) -> bool:
    """Properties every estimator row has, whatever the seed."""
    if row["reps_used"] + row["n_dropped"] != config.reps or row["reps_used"] < 0:
        return False
    values = [row[f] for f in ROW_FIELDS if row[f] is not None]
    if not all(math.isfinite(v) for v in values):
        return False
    has_se = row["estimator"] in MODEL_ESTIMATORS or config.bootstrap_b is not None
    if row["reps_used"] and (row["ase"] is not None) != has_se:
        return False
    nonneg = [row[f] for f in ("ase", "ese", "mse") if row[f] is not None]
    unit = [row[f] for f in ("type1", "cp", "power") if row[f] is not None]
    return all(v >= 0.0 for v in nonneg) and all(0.0 <= v <= 1.0 for v in unit)


def row_check(config):
    """Checks one estimator row against its reference, or the invariants."""
    def valid(i, row, ref):
        if ref is not None:
            return rows_match(row, ref)
        return row["estimator"] == config.estimators[i] and row_invariants(row, config)
    return valid


def failed_pairs(rows, bad):
    """(replicate, estimator) pairs dropped by the harness or failing a check."""
    return sum(row["n_dropped"] for row in rows) + sum(rows[i]["reps_used"] for i in bad)


def rows_match(got, ref) -> bool:
    return (
        got["estimator"] == ref["estimator"]
        and got["reps_used"] == ref["reps_used"]
        and got["n_dropped"] == ref["n_dropped"]
        and all(close(got[f], ref[f]) for f in ROW_FIELDS)
    )


class Checker:
    """Compares each operation's outputs with the reference (default seed)
    or with the invariants, and with its own first run when it repeats."""

    def __init__(self, reference_ops):
        self.reference_ops = reference_ops
        self.first = {}
        self.problems = []

    def check(self, k, cycle, outputs, valid):
        """Indices of operation k's outputs that fail; ``valid(i, out, ref)``
        checks one, with ref None where there is no reference."""
        slot = k % cycle
        ref = None
        if self.reference_ops is not None:
            ref = self.reference_ops[slot] if slot < len(self.reference_ops) else []
        if ref is not None and len(ref) != len(outputs):
            bad = set(range(len(outputs)))
        else:
            bad = {
                i for i, out in enumerate(outputs)
                if not valid(i, out, None if ref is None else ref[i])
            }
        if self.first.setdefault(slot, outputs) != outputs:
            bad.update(range(len(outputs)))
            self.problems.append(f"op {k}: differs from its first run")
        if bad:
            self.problems.append(f"op {k}: outputs {sorted(bad)} failed the check")
        return bad


class SimulationWorkload:
    """In-process ``run_scenario`` calls, one replicate per operation."""

    kind = "simulation"
    reps_per_op = 1

    def __init__(self, name, seed, workdir, reference):
        self.name, self.seed, self.workdir = name, seed, Path(workdir)
        self.checker = Checker(reference.get("ops") if seed == DEFAULT_SEED else None)
        self.configs = None

    def generate(self, survrake):
        """Generated scenario configs, one per operation in the cycle."""
        io = survrake.io
        if self.name == "null_bootstrap":
            base = [replace(io.load_scenario(NULL_SCENARIO), bootstrap_b=100)]
            cycle, tag = 16, 1
        else:
            base = [replace(io.load_scenario(s), bootstrap_b=None) for s in GATE_SCENARIOS]
            cycle, tag = 50, 2
        return [
            replace(base[k % len(base)], reps=1, seed=op_seed(self.seed, tag, k))
            for k in range(cycle)
        ]

    def prepare(self, survrake):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for k, config in enumerate(self.generate(survrake)):
            path = self.workdir / f"op_{k:03d}.json"
            path.write_text(json.dumps(config.to_dict(), indent=1), encoding="utf-8")

    @property
    def warm_ops(self):
        return len(GATE_SCENARIOS) if self.name == "gate_tables" else 1

    def setup(self, survrake):
        """Load the generated scenarios and run one untimed warm-up operation."""
        paths = sorted(self.workdir.glob("op_*.json"))
        self.configs = [survrake.io.load_scenario(str(p)) for p in paths]
        for config in self.configs[: self.warm_ops]:
            b = config.bootstrap_b
            survrake.simulation.run_scenario(
                replace(config, bootstrap_b=None if b is None else 2)
            )

    def run_op(self, survrake, k, tracer=None):
        """One replicate; returns (wall seconds, attempted, failed)."""
        config = self.configs[k % len(self.configs)]
        started = time.perf_counter()
        result = survrake.simulation.run_scenario(config)
        wall = time.perf_counter() - started
        rows = row_dicts(result)
        bad = self.checker.check(k, len(self.configs), rows, row_check(config))
        return wall, len(rows) * config.reps, failed_pairs(rows, bad)

    def expected_calls(self, n_ops, summary):
        """Span counts the configuration implies for ``n_ops`` replicates."""
        config = self.configs[0]
        est = set(config.estimators)
        b = config.bootstrap_b or 0
        per_est = 1 + b
        n = {e: per_est * (e in est) for e in BOOTSTRAP_ESTIMATORS}
        raked = n["grn"] + n["grrc"]
        expected = {
            "simulation.run_scenario": 1,
            "simulation.generate_cohort": 1,
            "design.draw_validation": 1,
            "design.bootstrap": len(est & BOOTSTRAP_ESTIMATORS) if b else 0,
            "cohort.take": len(est & BOOTSTRAP_ESTIMATORS) * b,
            "cohort.with_design": 1 + raked + n["ht"],
            "calibration.rc_fit": n["rc"],
            "calibration.rsrc_fit": n["rsrc"],
            "cox.fit_blocks": n["rsrc"],
            "raking.grn": n["grn"],
            "raking.grrc": n["grrc"],
            "raking.ht": n["ht"],
            "cox.fit_dfbeta": raked,
            "raking.solve": raked,
            "cox.fit": len(est & MODEL_ESTIMATORS) + n["rc"] + raked + n["ht"],
            "calibration.apply_rc": n["rc"] + n["rsrc"] + n["grrc"],
        }
        expected = {name: count * n_ops for name, count in expected.items()}
        expected["calibration.build"] = (
            expected["calibration.rc_fit"]
            + expected["raking.grrc"]
            + spans.count(summary, "calibration.rsrc_fit", "windows")
            - spans.count(summary, "calibration.rsrc_fit", "fallbacks")
        )
        expected["design.bootstrap.replicates"] = expected["design.bootstrap"] * b
        return expected

    def traced_setup(self, survrake, tracer):
        """Reload the scenarios under the tracer, so io.load_scenario is timed."""
        paths = sorted(self.workdir.glob("op_*.json"))
        tracer.op = 0
        for path in paths:
            survrake.io.load_scenario(str(path))

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ fit CLI


FIT_B = 200
FIT_CYCLE = 8


def read_fit_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return [
        [row["term"], *[float(row[c]) if row[c] else None for c in FIT_COLUMNS]]
        for row in csv.DictReader(lines)
    ]


class FitCliWorkload:
    """Sequential ``survrake fit`` processes: a closed loop with one client."""

    kind = "fit_cli"
    reps_per_op = 1  # one invocation counts as one unit of work

    def __init__(self, name, seed, workdir, reference):
        self.name, self.seed, self.workdir = name, seed, Path(workdir)
        self.point = reference.get("point")
        self.checker = Checker(reference.get("ops") if seed == DEFAULT_SEED else None)
        self.dataset = str(SRC / "survrake" / "data" / "example_two_phase.csv")
        self.boot_seeds = [op_seed(seed, 3, k) for k in range(FIT_CYCLE)]
        self.peak_rss_kb = 0
        self.import_s = []

    def prepare(self, survrake):
        self.workdir.mkdir(parents=True, exist_ok=True)

    def fit_args(self, k):
        return [
            "fit", self.dataset, "--estimator", "grrc", "--bootstrap", str(FIT_B),
            "--seed", str(self.boot_seeds[k % FIT_CYCLE]), "--out", str(self.workdir),
        ]

    def clear_outputs(self):
        """Delete the previous fit's files: rewriting a file costs far more
        than writing a new one on some file systems, and that is not the
        program's cost."""
        csv_path = self.workdir / "fit_grrc.csv"
        for path in (csv_path, csv_path.with_suffix(".txt")):
            path.unlink(missing_ok=True)
        return csv_path

    def setup(self, survrake):
        """Load the dataset and run one untimed warm-up fit in this process."""
        import survrake.cli

        survrake.io.load_dataset(self.dataset)
        self.clear_outputs()
        warm = self.fit_args(0)
        warm[warm.index("--bootstrap") + 1] = "2"
        with open(os.devnull, "w") as sink:
            saved, sys.stdout = sys.stdout, sink
            try:
                code = survrake.cli.main(warm)
            finally:
                sys.stdout = saved
        if code:
            raise RuntimeError(f"warm-up fit exited with {code}")

    def run_op(self, survrake, k, tracer=None):
        """One ``survrake fit`` process; returns (wall seconds, attempted, failed)."""
        csv_path = self.clear_outputs()
        if tracer is None:
            argv = [sys.executable, "-m", "survrake.cli", *self.fit_args(k)]
        else:
            spans_path = self.workdir / "child_spans.json"
            argv = [sys.executable, str(HERE / "probe.py"), "traced-fit", str(spans_path),
                    *self.fit_args(k)]
        code, wall, usage = run_child(argv)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if code:
            self.checker.problems.append(f"op {k}: survrake fit exited with {code}")
            return wall, 1, 1
        if tracer is not None:
            self._merge_spans(tracer, spans_path, k)
        rows = read_fit_csv(csv_path)
        bad = self.checker.check(k, FIT_CYCLE, rows, self._valid_row)
        return wall, 1, int(bool(bad))

    def _valid_row(self, i, row, ref):
        if ref is not None:
            return row[0] == ref[0] and all(close(a, b) for a, b in zip(row[1:], ref[1:]))
        term, estimate, hazard_ratio, se, lower, upper = row
        point = self.point[i] if i < len(self.point) else [None, None, None]
        return (
            term == point[0] and close(estimate, point[1]) and close(hazard_ratio, point[2])
            and math.isfinite(se) and se > 0.0 and lower < upper
        )

    def _merge_spans(self, tracer, path, k):
        with open(path, encoding="utf-8") as handle:
            child = json.load(handle)
        offset = len(tracer.spans)
        for span_id, parent, name, _op, start, end, counts in child["spans"]:
            tracer.spans.append(
                [span_id + offset, parent + offset if parent >= 0 else -1, name, k,
                 start, end, counts]
            )
        self.import_s.append(child["import_s"])

    def expected_calls(self, n_ops, summary):
        per_fit = 1 + FIT_B
        expected = {
            "io.load_dataset": 1,
            "design.bootstrap": 1,
            "design.bootstrap.replicates": FIT_B,
            "cohort.take": FIT_B,
            "raking.grrc": per_fit,
            "cohort.with_design": per_fit,
            "cox.fit_dfbeta": per_fit,
            "raking.solve": per_fit,
            "cox.fit": per_fit,
            "calibration.build": per_fit,
            "calibration.apply_rc": per_fit,
            "io.write": 2,
        }
        return {name: count * n_ops for name, count in expected.items()}

    def peak_rss_mb(self):
        return self.peak_rss_kb / 1024.0


# ----------------------------------------------------------------- parallel


PARALLEL_REPS = 4
PARALLEL_CYCLE = 2


def read_scenario_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    rows = []
    for row in csv.DictReader(lines):
        rows.append({
            "estimator": row["estimator"],
            **{f: float(row[f]) if row[f] else None for f in ROW_FIELDS},
            "reps_used": int(row["reps_used"]),
            "n_dropped": int(row["n_dropped"]),
        })
    return rows


def worker_count():
    return len(os.sched_getaffinity(0))


class ParallelWorkload(SimulationWorkload):
    """``survrake simulate --workers <cores>`` as a subprocess per operation."""

    kind = "parallel"
    reps_per_op = PARALLEL_REPS

    def generate(self, survrake):
        base = replace(survrake.io.load_scenario(NULL_SCENARIO), bootstrap_b=100)
        return [
            replace(base, reps=PARALLEL_REPS, seed=op_seed(self.seed, 4, k))
            for k in range(PARALLEL_CYCLE)
        ]

    def __init__(self, name, seed, workdir, reference):
        super().__init__(name, seed, workdir, reference)
        self.workers = worker_count()
        self.cpu_s, self.walls, self.peak_rss_kb = 0.0, [], 0

    def prepare(self, survrake):
        super().prepare(survrake)
        if self.checker.reference_ops is None:
            # Any seed: the first operation must reproduce a serial run exactly.
            serial = survrake.simulation.run_scenario(self.generate(survrake)[0])
            self.checker.reference_ops = [row_dicts(serial)] + [None] * (PARALLEL_CYCLE - 1)

    def run_op(self, survrake, k, tracer=None):
        slot = k % len(self.configs)
        path = self.workdir / f"op_{slot:03d}.json"
        out = self.workdir / f"out_{slot}"
        shutil.rmtree(out, ignore_errors=True)  # see FitCliWorkload.clear_outputs
        argv = [sys.executable, "-m", "survrake.cli", "simulate", str(path),
                "--workers", str(self.workers), "--out", str(out)]
        code, wall, usage = run_child(argv)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self.cpu_s += usage.ru_utime + usage.ru_stime
        self.walls.append(wall)
        config = self.configs[slot]
        attempted = len(config.estimators) * config.reps
        if code:
            self.checker.problems.append(f"op {k}: survrake simulate exited with {code}")
            return wall, attempted, attempted
        rows = read_scenario_csv(out / f"scenario_op_{slot:03d}.csv")
        bad = self.checker.check(k, len(self.configs), rows, row_check(config))
        return wall, attempted, failed_pairs(rows, bad)

    def pool_cpu(self, n_ops):
        """The children's CPU seconds per replicate, and over wall × workers."""
        return self.cpu_s / (n_ops * PARALLEL_REPS), self.cpu_s / (sum(self.walls) * self.workers)

    def peak_rss_mb(self):
        return self.peak_rss_kb / 1024.0


WORKLOADS = {
    "null_bootstrap": SimulationWorkload,
    "gate_tables": SimulationWorkload,
    "fit_cli": FitCliWorkload,
    "parallel": ParallelWorkload,
}
